"""The actbij benchmark: one run of one workload.

    python3 bench/run.py --workload forward-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  It writes the seeded instance files,
then runs whole rounds of the workload, each in a fresh interpreter
(bench/child.py), until the next round would end after --seconds.  Every
round's rows are checked against computations made apart from the
program (bench/checks.py).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the rounds):
wall_s, setup_s, peak_rss_mb.  --trace 1 runs one plain round and one
traced round instead and reports the per-layer metrics of the traced
one, plus trace.overhead_s.  The result is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"

# Set-up repetitions per round: enough that one round parses for about
# half a second even where set-up is only milliseconds.
SETUP_REPS = {"forward-sweep": 3, "inverse-tutte": 3, "verify-suite": 150}
ROUND_TIMEOUT_S = 80


def run_round(spec_path: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        capture_output=True, text=True, timeout=ROUND_TIMEOUT_S, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"round failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


class Checker:
    """Computes the independent references once, then checks rounds."""

    def __init__(self, workload: str, spec: dict):
        sys.path.insert(0, str(SRC))
        import checks
        import workloads

        self.checks, self.workloads = checks, workloads
        self.workload, self.spec = workload, spec
        graphs = spec["graphs"]
        self.trees = {role: checks.spanning_tree_count(*g) for role, g in graphs.items()}
        # operations one round attempts, by kind, from the benchmark's own
        # counts; and the commands whose exit code must be 0
        if workload == "forward-sweep":
            self.expected = {"refined": 1 << len(graphs["sweep"][1]), "alpha": len(spec["sample"])}
            self.commands = ("refined", "alpha")
        elif workload == "inverse-tutte":
            self.expected = {"table": self.trees["table"]}
            self.expected.update({f"tutte:{r}": 1 for r in workloads.TUTTE_ROUTES})
            self.commands = ("table", "tutte")
        else:
            self.expected = {f"verify:{role}": len(workloads.CHECK_NAMES) for role in graphs}
            self.commands = tuple(self.expected)
        self.planned = sum(self.expected.values())
        if workload == "forward-sweep":
            from actbij import graphs as parsing
            from actbij import bijection

            self.tutte = checks.networkx_tutte(*graphs["sweep"])
            with open(spec["files"]["sample"], encoding="utf-8") as handle:
                self.sample_om = parsing.parse_file(handle.read())
            self.inverse = bijection.alpha_inverse_class
        elif workload == "inverse-tutte":
            self.tutte = checks.networkx_tutte(*graphs["table"])

    def failed_ops(self, result: dict) -> tuple[int, int]:
        """(failed, wrong): planned operations of the round that raised,
        never ran or printed a wrong row, and of those the ones that
        printed a wrong row."""
        checks, spec = self.checks, self.spec
        by_kind: dict[str, list[tuple[int, list[str]]]] = {}
        for i, (kind, lines) in enumerate(result["outputs"]):
            by_kind.setdefault(kind, []).append((i, lines))
        single = {
            kind: [(i, lines[0]) for i, lines in rows if len(lines) == 1]
            for kind, rows in by_kind.items()
        }
        bad: set[int] = set()
        if self.workload == "forward-sweep":
            bad |= checks.check_refined(
                single.get("refined", []), len(spec["graphs"]["sweep"][1]), self.tutte
            )
            bad |= checks.check_alpha(
                single.get("alpha", []), spec["sample"], spec["graphs"]["sample"],
                self.sample_om, self.inverse,
            )
        elif self.workload == "inverse-tutte":
            bad |= checks.check_table(
                single.get("table", []), spec["graphs"]["table"], self.trees["table"], self.tutte
            )
            routes = {kind: rows[0] for kind, rows in by_kind.items() if kind.startswith("tutte:")}
            bad |= checks.check_tutte(routes, self.tutte)
        else:
            for role in spec["files"]:
                rows = by_kind.get(f"verify:{role}", [])
                bad |= checks.check_verify(rows, self.workloads.CHECK_NAMES)
        for command in self.commands:
            code = result["exits"].get(command)  # None: the command raised
            if code not in (0, None):
                bad |= {i for i, (kind, _) in enumerate(result["outputs"])
                        if kind == command or kind.startswith(command + ":")}
        good = {}
        for i, (kind, _) in enumerate(result["outputs"]):
            if i not in bad:
                good[kind] = good.get(kind, 0) + 1
        failed = sum(want - min(good.get(kind, 0), want) for kind, want in self.expected.items())
        return failed, len(bad)


def wall_time(rounds: list[dict]) -> float:
    """Sum over operations of each operation's median time across the
    rounds: a slow spell of the host in one round does not move it.
    Rounds that stopped early fall back to the median round total."""
    ops = [r["op_s"] for r in rounds]
    if len({len(o) for o in ops}) == 1:
        return sum(statistics.median(times) for times in zip(*ops))
    return statistics.median(r["wall_s"] for r in rounds)


def measure(spec_path, seconds, checker) -> tuple[list[dict], int, int]:
    rounds, failed, wrong = [], 0, 0
    start = time.perf_counter()
    longest = 0.0
    while not rounds or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        result = run_round(spec_path)
        longest = max(longest, time.perf_counter() - t0)
        if result["error"]:
            print(result["error"], file=sys.stderr)
        f, w = checker.failed_ops(result)
        failed, wrong = failed + f, wrong + w
        rounds.append(result)
    return rounds, failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "actbij" / "__init__.py", DATA / "k4.graph", BENCHMARK) if not p.is_file()]
    if missing:
        print(f"error: not a checkout of the program; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    config = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in config["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import instances

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as tmp:
        tmp = Path(tmp)
        spec = instances.make(args.workload, args.seed, DATA, tmp)
        checker = Checker(args.workload, spec)
        spec.update(workload=args.workload, trace=0, setup_reps=SETUP_REPS[args.workload])
        spec_path = tmp / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

        if args.trace:
            plain = run_round(spec_path)
            trace_path = OUT / f"{tag}.spans.json"
            spec.update(trace=1, setup_reps=1, trace_path=str(trace_path))
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            traced = run_round(spec_path)
            rounds = [plain, traced]
            failed, wrong = map(sum, zip(*(checker.failed_ops(r) for r in rounds)))
            layers = traced["layers"]
            layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            metrics = {
                m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                for m in config["per_layer"]
            }
        else:
            rounds, failed, wrong = measure(spec_path, args.seconds, checker)
            values = {
                "wall_s": wall_time(rounds),
                "setup_s": statistics.median(s for r in rounds for s in r["setup_s"]),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            }
            metrics = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in config["end_to_end"]
            }
        attempted = len(rounds) * checker.planned

    summary = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "rounds": [
            {k: r[k] for k in ("wall_s", "wall_raw_s", "setup_s", "setup_raw_s",
                               "op_s", "calibration_s", "peak_rss_mb")}
            for r in rounds
        ],
        **summary,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
