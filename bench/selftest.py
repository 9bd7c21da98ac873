"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs each workload once, in this process, on K4 (data/k4.graph with a
seeded reference orientation) in every role, and
  1. requires the real rows to pass every output check;
  2. feeds the checks deliberately corrupted rows and requires each
     corruption to be rejected.
Prints one line per case; exits 0 when every case holds.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (sets up the paths of the checkout)

sys.path.insert(0, str(run.SRC))
import instances  # noqa: E402
import workloads  # noqa: E402
from actbij import graphs  # noqa: E402

ROLES = {
    "forward-sweep": ("sweep", "sample"),
    "inverse-tutte": ("table",),
    "verify-suite": ("k4",),
}


def k4_spec(workload: str, out: Path) -> dict:
    vertices, edges = instances.read_graph(run.DATA / "k4.graph")
    edges, _ = instances.reoriented(edges, instances.random.Random(7))
    path = out / "k4.graph"
    path.write_text(instances.graph_text(vertices, edges), encoding="utf-8")
    roles = ROLES[workload]
    spec = {
        "files": {role: str(path) for role in roles},
        "graphs": {role: (vertices, edges) for role in roles},
        "sample": [],
    }
    if workload == "forward-sweep":
        spec["sample"] = [instances.subset_token(mask, len(edges)) for mask in range(0, 64, 5)]
    return spec


def run_in_process(workload: str, spec: dict) -> dict:
    oms = {}
    for role, path in spec["files"].items():
        with open(path, encoding="utf-8") as handle:
            oms[role] = graphs.parse_file(handle.read())
    out = workloads.Lines()
    exits = workloads.RUN[workload](oms, spec["sample"], out)
    ops = workloads.operations(out.lines)
    return {"outputs": [[kind, lines] for kind, lines, _ in ops], "exits": exits}


def edit(result: dict, kind: str, change) -> dict:
    """A copy of the result with ``change(rows)`` applied to the line lists
    of one kind, in order."""
    bad = copy.deepcopy(result)
    rows = [entry for entry in bad["outputs"] if entry[0] == kind]
    change(rows)
    return bad


def repeat_image(rows):
    fields = rows[1][1][0].split("\t")
    fields[1] = rows[0][1][0].split("\t")[1]
    rows[1][1][0] = "\t".join(fields)


def swap_images(rows):
    first = rows[0][1][0]
    second = next(r for r in rows if r[1][0] != first)
    rows[0][1][0], second[1][0] = second[1][0], first


def move_theta(rows):
    row = next(r for r in rows if r[1][0].split("\t")[4] != "-")
    fields = row[1][0].split("\t")
    fields[4], fields[5] = "-", ",".join(x for x in (fields[4], fields[5]) if x != "-")
    row[1][0] = "\t".join(fields)


def table_fields(change):
    def apply(rows):
        fields = [r[1][0].split("\t") for r in rows]
        change(fields)
        for r, f in zip(rows, fields):
            r[1][0] = "\t".join(f)
    return apply


def drop_member(fields):
    f = next(f for f in fields if " " in f[2])
    f[2] = f[2].rsplit(" ", 1)[0]


def move_member(fields):
    src = next(f for f in fields if " " in f[2])
    dst = next(f for f in fields if f is not src)
    member = src[2].rsplit(" ", 1)[1]
    src[2] = src[2].rsplit(" ", 1)[0]
    dst[2] += " " + member


def member_out_of_range(fields):
    f = next(f for f in fields if " " in f[2])
    f[2] = f[2].rsplit(" ", 1)[0] + " 16"


def coefficient_off_by_one(rows):
    lines = rows[0][1]
    i, j, c = lines[1].split("\t")
    lines[1] = f"{i}\t{j}\t{int(c) + 1}"


CORRUPTIONS = {
    "forward-sweep": [
        ("refined: one image repeated", "refined", repeat_image),
        ("refined: one element moved from theta to thetabar", "refined", move_theta),
        ("refined: one row dropped", "refined", lambda rows: rows[-1][1].clear()),
        ("alpha: two images swapped", "alpha", swap_images),
        ("alpha: an image that is a triangle", "alpha", lambda rows: rows[0][1].__setitem__(0, "1,2,3")),
    ],
    "inverse-tutte": [
        ("table: a class with a member dropped", "table", table_fields(drop_member)),
        ("table: a member moved to another class", "table", table_fields(move_member)),
        ("table: a member replaced by a set outside the ground set", "table",
         table_fields(member_out_of_range)),
        ("table: a basis that is a triangle", "table",
         table_fields(lambda fields: fields[0].__setitem__(3, "1,2,3"))),
        ("table: one row dropped", "table", lambda rows: rows[-1][1].clear()),
        ("tutte: one coefficient off by one", "tutte:bases", coefficient_off_by_one),
        ("tutte: orientation route printed wrong", "tutte:orientations",
         lambda rows: rows[0][1].__setitem__(1, rows[0][1][1] + " + 1")),
        ("tutte: agree=3/4", "tutte:reorientation-sum", lambda rows: rows[0][1].__setitem__(1, "agree=3/4")),
    ],
    "verify-suite": [
        ("verify: one check reported FAIL", "verify:k4",
         lambda rows: rows[3][1].__setitem__(0, "FAIL activity-duality: A=[1]")),
        ("verify: one check line missing", "verify:k4", lambda rows: rows[-1][1].clear()),
    ],
}


def main() -> int:
    cases = []
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT) as tmp:
        for workload, corruptions in CORRUPTIONS.items():
            spec = k4_spec(workload, Path(tmp))
            result = run_in_process(workload, spec)
            checker = run.Checker(workload, spec)
            cases.append((f"{workload}: real rows pass", checker.failed_ops(result) == (0, 0)))
            for label, kind, change in corruptions:
                bad = edit(result, kind, change)
                bad["outputs"] = [entry for entry in bad["outputs"] if entry[1]]
                cases.append((f"{label}: rejected", checker.failed_ops(bad)[0] > 0))
            for command in checker.commands[-1:]:
                bad = copy.deepcopy(result)
                bad["exits"][command] = 1
                cases.append((f"{command}: exit code 1: rejected", checker.failed_ops(bad)[0] > 0))
    for label, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
