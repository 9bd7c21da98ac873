"""One round of one workload in a fresh interpreter.

    python3 bench/child.py SPEC_JSON

Reads the spec written by run.py, imports ``actbij`` from the checkout's
``src``, loads the instance files (set-up), runs the workload's CLI
command bodies and prints one JSON object: timings, peak memory, the
printed lines cut into operations, the commands' exit codes and, when the
spec asks for it, the per-layer figures of the traced round.  A fresh interpreter per round means every library ``lru_cache``
starts empty, as it does for a CLI user.

Host-speed correction: the shared 2-vCPU reference host changes speed by
tens of percent within seconds.  A 0.1 s interval timer interrupts the round
and times a fixed calibration slice (benchmark code, not library code)
wherever the program is.  Each stretch between two calibrations is
rescaled by CAL_REF_S / (median of the eight calibrations around it), so
a slow spell of the host does not read as a slow program.  Time spent in
calibration counts as zero.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Typical calibration time on the reference host (2 vCPU Xeon, Python
# 3.11.7); reported times are seconds at that host's typical speed.
CAL_REF_S = 0.0007
CAL_EVERY_S = 0.1
CAL_WINDOW = 8

_POOL = tuple(frozenset((i * k) % 61 for k in range(1, 7)) for i in range(1, 512))
_SIZES = {k: k * k for k in range(13)}


def calibrate() -> float:
    """The fastest of three timings of a fixed slice of small-set work:
    frozenset unions and differences, tuple building and dict lookups over
    a 100 kB pool.  Taking the fastest drops interrupts; collection is
    paused so the library's heap cannot change the cost."""
    enabled = gc.isenabled()
    gc.disable()
    pool, sizes, acc = _POOL, _SIZES, 0
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for i in range(300):
            a = pool[i % 511]
            b = pool[(i * 37) % 511]
            c = (a | b) - pool[(i * 101) % 511]
            pair = (len(c), i & 7)
            acc += sizes.get(pair[0], 1) + pair[1]
        best = min(best, perf_counter() - t0)
    if enabled:
        gc.enable()
    return best


class SpeedClock:
    """Calibrates every CAL_EVERY_S on a timer and maps raw
    ``perf_counter`` stamps to host-speed-corrected elapsed seconds."""

    def __init__(self):
        self.cals: list[tuple[float, float, float]] = []  # (start, end, slice time)
        self._busy = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        value = calibrate()
        self.cals.append((start, perf_counter(), value))
        self._busy = False

    def __enter__(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def _factor(self, k: int) -> float:
        """Scale of the stretch that ends at calibration k."""
        values = [c for _, _, c in self.cals[max(0, k - CAL_WINDOW // 2): k + CAL_WINDOW // 2]]
        return CAL_REF_S / statistics.median(values)

    def elapsed(self, stamps: list[float]) -> tuple[list[float], list[float]]:
        """(corrected, raw) elapsed time at each of the increasing stamps,
        counted from the first; calibration time is left out of both."""
        corrected, raw = [], []
        fixed = plain = 0.0
        prev, k = stamps[0], 0
        for t in stamps:
            while k < len(self.cals) and self.cals[k][0] < t:
                start, end, _ = self.cals[k]
                piece = max(0.0, start - prev)
                fixed += piece * self._factor(k)
                plain += piece
                prev = max(prev, end)
                k += 1
            piece = max(0.0, t - prev)
            fixed += piece * self._factor(k)
            plain += piece
            prev = max(prev, t)
            corrected.append(fixed)
            raw.append(plain)
        return corrected, raw


def import_library():
    sys.path.insert(0, str(SRC))
    import actbij

    if Path(actbij.__file__).resolve().parent != (SRC / "actbij").resolve():
        raise ImportError(f"actbij imported from {actbij.__file__}, not from {SRC}")


def peak_rss_mb() -> float:
    """This process's own peak resident memory (VmHWM).  ``ru_maxrss`` is
    not used: across fork and exec it keeps the parent's high-water mark."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def diffs(values: list[float]) -> list[float]:
    return [b - a for a, b in zip(values, values[1:])]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import_library()
    sys.path.insert(0, str(HERE))
    import workloads
    from actbij import graphs

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    out = workloads.Lines()
    setup_stamps: list[float] = []
    error = None
    exits = {}
    with SpeedClock() as clock:
        # set-up: read the instance files into oriented matroids
        setup_stamps.append(perf_counter())
        for _ in range(spec["setup_reps"]):
            oms = {}
            for role, path in spec["files"].items():
                with open(path, encoding="utf-8") as handle:
                    oms[role] = graphs.parse_file(handle.read())
            setup_stamps.append(perf_counter())
        start = perf_counter()
        try:
            exits = workloads.RUN[spec["workload"]](oms, spec["sample"], out)
        except Exception:  # an operation raised: the rest of the round is lost
            error = traceback.format_exc(limit=-3)
        end = perf_counter()
    peak_mb = peak_rss_mb()

    ops = workloads.operations(out.lines)
    setup_fixed, setup_raw = clock.elapsed(setup_stamps)
    op_fixed, op_raw = clock.elapsed([start, *(stamp for _, _, stamp in ops), end])
    result = {
        "setup_s": diffs(setup_fixed),
        "setup_raw_s": diffs(setup_raw),
        "op_s": diffs(op_fixed)[: len(ops)],
        "wall_s": op_fixed[-1],
        "wall_raw_s": op_raw[-1],
        "calibration_s": [c for _, _, c in clock.cals],
        "peak_rss_mb": peak_mb,
        "outputs": [[kind, lines] for kind, lines, _ in ops],
        "exits": exits,
        "error": error,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write(spec["trace_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
