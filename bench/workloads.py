"""What each workload runs: the bodies of the named `actbij` commands.

Each workload calls the CLI's own command functions (``cli._cmd_refined``,
``_cmd_alpha``, ``_cmd_table``, ``_cmd_tutte``, ``_cmd_verify``) on
instances loaded beforehand, writing to a ``Lines`` stream that keeps
every printed line with the time it was completed.  ``operations`` then
cuts the printed lines into operations: one `refined` or `table` row, one
`alpha` call, one Tutte route, one `verify` line.
"""

from __future__ import annotations

from argparse import Namespace
from time import perf_counter

from actbij import cli

# The names `actbij verify` prints, in its order.
CHECK_NAMES = (
    "structure",
    "pivot-property",
    "compose-support",
    "activity-duality",
    "filtration-duality",
    "bounded-minors",
    "class-invariance",
    "fixed-representative",
    "bijection",
    "activity-preservation",
    "refined-bijection",
    "full-optimality-uniqueness",
    "alpha-duality",
    "active-duality",
    "recursive-definitions",
    "tutte-routes",
    "class-counts",
    "interval-unions",
    "filtration-uniqueness",
)

class Lines:
    """A text stream for the command bodies: each completed line is kept
    as (command, stamp, text), stamped when its newline is written."""

    def __init__(self):
        self.lines: list[tuple[str, float, str]] = []
        self.command = ""
        self._partial = ""

    def write(self, text: str) -> int:
        stamp = perf_counter()
        *done, self._partial = (self._partial + text).split("\n")
        self.lines.extend((self.command, stamp, line) for line in done)
        return len(text)


def _call(out, exits, command, body, m, **args) -> None:
    """Run one command body; a command's exit code is the worst of its calls."""
    out.command = command
    exits[command] = max(exits.get(command, 0), body(m, Namespace(**args), out))


def forward_sweep(oms, sample, out) -> dict[str, int]:
    """`actbij refined` on the sweep instance, `actbij alpha` per sampled token."""
    exits: dict[str, int] = {}
    _call(out, exits, "refined", cli._cmd_refined, oms["sweep"])
    for token in sample:
        _call(out, exits, "alpha", cli._cmd_alpha, oms["sample"], reorient=token)
    return exits


def inverse_tutte(oms, sample, out) -> dict[str, int]:
    """`actbij table` and `actbij tutte --check`."""
    exits: dict[str, int] = {}
    _call(out, exits, "table", cli._cmd_table, oms["table"])
    _call(out, exits, "tutte", cli._cmd_tutte, oms["table"], check=True)
    return exits


def verify_suite(oms, sample, out) -> dict[str, int]:
    """`actbij verify` per instance."""
    exits: dict[str, int] = {}
    for role, m in oms.items():
        _call(out, exits, f"verify:{role}", cli._cmd_verify, m)
    return exits


RUN = {
    "forward-sweep": forward_sweep,
    "inverse-tutte": inverse_tutte,
    "verify-suite": verify_suite,
}

HEADED = ("refined", "table")  # commands whose first line is a column header

# The line that ends each Tutte route of `tutte --check`.  `route bases`
# is printed after the orientation route has run, so it goes with that one.
TUTTE_ENDS = (
    ("bases", "t(x,y) = "),
    ("orientations", "route\torientations\t"),
    ("subset-sum", "route\tsubset-sum\t"),
    ("reorientation-sum", "agree="),
)
TUTTE_ROUTES = tuple(route for route, _ in TUTTE_ENDS)


def operations(lines) -> list[tuple[str, list[str], float]]:
    """(kind, lines, end stamp) of every operation, in order.  Kinds are
    `refined`, `alpha`, `table`, `tutte:<route>` and `verify:<role>`."""
    ops: list[tuple[str, list[str], float]] = []
    pending: list[str] = []
    seen: set[str] = set()
    route = 0
    for command, stamp, text in lines:
        if command in HEADED and command not in seen:
            seen.add(command)
            continue
        if command != "tutte":
            ops.append((command, [text], stamp))
            continue
        pending.append(text)
        if route < len(TUTTE_ENDS) and text.startswith(TUTTE_ENDS[route][1]):
            ops.append((f"tutte:{TUTTE_ENDS[route][0]}", pending, stamp))
            pending, route = [], route + 1
    if pending:  # lines after the last route: kept, so a check sees them
        ops.append(("tutte:extra", pending, lines[-1][1]))
    return ops
