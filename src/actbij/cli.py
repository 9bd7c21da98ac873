"""Command-line front end emitting TSV tables and verification reports.

Element sets are rendered as comma-joined ascending indices, the empty
set as ``-``.  Output is byte-deterministic for a given input and flags.
Exit codes: 0 success, 1 verification failure, 2 parse/usage errors,
3 internal error (an unexpected exception, reported on one line).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from operator import or_

from . import activities, bijection, core, tutte, verify
from .activities import (
    Filtration,
    _flips,
    _interval_table,
    _interval_walk,
    active_filtration_orientation,
)
from .bijection import active_basis, alpha_inverse_class
from .core import (
    GroundSetTooLarge,
    InvalidOrientedMatroid,
    OrientedMatroid,
    is_basis,
)
from .graphs import ParseError, _format_mask, format_elements, parse_file, parse_reorientation
from .tutte import _reorientation_histogram, _shifted_coefficients, tutte_from_bases, tutte_from_orientations


def _chain_string(f: Filtration) -> str:
    """The chain of the filtration, the cyclic flat starred."""
    chain = itertools.accumulate(f.masks, or_, initial=0)
    return " < ".join(
        _format_mask(s) + ("*" if i == f.cyclic_index else "") for i, s in enumerate(chain)
    )


def _partition_string(f: Filtration) -> str:
    return "|".join(
        _format_mask(p) + ("*" if i < f.cyclic_index else "") for i, p in enumerate(f.masks)
    )


def _load(path: str) -> OrientedMatroid:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not a UTF-8 text file: {exc}") from None
    return parse_file(text)


def _cmd_tutte(m: OrientedMatroid, args, out) -> int:
    by_bases = tutte_from_bases(m)
    print("i\tj\tb", file=out)
    for (i, j), c in by_bases.items():
        print(f"{i}\t{j}\t{c}", file=out)
    print(f"t(x,y) = {by_bases}", file=out)
    if not args.check:
        return 0
    agree = 1
    try:  # a failed divisibility self-test is a mismatch too, not an internal error
        by_orientations = tutte_from_orientations(m)
    except AssertionError:
        by_orientations = "mismatch"
    print(f"route\tbases\t{by_bases}", file=out)
    print(f"route\torientations\t{by_orientations}", file=out)
    if by_orientations == by_bases:
        agree += 1
    routes = {"subset-sum": True, "reorientation-sum": _reorientation_histogram(m) == _shifted_coefficients(by_bases)}
    try:  # the subset sum is t(x+u, y+v) exactly when the basis intervals partition 2^E
        _interval_walk(m)
    except AssertionError:  # a mismatch, not an internal error
        routes["subset-sum"] = False
    for name, ok in routes.items():
        agree += ok
        print(f"route\t{name}\t{'ok' if ok else 'mismatch'}", file=out)
    print(f"agree={agree}/4", file=out)
    return 0 if agree == 4 else 1


def _cmd_activities(m: OrientedMatroid, args, out) -> int:
    f = active_filtration_orientation(m, parse_reorientation(args.reorient, m.n))
    ostar, o = f.minima()  # the activities are the minima of the active filtration
    print(f"O\t{_format_mask(o)}", file=out)
    print(f"O*\t{_format_mask(ostar)}", file=out)
    print(f"partition\t{_partition_string(f)}", file=out)
    print(f"chain\t{_chain_string(f)}", file=out)
    return 0


def _cmd_alpha(m: OrientedMatroid, args, out) -> int:
    a = parse_reorientation(args.reorient, m.n)
    print(format_elements(active_basis(m, a)), file=out)
    return 0


def _cmd_alpha_inverse(m: OrientedMatroid, args, out) -> int:
    b = parse_reorientation(args.basis, m.n)
    if not is_basis(m, b):
        raise ParseError(f"{format_elements(b)} is not a basis of the oriented matroid")
    result = alpha_inverse_class(m, b)
    for member in result.class_members:
        print(format_elements(member), file=out)
    return 0


def _cmd_table(m: OrientedMatroid, args, out) -> int:
    print("filtration\tpartition\tclass\tbasis", file=out)
    for basis, f, base_point in _interval_table(m):
        members = " ".join(map(_format_mask, _flips(base_point, f.masks)))
        print(
            f"{_chain_string(f)}\t"
            f"{_partition_string(f)}\t"
            f"{members}\t{_format_mask(basis)}",
            file=out,
        )
    return 0


def _cmd_refined(m: OrientedMatroid, args, out) -> int:
    # On the class of B, O*(-_A M) = Int(B) and O(-_A M) = Ext(B) (activity
    # preservation), and A meets Int(B) ∪ Ext(B) in its flipped active elements.
    rows = [""] * (1 << m.n)  # indexed by mask, so A in increasing mask order
    for basis, f, base_point in _interval_table(m):
        internal, external = f.minima()
        active = internal | external
        for a in _flips(base_point, f.masks):
            cells = (a, basis ^ (a & active), internal & ~a, internal & a, external & ~a, external & a)
            rows[a] = "\t".join(map(_format_mask, cells))
    print("A\talpha_M(A)\ttheta*\ttheta*bar\ttheta\tthetabar", *rows, sep="\n", file=out)
    return 0


def _cache_stats() -> dict[str, dict]:
    """``cache_info()`` of every ``lru_cache`` of the library, by the module defining it."""
    modules = (tutte, bijection, activities, core)  # each cache's own module after any that imports it
    found = {id(f): (f"{mod.__name__.rpartition('.')[2]}.{name}", f) for mod in modules for name, f in vars(mod).items()
             if hasattr(f, "cache_clear")}
    return {name: f.cache_info()._asdict() for name, f in sorted(found.values())}


def _cmd_verify(m: OrientedMatroid, args, out) -> int:
    built, sweep = core._minors_built[0], verify.Sweep(m)
    ok = verify.run_all(m, report=lambda line: print(line, file=out), sweep=sweep)
    if getattr(args, "stats", False):  # a caller's args may lack the flag
        import json  # off the start-up of every other command

        stats = {"check_s": sweep.times, "caches": _cache_stats(), "minors": core._minors_built[0] - built,
                 "values": sweep.counts()}
        print(json.dumps(stats), file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="actbij",
        description="Activities and the active bijection of an oriented matroid "
        "read from a graph or om file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    reorient = ("--reorient", {"default": "-", "metavar": "T"})
    for name, run, help_text, option in (
        ("tutte", _cmd_tutte, "Tutte polynomial coefficients as TSV",
         ("--check", {"action": "store_true", "help": "run all four routes"})),
        ("activities", _cmd_activities, "orientation activities and active partition", reorient),
        ("alpha", _cmd_alpha, "the active basis of a reorientation", reorient),
        ("alpha-inverse", _cmd_alpha_inverse, "all reorientations mapping onto a basis",
         ("--basis", {"required": True, "metavar": "B"})),
        ("table", _cmd_table, "the canonical active bijection, one row per basis", None),
        ("refined", _cmd_refined, "the refined bijection over all 2^n reorientations", None),
        ("verify", _cmd_verify, "run the full invariant suite",
         ("--stats", {"action": "store_true", "help": "write check times and counts to stderr as JSON"})),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        if option:
            p.add_argument(option[0], **option[1])
        p.set_defaults(run=run)

    args = parser.parse_args(argv)
    try:
        m = _load(args.file)
        return args.run(m, args, sys.stdout)
    except (ParseError, InvalidOrientedMatroid, GroundSetTooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
