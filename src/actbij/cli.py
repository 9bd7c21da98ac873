"""Command-line front end emitting TSV tables and verification reports.

Element sets are rendered as comma-joined ascending indices, the empty
set as ``-``.  Output is byte-deterministic for a given input and flags.
Exit codes: 0 success, 1 verification failure, 2 parse/usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from . import verify
from .activities import (
    Filtration,
    active_filtration_orientation,
    orientation_activities,
    reorientation_params,
    subsets_by_rank,
)
from .bijection import active_basis, alpha_inverse_class, refined_alpha
from .core import (
    GroundSetTooLarge,
    InvalidOrientedMatroid,
    OrientedMatroid,
    bases,
    check_enumeration_cap,
    is_basis,
    reorient,
)
from .graphs import ParseError, format_elements, parse_file, parse_reorientation
from .tutte import (
    four_var_reorientation_sum,
    four_var_subset_sum,
    tutte_from_bases,
    tutte_from_orientations,
)


def _chain_string(f: Filtration) -> str:
    return " < ".join(
        format_elements(s) + ("*" if i == f.cyclic_index else "")
        for i, s in enumerate(f.chain)
    )


def _partition_string(f: Filtration) -> str:
    return "|".join(
        format_elements(p) + ("*" if f.part_is_cyclic(i) else "")
        for i, p in enumerate(f.parts)
    )


def _load(path: str) -> OrientedMatroid:
    with open(path, encoding="utf-8") as handle:
        return parse_file(handle.read())


def _cmd_tutte(m: OrientedMatroid, args, out) -> int:
    by_bases = tutte_from_bases(m)
    print("i\tj\tb", file=out)
    for (i, j), c in by_bases.items():
        print(f"{i}\t{j}\t{c}", file=out)
    print(f"t(x,y) = {by_bases}", file=out)
    if not args.check:
        return 0
    agree = 1
    by_orientations = tutte_from_orientations(m)
    print(f"route\tbases\t{by_bases}", file=out)
    print(f"route\torientations\t{by_orientations}", file=out)
    if by_orientations == by_bases:
        agree += 1
    grid = list(itertools.product(range(3), repeat=4))
    for name, route in (
        ("subset-sum", four_var_subset_sum),
        ("reorientation-sum", four_var_reorientation_sum),
    ):
        ok = all(
            route(m, x, u, y, v) == by_bases.evaluate(x + u, y + v)
            for x, u, y, v in grid
        )
        agree += ok
        print(f"route\t{name}\t{'ok' if ok else 'mismatch'}", file=out)
    print(f"agree={agree}/4", file=out)
    return 0 if agree == 4 else 1


def _cmd_activities(m: OrientedMatroid, args, out) -> int:
    flipped = reorient(m, parse_reorientation(args.reorient, m.n))
    ostar, o = orientation_activities(flipped)
    f = active_filtration_orientation(flipped)
    print(f"O\t{format_elements(o)}", file=out)
    print(f"O*\t{format_elements(ostar)}", file=out)
    print(f"partition\t{_partition_string(f)}", file=out)
    print(f"chain\t{_chain_string(f)}", file=out)
    return 0


def _cmd_alpha(m: OrientedMatroid, args, out) -> int:
    a = parse_reorientation(args.reorient, m.n)
    print(format_elements(active_basis(reorient(m, a))), file=out)
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
    for b in bases(m):
        result = alpha_inverse_class(m, b)
        members = " ".join(format_elements(a) for a in result.class_members)
        print(
            f"{_chain_string(result.filtration)}\t"
            f"{_partition_string(result.filtration)}\t"
            f"{members}\t{format_elements(b)}",
            file=out,
        )
    return 0


def _cmd_refined(m: OrientedMatroid, args, out) -> int:
    check_enumeration_cap(m.n)
    print("A\talpha_M(A)\ttheta*\ttheta*bar\ttheta\tthetabar", file=out)
    for a in subsets_by_rank(m.n):
        image = refined_alpha(m, a)
        ts, tsb, th, thb = reorientation_params(m, a)
        cells = [a, image, ts, tsb, th, thb]
        print("\t".join(format_elements(s) for s in cells), file=out)
    return 0


def _cmd_verify(m: OrientedMatroid, args, out) -> int:
    ok = verify.run_all(m, report=lambda line: print(line, file=out))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="actbij",
        description="Activities and the active bijection of an oriented matroid "
        "read from a graph or om file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tutte", help="Tutte polynomial coefficients as TSV")
    p.add_argument("file")
    p.add_argument("--check", action="store_true", help="run all four routes")
    p.set_defaults(run=_cmd_tutte)

    p = sub.add_parser("activities", help="orientation activities and active partition")
    p.add_argument("file")
    p.add_argument("--reorient", default="-", metavar="T")
    p.set_defaults(run=_cmd_activities)

    p = sub.add_parser("alpha", help="the active basis of a reorientation")
    p.add_argument("file")
    p.add_argument("--reorient", default="-", metavar="T")
    p.set_defaults(run=_cmd_alpha)

    p = sub.add_parser("alpha-inverse", help="all reorientations mapping onto a basis")
    p.add_argument("file")
    p.add_argument("--basis", required=True, metavar="B")
    p.set_defaults(run=_cmd_alpha_inverse)

    p = sub.add_parser("table", help="the canonical active bijection, one row per basis")
    p.add_argument("file")
    p.set_defaults(run=_cmd_table)

    p = sub.add_parser("refined", help="the refined bijection over all 2^n reorientations")
    p.add_argument("file")
    p.set_defaults(run=_cmd_refined)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("file")
    p.set_defaults(run=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        m = _load(args.file)
        return args.run(m, args, sys.stdout)
    except (ParseError, InvalidOrientedMatroid, GroundSetTooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
