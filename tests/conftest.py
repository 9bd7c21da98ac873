import io
import random

import pytest

from actbij.activities import active_filtration_orientation, active_minors, reorientation_params
from actbij.bijection import _only_passing, alpha_inverse_class, refined_alpha
from actbij.cli import _cmd_refined, _cmd_table
from actbij.core import (
    OrientedMatroid,
    _basis_masks,
    _bounded_under,
    _canonical_list,
    _elements,
    _greedy_rank,
    _reoriented,
    _runs,
    _squeeze,
    _supports,
    bases,
    is_bounded,
    is_connected_matroid,
    is_dual_bounded,
    reorient,
)
from actbij.graphs import format_elements, om_from_digraph
from actbij.oracles import all_connected_filtrations
from examples import diamond_doubled, digon, k3, k4


def random_multigraph(rng: random.Random, max_vertices=6, max_edges=10, min_edges=0):
    """The ordered edges of a multigraph on at most max_vertices vertices:
    loops, parallel edges, bridges and disconnected graphs all occur."""
    nv = rng.randint(1, max_vertices)
    vertices = tuple(chr(97 + i) for i in range(nv))
    ne = rng.randint(min_edges, max_edges)
    return tuple((rng.choice(vertices), rng.choice(vertices)) for _ in range(ne))


def random_om(rng: random.Random, max_vertices=6, max_edges=10, min_edges=0):
    return om_from_digraph(random_multigraph(rng, max_vertices, max_edges, min_edges))


def random_connected_om(rng: random.Random, max_vertices=5, max_edges=8):
    """A graph whose matroid is connected (loopless 2-connected graph)."""
    while True:
        vertices = tuple(chr(97 + i) for i in range(rng.randint(2, max_vertices)))
        ne = rng.randint(2, max_edges)
        edges = []
        for _ in range(ne):
            t = rng.choice(vertices)
            h = rng.choice([v for v in vertices if v != t])
            edges.append((t, h))
        m = om_from_digraph(tuple(edges))
        if m.n >= 2 and is_connected_matroid(m):
            return m


def fully_optimal_basis_scan(m, flip: int = 0):
    """The reference for the oracles' table: the fully optimal basis of -_flip M (n ≥ 1,
    flip a mask) as the one basis passing both criteria, every basis tested at this flip
    alone; None when it is neither bounded nor dual-bounded w.r.t. p = 1."""
    bounded = _bounded_under(m, flip, False)
    if bounded or _bounded_under(m, flip, True):
        return _elements(_only_passing(_reoriented(m, flip), _basis_masks(m), bounded))
    return None


def minor_sets_reference(signed_sets, avoid: int, ground: int, runs):
    """The reference for ``core._minor_sets``: every kept set restricted to ground,
    and each restriction tested for minimality against every smaller one."""
    restricted = {(pos & ground, neg & ground) for pos, neg in signed_sets if not (pos | neg) & avoid}
    minimal: set[int] = set()
    for support in sorted({pos | neg for pos, neg in restricted} - {0}, key=int.bit_count):
        if all(s & ~support for s in minimal):
            minimal.add(support)
    squeezed = ((_squeeze(pos, runs), _squeeze(neg, runs)) for pos, neg in restricted if pos | neg in minimal)
    return _canonical_list(squeezed)


def minor_reference(m, keep: int, contracted: int):
    """The reference for ``core._minor``: M(keep)/contracted on masks, and the runs of keep - contracted."""
    ground = keep & ~contracted
    runs, size = _runs(ground), ground.bit_count()
    circuits = minor_sets_reference(m.circuits, ~keep, ground, runs)
    cocircuits = minor_sets_reference(m.cocircuits, contracted, ground, runs)
    return OrientedMatroid(size, circuits, cocircuits, _greedy_rank(_supports(circuits), (1 << size) - 1)), runs


def to_string(x, n: int) -> str:
    """The sign string of the signed set x over ``+ - 0``; position i is element i (1-based)."""
    return "".join("0+-"[x.sign(i)] for i in range(1, n + 1))


def serialize_om(m) -> str:
    """The om file of m: the header, then a sign line per stored circuit and cocircuit."""
    lines = [f"om {m.n}"]
    lines += [f"C {to_string(c, m.n)}" for c in m.circuits]
    lines += [f"D {to_string(d, m.n)}" for d in m.cocircuits]
    return "\n".join(lines) + "\n"


def refined_stdout(m) -> str:
    """What `actbij refined` prints for the oriented matroid m."""
    out = io.StringIO()
    assert _cmd_refined(m, None, out) == 0
    return out.getvalue()


def refined_by_direct_route(m) -> str:
    """The `refined` table built A by A from the forward map: refined_alpha
    and reorientation_params on each reorientation, in subset-rank order."""
    lines = ["A\talpha_M(A)\ttheta*\ttheta*bar\ttheta\tthetabar"]
    for a in subsets(m.n):
        cells = [a, refined_alpha(m, a), *reorientation_params(m, a)]
        lines.append("\t".join(format_elements(s) for s in cells))
    return "\n".join(lines) + "\n"


def table_stdout(m) -> str:
    """What `actbij table` prints for the oriented matroid m."""
    out = io.StringIO()
    assert _cmd_table(m, None, out) == 0
    return out.getvalue()


def plain(subset) -> str:
    """An element set as the CLI prints it, without the library's formatter."""
    return ",".join(map(str, sorted(subset))) or "-"


def table_by_class_route(m) -> str:
    """The `table` output built basis by basis from alpha_inverse_class,
    in the order of bases(m)."""
    lines = ["filtration\tpartition\tclass\tbasis"]
    for b in bases(m):
        result = alpha_inverse_class(m, b)
        f = result.filtration
        chain = " < ".join(plain(s) + "*" * (i == f.cyclic_index) for i, s in enumerate(f.chain))
        partition = "|".join(plain(p) + "*" * f.part_is_cyclic(i) for i, p in enumerate(f.parts))
        members = " ".join(map(plain, result.class_members))
        lines.append(f"{chain}\t{partition}\t{members}\t{plain(b)}")
    return "\n".join(lines) + "\n"


def assert_unique_decomposition(m) -> None:
    """At each reorientation A, exactly one connected filtration has each
    minor of -_A M dual-bounded (cyclic part) or bounded (acyclic part),
    and it is the active filtration of -_A M."""
    filtrations = all_connected_filtrations(m)
    for a in subsets(m.n):
        r = reorient(m, a)
        valid = []
        for f in filtrations:
            minors = active_minors(r, f)
            if all((is_dual_bounded if f.part_is_cyclic(i) else is_bounded)(x) for i, x in enumerate(minors)):
                valid.append(f)
        assert valid == [active_filtration_orientation(r)]


def positive(signed_sets) -> list:
    """The stored signed sets whose pair {X, -X} has an all-positive member."""
    return [x for x in signed_sets if not (x.pos and x.neg)]


def subsets(n: int):
    for mask in range(1 << n):
        yield frozenset(i for i in range(1, n + 1) if mask >> (i - 1) & 1)


def brute_force_reorientation_histogram(m) -> dict:
    """Counts of (|O*∖A|, |O*∩A|, |O∖A|, |O∩A|) over every reorientation A,
    one A at a time: O (O*) holds the minima of the circuits (cocircuits)
    X with A ∩ supp(X) equal to X⁺ or to X⁻."""
    counts: dict = {}
    for a in subsets(m.n):
        ostar, o = ({min(x.support) for x in sets if a & x.support in (x.positive, x.negative)}
                    for sets in (m.cocircuits, m.circuits))
        key = (len(ostar - a), len(ostar & a), len(o - a), len(o & a))
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.fixture(scope="session")
def k3_om():
    return k3()


@pytest.fixture(scope="session")
def k4_om():
    return k4()


@pytest.fixture(scope="session")
def diamond_om():
    return diamond_doubled()


@pytest.fixture(scope="session")
def digon_om():
    return digon()
