"""Small named digraphs for the tests; k3, k4 and diamond_doubled match data/*.graph."""

from __future__ import annotations

from actbij.core import OrientedMatroid, om_from_lists
from actbij.graphs import om_from_digraph

Edges = tuple[tuple[str, str], ...]


def k3_digraph() -> Edges:
    """Triangle; edges 1=ab, 2=ac, 3=bc, all oriented alphabetically."""
    return (("a", "b"), ("a", "c"), ("b", "c"))


def k4_digraph() -> Edges:
    """Complete graph on four vertices; edges 1=ab, 2=ac, 3=bc, 4=ad,
    5=bd, 6=cd, all oriented alphabetically."""
    return (("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"), ("c", "d"))


def diamond_doubled_digraph() -> Edges:
    """A diamond (K4 minus an edge) with one doubled edge: rank 3 on six
    elements, with proper cyclic flats {3,5}, {2,4,6} and {1,3,4,5}."""
    return (("u", "v"), ("u", "x"), ("v", "w"), ("u", "w"), ("v", "w"), ("w", "x"))


def digon_digraph() -> Edges:
    """Two parallel edges; the smallest graph with a bounded orientation."""
    return (("a", "b"), ("a", "b"))


def k3() -> OrientedMatroid:
    return om_from_digraph(k3_digraph())


def k4() -> OrientedMatroid:
    return om_from_digraph(k4_digraph())


def k4_missing_a_cocircuit() -> OrientedMatroid:
    """K4 less its cocircuit +1,+2,-5,-6, the cut between {a, d} and {b, c}:
    om_from_lists accepts it, the om-file reader refuses it as incomplete."""
    m = k4()
    return om_from_lists(6, m.circuits, [d for d in m.cocircuits if d.pos | d.neg != 0b110011])


def diamond_doubled() -> OrientedMatroid:
    return om_from_digraph(diamond_doubled_digraph())


def digon() -> OrientedMatroid:
    return om_from_digraph(digon_digraph())


def w4_digraph() -> Edges:
    """The wheel on four rim vertices: spokes 1-4 = h r1 .. h r4, then the
    rim 5-8 = r1 r2, r2 r3, r3 r4, r4 r1."""
    rim = ("r1", "r2", "r3", "r4")
    spokes = tuple(("h", r) for r in rim)
    return spokes + tuple(zip(rim, rim[1:] + rim[:1]))


def w4() -> OrientedMatroid:
    return om_from_digraph(w4_digraph())


def w5() -> OrientedMatroid:
    """The wheel on five rim vertices, in the edge order of :func:`w4_digraph`."""
    rim = ("r1", "r2", "r3", "r4", "r5")
    return om_from_digraph(tuple(("h", r) for r in rim) + tuple(zip(rim, rim[1:] + rim[:1])))


def k5() -> OrientedMatroid:
    """The complete graph on five vertices, its edges in the colex order of :func:`k4_digraph`."""
    return om_from_digraph(tuple((v, w) for j, w in enumerate("abcde") for v in "abcde"[:j]))


def k6() -> OrientedMatroid:
    """The complete graph on six vertices, its 15 edges in the colex order of :func:`k4_digraph`."""
    return om_from_digraph(tuple((v, w) for j, w in enumerate("abcdef") for v in "abcdef"[:j]))
