import itertools
import random

import pytest

from actbij.core import SignedSubset, bases, om_from_lists, reorient
from actbij.graphs import (
    OrderedDigraph,
    ParseError,
    format_elements,
    om_from_digraph,
    parse_file,
    parse_graph_file,
    parse_om_file,
    parse_reorientation,
    serialize_graph,
    serialize_om,
)
from conftest import random_multigraph


def forest_count(g: OrderedDigraph) -> int:
    """Maximal spanning forests by brute force over edge subsets,
    acyclicity via union-find; independent of the matroid code."""
    n = len(g.edges)
    rank = 0
    counts = {}

    def is_forest(edge_idxs):
        parent = {v: v for v in g.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for k in edge_idxs:
            t, h = g.edges[k - 1]
            rt, rh = find(t), find(h)
            if rt == rh:
                return False
            parent[rt] = rh
        return True

    for size in range(n + 1):
        c = sum(1 for combo in itertools.combinations(range(1, n + 1), size) if is_forest(combo))
        if c:
            rank = size
            counts[size] = c
    return counts.get(rank, 1 if rank == 0 else 0)


def test_k3_fixture(k3_om):
    assert len(k3_om.circuits) == 1
    assert k3_om.circuits[0] == SignedSubset(frozenset({1, 3}), frozenset({2}))
    assert len(k3_om.cocircuits) == 3


def test_k4_fixture_counts(k4_om):
    assert len(k4_om.circuits) == 7
    assert len(k4_om.cocircuits) == 7
    triangles = {frozenset(s) for s in ({1, 2, 3}, {1, 4, 5}, {2, 4, 6}, {3, 5, 6})}
    squares = {frozenset(s) for s in ({1, 3, 4, 6}, {1, 2, 5, 6}, {2, 3, 4, 5})}
    assert {c.support for c in k4_om.circuits} == triangles | squares
    stars = {frozenset(s) for s in ({1, 2, 4}, {1, 3, 5}, {2, 3, 6}, {4, 5, 6})}
    cuts = {frozenset(s) for s in ({2, 3, 4, 5}, {1, 3, 4, 6}, {1, 2, 5, 6})}
    assert {d.support for d in k4_om.cocircuits} == stars | cuts


def test_single_edge_and_degenerate_cases():
    single = om_from_digraph(OrderedDigraph(("a", "b"), (("a", "b"),)))
    assert single == om_from_lists(1, [], [SignedSubset(frozenset({1}), frozenset())])
    empty = om_from_digraph(OrderedDigraph(("a",), ()))
    assert empty.n == 0 and empty.rank == 0
    loop = om_from_digraph(OrderedDigraph(("a",), (("a", "a"),)))
    assert loop.circuits == (SignedSubset(frozenset({1}), frozenset()),)
    pendant = om_from_digraph(
        OrderedDigraph(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")))
    )
    assert SignedSubset(frozenset({4}), frozenset()) in pendant.cocircuits


def test_unknown_vertex_token():
    g = OrderedDigraph(("a", "b"), (("a", "z"),))
    with pytest.raises(ParseError):
        om_from_digraph(g)


def test_parse_graph_file(k3_om):
    g = parse_graph_file("graph 3\na b\na c\nb c")
    assert om_from_digraph(g) == k3_om
    commented = parse_graph_file("# triangle\ngraph 3\na b # first edge\na c\nb c\n")
    assert commented == g


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph_file("graph 2\na b c")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_graph_file("graph x\n")
    with pytest.raises(ParseError):
        parse_graph_file("")
    with pytest.raises(ParseError):
        parse_graph_file("graph 1\na b")  # two tokens, one declared


def test_graph_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        g = random_multigraph(rng)
        text = serialize_graph(g)
        assert serialize_graph(parse_graph_file(text)) == text


def test_parse_om_file_matches_serialization(k4_om):
    m = parse_om_file("om 6\n" + serialize_om(k4_om).split("\n", 1)[1])
    assert m == k4_om


def test_om_sign_line_parsing():
    m = parse_om_file("om 3\nC +-+\nD ++0\nD +0-\nD 0++")
    assert m.circuits[0] == SignedSubset(frozenset({1, 3}), frozenset({2}))
    with pytest.raises(ParseError) as err:
        parse_om_file("om 3\nC +-")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_om_file("om 3\nE +-+")
    with pytest.raises(ParseError):
        parse_om_file("om 3\nC +?+")


def test_om_round_trip(k3_om, k4_om, diamond_om):
    for m in (k3_om, k4_om, diamond_om):
        text = serialize_om(m)
        assert parse_om_file(text) == m
        assert serialize_om(parse_om_file(text)) == text


def test_parse_file_dispatch(k3_om):
    assert parse_file("graph 3\na b\na c\nb c") == k3_om
    assert parse_file(serialize_om(k3_om)) == k3_om
    with pytest.raises(ParseError):
        parse_file("matroid 3\n")
    with pytest.raises(ParseError):
        parse_file("   \n# nothing\n")


def test_parse_reorientation_tokens():
    assert parse_reorientation("3,5", 6) == frozenset({3, 5})
    assert parse_reorientation("-", 6) == frozenset()
    assert parse_reorientation("b:010100", 6) == frozenset({2, 4})
    with pytest.raises(ParseError):
        parse_reorientation("7", 6)
    with pytest.raises(ParseError):
        parse_reorientation("b:0101", 6)
    with pytest.raises(ParseError):
        parse_reorientation("a,b", 6)


def test_parse_reorientation_rejects_repeated_indices():
    for token in ("1,1", "2,3,2"):
        with pytest.raises(ParseError, match="repeated element"):
            parse_reorientation(token, 6)


def test_format_elements():
    assert format_elements(frozenset()) == "-"
    assert format_elements({3, 1, 10}) == "1,3,10"


def test_reorienting_arcs_matches_reorient():
    rng = random.Random(12)
    for _ in range(20):
        g = random_multigraph(rng, max_edges=8)
        if g.n == 0:
            continue
        a = frozenset(e for e in range(1, g.n + 1) if rng.random() < 0.5)
        assert om_from_digraph(g.reversed_edges(a)) == reorient(om_from_digraph(g), a)


def test_bases_match_forest_count():
    rng = random.Random(13)
    for _ in range(25):
        g = random_multigraph(rng, max_vertices=6, max_edges=9)
        m = om_from_digraph(g)
        assert len(bases(m)) == forest_count(g)


def test_random_graphs_validate():
    # om_from_digraph routes through the validating constructor, so a pass
    # means antichain, orthogonality and rank consistency all hold
    rng = random.Random(14)
    for _ in range(30):
        om_from_digraph(random_multigraph(rng, max_vertices=6, max_edges=10))
