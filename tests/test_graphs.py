import itertools
import random
import re
import time

import pytest

from actbij import graphs
from actbij.cli import main
from actbij.core import (
    GroundSetTooLarge,
    InvalidOrientedMatroid,
    SignedSubset,
    _canonical_list,
    _fundamentals,
    _mask,
    bases,
    om_from_lists,
    reorient,
)
from actbij.graphs import (
    ParseError,
    format_elements,
    om_from_digraph,
    parse_file,
    parse_graph_file,
    parse_om_file,
    parse_reorientation,
)
from conftest import random_multigraph, serialize_om


def forest_count(edges) -> int:
    """Maximal spanning forests by brute force over edge subsets,
    acyclicity via union-find; independent of the matroid code."""
    n = len(edges)
    rank = 0
    counts = {}

    def is_forest(edge_idxs):
        parent = {v: v for edge in edges for v in edge}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for k in edge_idxs:
            t, h = edges[k - 1]
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
    single = om_from_digraph((("a", "b"),))
    assert single == om_from_lists(1, [], [SignedSubset(frozenset({1}), frozenset())])
    empty = om_from_digraph(())
    assert empty.n == 0 and empty.rank == 0
    loop = om_from_digraph((("a", "a"),))
    assert loop.circuits == (SignedSubset(frozenset({1}), frozenset()),)
    pendant = om_from_digraph((("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")))
    assert SignedSubset(frozenset({4}), frozenset()) in pendant.cocircuits


def test_parse_graph_file(k3_om):
    g = parse_graph_file("graph 3\na b\na c\nb c")
    assert g == (("a", "b"), ("a", "c"), ("b", "c"))
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
        tokens = len({v for edge in g for v in edge})
        text = "".join([f"graph {tokens}\n", *(f"{t} {h}\n" for t, h in g)])
        assert parse_graph_file(text) == g


def test_isolated_vertices_are_not_flooded(monkeypatch):
    # a vertex that no edge touches has no bond, so no flood fill starts from it
    calls = []
    real = graphs._reach
    monkeypatch.setattr(graphs, "_reach", lambda within, nbr: calls.append(within) or real(within, nbr))
    triangle = "a b\nb c\nc a\n"
    assert parse_file("graph 100000\n" + triangle) == parse_file("graph 3\n" + triangle)
    assert len(calls) <= 50
    # the header count only bounds the vertex tokens: nothing is sized by it
    start = time.perf_counter()
    assert parse_file("graph 1000000000\n" + triangle) == parse_file("graph 3\n" + triangle)
    assert time.perf_counter() - start < 0.5


def bonds_by_submasks(g) -> list[SignedSubset]:
    """The signed bonds of the ordered edges g by the submask enumeration: the cut
    of every vertex set s that holds the first vertex of its component, where s
    and the rest of the component are both connected."""
    adjacent = {v: {h if v == t else t for t, h in g if v in (t, h)} - {v} for edge in g for v in edge}

    def connected(side):
        reached, frontier = set(), {min(side)}
        while frontier:
            reached |= frontier
            frontier = {w for v in frontier for w in adjacent[v] if w in side} - reached
        return reached == side

    bonds, left = [], set(adjacent)
    while left:
        comp, frontier = set(), {min(left)}  # any anchor finds each bond once
        while frontier:
            comp |= frontier
            frontier = {w for v in frontier for w in adjacent[v]} - comp
        left -= comp
        anchor, rest = min(comp), sorted(comp - {min(comp)})
        for chosen in itertools.product((False, True), repeat=len(rest)):
            s = {anchor, *(v for v, keep in zip(rest, chosen) if keep)}
            if comp - s and connected(s) and connected(comp - s):
                pos = [k for k, (t, h) in enumerate(g, start=1) if t in s and h not in s and h in comp]
                neg = [k for k, (t, h) in enumerate(g, start=1) if h in s and t not in s and t in comp]
                bonds.append(SignedSubset(pos, neg))
    return bonds


def test_the_bonds_are_those_of_the_submask_enumeration():
    # loops, parallel edges and isolated vertices, declared in the header but on no edge
    rng = random.Random(25)
    for _ in range(300):
        g = random_multigraph(rng, max_vertices=7, max_edges=10)
        text = "".join([f"graph {len({v for e in g for v in e}) + rng.randint(0, 2)}\n", *(f"{t} {h}\n" for t, h in g)])
        assert parse_file(text).cocircuits == _canonical_list(bonds_by_submasks(g)), g


def test_each_connected_side_is_grown_once(monkeypatch):
    # in K6 every vertex set that holds the anchor is connected: after the one flood
    # fill of the component, 31 sides leave a nonempty rest, each tested once
    calls = []
    real = graphs._reach
    monkeypatch.setattr(graphs, "_reach", lambda within, nbr: calls.append(within) or real(within, nbr))
    om_from_digraph(tuple((u, v) for v in range(6) for u in range(v)))
    assert len(calls) == 1 + 31 == len(set(calls))


def test_a_long_path_parses_fast():
    # 19 vertices and 18 bonds: the sides grown from the anchor are 18, against
    # the 2^18 submasks of the other vertices that the parser once flooded (0.33 s)
    text = "graph 19\n" + "".join(f"p{i} p{i + 1}\n" for i in range(18))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        m = parse_file(text)
        times.append(time.perf_counter() - start)
    assert len(m.cocircuits) == 18 and min(times) < 0.05


def test_an_om_header_above_the_cap_is_refused_before_its_lines():
    with pytest.raises(GroundSetTooLarge):
        parse_file("om 25\n")


def test_parse_om_file_matches_serialization(k4_om):
    m = parse_om_file("om 6\n" + serialize_om(k4_om).split("\n", 1)[1])
    assert m == k4_om


def test_an_om_file_missing_a_set_that_only_the_last_bases_need_is_refused(tmp_path, capsys):
    # five parallel edges: the bases are {1} .. {5}, and the circuit {4,5} is
    # fundamental only in {4} and {5}; a set of an oriented matroid is
    # fundamental in at least two bases unless it is a loop or a coloop
    bundle = parse_file("graph 2\n" + "a b\n" * 5)
    text = serialize_om(bundle).replace("C 000+-\n", "")
    m = om_from_lists(5, [c for c in bundle.circuits if c.support != {4, 5}], bundle.cocircuits)
    failing = []
    for b in bases(m):
        try:
            _fundamentals(m, _mask(b))
        except InvalidOrientedMatroid:
            failing.append(b)
    assert failing == list(bases(m)[-2:])
    message = "expected exactly one circuit inside [4, 5], found 0"
    with pytest.raises(InvalidOrientedMatroid, match=f"^{re.escape(message)}$"):
        parse_om_file(text)
    path = tmp_path / "bundle.om"
    path.write_text(text)
    assert main(["table", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_om_header_rejects_a_negative_size():
    with pytest.raises(ParseError) as err:
        parse_om_file("# no elements\nom -1\n")
    assert err.value.line == 2


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
    for token in ("1,,2", "1,", ",1", ""):  # an empty item is not an index
        with pytest.raises(ParseError):
            parse_reorientation(token, 6)


def test_parse_reorientation_rejects_repeated_indices():
    for token in ("1,1", "2,3,2"):
        with pytest.raises(ParseError, match="repeated element"):
            parse_reorientation(token, 6)


def test_format_elements():
    assert format_elements(frozenset()) == "-"
    assert format_elements({3, 1, 10}) == "1,3,10"
    # elements 1..24 come from per-byte tables, larger masks are joined directly
    assert format_elements({8, 9, 16, 17, 24}) == "8,9,16,17,24"
    assert format_elements({24, 25, 100}) == "24,25,100"
    rng = random.Random(31)
    for size in (1, 7, 8, 9, 16, 17, 24, 25, 40):
        for _ in range(50):
            subset = {e for e in range(1, size + 1) if rng.random() < 0.4}
            assert format_elements(subset) == (",".join(map(str, sorted(subset))) or "-")


def test_reorienting_arcs_matches_reorient():
    rng = random.Random(12)
    for _ in range(20):
        g = random_multigraph(rng, max_edges=8)
        if not g:
            continue
        a = frozenset(e for e in range(1, len(g) + 1) if rng.random() < 0.5)
        flipped = tuple((h, t) if k in a else (t, h) for k, (t, h) in enumerate(g, start=1))
        assert om_from_digraph(flipped) == reorient(om_from_digraph(g), a)


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
