"""Property tests: graph circuits and cocircuits against a brute force,
one-step minors against graph minors and against the reference builder,
the minors of ω built exactly when bounded, the mask encoding of signed sets
and of filtrations against the element-set formulas, the chain walk of
the connected filtrations against every set partition and cyclic marking,
the forward map on (M, A) against the same map on the reorientation
-_A M itself, `refined` against the direct forward map, `table` against
the per-basis class route, the bases against the scan of every
rank-sized subset and, order included, against the level-by-level
search they were bit-sliced from, the per-subset tally of the interval
walk's owners against the coefficients of t(x+u, y+v), the served fully
optimal basis against the oracle scan over all bases, the oracles' table of
every fully optimal basis against that scan at every A, and the served
active basis against both induction styles of the recursive definition,
and the active bijection onto the bases with 2^(|Int(B)|+|Ext(B)|)
reorientations on each basis B, whose activities it keeps; then the
three Tutte routes, the class and refined round trips, α and active
duality, the four-variable sums and the unique connected filtration of
each reorientation."""

import copy
import itertools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from actbij.activities import (
    Filtration,
    _connected_step,
    _interval_table,
    _interval_walk,
    active_filtration_basis,
    active_filtration_orientation,
    active_minors,
    activity_class,
    basis_activities,
    orientation_activities,
    reorientation_params,
)
from actbij.bijection import (
    active_basis,
    alpha_inverse_class,
    fully_optimal_basis,
    refined_alpha,
    refined_alpha_inverse,
)
from actbij.core import (
    OrientedMatroid,
    SignedSubset,
    _all_fundamentals,
    _basis_masks,
    _bounded_under,
    _canonical_list,
    _elements,
    _fundamentals,
    _greedy_rank,
    _mask,
    _minor,
    _squeeze,
    _supports,
    _unsqueeze,
    bases,
    compose,
    dual,
    fundamental_circuit,
    fundamental_cocircuit,
    is_bounded,
    is_dual_bounded,
    reorient,
    restrict_contract,
)
from actbij.graphs import om_from_digraph, parse_om_file
from actbij.oracles import (
    _optimal_table,
    _rank_table,
    active_basis_recursive,
    all_connected_filtrations,
    check_active_duality,
    tutte_rank_oracle,
)
from actbij.tutte import (
    _reorientation_histogram,
    _shifted_coefficients,
    four_var_reorientation_sum,
    four_var_subset_sum,
    tutte_from_bases,
    tutte_from_orientations,
)
from conftest import (
    assert_unique_decomposition,
    brute_force_reorientation_histogram,
    fully_optimal_basis_scan,
    minor_reference,
    refined_by_direct_route,
    refined_stdout,
    serialize_om,
    table_by_class_route,
    table_stdout,
    to_string,
)
from examples import diamond_doubled, diamond_doubled_digraph, k3, k4, k4_digraph, k5, k6, w4, w4_digraph, w5

VERTICES = "abcde"
N = 8  # ground set of the signed-set properties

# the same examples on every run, and nothing written to disk
steady = settings(deadline=None, derandomize=True, database=None)


@st.composite
def digraphs(draw, max_edges=8):
    """Ordered edges: loops, parallel edges and disconnected graphs all occur."""
    vertices = VERTICES[: draw(st.integers(1, len(VERTICES)))]
    vertex = st.sampled_from(vertices)
    return tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges)))


@st.composite
def connected_digraphs(draw, max_edges=8):
    """A spanning tree, then loops, parallel edges and chords, all shuffled."""
    vertices = VERTICES[: draw(st.integers(1, len(VERTICES)))]
    edges = [(v, draw(st.sampled_from(vertices[:i]))) for i, v in enumerate(vertices) if i]
    vertex = st.sampled_from(vertices)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges - len(edges)))
    return tuple(e if draw(st.booleans()) else e[::-1] for e in draw(st.permutations(edges)))


@st.composite
def minors(draw):
    g = draw(digraphs())
    keep = draw(st.frozensets(st.integers(1, len(g)))) if g else frozenset()
    contracted = draw(st.frozensets(st.sampled_from(sorted(keep)))) if keep else frozenset()
    return g, keep, contracted


def graph_minor(g, keep, contracted):
    """Drop the edges outside keep, merge the ends of each contracted edge
    by union-find and drop those; the other edges keep their order."""
    root = {v: v for edge in g for v in edge}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for k in contracted:
        t, h = g[k - 1]
        root[find(t)] = find(h)
    return tuple((find(t), find(h)) for k, (t, h) in enumerate(g, start=1) if k in keep and k not in contracted)


@settings(steady, max_examples=400)
@given(minors())
def test_restrict_contract_is_the_graph_minor(case):
    g, keep, contracted = case
    want = om_from_digraph(graph_minor(g, keep, contracted))
    m = om_from_digraph(g)
    assert restrict_contract(m, keep, contracted) == want
    # the mask builder gives the same minor, and its runs re-index G∖F onto 1..|G∖F| ascending
    minor, runs = _minor(m, _mask(keep), _mask(contracted))
    assert minor == want
    ground = sorted(keep - contracted)
    assert [_squeeze(1 << (e - 1), runs) for e in ground] == [1 << i for i in range(len(ground))]
    assert all(_unsqueeze(_squeeze(x, runs), runs) == x & _mask(ground) for x in range(1 << len(g)))


@settings(steady, max_examples=300)
@given(minors())
def test_the_minor_builder_is_the_reference(case):
    # M's own sets where a prefix ground set cuts none of them, else every restriction tested as before
    g, keep, contracted = case
    m = om_from_digraph(g)
    for om in (m, dual(m)):
        assert _minor(om, _mask(keep), _mask(contracted)) == minor_reference(om, _mask(keep), _mask(contracted))


@pytest.mark.parametrize("make", [k4, w4, k5, w5, k6], ids=["K4", "W4", "K5", "W5", "K6"])
def test_the_minor_builder_is_the_reference_on_complete_graphs_and_wheels(make):
    rng, m = random.Random(29), make()
    full = (1 << m.n) - 1
    for om in (m, dual(m)):
        for i in range(300):
            # a deletion, a contraction, then any minor, in turn
            keep = full if i % 3 == 1 else rng.randrange(full + 1)
            contracted = 0 if i % 3 == 0 else rng.randrange(full + 1) & keep
            assert _minor(om, keep, contracted) == minor_reference(om, keep, contracted), (keep, contracted)
        for top in (1 << e for e in range(om.n)):  # M(1..e+1)/(e+1) and M(1..e), on ground sets from 1
            for keep, contracted in ((2 * top - 1, top), (top - 1, 0)):
                assert _minor(om, keep, contracted) == minor_reference(om, keep, contracted), (keep, contracted)


def test_cut_restrictions_show_an_uncut_circuit_non_minimal():
    # in 12, 23, 13, 13 with the first 13 contracted, the uncut circuit {1,2,4}
    # holds {1,2} and {4}, the restrictions of the cut circuits {1,2,3} and {3,4}
    m = om_from_digraph((("1", "2"), ("2", "3"), ("1", "3"), ("1", "3")))
    minor, runs = _minor(m, 0b1111, 0b0100)
    assert (minor, runs) == minor_reference(m, 0b1111, 0b0100)
    assert _supports(minor.circuits) == [0b011, 0b100]


def brute_force_circuit_supports(g) -> set[int]:
    """A nonempty edge set is a circuit iff it is a single loop, or it is
    connected and every vertex it touches has degree 2."""
    found = set()
    for chosen in range(1, 1 << len(g)):
        edges = [g[i] for i in range(len(g)) if chosen >> i & 1]
        if len(edges) == 1 and edges[0][0] == edges[0][1]:
            found.add(chosen)
            continue
        degree: dict[str, int] = {}
        for t, h in edges:
            degree[t] = degree.get(t, 0) + 1
            degree[h] = degree.get(h, 0) + 1
        reached = {edges[0][0]}
        for _ in edges:
            reached |= {v for t, h in edges if {t, h} & reached for v in (t, h)}
        if set(degree.values()) == {2} and reached == set(degree):
            found.add(chosen)
    return found


@settings(steady, max_examples=300)
@given(digraphs(max_edges=9))
def test_graph_circuits_are_the_simple_cycles(g):
    m = om_from_digraph(g)
    assert {c.pos | c.neg for c in m.circuits} == brute_force_circuit_supports(g)
    for c in m.circuits:
        # a signed circuit is a cycle flow: as much enters each vertex as leaves it
        for v in {v for edge in g for v in edge}:
            flow = sum(c.sign(k) * ((h == v) - (t == v)) for k, (t, h) in enumerate(g, start=1))
            assert flow == 0


def brute_force_bond_supports(g) -> set[int]:
    """The minimal nonempty edge sets whose removal leaves more components,
    counted by union-find over all vertices the edges touch.  Removing more edges never
    joins components, so a disconnecting set is minimal iff keeping any
    one of its edges leaves a set that does not disconnect."""

    def components(kept: int) -> int:
        root = {v: v for edge in g for v in edge}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for i, (t, h) in enumerate(g):
            if kept >> i & 1:
                root[find(t)] = find(h)
        return sum(root[v] == v for v in root)

    full = (1 << len(g)) - 1
    whole = components(full)
    cuts = {chosen for chosen in range(1, full + 1) if components(full & ~chosen) > whole}
    return {c for c in cuts if not any(c >> i & 1 and c & ~(1 << i) in cuts for i in range(len(g)))}


@settings(steady, max_examples=300)
@given(digraphs(max_edges=9))
def test_graph_cocircuits_are_the_bonds(g):
    m = om_from_digraph(g)
    assert {d.pos | d.neg for d in m.cocircuits} == brute_force_bond_supports(g)


@st.composite
def signed_sets(draw):
    signs = draw(st.lists(st.sampled_from((0, 1, -1)), min_size=N, max_size=N))
    pos = frozenset(e for e, s in enumerate(signs, start=1) if s > 0)
    neg = frozenset(e for e, s in enumerate(signs, start=1) if s < 0)
    return pos, neg


def mask(elements) -> int:
    return sum(1 << (e - 1) for e in elements)


element_sets = st.frozensets(st.integers(1, N))


@steady
@given(signed_sets())
def test_element_and_mask_constructors_agree(parts):
    pos, neg = parts
    x = SignedSubset(pos, neg)
    y = SignedSubset.from_masks(mask(pos), mask(neg))
    assert x == y and hash(x) == hash(y)
    assert (y.positive, y.negative, y.support) == (pos, neg, pos | neg)
    assert SignedSubset.from_string(to_string(x, N)) == x


@steady
@given(signed_sets(), element_sets)
def test_reoriented_matches_set_formulas(parts, a):
    pos, neg = parts
    x = SignedSubset(pos, neg)
    flipped = x.reoriented(a)
    assert flipped.positive == (pos - a) | (neg & a)
    assert flipped.negative == (neg - a) | (pos & a)


@steady
@given(signed_sets())
def test_canonical_matches_set_formula(parts):
    pos, neg = parts
    x = SignedSubset(pos, neg)
    if not pos | neg:
        assert _canonical_list([x]) == (x,)
    else:
        first_positive = min(pos | neg) in pos
        assert _canonical_list([x, x.negated()]) == (x if first_positive else SignedSubset(neg, pos),)


@steady
@given(signed_sets(), signed_sets())
def test_compose_matches_set_formula(first, second):
    x, y = SignedSubset(*first), SignedSubset(*second)
    z = compose(x, y)
    assert z.positive == x.positive | (y.positive - x.support)
    assert z.negative == x.negative | (y.negative - x.support)


@settings(steady, max_examples=200)
@given(digraphs(max_edges=9), st.data())
def test_the_forward_map_on_m_and_a_is_the_map_on_the_reorientation(g, data):
    # the serving functions take (M, A) and reorient only the small minors;
    # here each is checked against the same function on -_A M built whole
    m = om_from_digraph(g)
    a = data.draw(st.frozensets(st.integers(1, m.n))) if m.n else frozenset()
    r = reorient(m, a)
    ostar, o = orientation_activities(r)
    f = active_filtration_orientation(r)
    b = active_basis(r)
    assert orientation_activities(m, a) == (ostar, o)
    assert active_filtration_orientation(m, a) == f
    assert active_minors(m, f, a) == active_minors(r, f)
    assert active_basis(m, a) == b
    assert activity_class(m, a) == [a ^ x for x in activity_class(r, ())]
    assert reorientation_params(m, a) == (ostar - a, ostar & a, o - a, o & a)
    assert refined_alpha(m, a) == (b - (a & ostar)) | (a & o)


def check_round_trip(value) -> None:
    """``pickle``, ``copy`` and ``deepcopy`` each give an equal value of the
    same type with the same hash."""
    for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(again) is type(value) and again == value and hash(again) == hash(value)


def check_filtration_encoding(f: Filtration) -> None:
    """The mask-backed filtration against its element-set views."""
    again = Filtration(f.chain, f.cyclic_index)
    assert again == f and hash(again) == hash(f)
    check_round_trip(f)
    assert f.parts == tuple(large - small for small, large in zip(f.chain, f.chain[1:]))
    assert f.masks == tuple(sum(1 << (e - 1) for e in part) for part in f.parts)


@settings(steady, max_examples=100)
@given(digraphs(max_edges=9), st.data())
def test_filtrations_are_stored_as_part_masks(g, data):
    # the minima of the parts, split at the cyclic flat, are (Int(B), Ext(B))
    # for a basis and (O*, O) for a reorientation
    m = om_from_digraph(g)
    for b in bases(m):
        f = active_filtration_basis(m, b)
        check_filtration_encoding(f)
        internal = {e for e in b if min(fundamental_cocircuit(m, b, e).support) == e}
        external = {e for e in m.ground_set - b if min(fundamental_circuit(m, b, e).support) == e}
        assert tuple(map(_elements, f.minima())) == basis_activities(m, b) == (internal, external)
    a = data.draw(st.frozensets(st.integers(1, m.n))) if m.n else frozenset()
    f = active_filtration_orientation(m, a)
    check_filtration_encoding(f)
    assert tuple(map(_elements, f.minima())) == orientation_activities(m, a)


@settings(steady, max_examples=50)
@given(digraphs(max_edges=9))
def test_oms_polynomials_and_classes_are_values(g):
    # an OM's first field is the hash of the other four; _make and _replace recompute it
    m = om_from_digraph(g)
    check_round_trip(m)
    lists = (m.n, m.circuits, m.cocircuits, m.rank)
    made = m._make((0, *lists))
    assert made == m and hash(made) == hash(m)
    bumped = m._replace(rank=m.rank + 1)
    assert bumped.rank == m.rank + 1 and hash(bumped) == hash(OrientedMatroid(*lists[:3], m.rank + 1))
    with pytest.raises(AttributeError):
        m.n = 1
    t = tutte_from_bases(m)
    check_round_trip(t)
    assert str(pickle.loads(pickle.dumps(t))) == str(t)
    result = alpha_inverse_class(m, bases(m)[0])
    check_round_trip(result)
    first = result._replace(class_members=result.class_members[:1])
    assert first.class_members == result.class_members[:1] and first.filtration == result.filtration


def exhaustive_connected_filtrations(m) -> list[Filtration]:
    """Every set partition of E times every cyclic marking of its blocks,
    as a filtration (cyclic blocks by decreasing minimum from ∅, then the
    others by increasing minimum), kept when every chain step's minor is
    connected; each step's verdict is memoized for the call.  It builds each
    minor, so it is independent of the walk's rank table."""
    memo: dict[tuple[int, int, bool], bool] = {}

    def step_ok(small: int, large: int, cyclic: bool) -> bool:
        if (small, large, cyclic) not in memo:
            minor = restrict_contract(m, _elements(large), _elements(small))
            memo[small, large, cyclic] = _connected_step(minor, cyclic)
        return memo[small, large, cyclic]

    def set_partitions(bits: list[int]):
        if not bits:
            yield []
            return
        for blocks in set_partitions(bits[1:]):
            for i in range(len(blocks)):
                yield blocks[:i] + [blocks[i] | bits[0]] + blocks[i + 1:]
            yield [*blocks, bits[0]]

    def low(part: int) -> int:
        return part & -part

    results = []
    for blocks in set_partitions([1 << i for i in range(m.n)]):
        for marking in range(1 << len(blocks)):
            cyclic = sorted((b for i, b in enumerate(blocks) if marking >> i & 1), key=low, reverse=True)
            acyclic = sorted((b for i, b in enumerate(blocks) if not marking >> i & 1), key=low)
            f = Filtration.from_masks(cyclic + acyclic, len(cyclic))
            small = 0
            for i, part in enumerate(f.masks):
                if not step_ok(small, small | part, f.part_is_cyclic(i)):
                    break
                small |= part
            else:
                results.append(f)
    return results


@settings(steady, max_examples=60)
@given(digraphs(max_edges=6))
@example(k4_digraph())
@example(diamond_doubled_digraph())
@example(w4_digraph())
def test_the_chain_walk_finds_every_connected_filtration_once(g):
    m = om_from_digraph(g)
    walked = all_connected_filtrations(m)
    assert len(set(walked)) == len(walked)
    assert set(walked) == set(exhaustive_connected_filtrations(m))


@settings(steady, max_examples=40)
@given(digraphs(max_edges=9))
def test_refined_is_the_forward_map_on_every_reorientation(g):
    # `refined` reads each row off an activity class; the direct route
    # reorients M and builds the active minors for every A
    m = om_from_digraph(g)
    assert refined_stdout(m) == refined_by_direct_route(m)


@settings(steady, max_examples=40)
@given(digraphs(max_edges=9))
@example(())  # n = 0
@example((("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")))
def test_table_is_the_class_route_on_every_basis(g):
    # `table` reads each row off the cached basis records; the class route
    # calls alpha_inverse_class on each basis and formats without the library
    m = om_from_digraph(g)
    assert table_stdout(m) == table_by_class_route(m)


@settings(steady, max_examples=200)
@given(digraphs(max_edges=9))
@example(())  # n = 0
def test_the_batch_of_fundamental_sets_is_the_scan_of_each_basis(g):
    m = om_from_digraph(g)
    for x in (m, dual(m)):
        masks = [mask(b) for b in bases(x)]
        for chosen in (masks, masks[::-1], masks[len(masks) // 2:][:1], []):
            assert _all_fundamentals(x, chosen) == [_fundamentals(x, b) for b in chosen]


def scanned_bases(m) -> tuple[frozenset[int], ...]:
    """Every rank-sized subset in lexicographic order that holds no circuit."""
    supports = [frozenset(c.support) for c in m.circuits]
    return tuple(
        frozenset(b)
        for b in itertools.combinations(range(1, m.n + 1), m.rank)
        if not any(s <= frozenset(b) for s in supports)
    )


@settings(steady, max_examples=200)
@given(digraphs(max_edges=9))
@example(())  # n = 0
@example((("a", "a"), ("a", "a")))  # loops only: rank 0, its dual rank 2
def test_bases_are_the_full_subset_scan(g):
    # the graph's matroid, and its dual read back from an om file
    m = om_from_digraph(g)
    for x in (m, parse_om_file(serialize_om(dual(m)))):
        assert bases(x) == scanned_bases(x)


def bases_level_by_level(n: int, rank: int, supports) -> tuple[int, ...]:
    """The basis masks as the search before bit-slicing grew them: each
    independent member of a level by each larger e, testing every circuit
    whose largest element is e against the member plus e."""
    by_top = [[s for s in supports if s.bit_length() == e + 1] for e in range(n)]
    level = [0]
    for size in range(rank):  # e leaves room for the rank - size - 1 elements still to come
        grown = ((b, e) for b in level for e in range(b.bit_length(), n - rank + size + 1))
        level = [b | 1 << e for b, e in grown if all(s & ~(b | 1 << e) for s in by_top[e])]
    return tuple(level)


@settings(steady, max_examples=200)
@given(digraphs(max_edges=10))
@example(())  # n = 0
@example((("a", "a"), ("b", "b")))  # loops only: rank 0
@example((("a", "b"), ("b", "c"), ("c", "d")))  # isthmuses only: rank n
@example((("a", "b"), ("b", "a"), ("a", "b"), ("b", "b"), ("b", "c")))  # parallel edges, a loop, an isthmus
@example(k4_digraph())
def test_the_bit_sliced_bases_are_the_level_by_level_search(g):
    # the tuple, order included, of the graph's matroid and of both om files
    m = om_from_digraph(g)
    for x in (m, parse_om_file(serialize_om(m)), parse_om_file(serialize_om(dual(m)))):
        assert _basis_masks(x) == bases_level_by_level(x.n, x.rank, [c.pos | c.neg for c in x.circuits])


@settings(steady, max_examples=100)
@given(digraphs(max_edges=9))
@example(())  # n = 0: one empty interval
@example(k4_digraph())
def test_the_interval_counts_are_the_per_subset_tally(g):
    # Crapo's identity subset by subset: each A counted at (|Int(A)|, |P(A)|, |Ext(A)|, |Q(A)|)
    # for the basis that owns it gives the coefficients of t(x+u, y+v)
    m = om_from_digraph(g)
    owner, table, tally = _interval_walk(m), _interval_table(m), Counter()
    for a in range(1 << m.n):
        internal, external = table[owner[a]][1].minima()
        tally[tuple(map(int.bit_count, (internal & a, internal & ~a, external & ~a, external & a)))] += 1
    assert dict(tally) == _shifted_coefficients(tutte_from_bases(m))


@settings(steady, max_examples=60)
@given(connected_digraphs(max_edges=8))
@example(k4_digraph())  # both M/ω and M∖ω are bounded on four reorientations
@example(diamond_doubled_digraph())
def test_the_served_fully_optimal_basis_is_the_scan(g):
    # deletion/contraction of the greatest element against every basis
    # tested on both criteria; the scan alone tells which reorientations
    # are neither bounded nor dual-bounded
    m = om_from_digraph(g)
    for a in map(_elements, range(1 << m.n) if m.n else ()):  # the scan needs n ≥ 1
        r = reorient(m, a)
        scan = fully_optimal_basis_scan(r)
        if is_bounded(r) or is_dual_bounded(r):
            assert scan == fully_optimal_basis(r), sorted(a)
        else:
            assert scan is None, sorted(a)


def assert_the_table_is_the_scan(m: OrientedMatroid) -> None:
    owners, bounded = _optimal_table(m)
    for a in range(1 << m.n):
        scan = fully_optimal_basis_scan(m, a)
        assert owners[a] == (None if scan is None else _mask(scan)), a
        assert bounded >> a & 1 == _bounded_under(m, a, False), a


@pytest.mark.parametrize(
    "make", [k3, k4, diamond_doubled, w4, k5, w5], ids=["K3", "K4", "diamond_doubled", "W4", "K5", "W5"]
)
def test_the_optimal_table_is_the_scan_at_every_a(make):
    # the table of every A at once against the scan of every basis at each A, on M, its dual and a reorientation
    m = make()
    for om in (m, dual(m), reorient(m, {2, m.n})):
        assert_the_table_is_the_scan(om)


def test_the_served_active_basis_is_the_optimal_table_on_k5():
    # wherever -_A M is bounded or dual-bounded, its active basis is its fully optimal basis
    m = k5()
    owners, _ = _optimal_table(m)
    for a in range(1 << m.n):
        if owners[a] is not None:
            assert active_basis(m, _elements(a)) == _elements(owners[a]), a


@pytest.mark.parametrize("make", [k4, diamond_doubled, w4, k5], ids=["K4", "diamond_doubled", "W4", "K5"])
def test_the_minors_built_are_the_bounded_ones(make, monkeypatch, request):
    # the boundedness of M/ω and M∖ω decided on M, against is_bounded of both minors built,
    # at every bounded minor that active_basis reaches on M and on its dual
    import actbij.bijection as bijection

    served, build = bijection.fully_optimal_basis, bijection._minor
    reached, built = set(), set()
    monkeypatch.setattr(bijection, "fully_optimal_basis", lambda m: reached.add(m) or served(m))
    monkeypatch.setattr(bijection, "_minor", lambda m, keep, cut: built.add((m, keep, cut)) or build(m, keep, cut))
    served.cache_clear()
    request.addfinalizer(served.cache_clear)  # no entry made under the patch stays
    for om in (make(), dual(make())):
        for a in range(1 << om.n):
            bijection.active_basis(om, _elements(a))
    bounded = [m for m in reached if m.n >= 2 and is_bounded(m)]
    assert len(bounded) > 10
    for m in bounded:
        full, omega = (1 << m.n) - 1, 1 << (m.n - 1)
        for keep, cut in ((full, omega), (full ^ omega, 0)):
            assert ((m, keep, cut) in built) == is_bounded(build(m, keep, cut)[0]), (m, keep, cut)


@settings(steady, max_examples=60)
@given(connected_digraphs(max_edges=8), st.data())
def test_the_optimal_table_is_the_scan_on_random_graphs(g, data):
    m = om_from_digraph(g)
    a = data.draw(st.frozensets(st.integers(1, m.n))) if m.n else frozenset()
    for om in (m, dual(m), reorient(m, a)) if m.n else ():  # the scan needs n ≥ 1
        assert_the_table_is_the_scan(om)


@settings(steady, max_examples=100)
@given(digraphs(max_edges=7), st.data())
def test_the_recursive_definitions_give_the_served_active_basis(g, data):
    # the oracle recursion reads -_A M built whole, the served map (M, A)
    m = om_from_digraph(g)
    a = data.draw(st.frozensets(st.integers(1, m.n))) if m.n else frozenset()
    r = reorient(m, a)
    b = active_basis(m, a)
    assert active_basis_recursive(r) == b
    assert active_basis_recursive(r, circuit_induction=True) == b


@settings(steady, max_examples=40)
@given(digraphs(max_edges=6))
def test_the_recursion_under_each_flip_is_the_recursion_on_the_reoriented_om(g):
    # the recursion carries minors of M reoriented by the squeezed flip; on -_A M it carries minors of -_A M
    m = om_from_digraph(g)
    memo: dict = {}
    for a in range(1 << m.n):
        for circuit_induction in (False, True):
            want = active_basis_recursive(reorient(m, _elements(a)), circuit_induction=circuit_induction)
            assert active_basis_recursive(m, flip=a, circuit_induction=circuit_induction, memo=memo) == want


@settings(steady, max_examples=50)
@given(digraphs(max_edges=9))
def test_alpha_is_onto_the_bases_with_two_to_the_activities_reorientations_each(g):
    # acceptance criterion 6, whose seeded loop stays in test_acceptance.py
    m = om_from_digraph(g)
    preimages = Counter(active_basis(reorient(m, a)) for a in map(_elements, range(1 << m.n)))
    assert set(preimages) == set(bases(m))
    for b, count in preimages.items():
        internal, external = basis_activities(m, b)
        assert count == 1 << (len(internal) + len(external))


@settings(steady, max_examples=50)
@given(digraphs(max_edges=9))
def test_alpha_keeps_the_activities_of_every_reorientation(g):
    # acceptance criterion 9, whose seeded loop stays in test_acceptance.py:
    # Int(α(A)) = O*(-_A M) and Ext(α(A)) = O(-_A M)
    m = om_from_digraph(g)
    for a in map(_elements, range(1 << m.n)):
        r = reorient(m, a)
        assert basis_activities(m, active_basis(r)) == orientation_activities(r)


@settings(steady, max_examples=60)
@given(digraphs(max_edges=8))
@example(k4_digraph())
@example(diamond_doubled_digraph())
@example(w4_digraph())
@example((("a", "a"),))  # U(1,0), a loop
@example((("a", "b"),))  # U(1,1), an isthmus
@example(())  # n = 0
def test_the_rank_table_is_the_greedy_rank_at_every_subset(g):
    m = om_from_digraph(g)
    supports = _supports(m.circuits)
    assert list(_rank_table(m)) == [_greedy_rank(supports, a) for a in range(1 << m.n)]


@settings(steady, max_examples=60)
@given(digraphs(max_edges=9))
@example(k4_digraph())  # as in the seeded loop
def test_the_bases_orientations_and_rank_generating_sum_give_one_tutte_polynomial(g):
    # acceptance criterion 2, whose seeded loop stays in test_acceptance.py
    m = om_from_digraph(g)
    t = tutte_from_bases(m)
    assert tutte_from_orientations(m) == t
    assert tutte_rank_oracle(m) == t


@settings(steady, max_examples=40)
@given(digraphs(max_edges=8))
def test_the_class_and_refined_round_trips_are_identities(g):
    # acceptance criterion 8, whose seeded loop stays in test_acceptance.py
    m = om_from_digraph(g)
    for b in bases(m):
        for a in alpha_inverse_class(m, b).class_members:
            assert active_basis(reorient(m, a)) == b
    subsets = list(map(_elements, range(1 << m.n)))  # every reorientation A, then every subset X
    assert [refined_alpha_inverse(m, refined_alpha(m, a)) for a in subsets] == subsets
    assert [refined_alpha(m, refined_alpha_inverse(m, x)) for x in subsets] == subsets


@settings(steady, max_examples=40)
@given(connected_digraphs(max_edges=8))
def test_alpha_and_active_duality_hold_on_every_reorientation(g):
    # acceptance criterion 10, whose seeded loop stays in test_acceptance.py:
    # α(M*, A) = E ∖ α(M, A) on every A, and active duality on every bounded -_A M
    m = om_from_digraph(g)
    md = dual(m)
    for a in map(_elements, range(1 << m.n)):
        r = reorient(m, a)
        assert active_basis(reorient(md, a)) == m.ground_set - active_basis(r)
        if m.n > 1 and is_bounded(r):
            assert check_active_duality(r), sorted(a)


@settings(steady, max_examples=100)
@given(digraphs(max_edges=9))
def test_the_reorientation_histogram_is_the_count_of_each_reorientation(g):
    # the bitset histogram behind both reorientation routes of `tutte --check`
    m = om_from_digraph(g)
    # the same counts, keyed in the same order: by the first A of each key
    assert list(_reorientation_histogram(m).items()) == list(brute_force_reorientation_histogram(m).items())


@settings(steady, max_examples=40)
@given(digraphs(max_edges=8))
def test_both_four_variable_sums_are_the_shifted_tutte_polynomial(g):
    # acceptance criterion 11, whose seeded loop stays in test_acceptance.py
    m = om_from_digraph(g)
    t = tutte_from_bases(m)
    for x, u, y, v in itertools.product(range(3), repeat=4):
        want = t.evaluate(x + u, y + v)
        assert four_var_subset_sum(m, x, u, y, v) == want
        assert four_var_reorientation_sum(m, x, u, y, v) == want


@settings(steady, max_examples=40)
@given(digraphs(max_edges=6))
def test_each_reorientation_has_exactly_one_valid_connected_filtration(g):
    # acceptance criterion 12, whose seeded loop stays in test_acceptance.py
    assert_unique_decomposition(om_from_digraph(g))
