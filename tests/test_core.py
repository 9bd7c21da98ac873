import random
import re
import tracemalloc
from collections import defaultdict, deque

import pytest

from actbij.activities import _interval_table, _positive_supports, basis_pass
from actbij.core import (
    InvalidOrientedMatroid,
    OrientedMatroid,
    SignedSubset,
    _all_fundamentals,
    _bases,
    _basis_masks,
    _canonical_list,
    _elements,
    _fundamentals,
    _mask,
    _positive_under,
    bases,
    compose,
    contract,
    delete,
    dual,
    fundamental_circuit,
    fundamental_cocircuit,
    is_bounded,
    is_dual_bounded,
    om_from_lists,
    reorient,
)
from conftest import random_multigraph, random_om, serialize_om, subsets, to_string
from actbij.graphs import om_from_digraph, parse_om_file
from examples import diamond_doubled, k4, w4


def ss(*signed):
    pos = frozenset(e for e in signed if e > 0)
    neg = frozenset(-e for e in signed if e < 0)
    return SignedSubset(pos, neg)


def u11():
    return om_from_lists(1, [], [ss(1)])


def u10():
    return om_from_lists(1, [ss(1)], [])


def k3_by_lists():
    return om_from_lists(
        3,
        [ss(1, -2, 3)],
        [ss(1, 2), ss(1, -3), ss(2, 3)],
    )


# ---------------------------------------------------------------- oracles

def digraph_fundamental_circuit(edges, tree, e):
    """Fundamental cycle of edge e w.r.t. spanning forest `tree`, signed by
    traversing the cycle along e.  Independent of the matroid machinery."""
    tail, head = edges[e - 1]
    if tail == head:
        return ss(e)
    walk = defaultdict(list)
    for k in tree:
        t, h = edges[k - 1]
        walk[t].append((k, h, 1))
        walk[h].append((k, t, -1))
    prev = {head: None}
    queue = deque([head])
    while queue:
        u = queue.popleft()
        if u == tail:
            break
        for k, w, s in walk[u]:
            if w not in prev:
                prev[w] = (u, k, s)
                queue.append(w)
    pos, neg = {e}, set()
    node = tail
    while prev[node] is not None:
        u, k, s = prev[node]
        (pos if s > 0 else neg).add(k)
        node = u
    return SignedSubset(frozenset(pos), frozenset(neg))


def digraph_fundamental_cocircuit(edges, tree, b):
    """Fundamental directed cut of tree edge b, signed away from the side
    containing b's tail, so that b is positive."""
    tail, head = edges[b - 1]
    adj = defaultdict(set)
    for k in tree:
        if k == b:
            continue
        t, h = edges[k - 1]
        adj[t].add(h)
        adj[h].add(t)
    side = {tail}
    queue = deque([tail])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in side:
                side.add(w)
                queue.append(w)
    pos, neg = set(), set()
    for k, (t, h) in enumerate(edges, start=1):
        if (t in side) and (h not in side):
            pos.add(k)
        elif (h in side) and (t not in side):
            neg.add(k)
    return SignedSubset(frozenset(pos), frozenset(neg))


# ------------------------------------------------------------ signed sets

def test_signed_subset_disjointness():
    with pytest.raises(ValueError):
        SignedSubset(frozenset({1}), frozenset({1}))
    # the namedtuple constructors go through from_masks too
    with pytest.raises(ValueError):
        SignedSubset._make((3, 3))
    with pytest.raises(ValueError):
        ss(1, -2)._replace(neg=1)
    assert ss(1, -2)._replace(neg=4) == ss(1, -3)


def test_canonical_representative():
    # one stored representative per opposite pair, its smallest element positive
    assert _canonical_list([ss(-1, 2)]) == (ss(1, -2),)
    assert _canonical_list([ss(1, -2), ss(-1, 2)]) == (ss(1, -2),)


def test_compose_zero_identity():
    zero = SignedSubset(frozenset(), frozenset())
    x = ss(1, -2, 3)
    assert compose(x, zero) == x
    assert compose(zero, x) == x


def test_compose_first_argument_wins():
    assert compose(ss(1), ss(-1, 2)) == ss(1, 2)


def test_compose_associative():
    rng = random.Random(0)
    for _ in range(100):
        xs = [
            SignedSubset(
                frozenset(e for e in range(1, 6) if rng.random() < 0.3),
                frozenset(),
            )
            for _ in range(3)
        ]
        xs = [
            SignedSubset(x.positive, frozenset(e for e in range(1, 6) if rng.random() < 0.3) - x.positive)
            for x in xs
        ]
        a, b, c = xs
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_sign_string_round_trip():
    x = SignedSubset.from_string("++-000")
    assert x == ss(1, 2, -3)
    assert to_string(x, 6) == "++-000"


# ------------------------------------------------------------ construction

def test_single_element_fixtures():
    assert u11().rank == 1
    assert u10().rank == 0


def test_k3_from_lists_rank():
    assert k3_by_lists().rank == 2


def test_k3_matches_graph_fixture(k3_om):
    assert k3_by_lists() == k3_om


def test_rejects_comparable_supports():
    # given first, then last: sorted by support mask, the smaller set comes first either way
    for first, second in [((1, 2), (1, 2, 3)), ((1, 2, 3), (2, 3))]:
        sets = [ss(*first), ss(*second)]
        for kind, lists in (("circuit", (sets, [])), ("cocircuit", ([], sets))):
            with pytest.raises(InvalidOrientedMatroid, match=f"^{kind} supports are not an antichain"):
                om_from_lists(3, *lists)


def test_rejects_orthogonality_violation():
    # circuit and cocircuit agreeing in sign everywhere on their overlap
    with pytest.raises(InvalidOrientedMatroid):
        om_from_lists(3, [ss(1, -2, 3)], [ss(2, 3)])


def test_rejects_rank_mismatch():
    with pytest.raises(InvalidOrientedMatroid):
        om_from_lists(1, [], [])


def test_rejects_empty_support():
    with pytest.raises(InvalidOrientedMatroid):
        om_from_lists(2, [SignedSubset(frozenset(), frozenset())], [ss(1), ss(2)])


def test_rejects_a_negative_ground_set_size():
    with pytest.raises(ValueError, match="^ground set size must be nonnegative$"):
        om_from_lists(-1, [], [])


def test_rejects_an_element_out_of_range():
    message = "element out of range 1..2 in SignedSubset(+1,+3)"
    with pytest.raises(InvalidOrientedMatroid, match=f"^{re.escape(message)}$"):
        om_from_lists(2, [ss(1, 3)], [ss(2)])


def test_rejects_conflicting_signatures():
    with pytest.raises(InvalidOrientedMatroid):
        om_from_lists(3, [ss(1, 2, 3), ss(1, -2, 3)], [])


# ----------------------------------------------------------------- duality

def test_dual_fixtures(k3_om):
    assert dual(u11()) == u10()
    d = dual(k3_om)
    assert d.rank == 1
    assert d.circuits == k3_om.cocircuits


def test_dual_involution_random():
    rng = random.Random(1)
    for _ in range(30):
        m = random_om(rng)
        assert dual(dual(m)) == m


# ----------------------------------------------------------- reorientation

def test_reorient_empty_and_involution(k4_om):
    assert reorient(k4_om, frozenset()) == k4_om
    rng = random.Random(2)
    for _ in range(20):
        m = random_om(rng)
        a = frozenset(e for e in range(1, m.n + 1) if rng.random() < 0.5)
        assert reorient(reorient(m, a), a) == m


def test_full_flip_is_global_negation(k3_om):
    flipped = reorient(k3_om, k3_om.ground_set)
    # canonical representatives absorb a global negation
    assert flipped == k3_om


def test_reorient_2_makes_k3_cyclic(k3_om):
    # no positive cocircuit, in -_{2} M built whole or in M's cocircuits read under the flip
    assert not _positive_under(reorient(k3_om, {2}).cocircuits, 0)
    assert not _positive_under(k3_om.cocircuits, 0b010)


# ------------------------------------------------------------------ minors

def test_contract_k4_triangle(k4_om):
    m = contract(k4_om, {1, 2, 3})
    assert m.n == 3 and m.rank == 1
    assert sorted(sorted(c.support) for c in m.circuits) == [[1, 2], [1, 3], [2, 3]]


def test_delete_nothing(k4_om):
    assert delete(k4_om, frozenset()) == k4_om


def test_restrict_k4_to_triangle_is_k3(k3_om, k4_om):
    assert delete(k4_om, {4, 5, 6}) == k3_om


def _reindex(n, removed, target):
    kept = sorted(set(range(1, n + 1)) - removed)
    pos = {e: i for i, e in enumerate(kept, start=1)}
    return frozenset(pos[e] for e in target)


def test_minor_commutation_and_duality():
    rng = random.Random(3)
    for _ in range(25):
        m = random_om(rng, max_edges=8)
        elems = list(range(1, m.n + 1))
        rng.shuffle(elems)
        a = frozenset(elems[: m.n // 3])
        b = frozenset(elems[m.n // 3 : 2 * m.n // 3])
        del_first = contract(delete(m, a), _reindex(m.n, a, b))
        con_first = delete(contract(m, b), _reindex(m.n, b, a))
        assert del_first == con_first
        # (M/A)* = M* \ A
        assert dual(contract(m, a)) == delete(dual(m), a)


# ------------------------------------------------------------- positivity

def test_positivity_fixtures(k3_om):
    # acyclic: no positive circuit; totally cyclic: no positive cocircuit
    assert not _positive_under(k3_om.circuits, 0) and _positive_under(k3_om.cocircuits, 0)
    assert not _positive_under(u10().cocircuits, 0) and not _positive_under(u11().circuits, 0)


def test_acyclic_iff_covered_by_positive_cocircuits():
    rng = random.Random(4)
    for _ in range(30):
        m = random_om(rng)
        loops = {e for c in m.circuits if len(c.support) == 1 for e in c.support}
        if loops or m.n == 0:
            continue
        covered = 0  # the union of the positive cocircuits, as a mask
        for s in _positive_under(m.cocircuits, 0):
            covered |= s
        assert (not _positive_under(m.circuits, 0)) == (covered == (1 << m.n) - 1)



def test_the_oracle_positivity_test_agrees_with_the_serving_one():
    # two formulas for one notion, kept apart so a check never reads the route it checks;
    # both against the stored-sign test on -_A M built whole
    rng = random.Random(5)
    for m in [k4(), w4()] + [random_om(rng, max_edges=7) for _ in range(10)]:
        for a in range(1 << m.n):
            r = reorient(m, _elements(a))
            for mine, whole in ((m.circuits, r.circuits), (m.cocircuits, r.cocircuits)):
                want = sorted(x | y for x, y in whole if not (x and y))
                assert sorted(_positive_under(mine, a)) == sorted(_positive_supports(mine, a)) == want

# ------------------------------------------------------------------- bases

def test_bases_fixtures(k3_om, k4_om):
    assert [sorted(b) for b in bases(k3_om)] == [[1, 2], [1, 3], [2, 3]]
    assert len(bases(k4_om)) == 16
    assert list(bases(u10())) == [frozenset()]


def test_the_bases_cache_keeps_k6_as_masks_under_100_kb():
    # K6 from its 15 edges in colex order ab, ac, bc, ad, ...: 1296 bases
    m = om_from_digraph([(u, v) for v in range(6) for u in range(v)])
    _bases.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        masks = _basis_masks(m)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(masks) == 1296 and _bases.cache_info().currsize == 1
    assert held < 100_000
    assert bases(m) == tuple(frozenset(e + 1 for e in range(m.n) if b >> e & 1) for b in masks)


# --------------------------------------------- fundamental circuits / cuts

def test_fundamental_circuit_frozen_values(k3_om, k4_om):
    assert fundamental_circuit(k4_om, frozenset({1, 2, 4}), 3) == ss(1, -2, 3)
    assert fundamental_cocircuit(k4_om, frozenset({1, 2, 4}), 1) == ss(1, -3, -5)
    assert fundamental_circuit(k3_om, frozenset({1, 3}), 2) == ss(-1, 2, -3)


def test_fundamental_preconditions(k3_om):
    with pytest.raises(ValueError):
        fundamental_circuit(k3_om, frozenset({1, 2}), 1)
    with pytest.raises(ValueError):
        fundamental_cocircuit(k3_om, frozenset({1, 2}), 3)


def test_fundamental_against_digraph_oracle():
    rng = random.Random(5)
    checked = 0
    while checked < 20:
        g = random_multigraph(rng, max_vertices=5, max_edges=8)
        m = om_from_digraph(g)
        if m.n == 0:
            continue
        for b in bases(m):
            for e in m.ground_set - b:
                want = digraph_fundamental_circuit(g, b, e)
                assert fundamental_circuit(m, b, e) in (want, want.negated())
            for elt in b:
                want = digraph_fundamental_cocircuit(g, b, elt)
                assert fundamental_cocircuit(m, b, elt) in (want, want.negated())
        checked += 1


@pytest.mark.parametrize("m", [k4(), w4(), parse_om_file(serialize_om(diamond_doubled()))])
def test_the_interval_table_is_one_basis_pass_per_basis(m):
    _interval_table.cache_clear()
    masks = [_mask(b) for b in bases(m)]
    assert _interval_table(m) == tuple((b, *basis_pass(_fundamentals(m, b), b)) for b in masks)


@pytest.mark.parametrize("cocircuits, first_bad, message", [
    # {3} is a second fundamental cocircuit of 3 in the bases {1,3} and {2,3}
    ([ss(1, 2), ss(1, -3), ss(2, 3), ss(3)], 0b101, "expected exactly one cocircuit inside [2, 3], found 2"),
    # in place of {2,3}, it also leaves 2 without one in {1,2}: the sets
    # found still number 3 per basis on average
    ([ss(1, 2), ss(1, -3), ss(3)], 0b011, "expected exactly one cocircuit inside [2, 3], found 0"),
], ids=["doubled", "missing-and-doubled"])
def test_the_batch_raises_the_scans_error_for_the_first_bad_basis(cocircuits, first_bad, message):
    # built directly: om_from_lists would refuse these lists
    m = OrientedMatroid(3, k3_by_lists().circuits, tuple(cocircuits), 2)
    masks = [_mask(b) for b in bases(m)]
    for b in masks[: masks.index(first_bad)]:
        _fundamentals(m, b)
    for route in (lambda: _fundamentals(m, first_bad), lambda: _all_fundamentals(m, masks)):
        with pytest.raises(InvalidOrientedMatroid, match=f"^{re.escape(message)}$"):
            route()


def test_pivot_property():
    rng = random.Random(6)
    for _ in range(10):
        m = random_om(rng, max_edges=7)
        for b in bases(m):
            for elt in b:
                d = fundamental_cocircuit(m, b, elt)
                for e in m.ground_set - b:
                    c = fundamental_circuit(m, b, e)
                    assert (e in d.support) == (elt in c.support)


def test_compose_all_cocircuits_is_positive_for_optimal(k4_om):
    # the composed maximal covector of basis 136 in -_{3,5,6} is positive
    m = reorient(k4_om, {3, 5, 6})
    b = frozenset({1, 3, 6})
    cov = SignedSubset(frozenset(), frozenset())
    for elt in sorted(b):
        cov = compose(cov, fundamental_cocircuit(m, b, elt))
    assert cov == SignedSubset(m.ground_set, frozenset())


# ------------------------------------------------------------- boundedness

def test_boundedness_fixtures(k4_om):
    assert is_bounded(reorient(k4_om, {3, 5}))
    assert is_bounded(reorient(k4_om, {3, 5, 6}))
    assert not is_bounded(k4_om)
    assert is_bounded(u11())
    assert is_dual_bounded(u10())
    assert is_dual_bounded(reorient(k4_om, {2, 4, 6}))
