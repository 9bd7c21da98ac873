import itertools
import random
from collections import defaultdict

import pytest

from actbij import activities, tutte
from actbij.activities import Filtration, active_filtration_orientation, orientation_activities
from actbij.bijection import active_basis
from actbij.core import (
    GroundSetTooLarge,
    SignedSubset,
    _greedy_rank,
    _mask,
    _supports,
    bases,
    om_from_lists,
    reorient,
)
from actbij.graphs import om_from_digraph, parse_om_file
from actbij.oracles import active_basis_recursive, all_connected_filtrations, tutte_rank_oracle
from actbij.tutte import (
    TuttePolynomial,
    beta,
    beta_star,
    four_var_reorientation_sum,
    four_var_subset_sum,
    tutte_from_bases,
    tutte_from_orientations,
)
from conftest import brute_force_reorientation_histogram, random_om, serialize_om, subsets


def poly(coeffs):
    return TuttePolynomial(coeffs)


K3_POLY = poly({(2, 0): 1, (1, 0): 1, (0, 1): 1})
K4_POLY = poly(
    {(3, 0): 1, (2, 0): 3, (1, 0): 2, (1, 1): 4, (0, 1): 2, (0, 2): 3, (0, 3): 1}
)
DIAMOND_POLY = poly(
    {
        (3, 0): 1,
        (2, 0): 2,
        (1, 0): 1,
        (2, 1): 1,
        (1, 1): 3,
        (1, 2): 1,
        (0, 1): 1,
        (0, 2): 2,
        (0, 3): 1,
    }
)


def u11():
    return om_from_lists(1, [], [SignedSubset(frozenset({1}), frozenset())])


def u10():
    return om_from_lists(1, [SignedSubset(frozenset({1}), frozenset())], [])


def test_fixture_polynomials(k3_om, k4_om, diamond_om):
    assert tutte_from_bases(k3_om) == K3_POLY
    assert tutte_from_bases(k4_om) == K4_POLY
    assert tutte_from_bases(diamond_om) == DIAMOND_POLY


def test_polynomial_strings(k3_om, k4_om):
    assert str(tutte_from_bases(k3_om)) == "x^2 + x + y"
    assert str(tutte_from_bases(k4_om)) == "x^3 + 3x^2 + 2x + 4xy + 2y + 3y^2 + y^3"


def test_orientation_route_fixtures(k3_om, k4_om):
    assert tutte_from_orientations(k3_om) == K3_POLY
    assert tutte_from_orientations(k4_om) == K4_POLY


def test_k3_orientation_histogram(k3_om):
    counts = defaultdict(int)
    for a in subsets(3):
        ostar, o = orientation_activities(reorient(k3_om, a))
        counts[len(ostar), len(o)] += 1
    assert dict(counts) == {(2, 0): 4, (1, 0): 2, (0, 1): 2}
    served = defaultdict(int)
    for (ts, tsb, th, thb), c in tutte._reorientation_histogram(k3_om).items():
        served[ts + tsb, th + thb] += c
    assert dict(served) == {(2, 0): 4, (1, 0): 2, (0, 1): 2}


def test_the_empty_om_has_one_reorientation_with_no_activity():
    assert tutte._reorientation_histogram(om_from_lists(0, [], [])) == {(0, 0, 0, 0): 1}


def test_the_diamond_om_file_histogram_is_the_count_of_each_reorientation(diamond_om):
    m = parse_om_file(serialize_om(diamond_om))
    assert list(tutte._reorientation_histogram(m).items()) == list(brute_force_reorientation_histogram(m).items())


def test_an_inexact_class_size_division_fails_the_self_test(monkeypatch, k3_om):
    # one reorientation with one dual-active element: its class would have 2 members
    monkeypatch.setattr(tutte, "_reorientation_histogram", lambda m: {(1, 0, 0, 0): 1})
    with pytest.raises(AssertionError, match=r"^o_\(1,0\) = 1 is not divisible by 2\^1$"):
        tutte_from_orientations(k3_om)


def test_rank_oracle_fixtures(k3_om):
    assert tutte_rank_oracle(u11()) == poly({(1, 0): 1})
    assert tutte_rank_oracle(u10()) == poly({(0, 1): 1})
    assert tutte_rank_oracle(k3_om) == K3_POLY


def test_three_routes_agree_random():
    rng = random.Random(40)
    for _ in range(40):
        m = random_om(rng, max_vertices=6, max_edges=10)
        t = tutte_from_bases(m)
        assert tutte_from_orientations(m) == t
        assert tutte_rank_oracle(m) == t


def test_beta_fixtures(k4_om):
    assert beta(k4_om) == 2
    assert beta(u11()) == 1 and beta_star(u11()) == 0
    assert beta(u10()) == 0 and beta_star(u10()) == 1


def test_beta_equals_beta_star_beyond_one_element():
    rng = random.Random(41)
    for _ in range(25):
        m = random_om(rng, min_edges=2)
        assert beta(m) == beta_star(m)


def test_four_var_sums_fixture_points(k4_om):
    t = tutte_from_bases(k4_om)
    assert four_var_subset_sum(k4_om, 1, 1, 1, 1) == 64 == t.evaluate(2, 2)
    assert four_var_subset_sum(k4_om, 1, 1, 0, 1) == 38 == t.evaluate(2, 1)
    assert four_var_reorientation_sum(k4_om, 1, 0, 1, 0) == 16 == t.evaluate(1, 1)
    assert four_var_reorientation_sum(k4_om, 1, 0, 0, 0) == 6 == t.evaluate(1, 0)
    assert four_var_reorientation_sum(k4_om, 2, 0, 0, 0) == 24 == t.evaluate(2, 0)


def test_four_var_sums_on_grid(k3_om, k4_om):
    rng = random.Random(42)
    oms = [k3_om, k4_om] + [random_om(rng, max_edges=8) for _ in range(5)]
    for m in oms:
        t = tutte_from_bases(m)
        for x, u, y, v in itertools.product(range(3), repeat=4):
            want = t.evaluate(x + u, y + v)
            assert four_var_subset_sum(m, x, u, y, v) == want
            assert four_var_reorientation_sum(m, x, u, y, v) == want


def test_the_subset_sum_raises_where_the_basis_intervals_overlap(monkeypatch, request, k3_om):
    # every basis of K3 given the parts 1|2|3 above the cyclic flat: each interval is all of 2^E
    monkeypatch.setattr(activities, "basis_pass", lambda funds, basis: (Filtration.from_masks((1, 2, 4), 0), 0))
    for cached in (activities._interval_table, activities._interval_walk):
        cached.cache_clear()
        request.addfinalizer(cached.cache_clear)  # no record made under the plant stays
    with pytest.raises(AssertionError, match="^subset 111 lies in two basis intervals$"):
        four_var_subset_sum(k3_om, 1, 0, 0, 0)


def test_independent_and_spanning_counts(k4_om):
    supports = {c.support for c in k4_om.circuits}
    independents = sum(
        1 for a in subsets(6) if not any(s <= a for s in supports)
    )
    spanning = sum(1 for a in subsets(6) if _greedy_rank(_supports(k4_om.circuits), _mask(a)) == k4_om.rank)
    t = tutte_from_bases(k4_om)
    assert independents == t.evaluate(2, 1) == 38
    assert spanning == t.evaluate(1, 2) == 38


def test_enum_class_counts(k4_om):
    t = tutte_from_bases(k4_om)
    reps = acyclic = cyclic = active_fixed = dual_fixed = 0
    for a in subsets(6):
        ostar, o = orientation_activities(reorient(k4_om, a))
        if not (a & o):
            active_fixed += 1
        if not (a & ostar):
            dual_fixed += 1
        if not (a & (o | ostar)):
            reps += 1
            acyclic += not o
            cyclic += not ostar
    assert reps == t.evaluate(1, 1) == 16
    assert acyclic == t.evaluate(1, 0) == 6
    assert cyclic == t.evaluate(0, 1) == 6
    assert active_fixed == t.evaluate(2, 1) == 38
    assert dual_fixed == t.evaluate(1, 2) == 38


def test_interval_unions_are_independents_and_spanning(k4_om):
    from actbij.activities import basis_activities

    lower, upper = set(), set()
    for b in bases(k4_om):
        internal, external = basis_activities(k4_om, b)
        for k in range(len(internal) + 1):
            for drop in itertools.combinations(sorted(internal), k):
                lower.add(b - frozenset(drop))
        for k in range(len(external) + 1):
            for add in itertools.combinations(sorted(external), k):
                upper.add(b | frozenset(add))
    supports = {c.support for c in k4_om.circuits}
    independents = {a for a in subsets(6) if not any(s <= a for s in supports)}
    spanning = {a for a in subsets(6) if _greedy_rank(_supports(k4_om.circuits), _mask(a)) == k4_om.rank}
    assert lower == independents
    assert upper == spanning


def test_basic_identities_random():
    rng = random.Random(43)
    for _ in range(20):
        m = random_om(rng)
        t = tutte_from_bases(m)
        assert t.evaluate(1, 1) == len(bases(m))
        assert t.evaluate(2, 2) == 1 << m.n
        if m.n:
            assert t.coefficient(0, 0) == 0
        else:
            assert t == poly({(0, 0): 1})


def test_enumeration_cap():
    big = om_from_lists(
        25,
        [],
        [SignedSubset(frozenset({i}), frozenset()) for i in range(1, 26)],
    )
    with pytest.raises(GroundSetTooLarge):
        tutte_from_orientations(big)
    with pytest.raises(GroundSetTooLarge):
        bases(big)


def _module_state(module):
    """Every global of the module, with the entry count of each lru_cache."""
    return {
        name: (id(value), value.cache_info().currsize if hasattr(value, "cache_info") else None)
        for name, value in vars(module).items()
    }


def test_oracles_keep_no_state_between_calls():
    from actbij import activities, oracles, tutte

    rng = random.Random(11)
    modules = (activities, oracles, tutte)
    for oracle, max_edges in ((tutte_rank_oracle, 8), (all_connected_filtrations, 6), (active_basis_recursive, 8)):
        oms = [random_om(rng, max_edges=max_edges, min_edges=4) for _ in range(2)]
        before = [_module_state(module) for module in modules]
        results = [oracle(m) for m in oms]
        assert [_module_state(module) for module in modules] == before, oracle.__name__
        for m, result in zip(oms, results):
            if oracle is tutte_rank_oracle:
                assert result == tutte_from_bases(m)
            elif oracle is all_connected_filtrations:
                assert active_filtration_orientation(m) in result
            else:
                assert result == active_basis(m)


def test_bases_route_matches_networkx():
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    rng = random.Random(23)
    for _ in range(40):
        vertices = tuple(chr(97 + i) for i in range(rng.randint(1, 5)))
        edges = [tuple(rng.sample(vertices, 2)) for _ in range(rng.randint(0, 8) if len(vertices) > 1 else 0)]
        g = nx.MultiGraph()
        g.add_nodes_from(vertices)
        g.add_edges_from(edges)
        want = {(int(i), int(j)): int(c) for (i, j), c in sympy.Poly(nx.tutte_polynomial(g), x, y).terms()}
        m = om_from_digraph(tuple(edges))
        assert dict(tutte_from_bases(m).items()) == want, edges
