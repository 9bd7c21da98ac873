import itertools
import random
from collections import defaultdict

import pytest

from actbij.activities import orientation_activities
from actbij.core import (
    GroundSetTooLarge,
    SignedSubset,
    bases,
    om_from_lists,
    reorient,
    subset_rank,
)
from actbij.tutte import (
    TuttePolynomial,
    beta,
    beta_star,
    four_var_reorientation_sum,
    four_var_subset_sum,
    tutte_delcon_oracle,
    tutte_from_bases,
    tutte_from_orientations,
)
from conftest import random_om, subsets


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


def test_delcon_oracle_fixtures(k3_om):
    assert tutte_delcon_oracle(u11()) == poly({(1, 0): 1})
    assert tutte_delcon_oracle(u10()) == poly({(0, 1): 1})
    assert tutte_delcon_oracle(k3_om) == K3_POLY


def test_three_routes_agree_random():
    rng = random.Random(40)
    for _ in range(40):
        m = random_om(rng, max_vertices=6, max_edges=10)
        t = tutte_from_bases(m)
        assert tutte_from_orientations(m) == t
        assert tutte_delcon_oracle(m) == t


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


def test_independent_and_spanning_counts(k4_om):
    supports = k4_om.circuit_supports()
    independents = sum(
        1 for a in subsets(6) if not any(s <= a for s in supports)
    )
    spanning = sum(1 for a in subsets(6) if subset_rank(k4_om, a) == k4_om.rank)
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
    supports = k4_om.circuit_supports()
    independents = {a for a in subsets(6) if not any(s <= a for s in supports)}
    spanning = {a for a in subsets(6) if subset_rank(k4_om, a) == k4_om.rank}
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


def test_delcon_oracle_keeps_no_state_between_calls():
    from actbij import tutte

    rng = random.Random(11)
    oms = [random_om(rng, max_edges=8) for _ in range(2)]
    before = _module_state(tutte)
    results = [tutte_delcon_oracle(m) for m in oms]
    assert _module_state(tutte) == before
    for m, t in zip(oms, results):
        assert t == tutte_from_bases(m)
