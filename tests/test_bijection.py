import random
from collections import defaultdict

import pytest

from actbij.activities import (
    active_filtration_basis,
    active_filtration_orientation,
    activity_class,
    basis_activities,
    interval_of_basis,
    orientation_activities,
    reorientation_params,
    subset_params,
)
from actbij.bijection import (
    active_basis,
    active_basis_recursive,
    activity_report,
    alpha_inverse_class,
    check_active_duality,
    fully_optimal_basis,
    induction_step_sets,
    is_fully_optimal,
    refined_alpha,
    refined_alpha_inverse,
)
from actbij.core import (
    bases,
    dual,
    is_bounded,
    is_dual_bounded,
    om_from_lists,
    reorient,
    restrict_contract,
    SignedSubset,
)
from conftest import random_om, subsets


def fs(*elements):
    return frozenset(elements)


# -------------------------------------------------------- full optimality

def test_is_fully_optimal_fixtures(k3_om, k4_om):
    bounded = reorient(k4_om, {3, 5, 6})
    assert is_fully_optimal(bounded, fs(1, 3, 6), 1)
    assert not is_fully_optimal(bounded, fs(1, 3, 5), 1)
    assert sum(is_fully_optimal(bounded, b, 1) for b in bases(bounded)) == 1
    assert is_fully_optimal(reorient(k3_om, {3}), fs(1, 3), 1)


def test_is_fully_optimal_preconditions(k3_om, k4_om):
    with pytest.raises(ValueError):
        is_fully_optimal(k4_om, fs(1, 2, 4), 1)  # not bounded
    with pytest.raises(ValueError):
        is_fully_optimal(reorient(k3_om, {3}), fs(1, 3), 2)  # p must be min(E)


def test_fully_optimal_basis_fixtures(k4_om):
    assert fully_optimal_basis(reorient(k4_om, {3, 5, 6}), 1) == fs(1, 3, 6)
    assert fully_optimal_basis(reorient(k4_om, {3, 5}), 1) == fs(1, 3, 5)
    # opposite reorientations share the fully optimal basis
    assert fully_optimal_basis(reorient(k4_om, {1, 2, 4}), 1) == fs(1, 3, 6)
    assert fully_optimal_basis(reorient(k4_om, {1, 2, 4, 6}), 1) == fs(1, 3, 5)


def test_full_optimality_uniqueness_random():
    from conftest import random_connected_om

    rng = random.Random(30)
    tested = 0
    for _ in range(8):
        m = random_connected_om(rng, max_vertices=5, max_edges=8)
        for a in subsets(m.n):
            r = reorient(m, a)
            if not (is_bounded(r, 1) or is_dual_bounded(r, 1)):
                continue
            hits = [b for b in bases(r) if is_fully_optimal(r, b, 1)]
            assert len(hits) == 1
            tested += 1
    assert tested > 20


def test_uniactive_exchange(k4_om):
    # B uniactive internal <-> B \ {p} ∪ {p'} uniactive external
    for b in bases(k4_om):
        internal, external = basis_activities(k4_om, b)
        if (internal, external) == (fs(1), fs()):
            partner = b - {1} | {2}
            assert basis_activities(k4_om, partner) == (fs(), fs(1))
        if (internal, external) == (fs(), fs(1)):
            partner = b - {2} | {1}
            assert basis_activities(k4_om, partner) == (fs(1), fs())


# ------------------------------------------------------------ active basis

def test_active_basis_fixtures(k4_om):
    assert active_basis(k4_om) == fs(1, 2, 4)
    assert active_basis(reorient(k4_om, {2, 3, 4, 5})) == fs(1, 2, 6)
    assert active_basis(reorient(k4_om, {3, 4})) == fs(3, 4, 5)
    assert active_basis(reorient(k4_om, {1, 4})) == fs(1, 4, 6)
    empty = om_from_lists(0, [], [])
    assert active_basis(empty) == fs()


def test_activity_preservation(k4_om):
    rng = random.Random(31)
    oms = [k4_om] + [random_om(rng, max_edges=8) for _ in range(5)]
    for m in oms:
        for a in subsets(m.n):
            r = reorient(m, a)
            b = active_basis(r)
            assert basis_activities(m, b) == orientation_activities(r)
            assert active_filtration_basis(m, b) == active_filtration_orientation(r)


def test_bijection_onto_bases_with_class_sizes(k4_om):
    preimages = defaultdict(set)
    for a in subsets(6):
        preimages[active_basis(reorient(k4_om, a))].add(a)
    assert set(preimages) == set(bases(k4_om))
    for b, pre in preimages.items():
        internal, external = basis_activities(k4_om, b)
        assert len(pre) == 1 << (len(internal) + len(external))
        assert pre == set(alpha_inverse_class(k4_om, b).class_members)


def test_recursive_definitions_agree(k4_om):
    rng = random.Random(32)
    oms = [k4_om] + [random_om(rng, max_edges=7) for _ in range(4)]
    for m in oms:
        for a in subsets(m.n):
            r = reorient(m, a)
            b = active_basis(r)
            assert active_basis_recursive(r) == b
            assert active_basis_recursive(r, circuit_induction=True) == b


def test_threshold_induction_variants(k4_om):
    rng = random.Random(33)
    oms = [k4_om] + [random_om(rng, max_edges=7) for _ in range(3)]
    for m in oms:
        for a in subsets(m.n):
            r = reorient(m, a)
            b = active_basis(r)
            for part in induction_step_sets(r):
                inside = restrict_contract(r, part, frozenset())
                outside = restrict_contract(r, r.ground_set, part)
                back_in = sorted(part)
                back_out = sorted(r.ground_set - part)
                glued = frozenset(back_in[i - 1] for i in active_basis(inside)) | frozenset(
                    back_out[i - 1] for i in active_basis(outside)
                )
                assert glued == b


def test_restriction_coherence_of_alpha(k4_om):
    import itertools

    for a in subsets(6):
        r = reorient(k4_om, a)
        b = active_basis(r)
        f = active_filtration_orientation(r)
        for i, j in itertools.combinations(range(len(f.chain)), 2):
            small, large = f.chain[i], f.chain[j]
            minor = restrict_contract(r, large, small)
            back = sorted(large - small)
            piece = frozenset(back[i - 1] for i in active_basis(minor))
            assert piece == b & (large - small)


def test_reference_independence(k4_om):
    rng = random.Random(34)
    for _ in range(20):
        x = frozenset(e for e in range(1, 7) if rng.random() < 0.5)
        a = frozenset(e for e in range(1, 7) if rng.random() < 0.5)
        assert reorient(reorient(k4_om, x), a) == reorient(k4_om, x ^ a)
        assert active_basis(reorient(reorient(k4_om, x), a)) == active_basis(
            reorient(k4_om, x ^ a)
        )


# ---------------------------------------------------------- inverse class

def test_alpha_inverse_class_fixtures(k3_om, k4_om):
    r = alpha_inverse_class(k4_om, fs(1, 3, 6))
    assert set(r.class_members) == {fs(3, 5, 6), fs(1, 2, 4)}
    r = alpha_inverse_class(k4_om, fs(1, 3, 5))
    assert set(r.class_members) == {fs(3, 5), fs(1, 2, 4, 6)}
    r = alpha_inverse_class(k3_om, fs(1, 2))
    assert r.class_members == (fs(), fs(1), fs(2, 3), fs(1, 2, 3))
    r = alpha_inverse_class(k4_om, fs(1, 2, 4))
    assert len(r.class_members) == 8 and r.class_members[0] == fs()


def test_alpha_inverse_round_trip():
    rng = random.Random(35)
    oms = [random_om(rng, max_edges=9) for _ in range(6)]
    for m in oms:
        for b in bases(m):
            result = alpha_inverse_class(m, b)
            internal, external = basis_activities(m, b)
            assert len(result.class_members) == 1 << (len(internal) + len(external))
            assert result.filtration == active_filtration_basis(m, b)
            for a in result.class_members:
                assert active_basis(reorient(m, a)) == b


# -------------------------------------------------------- refined bijection

def test_refined_alpha_fixtures(k3_om, k4_om):
    assert refined_alpha(k4_om, fs()) == active_basis(k4_om)
    assert refined_alpha(k4_om, fs(1)) == fs(2, 4)
    images = {refined_alpha(k3_om, a) for a in subsets(3)}
    assert len(images) == 8


def test_refined_round_trip_and_transport(k3_om, k4_om):
    rng = random.Random(36)
    oms = [k3_om, k4_om] + [random_om(rng, max_edges=8) for _ in range(4)]
    for m in oms:
        for a in subsets(m.n):
            x = refined_alpha(m, a)
            assert refined_alpha_inverse(m, x) == a
            # parameter transport: (Int, P, Ext, Q) of the image equal
            # (Θ*, Θ̄*, Θ, Θ̄) of the reorientation
            assert subset_params(m, x) == reorientation_params(m, a)


def test_refined_inverse_of_any_subset(k4_om):
    for x in subsets(6):
        a = refined_alpha_inverse(k4_om, x)
        assert refined_alpha(k4_om, a) == x


def test_refined_maps_classes_onto_intervals(k4_om):
    import itertools

    seen = set()
    for a in subsets(6):
        if a in seen:
            continue
        members = activity_class(k4_om, a)
        seen.update(members)
        b = active_basis(reorient(k4_om, a))
        lo, hi = interval_of_basis(k4_om, b)
        expected = {
            lo | frozenset(extra)
            for k in range(len(hi - lo) + 1)
            for extra in itertools.combinations(sorted(hi - lo), k)
        }
        assert {refined_alpha(k4_om, member) for member in members} == expected


def test_representative_maps_to_its_basis(k4_om):
    # alpha_M(A) equals the active basis iff A is active-fixed and
    # dual-active-fixed
    for a in subsets(6):
        r = reorient(k4_om, a)
        b = active_basis(r)
        ostar, o = orientation_activities(r)
        assert (refined_alpha(k4_om, a) == b) == (not (a & (ostar | o)))


def test_activity_report_bundle(k4_om):
    report = activity_report(k4_om, fs(1))
    assert report.ostar == fs(1, 2, 4) and report.o == fs()
    assert report.theta_star == fs(2, 4) and report.theta_star_bar == fs(1)
    assert report.internal == fs(2, 4) and report.p == fs(1)
    assert report.q == fs() and report.theta_bar == fs()


def test_activity_report_invariants(k4_om):
    rng = random.Random(38)
    oms = [k4_om] + [random_om(rng, max_edges=8, min_edges=1) for _ in range(4)]
    for m in oms:
        if m.n == 0:
            continue
        for a in subsets(m.n):
            report = activity_report(m, a)
            assert not (report.o & report.ostar)
            assert min(m.ground_set) in report.o | report.ostar
            assert report.theta | report.theta_bar == report.o
            assert not (report.theta & report.theta_bar)
            assert report.theta_star | report.theta_star_bar == report.ostar
            assert not (report.theta_star & report.theta_star_bar)


# ----------------------------------------------------------------- duality

def test_plain_duality_of_alpha(k3_om, k4_om):
    for m in (k3_om, k4_om):
        md = dual(m)
        for a in subsets(m.n):
            assert active_basis(reorient(md, a)) == m.ground_set - active_basis(
                reorient(m, a)
            )


def test_active_duality_fixtures(k4_om, digon_om):
    for a in ({3, 5}, {3, 5, 6}, {1, 2, 4}, {1, 2, 4, 6}):
        bounded = reorient(k4_om, a)
        assert is_bounded(bounded, 1)
        assert check_active_duality(bounded)
    # smallest nontrivial case: the digon
    assert is_bounded(digon_om, 1)
    assert check_active_duality(digon_om)


def test_active_duality_random():
    rng = random.Random(37)
    from conftest import random_connected_om

    tested = 0
    while tested < 10:
        m = random_connected_om(rng, max_vertices=5, max_edges=7)
        for a in subsets(m.n):
            r = reorient(m, a)
            if is_bounded(r, 1):
                assert check_active_duality(r)
                tested += 1


def test_active_duality_preconditions(k4_om):
    with pytest.raises(ValueError):
        check_active_duality(k4_om)  # not bounded
    single = om_from_lists(1, [], [SignedSubset(fs(1), fs())])
    with pytest.raises(ValueError):
        check_active_duality(single)


def test_alpha_inverse_class_rejects_a_non_basis(k4_om):
    for b in ({1, 2, 3}, {1}, {1, 2, 4, 6}):
        with pytest.raises(ValueError, match="is not a basis"):
            alpha_inverse_class(k4_om, frozenset(b))
