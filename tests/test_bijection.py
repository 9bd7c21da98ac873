import random
import re
import sys
from collections import defaultdict

import pytest

from actbij import activities, bijection, core
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
    alpha_inverse_class,
    fully_optimal_basis,
    is_fully_optimal,
    refined_alpha,
    refined_alpha_inverse,
)
from actbij.core import (
    _elements,
    _mask,
    bases,
    dual,
    is_bounded,
    is_dual_bounded,
    om_from_lists,
    reorient,
    restrict_contract,
    SignedSubset,
)
from actbij.oracles import active_basis_recursive, check_active_duality
from conftest import active_basis_by_steps, positive, random_om, subsets
from examples import diamond_doubled, k3, k4, k5, w4


def fs(*elements):
    return frozenset(elements)


# -------------------------------------------------------- full optimality

def test_is_fully_optimal_fixtures(k3_om, k4_om):
    bounded = reorient(k4_om, {3, 5, 6})
    assert is_fully_optimal(bounded, fs(1, 3, 6))
    assert not is_fully_optimal(bounded, fs(1, 3, 5))
    assert sum(is_fully_optimal(bounded, b) for b in bases(bounded)) == 1
    assert is_fully_optimal(reorient(k3_om, {3}), fs(1, 3))


def test_criteria_that_disagree_fail_the_self_test(monkeypatch, k3_om):
    real = bijection._composition_criterion
    monkeypatch.setattr(bijection, "_composition_criterion", lambda *args: not real(*args))
    message = "full optimality criteria disagree on basis [2, 3]: sign-opposition=True, composition=False"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        is_fully_optimal(reorient(k3_om, {2}), fs(2, 3))


def test_is_fully_optimal_preconditions(k3_om, k4_om):
    with pytest.raises(ValueError):
        is_fully_optimal(k4_om, fs(1, 2, 4))  # not bounded


def test_fully_optimal_basis_fixtures(k4_om):
    assert fully_optimal_basis(reorient(k4_om, {3, 5, 6})) == fs(1, 3, 6)
    assert fully_optimal_basis(reorient(k4_om, {3, 5})) == fs(1, 3, 5)
    # opposite reorientations share the fully optimal basis
    assert fully_optimal_basis(reorient(k4_om, {1, 2, 4})) == fs(1, 3, 6)
    assert fully_optimal_basis(reorient(k4_om, {1, 2, 4, 6})) == fs(1, 3, 5)


def test_fully_optimal_basis_contract(k3_om, k4_om):
    assert fully_optimal_basis(om_from_lists(0, [], [])) == fs()
    # a failed call is not cached: the second call raises again
    for _ in range(2):
        with pytest.raises(ValueError):
            fully_optimal_basis(k4_om)  # neither bounded nor dual-bounded


def test_fully_optimal_basis_decides_boundedness_once_per_minor(k4_om, monkeypatch):
    import actbij.bijection as bijection

    asked = []
    for name in ("is_bounded", "is_dual_bounded"):
        real = getattr(bijection, name)
        monkeypatch.setattr(bijection, name, lambda m, real=real, name=name: asked.append((name, m)) or real(m))
    bijection.fully_optimal_basis.cache_clear()
    for a, want in (({3, 5, 6}, fs(1, 3, 6)), ({2, 4}, fs(2, 3, 6))):  # bounded, dual-bounded
        assert fully_optimal_basis(reorient(k4_om, a)) == want
        first = len(asked)
        for _ in range(2):
            assert fully_optimal_basis(reorient(k4_om, a)) == want
        assert len(asked) == first  # a repeat call decides nothing again
    # only a minor's own first call asks whether it is dual-bounded
    dual_asks = [m for name, m in asked if name == "is_dual_bounded"]
    assert reorient(k4_om, {2, 4}) in dual_asks and len(dual_asks) == len(set(dual_asks))


@pytest.mark.parametrize("verdict, found", [(False, 0), (True, 2)])
def test_fully_optimal_basis_raises_unless_one_candidate_passes(k4_om, monkeypatch, request, verdict, found):
    import actbij.bijection as bijection

    monkeypatch.setattr(bijection, "_passes_both_criteria", lambda m, basis, bounded: verdict)
    bijection.fully_optimal_basis.cache_clear()
    request.addfinalizer(bijection.fully_optimal_basis.cache_clear)  # no entry made under the patch stays
    for a in ({3, 5, 6}, {2, 4}):  # bounded, dual-bounded
        with pytest.raises(AssertionError, match=f"expected exactly one fully optimal basis, found {found}"):
            fully_optimal_basis(reorient(k4_om, a))


def test_full_optimality_uniqueness_random():
    from conftest import random_connected_om

    rng = random.Random(30)
    tested = 0
    for _ in range(8):
        m = random_connected_om(rng, max_vertices=5, max_edges=8)
        for a in subsets(m.n):
            r = reorient(m, a)
            if not (is_bounded(r) or is_dual_bounded(r)):
                continue
            hits = [b for b in bases(r) if is_fully_optimal(r, b)]
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


@pytest.mark.parametrize("m", [k4(), diamond_doubled(), w4()], ids=["K4", "diamond_doubled", "W4"])
def test_a_shared_recursion_memo_changes_no_result(m):
    # one memo for both induction styles, as the recursive-definitions check
    # passes it; the style is in the key, so neither reads the other's bases
    memo: dict = {}
    for a in subsets(m.n):
        r = reorient(m, a)
        for circuit_induction in (False, True):
            alone = active_basis_recursive(r, circuit_induction=circuit_induction)
            assert active_basis_recursive(r, circuit_induction=circuit_induction, memo=memo) == alone
    assert {style for _, _, style in memo["bases"]} == {False, True}


@pytest.mark.parametrize("m", [k4(), diamond_doubled(), w4()], ids=["K4", "diamond_doubled", "W4"])
def test_a_recursion_memo_shared_with_the_dual_builds_no_minor_for_it(m):
    # a dual hop is a step of M*, keyed as M*'s own steps are: after both styles at every A on M,
    # the pass over M* finds each minor or its mirror built, and its bases are the complements
    memo, md = {}, dual(m)
    on_m = {(a, style): active_basis_recursive(m, flip=a, circuit_induction=style, memo=memo)
            for a in range(1 << m.n) for style in (False, True)}
    built = core._minors_built[0]
    for (a, style), b in on_m.items():
        assert active_basis_recursive(md, flip=a, circuit_induction=style, memo=memo) == m.ground_set - b, a
    assert core._minors_built[0] == built


@pytest.mark.parametrize("m", [k3(), k4(), w4()], ids=["K3", "K4", "W4"])
def test_the_recursion_under_a_flip_is_the_recursion_on_the_reoriented_om(m):
    # minors of M relative to M, reoriented by the squeezed flip, against minors of -_A M
    memo: dict = {}
    for a in range(1 << m.n):
        r = reorient(m, _elements(a))
        for circuit_induction in (False, True):
            want = active_basis_recursive(r, circuit_induction=circuit_induction)
            assert active_basis_recursive(m, flip=a, circuit_induction=circuit_induction) == want
            assert active_basis_recursive(m, flip=a, circuit_induction=circuit_induction, memo=memo) == want


def induction_step_sets_on_element_sets(m):
    """All proper nonempty sets F usable in the threshold variants of the
    recursion: complements of unions of positive cocircuits with minimum
    above a threshold, and unions of positive circuits likewise."""
    ground = m.ground_set
    candidates = set()
    for t in range(0, m.n + 1):
        f = ground - frozenset().union(
            *(d.support for d in positive(m.cocircuits) if min(d.support) > t)
        )
        candidates.add(f)
        g = frozenset().union(
            *(c.support for c in positive(m.circuits) if min(c.support) > t)
        )
        candidates.add(g)
    return sorted(
        (f for f in candidates if f and f != ground),
        key=lambda f: (len(f), sorted(f)),
    )


def test_the_recursive_oracle_never_reads_the_serving_activities(monkeypatch):
    def planted(*args):
        raise AssertionError("the oracle read the serving positivity predicate")

    # every binding of the serving predicates, in whichever module holds one
    serving = (activities._positive_supports, activities.orientation_activities)
    for module in [mod for name, mod in sys.modules.items() if name.startswith("actbij")]:
        for name, value in vars(module).copy().items():
            if any(value is f for f in serving):
                monkeypatch.setattr(module, name, planted)
    for m in (k4(), w4()):
        for a in range(1 << m.n):
            for circuit_induction in (False, True):
                active_basis_recursive(m, flip=a, circuit_induction=circuit_induction)


def test_threshold_induction_variants(k4_om):
    rng = random.Random(33)
    oms = [k4_om] + [random_om(rng, max_edges=7) for _ in range(3)]
    for m in oms:
        for a in subsets(m.n):
            r = reorient(m, a)
            b = active_basis(r)
            for part in induction_step_sets_on_element_sets(r):
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


@pytest.mark.parametrize("m", [k3(), k4(), diamond_doubled(), w4()], ids=["K3", "K4", "diamond_doubled", "W4"])
def test_the_public_maps_equal_the_mask_routes_verify_reads(m):
    # verify reads the active basis off its own filtrations and the refined image off its
    # own activities, and calls refined_alpha once per activity class
    for om in (m, dual(m)):
        for mask in range(1 << om.n):
            a = _elements(mask)
            b = active_basis(om, a)
            assert b == _elements(bijection._active_basis(om, active_filtration_orientation(om, a), mask))
            ostar, o = orientation_activities(om, a)
            assert refined_alpha(om, a) == _elements(bijection._refine(mask, _mask(b), _mask(ostar), _mask(o)))


@pytest.mark.parametrize("make", [k4, diamond_doubled, w4, k5], ids=["K4", "diamond_doubled", "W4", "K5"])
def test_the_cached_step_bases_are_the_bases_of_the_reoriented_step_minors(make):
    # each step's basis looked up on (step, A ∩ (G∖F)) against its minor built and reoriented by A
    for m in (make(), dual(make())):
        for a in range(1 << m.n):
            f = active_filtration_orientation(m, _elements(a))
            assert bijection._active_basis(m, f, a) == active_basis_by_steps(m, a), a


def test_a_second_pass_over_w4_reorients_no_minor(monkeypatch):
    # one miss per chain step and flip within it, then every step basis a hit
    m, keys = w4(), set()
    filtrations = [active_filtration_orientation(m, _elements(a)) for a in range(1 << m.n)]
    bijection._step_basis.cache_clear()
    for a, f in enumerate(filtrations):
        chain = list(map(_mask, f.chain))
        keys |= {(large, small, a & (large ^ small)) for small, large in zip(chain, chain[1:])}
        bijection._active_basis(m, f, a)
    assert bijection._step_basis.cache_info().misses == len(keys)
    reoriented, real = [], core._reoriented
    for module in (core, activities):  # the step bases read it through core
        monkeypatch.setattr(module, "_reoriented", lambda om, flip: reoriented.append(flip) or real(om, flip))
    for a, f in enumerate(filtrations):
        bijection._active_basis(m, f, a)
    assert reoriented == []


def test_activity_parameters_of_one_reorientation(k4_om):
    a = fs(1)
    ostar, o = orientation_activities(k4_om, a)
    theta_star, theta_star_bar, theta, theta_bar = reorientation_params(k4_om, a)
    internal, p, external, q = subset_params(k4_om, refined_alpha(k4_om, a))
    assert ostar == fs(1, 2, 4) and o == fs()
    assert theta_star == fs(2, 4) and theta_star_bar == fs(1)
    assert internal == fs(2, 4) and p == fs(1)
    assert q == fs() and theta_bar == fs()


def test_activity_parameters_invariants(k4_om):
    rng = random.Random(38)
    oms = [k4_om] + [random_om(rng, max_edges=8, min_edges=1) for _ in range(4)]
    for m in oms:
        if m.n == 0:
            continue
        for a in subsets(m.n):
            ostar, o = orientation_activities(m, a)
            theta_star, theta_star_bar, theta, theta_bar = reorientation_params(m, a)
            assert not (o & ostar)
            assert min(m.ground_set) in o | ostar
            assert theta | theta_bar == o
            assert not (theta & theta_bar)
            assert theta_star | theta_star_bar == ostar
            assert not (theta_star & theta_star_bar)


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
        assert is_bounded(bounded)
        assert check_active_duality(bounded)
    # smallest nontrivial case: the digon
    assert is_bounded(digon_om)
    assert check_active_duality(digon_om)


def test_active_duality_random():
    rng = random.Random(37)
    from conftest import random_connected_om

    tested = 0
    while tested < 10:
        m = random_connected_om(rng, max_vertices=5, max_edges=7)
        for a in subsets(m.n):
            r = reorient(m, a)
            if is_bounded(r):
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
