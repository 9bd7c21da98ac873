import itertools
import random
from collections import defaultdict
from types import SimpleNamespace

import pytest

from actbij import activities, core
from actbij.activities import (
    Filtration,
    activity_class,
    active_filtration_basis,
    active_filtration_orientation,
    active_minors,
    basis_activities,
    basis_of_subset,
    interval_of_basis,
    is_connected_filtration,
    orientation_activities,
    reorientation_params,
    subset_params,
)
from actbij.core import (
    _greedy_rank,
    _mask,
    _supports,
    bases,
    fundamental_circuit,
    fundamental_cocircuit,
    is_bounded,
    is_dual_bounded,
    om_from_lists,
    reorient,
)
from actbij.graphs import om_from_digraph
from actbij.oracles import all_connected_filtrations
from actbij.tutte import beta, beta_star
from conftest import random_om, subsets
from examples import k4_missing_a_cocircuit, k5, w4, w5


def fs(*elements):
    return frozenset(elements)


def chain_of(f: Filtration):
    return [sorted(s) for s in f.chain]


# -------------------------------------------------------------- activities

def test_basis_activities_fixtures(k3_om, k4_om):
    assert basis_activities(k4_om, fs(2, 5, 6)) == (fs(), fs(1, 3))
    assert basis_activities(k4_om, fs(1, 2, 4)) == (fs(1, 2, 4), fs())
    assert basis_activities(k3_om, fs(2, 3)) == (fs(), fs(1))


def test_orientation_activities_fixtures(k3_om, k4_om):
    assert orientation_activities(k4_om) == (fs(1, 2, 4), fs())
    assert orientation_activities(reorient(k4_om, {3, 5})) == (fs(1), fs())
    assert orientation_activities(reorient(k3_om, {2})) == (fs(), fs(1))


def test_activity_duality():
    rng = random.Random(20)
    from actbij.core import dual

    for _ in range(15):
        m = random_om(rng, max_edges=8)
        md = dual(m)
        for b in bases(m):
            internal, external = basis_activities(m, b)
            co_int, co_ext = basis_activities(md, m.ground_set - b)
            assert internal == co_ext and external == co_int
        ostar, o = orientation_activities(m)
        dstar, do = orientation_activities(md)
        assert ostar == do and o == dstar


# -------------------------------------------------- filtration of a matroid

def test_active_filtration_orientation_fixtures(k3_om, k4_om):
    f = active_filtration_orientation(k4_om)
    assert chain_of(f) == [[], [1], [1, 2, 3], [1, 2, 3, 4, 5, 6]]
    assert f.cyclic_index == 0
    assert [sorted(p) for p in f.parts] == [[1], [2, 3], [4, 5, 6]]

    # a member of the class with partition 123+456 and empty cyclic flat
    f = active_filtration_orientation(reorient(k4_om, {3}))
    assert chain_of(f) == [[], [1, 2, 3], [1, 2, 3, 4, 5, 6]]
    assert f.cyclic_index == 0

    f = active_filtration_orientation(reorient(k3_om, {2}))
    assert chain_of(f) == [[], [1, 2, 3]]
    assert f.cyclic_flat == fs(1, 2, 3)


def test_active_minors_structure(k4_om):
    f = active_filtration_orientation(k4_om)
    minors = active_minors(k4_om, f)
    assert [m.n for m in minors] == [1, 2, 3]
    assert [m.rank for m in minors] == [1, 1, 1]
    assert len(minors[1].circuits) == 1  # two parallel elements
    assert len(minors[2].circuits) == 3  # three parallel elements
    assert all(is_bounded(m) for m in minors)


def test_active_minors_trivial_filtration(k4_om):
    bounded = reorient(k4_om, {3, 5})
    f = active_filtration_orientation(bounded)
    assert chain_of(f) == [[], [1, 2, 3, 4, 5, 6]]
    assert active_minors(bounded, f) == [bounded]


def test_bounded_dual_bounded_minors_everywhere(k4_om):
    for a in subsets(6):
        r = reorient(k4_om, a)
        f = active_filtration_orientation(r)
        for i, minor in enumerate(active_minors(r, f)):
            if f.part_is_cyclic(i):
                assert is_dual_bounded(minor)
            else:
                assert is_bounded(minor)


def test_filtration_validation_errors():
    ground = fs(1, 2, 3)
    with pytest.raises(ValueError):
        Filtration((fs(1), ground), 0)  # does not start at the empty set
    with pytest.raises(ValueError):
        Filtration((fs(), fs(1, 2), fs(1, 2)), 1)  # not strict
    with pytest.raises(ValueError):
        Filtration((fs(), fs(2, 3), ground), 0)  # upper minima not increasing
    with pytest.raises(ValueError):
        Filtration((fs(), fs(1), ground), 2)  # lower minima must decrease
    with pytest.raises(ValueError):
        Filtration.from_masks((0b011, 0b110), 0)  # parts overlap
    with pytest.raises(ValueError):
        Filtration.from_masks((0b001, 0), 0)  # an empty part
    with pytest.raises(ValueError):
        Filtration.from_masks((0b001,), 2)  # cyclic flat index out of range
    # the namedtuple constructors go through from_masks too
    with pytest.raises(ValueError):
        Filtration._make(((0b011, 0b110), 0))  # parts overlap
    f = Filtration.from_masks((0b001, 0b110), 0)
    with pytest.raises(ValueError):
        f._replace(cyclic_index=5)
    assert f._replace(cyclic_index=1) == Filtration.from_masks((0b001, 0b110), 1)


def test_is_connected_filtration_examples(k4_om):
    ground = fs(1, 2, 3, 4, 5, 6)
    good = Filtration((fs(), fs(1), fs(1, 2, 3), ground), 0)
    assert is_connected_filtration(k4_om, good)
    bad = Filtration((fs(), fs(1, 2), ground), 0)
    assert not is_connected_filtration(k4_om, bad)
    trivial = Filtration((fs(), ground), 0)
    assert is_connected_filtration(k4_om, trivial) == (beta(k4_om) != 0)


def test_trivial_filtration_connected_iff_beta_nonzero():
    rng = random.Random(21)
    for _ in range(15):
        m = random_om(rng, max_edges=7, min_edges=1)
        trivial = Filtration((frozenset(), m.ground_set), 0)
        assert is_connected_filtration(m, trivial) == (beta(m) != 0)


def test_connected_filtration_beta_product():
    # the minor-connectivity definition matches the nonzero beta product
    rng = random.Random(22)
    checked = 0
    while checked < 6:
        m = random_om(rng, max_vertices=4, max_edges=6, min_edges=2)
        if m.n < 2:
            continue
        checked += 1
        for f in all_connected_filtrations(m):
            product = 1
            for i, minor in enumerate(active_minors(m, f)):
                product *= beta_star(minor) if f.part_is_cyclic(i) else beta(minor)
            assert product != 0
    # and a known disconnected step has a zero factor
    k4 = om_from_digraph((("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"), ("c", "d")))
    bad = Filtration((frozenset(), fs(1, 2), fs(1, 2, 3, 4, 5, 6)), 0)
    factors = [beta(minor) for minor in active_minors(k4, bad)]
    assert 0 in factors


# ------------------------------------------------- filtration of a basis

def test_active_filtration_basis_fixtures(k4_om):
    f = active_filtration_basis(k4_om, fs(1, 4, 6))
    assert [sorted(p) for p in f.parts] == [[2, 4, 6], [1, 3, 5]]
    assert sorted(f.cyclic_flat) == [2, 4, 6]
    assert basis_activities(k4_om, fs(1, 4, 6)) == (fs(1), fs(2))

    f = active_filtration_basis(k4_om, fs(2, 5, 6))
    assert [sorted(p) for p in f.parts] == [[3, 5, 6], [1, 2, 4]]
    assert f.cyclic_flat == fs(1, 2, 3, 4, 5, 6)

    f = active_filtration_basis(k4_om, fs(1, 2, 6))
    assert [sorted(p) for p in f.parts] == [[1], [2, 3, 4, 5, 6]]
    assert f.cyclic_flat == fs()


def test_basis_filtration_is_connected_and_unique():
    # Grouping bases by their active filtration and rebuilding each group
    # from uniactive bases of the minors reproduces the basis list exactly.
    rng = random.Random(23)
    for _ in range(6):
        m = random_om(rng, max_vertices=4, max_edges=7, min_edges=1)
        groups = defaultdict(list)
        for b in bases(m):
            f = active_filtration_basis(m, b)
            assert is_connected_filtration(m, f)
            groups[f].append(b)
        total = 0
        for f, members in groups.items():
            minors = active_minors(m, f)
            choices = 1
            for i, minor in enumerate(minors):
                uniactive = []
                for mb in bases(minor):
                    internal, external = basis_activities(minor, mb)
                    if f.part_is_cyclic(i):
                        ok = (internal, external) == (frozenset(), fs(1))
                    else:
                        ok = (internal, external) == (fs(1), frozenset())
                    uniactive.append(ok)
                choices *= sum(uniactive)
            assert choices == len(members)
            total += choices
        assert total == len(bases(m))


def test_part_minima_are_the_active_elements(k4_om):
    for b in bases(k4_om):
        f = active_filtration_basis(k4_om, b)
        internal, external = basis_activities(k4_om, b)
        assert frozenset(min(p) for p in f.parts) == internal | external


# ------------------------------------------------------- activity classes

def test_activity_class_fixtures(k3_om, k4_om):
    assert activity_class(k3_om, frozenset()) == [
        fs(),
        fs(1),
        fs(2, 3),
        fs(1, 2, 3),
    ]
    klass = activity_class(k4_om, frozenset())
    assert len(klass) == 8
    parts = [fs(1), fs(2, 3), fs(4, 5, 6)]
    expected = {
        frozenset().union(frozenset(), *combo)
        for k in range(4)
        for combo in itertools.combinations(parts, k)
    }
    assert set(klass) == expected
    bounded = activity_class(k4_om, fs(3, 5))
    assert bounded == [fs(3, 5), fs(1, 2, 4, 6)]


def test_class_invariance(k4_om):
    rng = random.Random(24)
    oms = [k4_om] + [random_om(rng, max_edges=7) for _ in range(4)]
    for m in oms:
        for a in subsets(m.n):
            f = active_filtration_orientation(reorient(m, a))
            acts = orientation_activities(reorient(m, a))
            for member in activity_class(m, a):
                assert active_filtration_orientation(reorient(m, member)) == f
                assert orientation_activities(reorient(m, member)) == acts


def test_exactly_one_fixed_representative(k3_om, k4_om):
    for m in (k3_om, k4_om):
        for a in subsets(m.n):
            fixed = 0
            for member in activity_class(m, a):
                ostar, o = orientation_activities(reorient(m, member))
                if not (member & (ostar | o)):
                    fixed += 1
            assert fixed == 1


def test_reorientation_decomposition_counts(k4_om):
    # reorientations grouped by active filtration; group sizes multiply
    # over the minors' bounded/dual-bounded reorientation counts
    groups = defaultdict(int)
    for a in subsets(6):
        groups[active_filtration_orientation(reorient(k4_om, a))] += 1
    assert sum(groups.values()) == 64
    for f, size in groups.items():
        product = 1
        for i, (small, large) in enumerate(zip(f.chain, f.chain[1:])):
            part = sorted(large - small)
            minor_count = 0
            from actbij.core import restrict_contract

            minor = restrict_contract(k4_om, large, small)
            for sub in subsets(len(part)):
                flipped = reorient(minor, sub)
                if f.part_is_cyclic(i):
                    minor_count += is_dual_bounded(flipped)
                else:
                    minor_count += is_bounded(flipped)
            product *= minor_count
        assert product == size


def test_restriction_coherence(k4_om):
    # the filtration of a chain minor is the shifted subchain
    from actbij.core import restrict_contract

    for a in subsets(6):
        r = reorient(k4_om, a)
        f = active_filtration_orientation(r)
        for i, j in itertools.combinations(range(len(f.chain)), 2):
            small, large = f.chain[i], f.chain[j]
            minor = restrict_contract(r, large, small)
            back = sorted(large - small)
            relabel = {e: idx for idx, e in enumerate(back, start=1)}
            expected_chain = tuple(
                frozenset(relabel[e] for e in s - small) for s in f.chain[i : j + 1]
            )
            expected_cidx = min(max(f.cyclic_index - i, 0), j - i)
            got = active_filtration_orientation(minor)
            assert got.chain == expected_chain
            assert got.cyclic_index == expected_cidx


# ----------------------------------------------- subsets and parameters

def test_interval_of_basis_k3(k3_om):
    assert interval_of_basis(k3_om, fs(1, 2)) == (fs(), fs(1, 2))
    assert interval_of_basis(k3_om, fs(1, 3)) == (fs(3), fs(1, 3))
    assert interval_of_basis(k3_om, fs(2, 3)) == (fs(2, 3), fs(1, 2, 3))
    sizes = []
    for b in bases(k3_om):
        lo, hi = interval_of_basis(k3_om, b)
        sizes.append(1 << len(hi - lo))
    assert sorted(sizes) == [2, 2, 4] and sum(sizes) == 8


def test_intervals_partition_power_set():
    rng = random.Random(25)
    for m in [random_om(rng, max_edges=8) for _ in range(8)]:
        owners = [basis_of_subset(m, a) for a in subsets(m.n)]
        counts = defaultdict(int)
        for b in owners:
            counts[b] += 1
        assert sum(counts.values()) == 1 << m.n
        for b in bases(m):
            lo, hi = interval_of_basis(m, b)
            assert counts[b] == 1 << len(hi - lo)


@pytest.fixture
def fresh_records():
    """No basis records cached before or after: a planted pass neither
    reads the real ones nor leaves its own behind."""
    for cached in (activities._interval_table, activities._interval_walk):
        cached.cache_clear()
    yield
    for cached in (activities._interval_table, activities._interval_walk):
        cached.cache_clear()


@pytest.mark.parametrize("parts, message", [
    ([1, 2, 4], "subset 111 lies in two basis intervals"),  # each interval is all of 2^E
    ([7], "subset 0 not covered by any basis interval"),  # each interval holds 2 subsets, 6 in all
])
def test_intervals_that_do_not_partition_fail_the_walks_self_test(monkeypatch, fresh_records, k3_om, parts, message):
    monkeypatch.setattr(activities, "basis_pass", lambda funds, b: (Filtration.from_masks(parts, 0), b))
    with pytest.raises(AssertionError, match=f"^{message}$"):
        activities._interval_walk(k3_om)


class StandInMinima(tuple):
    """A stand-in filtration of a basis record: only its (internal, external) minima."""

    def minima(self):
        return self


@pytest.mark.parametrize("n", [8, 16])
def test_the_owner_array_holds_every_record_index(monkeypatch, n):
    # 2^(n-1) + 2 records, so indices past 2^(n-1) - 1, the largest that a
    # signed n-bit typecode (b, h) holds: the pair intervals [a, a+1], the
    # last two split into singletons
    pairs = [(a, StandInMinima((0, 1)), None) for a in range(0, (1 << n) - 4, 2)]
    singles = [(a, StandInMinima((0, 0)), None) for a in range((1 << n) - 4, 1 << n)]
    table = (*pairs, *singles)
    assert len(table) == (1 << (n - 1)) + 2
    monkeypatch.setattr(activities, "_interval_table", lambda m: table)
    owner = activities._interval_walk.__wrapped__(SimpleNamespace(n=n))
    assert len(owner) == 1 << n and min(owner) == 0 and max(owner) == len(table) - 1
    assert list(owner[-4:]) == list(range(len(table) - 4, len(table)))
    assert owner.typecode == {8: "h", 16: "i"}[n]  # and the narrowest that does


def test_a_small_table_takes_a_byte_per_owner(k4_om):
    assert activities._interval_walk(k4_om).typecode == "b"  # 16 records


def test_an_interval_overlapping_record_0_fails_the_walks_self_test(monkeypatch):
    # record 0 owns both subsets of a one-element ground set, then record 1 claims the empty one
    table = ((0, StandInMinima((0, 1)), None), (0, StandInMinima((0, 0)), None))
    monkeypatch.setattr(activities, "_interval_table", lambda m: table)
    with pytest.raises(AssertionError, match="^subset 0 lies in two basis intervals$"):
        activities._interval_walk.__wrapped__(SimpleNamespace(n=1))


def test_a_filtration_missing_elements_fails_its_self_test():
    # without the cut of {a, d}, some elements of E lie in no positive circuit or cocircuit
    m = k4_missing_a_cocircuit()
    failing = []
    for a in subsets(m.n):
        try:
            active_filtration_orientation(m, a)
        except AssertionError as exc:
            assert str(exc) == "active filtration does not reach the ground set"
            failing.append(a)
    assert len(failing) == 8 and failing[0] == fs(1, 2)


def test_owner_and_subset_params_match_an_interval_search(k4_om, diamond_om):
    # activities by definition, from fundamental sets; the owner by a
    # scan over every basis interval
    rng = random.Random(27)
    for m in [k4_om, diamond_om] + [random_om(rng, max_edges=8) for _ in range(10)]:
        intervals = []
        for b in bases(m):
            internal = fs(*(e for e in b if e == min(fundamental_cocircuit(m, b, e).support)))
            external = fs(*(e for e in m.ground_set - b if e == min(fundamental_circuit(m, b, e).support)))
            intervals.append((b, internal, external))
        for a in subsets(m.n):
            hits = [(b, i, e) for b, i, e in intervals if b - i <= a <= b | e]
            assert len(hits) == 1, sorted(a)
            b, internal, external = hits[0]
            assert basis_of_subset(m, a) == b
            assert subset_params(m, a) == (internal & a, internal - a, external - a, external & a)
        with pytest.raises(ValueError):
            subset_params(m, fs(m.n + 1))


def test_subset_params_fixtures(k3_om):
    for b in bases(k3_om):
        internal, external = basis_activities(k3_om, b)
        assert subset_params(k3_om, b) == (internal, fs(), external, fs())
    assert subset_params(k3_om, fs()) == (fs(), fs(1, 2), fs(), fs())
    assert subset_params(k3_om, fs(1, 2, 3)) == (fs(), fs(), fs(), fs(1))


def test_subset_params_cardinalities_and_minima():
    rng = random.Random(26)
    for m in [random_om(rng, max_edges=8) for _ in range(8)]:
        supports = {c.support for c in m.circuits}
        cosupports = tuple(d.support for d in m.cocircuits)
        for a in subsets(m.n):
            internal, p, external, q = subset_params(m, a)
            ra = _greedy_rank(_supports(m.circuits), _mask(a))
            assert len(p) == m.rank - ra
            assert len(q) == len(a) - ra
            # the direct descriptions, without the owning basis
            assert q == frozenset(min(s) for s in supports if s <= a)
            complement = m.ground_set - a
            assert p == frozenset(min(s) for s in cosupports if s <= complement)


def test_reorientation_params_fixtures(k3_om):
    ostar, o = orientation_activities(k3_om)
    assert reorientation_params(k3_om, fs()) == (ostar, fs(), o, fs())
    assert reorientation_params(k3_om, fs(2, 3)) == (fs(1), fs(2), fs(), fs())
    assert reorientation_params(k3_om, fs(2)) == (fs(), fs(), fs(1), fs())


# --------------------------------------------- exhaustive filtration oracle

def test_connected_filtration_counts(k4_om, diamond_om):
    # as the walk counted when it built each step's minor
    counts = [len(all_connected_filtrations(m)) for m in (k4_om, diamond_om, w4(), k5(), w5())]
    assert counts == [14, 13, 40, 99, 112]


def test_the_chain_walk_builds_no_minor():
    m, built = w4(), core._minors_built[0]
    assert len(all_connected_filtrations(m)) == 40
    assert core._minors_built[0] == built


def test_unique_connected_filtration_matches_formulas(k4_om):
    filtrations = all_connected_filtrations(k4_om)
    for a in subsets(6):
        r = reorient(k4_om, a)
        valid = []
        for f in filtrations:
            ok = True
            for i, minor in enumerate(active_minors(r, f)):
                want_dual = f.part_is_cyclic(i)
                good = is_dual_bounded(minor) if want_dual else is_bounded(minor)
                if not good:
                    ok = False
                    break
            if ok:
                valid.append(f)
        assert valid == [active_filtration_orientation(r)]
