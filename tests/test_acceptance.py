"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from collections import defaultdict
from pathlib import Path

from actbij.activities import basis_activities, orientation_activities
from actbij.bijection import (
    active_basis,
    alpha_inverse_class,
    is_fully_optimal,
    refined_alpha,
    refined_alpha_inverse,
)
from actbij.core import (
    _greedy_rank,
    _mask,
    _supports,
    bases,
    dual,
    is_bounded,
    is_dual_bounded,
    reorient,
)
from actbij.oracles import check_active_duality, tutte_rank_oracle
from actbij.tutte import (
    TuttePolynomial,
    four_var_reorientation_sum,
    four_var_subset_sum,
    tutte_from_bases,
    tutte_from_orientations,
)
from conftest import assert_unique_decomposition, random_connected_om, random_om, subsets
from examples import diamond_doubled, k3, k4

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent.parent / "data"

K3 = k3()
K4 = k4()
DIAMOND = diamond_doubled()

K3_POLY = TuttePolynomial({(2, 0): 1, (1, 0): 1, (0, 1): 1})
K4_POLY = TuttePolynomial(
    {(3, 0): 1, (2, 0): 3, (1, 0): 2, (1, 1): 4, (0, 1): 2, (0, 2): 3, (0, 3): 1}
)
DIAMOND_POLY = TuttePolynomial(
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


def _ok(number: int, detail: str):
    print(f"PASS criterion {number}: {detail}")


def fs(*elements):
    return frozenset(elements)


def test_criterion_01_tutte_fixtures():
    for m, want in ((K3, K3_POLY), (K4, K4_POLY), (DIAMOND, DIAMOND_POLY)):
        start = time.perf_counter()
        assert tutte_from_bases(m) == want
        assert time.perf_counter() - start < 1.0
    _ok(1, "Tutte polynomials of the three fixtures, exact, < 1 s each")


def test_criterion_02_route_agreement():
    rng = random.Random(100)
    start = time.perf_counter()
    instances = [K3, K4]
    while len(instances) < 202:
        instances.append(random_om(rng, max_vertices=6, max_edges=10, min_edges=4))
    for m in instances:
        t = tutte_from_bases(m)
        assert tutte_from_orientations(m) == t
        assert tutte_rank_oracle(m) == t
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(2, f"three routes agree on K3, K4 and 200 random multigraphs in {elapsed:.1f}s")


def test_criterion_03_region_counts():
    acyclic = []
    for a in subsets(6):
        ostar, o = orientation_activities(reorient(K4, a))
        if not o:
            acyclic.append(len(ostar))
    assert len(acyclic) == 24 == tutte_from_bases(K4).evaluate(2, 0)
    histogram = defaultdict(int)
    for iota in acyclic:
        histogram[iota] += 1
    assert dict(histogram) == {3: 8, 2: 12, 1: 4}
    _ok(3, "t(K4;2,0) = 24 acyclic reorientations, dual-activity histogram 8/12/4")


# One row per basis of K4: chain (with the cyclic flat position), partition,
# and the class members printed in the published table.  The members of the
# 135/136 and 235/236 rows, and the two members of the 146 row, are the
# re-derived values recorded in the decisions ledger.
K4_TABLE = {
    fs(1, 2, 4): ((fs(), fs(1), fs(1, 2, 3)), fs(), [fs(), fs(2, 3), fs(4, 5, 6), fs(2, 3, 4, 5, 6)]),
    fs(1, 2, 6): ((fs(), fs(1)), fs(), [fs(6), fs(2, 3, 4, 5)]),
    fs(1, 2, 5): ((fs(), fs(1, 4, 5)), fs(), [fs(5, 6), fs(2, 3, 5)]),
    fs(1, 3, 4): ((fs(), fs(1, 2, 3)), fs(), [fs(3, 4, 5, 6), fs(3)]),
    fs(1, 3, 5): ((fs(),), fs(), [fs(3, 5)]),
    fs(1, 3, 6): ((fs(),), fs(), [fs(3, 5, 6)]),
    fs(2, 3, 4): ((fs(), fs(1, 2, 3)), fs(1, 2, 3), [fs(2), fs(2, 4, 5, 6)]),
    fs(2, 4, 5): ((fs(), fs(1, 4, 5)), fs(1, 4, 5), [fs(2, 3, 4), fs(4, 6)]),
    fs(1, 4, 6): ((fs(), fs(2, 4, 6)), fs(2, 4, 6), [fs(3, 4, 5), fs(2, 3, 5, 6)]),
    fs(1, 5, 6): ((fs(), fs(3, 5, 6)), fs(3, 5, 6), [fs(5), fs(3, 6)]),
    fs(2, 3, 5): ((fs(),), fs(1, 2, 3, 4, 5, 6), [fs(2, 4, 6)]),
    fs(2, 3, 6): ((fs(),), fs(1, 2, 3, 4, 5, 6), [fs(2, 4)]),
    fs(3, 4, 6): ((fs(), fs(2, 4, 6)), fs(1, 2, 3, 4, 5, 6), [fs(2, 6), fs(4)]),
    fs(2, 5, 6): ((fs(), fs(3, 5, 6)), fs(1, 2, 3, 4, 5, 6), [fs(2, 3, 4, 6), fs(2, 4, 5)]),
    fs(3, 4, 5): ((fs(), fs(2, 3, 4, 5, 6)), fs(1, 2, 3, 4, 5, 6), [fs(2, 5, 6), fs(3, 4)]),
    fs(4, 5, 6): (
        (fs(), fs(3, 5, 6), fs(2, 3, 4, 5, 6)),
        fs(1, 2, 3, 4, 5, 6),
        [fs(3, 4, 6), fs(2, 3, 6), fs(2, 5), fs(4, 5)],
    ),
}


def test_criterion_04_k4_table():
    from test_cli import run

    code, out = run(["table", str(DATA / "k4.graph")])
    assert code == 0
    assert out == (GOLDEN / "k4_table.tsv").read_text()
    ground = K4.ground_set
    assert set(K4_TABLE) == set(bases(K4))
    for b, (chain_prefix, cyclic_flat, printed) in K4_TABLE.items():
        result = alpha_inverse_class(K4, b)
        f = result.filtration
        assert f.chain == (*chain_prefix, ground)
        assert f.cyclic_flat == cyclic_flat
        members = set(result.class_members)
        for a in printed:
            assert a in members
            assert ground - a in members  # "... and opposites"
    _ok(4, "golden K4 table: 16 rows, chains, cyclic flats, printed members")


def test_criterion_05_k3_table():
    from test_cli import run

    code, out = run(["table", str(DATA / "k3.graph")])
    assert code == 0
    assert out == (GOLDEN / "k3_table.tsv").read_text()
    expected = {
        fs(1, 2): [fs(), fs(2, 3), fs(1), fs(1, 2, 3)],
        fs(1, 3): [fs(3), fs(1, 2)],
        fs(2, 3): [fs(2), fs(1, 3)],
    }
    sizes = []
    for b, members in expected.items():
        result = alpha_inverse_class(K3, b)
        assert set(result.class_members) == set(members)
        sizes.append(len(result.class_members))
    assert sorted(sizes) == [2, 2, 4]
    _ok(5, "golden K3 table: 3 classes of sizes 4, 2, 2")


def _bijection_cardinalities(m):
    preimages = defaultdict(set)
    for a in subsets(m.n):
        preimages[active_basis(reorient(m, a))].add(a)
    assert set(preimages) == set(bases(m))
    total = 0
    for b, pre in preimages.items():
        internal, external = basis_activities(m, b)
        assert len(pre) == 1 << (len(internal) + len(external))
        total += len(pre)
    assert total == 1 << m.n


def test_criterion_06_bijection_cardinalities():
    _bijection_cardinalities(K4)
    rng = random.Random(101)
    for _ in range(50):
        _bijection_cardinalities(random_om(rng, max_vertices=6, max_edges=10, min_edges=3))
    _ok(6, "alpha onto bases with 2^(iota+epsilon) preimages on K4 + 50 random graphs")


def test_criterion_07_full_optimality_uniqueness():
    rng = random.Random(102)
    instances = [K3, K4, DIAMOND]
    for _ in range(10):
        instances.append(random_om(rng, max_vertices=5, max_edges=8))
    for m in instances:
        if m.n == 0:
            continue
        for a in subsets(m.n):
            r = reorient(m, a)
            if not (is_bounded(r) or is_dual_bounded(r)):
                continue
            # is_fully_optimal raises if the two criterion formulations
            # ever disagree, so this scan also checks their equivalence
            hits = [b for b in bases(r) if is_fully_optimal(r, b)]
            assert len(hits) == 1
    _ok(7, "exactly one fully optimal basis; both criteria agree on every basis")


def test_criterion_08_round_trips():
    rng = random.Random(103)
    instances = [K3, K4, DIAMOND] + [random_om(rng, max_vertices=6, max_edges=10) for _ in range(10)]
    for m in instances:
        for b in bases(m):
            for a in alpha_inverse_class(m, b).class_members:
                assert active_basis(reorient(m, a)) == b
    for m in (K3, K4):
        for a in subsets(m.n):
            assert refined_alpha_inverse(m, refined_alpha(m, a)) == a
        for x in subsets(m.n):
            assert refined_alpha(m, refined_alpha_inverse(m, x)) == x
    _ok(8, "inverse-class and refined round trips are identities")


def test_criterion_09_activity_preservation():
    rng = random.Random(104)
    instances = [K3, K4, DIAMOND] + [random_om(rng, max_vertices=6, max_edges=9) for _ in range(10)]
    for m in instances:
        for a in subsets(m.n):
            r = reorient(m, a)
            internal, external = basis_activities(m, active_basis(r))
            ostar, o = orientation_activities(r)
            assert internal == ostar and external == o
    _ok(9, "Int(alpha) = O* and Ext(alpha) = O for every reorientation")


def test_criterion_10_duality_suite():
    for m in (K3, K4):
        md = dual(m)
        for a in subsets(m.n):
            assert active_basis(reorient(md, a)) == m.ground_set - active_basis(
                reorient(m, a)
            )
    checked = 0
    for a in subsets(6):
        r = reorient(K4, a)
        if is_bounded(r):
            assert check_active_duality(r)
            checked += 1
    assert checked == 4
    rng = random.Random(105)
    for _ in range(50):
        m = random_connected_om(rng, max_vertices=5, max_edges=8)
        for a in subsets(m.n):
            r = reorient(m, a)
            if is_bounded(r):
                assert check_active_duality(r)
    _ok(10, "alpha duality on K3/K4; active duality on all bounded reorientations")


def test_criterion_11_four_variable_identities():
    rng = random.Random(106)
    instances = [K3, K4] + [random_om(rng, max_vertices=6, max_edges=9) for _ in range(50)]
    for m in instances:
        t = tutte_from_bases(m)
        for x, u, y, v in itertools.product(range(3), repeat=4):
            want = t.evaluate(x + u, y + v)
            assert four_var_subset_sum(m, x, u, y, v) == want
            assert four_var_reorientation_sum(m, x, u, y, v) == want
    supports = {c.support for c in K4.circuits}
    independents = sum(1 for a in subsets(6) if not any(s <= a for s in supports))
    spanning = sum(1 for a in subsets(6) if _greedy_rank(_supports(K4.circuits), _mask(a)) == K4.rank)
    t4 = tutte_from_bases(K4)
    assert independents == t4.evaluate(2, 1) == 38
    assert spanning == t4.evaluate(1, 2) == 38
    _ok(11, "four-variable sums equal t(x+u,y+v) on the {0,1,2}^4 grid; 38/38 counts")


def test_criterion_12_filtration_uniqueness():
    start = time.perf_counter()
    assert_unique_decomposition(K4)
    rng = random.Random(107)
    for _ in range(20):
        assert_unique_decomposition(random_om(rng, max_vertices=5, max_edges=7, min_edges=3))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(12, f"unique connected decomposition per reorientation in {elapsed:.1f}s")
