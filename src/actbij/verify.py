"""The invariant suite behind the CLI ``verify`` subcommand.

Each check returns quietly or raises :class:`VerificationFailure` with the first counterexample.  Its name
is its function's, ``check_`` dropped and ``_`` read as ``-``; ``run_all`` can time each check and reports
every failure, a library self-test tripped inside a check too, as ``FAIL <check>: <detail>``.  Checks are
exhaustive over all reorientations, bases and subsets, each A ⊆ E walked as its mask in ``range(1 << n)``,
so they are meant for desk-scale inputs; above n = FILTRATION_UNIQUENESS_CAP filtration-uniqueness returns
why and reports ``skip``.  A run computes each served value of M and of M* once, in one :class:`Sweep` and
the record of M* it makes, the active basis of -_A M as a mask from the record's own active filtration.
The oracle checks build their fully optimal bases and ranks as one table per OM (``oracles._optimal_table``,
``oracles._rank_table``), and the bounded flips of each chain step's minor as one int (``oracles._bounded_flips``);
an A left to the scan of every basis fails, if at all, with the scan's message.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from . import activities, bijection, core, oracles, tutte

FILTRATION_UNIQUENESS_CAP = 12  # largest n on which filtration-uniqueness runs


class VerificationFailure(AssertionError):
    pass


def _fail(detail: str):
    raise VerificationFailure(detail)


class Sweep:
    """M's values for one ``run_all`` call: ``value(fn, a)`` is fn(M, A) for the mask a of a reorientation
    or a basis, computed once and kept in a list per function indexed by a; for ``bijection._active_basis``,
    the mask of the active basis of -_A M read off the record's own active filtration.  ``dual()`` is the
    record of M*, made on first use; ``times`` the wall time in seconds of each check run on it.  Checks look
    fn up at call time, so a planted or failing one fails in the check that first asks, at the same A."""

    def __init__(self, m):
        self.m, self._classes, self._dual, self.times = m, None, None, {}
        self._tables = defaultdict(lambda: [None] * (1 << m.n))

    def value(self, fn, a):
        table = self._tables[fn]
        if table[a] is None:
            if fn is bijection._active_basis:
                table[a] = fn(self.m, self.value(activities.active_filtration_orientation, a), a)
            else:
                table[a] = fn(self.m, core._elements(a))
        return table[a]

    def dual(self):
        self._dual = self._dual or Sweep(core.dual(self.m))
        return self._dual

    def counts(self) -> dict[str, dict[str, int]]:
        """Per side, M and M*, the number of values computed per function name."""
        return {side: {fn.__name__: len(t) - t.count(None) for fn, t in (s._tables.items() if s else ())}
                for side, s in (("M", self), ("M*", self._dual))}

    def classes(self):
        """Each activity class once, as masks: (its smallest member, its members)."""
        if self._classes is None:
            self._classes, processed = [], set()
            for a in range(1 << self.m.n):
                if a not in processed:
                    members = list(map(core._mask, activities.activity_class(self.m, core._elements(a))))
                    processed.update(members)
                    self._classes.append((a, members))
        return self._classes


def _interval(lo: int, hi: int) -> set[int]:
    """Every mask between the masks lo and hi."""
    return {lo | sub for sub in core._submasks(hi & ~lo)}


def check_structure(m, sweep):
    core.om_from_lists(m.n, m.circuits, m.cocircuits)
    if core.dual(core.dual(m)) != m:
        _fail("dual is not an involution")
    # on a single element, as -_E M = M for signed sets stored up to sign
    if any(core.reorient(core.reorient(m, {e}), {e}) != m for e in m.ground_set):
        _fail("reorientation is not an involution")


def check_pivot_property(m, sweep):
    for b in core._basis_masks(m):
        supports = core._supports(core._fundamentals(m, b))
        for elt in core._positions(b):
            for e in core._positions(((1 << m.n) - 1) ^ b):
                if (supports[elt - 1] >> (e - 1) & 1) != (supports[e - 1] >> (elt - 1) & 1):
                    _fail(f"B={core._positions(b)}, b={elt}, e={e}")


def check_compose_support(m, sweep):
    full = (1 << m.n) - 1
    loops, isthmuses = (sum(s for s in core._supports(sets) if not s & (s - 1)) for sets in (m.circuits, m.cocircuits))
    for b in core._basis_masks(m):
        funds = core._fundamentals(m, b)
        for side, kind, zeros in ((b, "covector", loops), (full ^ b, "vector", isthmuses)):
            composed = core.SignedSubset.from_masks(0, 0)
            for e in core._positions(side):
                composed = core.compose(composed, funds[e - 1])
            if composed.pos | composed.neg != full ^ zeros:
                _fail(f"{kind} support wrong for B={core._positions(b)}")


def check_activity_duality(m, sweep):
    md = sweep.dual().m
    for b in core._basis_masks(m):
        internal, external = sweep.value(activities.basis_activities, b)
        co_internal, co_external = activities.basis_activities(md, m.ground_set - core._elements(b))
        if internal != co_external or external != co_internal:
            _fail(f"B={core._positions(b)}")
    for a in range(1 << m.n):
        ostar, o = sweep.value(activities.orientation_activities, a)
        dstar, do = activities.orientation_activities(md, core._elements(a))
        if ostar != do or o != dstar:
            _fail(f"A={core._positions(a)}")


def check_filtration_duality(m, sweep):
    dual = sweep.dual()
    for a in range(1 << m.n):
        f = sweep.value(activities.active_filtration_orientation, a)
        fd = dual.value(activities.active_filtration_orientation, a)
        if fd.masks != f.masks[::-1] or fd.cyclic_index != len(f.masks) - f.cyclic_index:
            _fail(f"A={core._positions(a)}")


def check_bounded_minors(m, sweep):
    steps, connected = {}, set()  # per chain step F ⊂ F ∪ part, the bounded flips of its minor; the filtrations seen
    for a in range(1 << m.n):
        f = sweep.value(activities.active_filtration_orientation, a)
        if f not in connected and not activities.is_connected_filtration(m, f):
            _fail(f"A={core._positions(a)}: filtration not connected")
        connected.add(f)
        small = 0
        for i, part in enumerate(f.masks):
            if (small, part) not in steps:  # M's step minor, not that of -_A M: a bit per A ∩ part squeezed
                minor, runs = activities._step_minor(m, small | part, small)
                steps[small, part] = oracles._bounded_flips(minor), runs
            flips, runs = steps[small, part]
            if not flips[f.part_is_cyclic(i)] >> core._squeeze(a, runs) & 1:
                _fail(f"A={core._positions(a)}, part {i}")
            small |= part


def check_class_invariance(m, sweep):
    invariants = (activities.active_filtration_orientation, activities.orientation_activities)
    for a, members in sweep.classes():
        for member in members:
            if any(sweep.value(fn, member) != sweep.value(fn, a) for fn in invariants):
                _fail(f"A={core._positions(a)}, member={core._positions(member)}")


def check_fixed_representative(m, sweep):
    for a, members in sweep.classes():
        active = (sweep.value(activities.orientation_activities, x) for x in members)
        fixed = [x for x, (ostar, o) in zip(members, active) if not x & core._mask(ostar | o)]
        if len(fixed) != 1:
            _fail(f"A={core._positions(a)}: {len(fixed)} fixed members")


def check_bijection(m, sweep):
    preimages = defaultdict(set)
    for a in range(1 << m.n):
        preimages[sweep.value(bijection._active_basis, a)].add(a)
    if set(preimages) != set(core._basis_masks(m)):
        _fail("active basis map is not onto the bases")
    for b, pre in preimages.items():
        klass = bijection.alpha_inverse_class(m, core._elements(b))  # one part per active element of B
        if len(pre) != 1 << len(klass.filtration.masks):
            _fail(f"B={core._positions(b)} has {len(pre)} preimages")
        if set(map(core._mask, klass.class_members)) != pre:
            _fail(f"B={core._positions(b)}: inverse class mismatch")


def check_activity_preservation(m, sweep):
    for a in range(1 << m.n):
        b = sweep.value(bijection._active_basis, a)
        if sweep.value(activities.basis_activities, b) != sweep.value(activities.orientation_activities, a):
            _fail(f"A={core._positions(a)}")
        f = sweep.value(activities.active_filtration_orientation, a)
        if sweep.value(activities.active_filtration_basis, b) != f:
            _fail(f"A={core._positions(a)}: filtrations differ")


def check_refined_bijection(m, sweep):
    images = []  # by mask, the mask of the refined image
    for a in range(1 << m.n):
        ostar, o = map(core._mask, sweep.value(activities.orientation_activities, a))
        images.append(bijection._refine(a, sweep.value(bijection._active_basis, a), ostar, o))
        x = core._elements(images[a])
        if bijection.refined_alpha_inverse(m, x) != core._elements(a):
            _fail(f"A={core._positions(a)}")
        if activities.subset_params(m, x) != activities.reorientation_params(m, core._elements(a)):
            _fail(f"A={core._positions(a)}: parameter transport")
    if len(set(images)) != 1 << m.n:
        _fail("not a permutation of the power set")
    # the public map at one member of each class; activity classes map onto basis intervals
    for a, members in sweep.classes():
        if core._mask(bijection.refined_alpha(m, core._elements(a))) != images[a]:
            _fail(f"A={core._positions(a)}: public refined map differs")
        b = core._elements(sweep.value(bijection._active_basis, a))
        lo, hi = map(core._mask, activities.interval_of_basis(m, b))
        if {images[member] for member in members} != _interval(lo, hi):
            _fail(f"A={core._positions(a)}: class does not fill the interval")


def check_full_optimality_uniqueness(m, sweep):
    if m.n == 0:
        return
    table = oracles._optimal_table(m)
    for a in range(1 << m.n):
        try:  # None where -_A M is neither bounded nor dual-bounded
            hit = oracles._optimal_at(m, table, a)
        except AssertionError as exc:  # no or several optimal bases, or the criteria disagree
            _fail(f"A={core._positions(a)}: {exc}")
        if hit is not None and hit != (served := sweep.value(bijection._active_basis, a)):
            _fail(f"A={core._positions(a)}: scan {core._positions(hit)} != served {core._positions(served)}")


def check_alpha_duality(m, sweep):
    dual, full = sweep.dual(), (1 << m.n) - 1
    for a in range(1 << m.n):
        if dual.value(bijection._active_basis, a) != full ^ sweep.value(bijection._active_basis, a):
            _fail(f"A={core._positions(a)}")


def check_active_duality(m, sweep):
    if m.n <= 1:
        return
    tables = oracles._optimal_table(m), oracles._optimal_table(core.dual(m))
    for a in range(1 << (m.n - 1)):  # -_A M = -_(E∖A) M: each pair at its mask without n
        if tables[0][1] >> a & 1 and not oracles.check_active_duality(m, a, tables):
            _fail(f"A={core._positions(a)}")


def check_recursive_definitions(m, sweep):
    # -_A M = -_(E∖A) M: each pair at its smaller mask, a memo hit the second time
    full, memo = (1 << m.n) - 1, {}
    for a in range(1 << m.n):
        pair, b = min(a, a ^ full), core._elements(sweep.value(bijection._active_basis, a))
        if oracles.active_basis_recursive(m, flip=pair, memo=memo) != b:
            _fail(f"A={core._positions(a)}: cocircuit induction")
        if oracles.active_basis_recursive(m, flip=pair, circuit_induction=True, memo=memo) != b:
            _fail(f"A={core._positions(a)}: circuit induction")


def check_tutte_routes(m, sweep):
    activities._interval_walk(m)  # the subset sum is t(x+u, y+v) iff the basis intervals partition 2^E
    by_bases = tutte.tutte_from_bases(m)
    if tutte.tutte_from_orientations(m) != by_bases:
        _fail("orientation route disagrees with basis route")
    if oracles.tutte_rank_oracle(m) != by_bases:
        _fail("rank-generating route disagrees")
    want, counts = tutte._shifted_coefficients(by_bases), tutte._reorientation_histogram(m)
    for key in sorted(want.keys() | counts.keys()):
        if counts.get(key, 0) != want.get(key, 0):
            _fail(f"reorientation sum coefficient {key}: {counts.get(key, 0)} != {want.get(key, 0)}")
    if by_bases.evaluate(1, 1) != len(core.bases(m)):
        _fail("t(1,1) is not the number of bases")
    if by_bases.evaluate(2, 2) != 1 << m.n:
        _fail("t(2,2) is not 2^n")
    if m.n > 0 and by_bases.coefficient(0, 0) != 0:
        _fail("b_00 nonzero for a nonempty ground set")


def check_class_counts(m, sweep):
    t = tutte.tutte_from_bases(m)
    reps = acyclic_reps = cyclic_reps = active_fixed = dual_fixed = 0
    for a in range(1 << m.n):
        ostar, o = map(core._mask, sweep.value(activities.orientation_activities, a))
        if not (a & o):
            active_fixed += 1
        if not (a & ostar):
            dual_fixed += 1
        if not (a & (o | ostar)):
            reps += 1
            if not o:
                acyclic_reps += 1
            if not ostar:
                cyclic_reps += 1
    expected = [
        (reps, t.evaluate(1, 1), "class representatives"),
        (acyclic_reps, t.evaluate(1, 0), "acyclic classes"),
        (cyclic_reps, t.evaluate(0, 1), "totally cyclic classes"),
        (active_fixed, t.evaluate(2, 1), "active-fixed reorientations"),
        (dual_fixed, t.evaluate(1, 2), "dual-active-fixed reorientations"),
    ]
    for got, want, label in expected:
        if got != want:
            _fail(f"{label}: {got} != {want}")


def check_interval_unions(m, sweep):
    ranks, lower_union, upper_union = oracles._rank_table(m), set(), set()
    independents = {a for a, r in enumerate(ranks) if r == a.bit_count()}
    spanning = {a for a, r in enumerate(ranks) if r == m.rank}
    for basis in core._basis_masks(m):
        internal, external = map(core._mask, sweep.value(activities.basis_activities, basis))
        lower_union |= _interval(basis & ~internal, basis)
        upper_union |= _interval(basis, basis | external)
    if upper_union != spanning:
        _fail("upper intervals are not the spanning sets")
    if lower_union != independents:
        _fail("lower intervals are not the independent sets")


def check_filtration_uniqueness(m, sweep):
    if m.n > FILTRATION_UNIQUENESS_CAP:
        return f"n > {FILTRATION_UNIQUENESS_CAP}"
    # f is valid at A iff every part is bounded under A ∩ part: f marks the ORs
    # of one bounded flip per part, each chain step's flips listed once
    flips, counts, markers = {}, [0] * (1 << m.n), [None] * (1 << m.n)
    for f in oracles.all_connected_filtrations(m):
        valid, small = [0], 0
        for i, part in enumerate(f.masks):
            step = (small, part, f.part_is_cyclic(i))
            if step not in flips:  # the set bits of the step minor's bounded flips, unsqueezed
                minor, runs = activities._step_minor(m, small | part, small)
                bits = oracles._bounded_flips(minor)[f.part_is_cyclic(i)]
                flips[step] = [core._unsqueeze(x - 1, runs) for x in core._positions(bits)]
            valid = [a | x for a in valid for x in flips[step]]
            small |= part
        for a in valid:
            counts[a] += 1
            markers[a] = f
    for a in range(1 << m.n):
        if counts[a] != 1 or markers[a] != sweep.value(activities.active_filtration_orientation, a):
            _fail(f"A={core._positions(a)}: {counts[a]} decompositions")


ALL_CHECKS = [
    (fn.__name__[6:].replace("_", "-"), fn)
    for fn in (
        check_structure, check_pivot_property, check_compose_support, check_activity_duality,
        check_filtration_duality, check_bounded_minors, check_class_invariance, check_fixed_representative,
        check_bijection, check_activity_preservation, check_refined_bijection,
        check_full_optimality_uniqueness, check_alpha_duality, check_active_duality,
        check_recursive_definitions, check_tutte_routes, check_class_counts, check_interval_unions,
        check_filtration_uniqueness,
    )
]


def run_all(m, report=print, sweep=None) -> bool:
    """Run the whole suite on one :class:`Sweep` of M, the caller's when given, which keeps each check's
    wall time; report one line per check, ``skip`` if it returns a reason.  Returns success."""
    core.check_enumeration_cap(m.n)
    sweep = sweep or Sweep(m)
    for name, check in ALL_CHECKS:
        start = perf_counter()
        try:
            skipped = check(m, sweep)
        except (AssertionError, ValueError) as exc:  # VerificationFailure, or a library self-test
            report(f"FAIL {name}: {exc}")
            return False
        finally:
            sweep.times[name] = perf_counter() - start
        report(f"skip {name} ({skipped})" if skipped else f"ok {name}")
    return True
