"""Independent routes that ``actbij verify`` and the tests check the serving
maps against: the fully optimal basis by scan over all bases, the recursive
definition of the active basis (positive sets and minors from ``core`` alone,
on masks), the active duality identities, the connected filtrations by chain
growth and deletion/contraction.  Exponential, desk scale only; no serving
module imports them, and every memo lives for one call, or for one check when
passed in."""

from __future__ import annotations

from functools import reduce
from operator import or_

from .activities import Filtration, _connected_step
from .bijection import _only_passing, _translated
from .core import (
    OrientedMatroid,
    _basis_masks,
    _elements,
    _minor,
    _positions,
    _submasks,
    _supports,
    dual,
    is_bounded,
    is_dual_bounded,
    positive_circuits,
    positive_cocircuits,
    reorient,
)
from .tutte import TuttePolynomial


def fully_optimal_basis_scan(m: OrientedMatroid) -> frozenset[int] | None:
    """The fully optimal basis of M (n ≥ 1): the one basis passing both
    criteria; None when M is neither bounded nor dual-bounded w.r.t. p = 1."""
    bounded = is_bounded(m)
    if bounded or is_dual_bounded(m):
        return _elements(_only_passing(m, _basis_masks(m), bounded))
    return None


def active_basis_recursive(m: OrientedMatroid, *, circuit_induction: bool = False, memo=None) -> frozenset[int]:
    """Alternate evaluator of the active basis by the recursive definition:
    fully optimal basis by scan in the bounded/dual-bounded case, duality, and
    induction on the minor cut out by the greatest dual-active element
    (or greatest active element when ``circuit_induction``).  ``memo`` maps
    (minor, circuit_induction) to its basis and goes on through the dual hop
    and to both minors; when not passed in it lives for this call."""
    memo = {} if memo is None else memo
    if (m, circuit_induction) not in memo:
        memo[m, circuit_induction] = _recursive_step(m, circuit_induction, memo)
    return memo[m, circuit_induction]


def _recursive_step(m: OrientedMatroid, circuit_induction: bool, memo: dict) -> frozenset[int]:
    def recurse(minor: OrientedMatroid) -> frozenset[int]:
        return active_basis_recursive(minor, circuit_induction=circuit_induction, memo=memo)

    if m.n == 0:
        return frozenset()
    if (basis := fully_optimal_basis_scan(m)) is not None:
        return basis
    full = (1 << m.n) - 1
    supports = _supports(positive_circuits(m) if circuit_induction else positive_cocircuits(m))
    if not supports:
        # acyclic (circuit style) or totally cyclic: hop to the dual, same style
        return m.ground_set - recurse(dual(m))
    top = max(s & -s for s in supports)  # the greatest active (dual-active) element, as a bit
    part = reduce(or_, (s for s in supports if s & -s == top))
    if not circuit_induction:
        part ^= full
    inside, outside = _minor(m, part, 0), _minor(m, full, part)
    return _translated(recurse(inside), _positions(part)) | _translated(recurse(outside), _positions(full ^ part))


def check_active_duality(m: OrientedMatroid) -> bool:
    """Both duality identities on a bounded M (|E| > 1), w.r.t. p = 1:
    the active basis of -_p M* complements α(M) up to swapping the two
    smallest elements, and α(M*) = E ∖ α(M) for the dual-bounded M*.
    False when -_p M* is neither bounded nor dual-bounded."""
    if m.n <= 1:
        raise ValueError("active duality needs at least two elements")
    if not is_bounded(m):
        raise ValueError("active duality applies to a bounded oriented matroid")
    ground = m.ground_set
    lhs = fully_optimal_basis_scan(m)
    companion = fully_optimal_basis_scan(reorient(dual(m), frozenset({1})))
    if companion is None:
        return False
    via_active_duality = (ground - companion) - {2} | {1}
    plain = fully_optimal_basis_scan(dual(m)) == ground - lhs
    return lhs == via_active_duality and plain


def all_connected_filtrations(m: OrientedMatroid) -> list[Filtration]:
    """The connected filtrations of M, each chain grown from ∅ one part at
    a time: cyclic parts by decreasing minimum, the cyclic flat closed at
    any step, then acyclic parts each holding the smallest element left.
    A chain is dropped at its first step whose minor is not connected;
    each step's verdict is memoized for the duration of the call.
    Exponential; desk scale only.
    """
    full = (1 << m.n) - 1
    memo: dict[tuple[int, int, bool], bool] = {}  # keyed on the chain masks F ⊂ G
    results = []

    def step_ok(small: int, large: int, cyclic: bool) -> bool:
        if (small, large, cyclic) not in memo:
            memo[small, large, cyclic] = _connected_step(_minor(m, large, small), cyclic)
        return memo[small, large, cyclic]

    def acyclic(parts: list[int], placed: int, cyclic_index: int) -> None:
        left = full & ~placed
        if not left:
            results.append(Filtration.from_masks(parts, cyclic_index))
            return
        low = left & -left
        for rest in _submasks(left ^ low):
            if step_ok(placed, placed | low | rest, False):
                acyclic([*parts, low | rest], placed | low | rest, cyclic_index)

    def cyclic(parts: list[int], placed: int) -> None:
        acyclic(parts, placed, len(parts))
        below = parts[-1] & -parts[-1] if parts else full + 1
        for part in _submasks(full & ~placed):
            if part and part & -part < below and step_ok(placed, placed | part, True):
                cyclic([*parts, part], placed | part)

    cyclic([], 0)
    return results


def tutte_delcon_oracle(m: OrientedMatroid) -> TuttePolynomial:
    """Independent loop/isthmus/deletion-contraction recursion over the
    unsigned circuit supports, memoized for the duration of the call."""
    memo: dict[tuple[int, frozenset[int]], TuttePolynomial] = {}

    def delcon(ground: int, supports: frozenset[int]) -> TuttePolynomial:
        if not ground:
            return TuttePolynomial({(0, 0): 1})
        if (ground, supports) in memo:
            return memo[ground, supports]
        e = ground & -ground
        rest = ground ^ e
        deleted = frozenset(s for s in supports if not s & e)
        if e in supports:
            poly = TuttePolynomial({(i, j + 1): c for (i, j), c in delcon(rest, deleted).items()})
        elif deleted == supports:
            poly = TuttePolynomial({(i + 1, j): c for (i, j), c in delcon(rest, deleted).items()})
        else:
            shrunk = {s & ~e for s in supports} - {0}
            contracted = frozenset(s for s in shrunk if not any(t & ~s == 0 and t != s for t in shrunk))
            coeffs: dict[tuple[int, int], int] = {}
            for poly in (delcon(rest, deleted), delcon(rest, contracted)):
                for key, c in poly.items():
                    coeffs[key] = coeffs.get(key, 0) + c
            poly = TuttePolynomial(coeffs)
        memo[ground, supports] = poly
        return poly

    return delcon((1 << m.n) - 1, frozenset(_supports(m.circuits)))
