"""Independent routes that ``actbij verify`` and the tests check the serving
maps against: the fully optimal basis by scan over all bases, the recursive
active basis on minors of M under a flip mask, with positive sets from
``core._positive_under`` and not the serving test, the active duality identities,
the connected filtrations by chain growth and deletion/contraction.  Exponential,
desk scale only; no serving module imports them, and each memo lasts one call or one check."""

from __future__ import annotations

from functools import reduce
from operator import or_

from .activities import Filtration, _connected_step
from .bijection import _only_passing
from .core import (
    OrientedMatroid,
    _basis_masks,
    _bounded_under,
    _elements,
    _mask,
    _minor,
    _positive_under,
    _reoriented,
    _squeeze,
    _submasks,
    _supports,
    _unsqueeze,
    dual,
    is_bounded,
    reorient,
)
from .tutte import TuttePolynomial


def fully_optimal_basis_scan(m: OrientedMatroid, flip: int = 0) -> frozenset[int] | None:
    """The fully optimal basis of -_flip M (n ≥ 1, flip a mask): the one basis passing
    both criteria; None when it is neither bounded nor dual-bounded w.r.t. p = 1,
    and then no reoriented OM is built."""
    bounded = _bounded_under(m, flip, False)
    if bounded or _bounded_under(m, flip, True):
        return _elements(_only_passing(_reoriented(m, flip), _basis_masks(m), bounded))
    return None


def active_basis_recursive(
    m: OrientedMatroid, *, flip: int = 0, circuit_induction: bool = False, memo=None
) -> frozenset[int]:
    """Alternate evaluator of the active basis of -_flip M (flip a mask) by the
    recursive definition: fully optimal basis by scan in the bounded/dual-bounded
    case, duality, and induction on the minor cut out by the greatest dual-active
    element (or greatest active element when ``circuit_induction``).  Each minor
    is (G, F, side) relative to M: M(G)/F, dualized when side is set after a dual
    hop, under flip ∩ (G∖F) squeezed.  ``memo`` holds three tables: "minors" maps
    (M, G, F, side) to that unsigned minor and the runs of G∖F, built once, "scans"
    (minor, squeezed flip) to its scan and "bases" (minor, squeezed flip, style) to
    its basis mask, so no reoriented OM; when not passed in it lives for this call."""
    minors, scans, bases = ({} if memo is None else memo.setdefault(t, {}) for t in ("minors", "scans", "bases"))

    def step(large: int, small: int, side: int) -> int:
        """The active basis of the minor (large, small, side), as a mask in M's terms."""
        if (m, large, small, 0) not in minors:
            minors[m, large, small, 0] = _minor(m, large, small)
        if (m, large, small, side) not in minors:
            minor, runs = minors[m, large, small, 0]
            minors[m, large, small, 1] = dual(minor), runs
        minor, runs = minors[m, large, small, side]
        key = (minor, _squeeze(flip, runs), circuit_induction)
        if key not in bases:
            bases[key] = induction(large, small, side, runs, *key[:2])
        return _unsqueeze(bases[key], runs)

    def induction(large: int, small: int, side: int, runs, minor: OrientedMatroid, flipped: int) -> int:
        """The active basis of -_flipped minor, for the minor at (large, small, side) and
        its squeezed flip, as a mask of the minor; only a bounded one is reoriented."""
        if minor.n == 0:
            return 0
        if (minor, flipped) not in scans:  # shared by both styles
            scans[minor, flipped] = fully_optimal_basis_scan(minor, flipped)
        if scans[minor, flipped] is not None:
            return _mask(scans[minor, flipped])
        full = (1 << minor.n) - 1
        supports = _positive_under(minor.circuits if circuit_induction else minor.cocircuits, flipped)
        if not supports:  # acyclic (circuit style) or totally cyclic: hop to the dual, same style
            return full ^ _squeeze(step(large, small, side ^ 1), runs)
        top = max(s & -s for s in supports)  # the greatest active (dual-active) element, as a bit
        part = reduce(or_, (s for s in supports if s & -s == top))
        if not circuit_induction:
            part ^= full
        part, rest = _unsqueeze(part, runs), _unsqueeze(full ^ part, runs)
        # the restriction to the part and the contraction of the part; on the dual
        # side, restricting (M(G)/F)* contracts M(G)/F, and contracting it deletes
        inside, outside = (large, small | rest), (large ^ part, small)
        if not side:
            inside, outside = (small | part, small), (large, small | part)
        return _squeeze(step(*inside, side) | step(*outside, side), runs)

    return _elements(step((1 << m.n) - 1, 0, 0))


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
            memo[small, large, cyclic] = _connected_step(_minor(m, large, small)[0], cyclic)
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
