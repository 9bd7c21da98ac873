"""Fully optimal bases and the canonical and refined active bijections.

The map from a basis to its reorientation class is a cheap single pass;
the map from a reorientation to its basis builds the fully optimal basis
of each active minor by deletion/contraction of its greatest element ω,
building only those of M/ω and M∖ω that are bounded, as decided on M
itself, and both full optimality criteria check every step as a
permanent self-test.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, pairwise
from operator import or_

from . import activities, core
from .activities import (
    _flips,
    _owner,
    active_filtration_orientation,
    basis_pass,
    orientation_activities,
)
from .core import (
    OrientedMatroid,
    SignedSubset,
    _elements,
    _mask,
    _fundamentals,
    _minor,
    _positions,
    _unsqueeze,
    compose,
    dual,
    is_basis,
    is_bounded,
    is_dual_bounded,
)


class ReorientationClassResult(namedtuple("_Class", ["class_members", "filtration"])):
    """The 2^(ι+ε) reorientations that the active basis map sends onto one
    basis, and their shared active filtration.  Equality is tuple equality,
    so a result equals a plain tuple with the same items."""

    __slots__ = ()


def _sign_opposition_criterion(funds, basis: int, bounded: bool) -> bool:
    # every fundamental set but that of p (in B when bounded, outside B
    # when dual-bounded) has its smallest element opposite to its own one
    for e, (pos, neg) in enumerate(funds):
        if e == 0 and basis & 1 == bounded:
            continue
        support = pos | neg
        if not neg & support & -support:
            return False
    return True


def _composition_criterion(funds, basis: int, bounded: bool) -> bool:
    # Adjacency/Dual-Adjacency characterize the fully optimal basis only among uniactive
    # bases; activities come from unsigned data alone, and p = 1 is always active.
    if basis & 1 != bounded or any(s & -s == 1 << e for e, s in enumerate(x.pos | x.neg for x in funds) if e):
        return False
    full = (1 << len(funds)) - 1
    covector = vector = SignedSubset.from_masks(0, 0)
    for e, x in enumerate(funds):
        if basis >> e & 1:
            covector = compose(covector, x)
        else:
            vector = compose(vector, x)
    all_positive, negative_exactly_on_p = (full, 0), (full & ~1, 1)
    cov_ok = not basis or covector == (all_positive if bounded else negative_exactly_on_p)
    vec_ok = basis == full or vector == (negative_exactly_on_p if bounded else all_positive)
    return cov_ok and vec_ok


def _is_bounded_wrt(m: OrientedMatroid) -> bool:
    """Whether M is bounded, else dual-bounded, w.r.t. p = min(E) = 1; raises if neither."""
    bounded = is_bounded(m)
    if not bounded and not is_dual_bounded(m):
        raise ValueError("oriented matroid is neither bounded nor dual-bounded w.r.t. p")
    return bounded


def _passes_both_criteria(m: OrientedMatroid, basis: int, bounded: bool) -> bool:
    funds = _fundamentals(m, basis)
    by_signs = _sign_opposition_criterion(funds, basis, bounded)
    by_composition = _composition_criterion(funds, basis, bounded)
    if by_signs != by_composition:
        raise AssertionError(
            f"full optimality criteria disagree on basis {_positions(basis)}: "
            f"sign-opposition={by_signs}, composition={by_composition}"
        )
    return by_signs


def is_fully_optimal(m: OrientedMatroid, b: frozenset[int]) -> bool:
    """Whether B satisfies the full optimality criterion of the bounded
    (resp. dual-bounded) oriented matroid M w.r.t. p = min(E).

    Both the sign-opposition criterion and the composed covector/vector
    criterion are evaluated; a disagreement means corrupted input or an
    implementation bug and raises.
    """
    return _passes_both_criteria(m, _mask(b), _is_bounded_wrt(m))


def _only_passing(m: OrientedMatroid, candidates, bounded: bool) -> int:
    """The one candidate basis mask of M passing both criteria; zero or several raise."""
    hits = [b for b in candidates if _passes_both_criteria(m, b, bounded)]
    if len(hits) != 1:
        found = [_positions(b) for b in hits]
        raise AssertionError(f"expected exactly one fully optimal basis, found {len(hits)}: {found}")
    return hits[0]


@lru_cache(maxsize=4096)
def fully_optimal_basis(m: OrientedMatroid) -> frozenset[int]:
    """The unique basis passing :func:`is_fully_optimal`, cached per minor: E ∖ α(M*) for a
    dual-bounded M; for a bounded M, n ≥ 2 and ω = max(E), the one of α(M/ω) ∪ {ω} and α(M∖ω),
    over the two minors that are bounded, that passes both criteria (zero or two raise).
    Which are bounded is decided on M before either minor is built."""
    if m.n == 0:
        return frozenset()
    if not _is_bounded_wrt(m):
        return m.ground_set - fully_optimal_basis(dual(m))
    if m.n == 1:
        return frozenset({1})
    full, omega, rest = (1 << m.n) - 1, 1 << (m.n - 1), (1 << (m.n - 1)) - 1
    # M/ω is bounded iff no circuit is positive up to sign on E∖ω, M∖ω iff no cocircuit missing 1 is
    # (read through core at call time, so that one positivity test decides here and in is_bounded alike)
    contracted = not any(core._positive_under([(p & rest, q & rest) for p, q in m.circuits], 0))
    deleted = not any(core._positive_under([(p & rest, q & rest) for p, q in m.cocircuits if not (p | q) & 1], 0))
    minors = ((full, omega, contracted), (rest, 0, deleted))
    candidates = [_mask(fully_optimal_basis(_minor(m, keep, top)[0])) | top for keep, top, bounded in minors if bounded]
    return _elements(_only_passing(m, candidates, True))


@lru_cache(maxsize=4096)
def _step_basis(m: OrientedMatroid, large: int, small: int, flip: int) -> int:
    """The fully optimal basis of (-_flip M)(large)/small, flip ⊆ large∖small, as a mask on M's elements:
    the step's minor from ``activities._step_minor``, read at call time, reoriented by flip squeezed."""
    minor, runs = activities._step_minor(m, large, small)
    return _unsqueeze(_mask(fully_optimal_basis(core._reoriented(minor, core._squeeze(flip, runs)))), runs)


def _active_basis(m: OrientedMatroid, f, a: int) -> int:
    """The mask of the active basis of -_A M, for the mask a and the active filtration f of -_A M."""
    chain = pairwise(accumulate(f.masks, or_, initial=0))
    return sum(_step_basis(m, large, small, a & (large ^ small)) for small, large in chain)


def active_basis(m: OrientedMatroid, a=()) -> frozenset[int]:
    """The active basis of -_A M: the disjoint union of the fully optimal
    bases of its active minors, each unsqueezed back onto M's elements by
    the runs its minor was built with, cached per chain step F ⊂ G and flip
    A ∩ (G∖F); -_A M is built whole only as its own one minor."""
    return _elements(_active_basis(m, active_filtration_orientation(m, a), _mask(a)))


def alpha_inverse_class(m_ref: OrientedMatroid, b: frozenset[int]) -> ReorientationClassResult:
    """The full activity class mapped onto B by the active basis map,
    computed by the single pass over E from the fundamental data of B.

    The first member is the representative in which no active element is
    reoriented; the rest follow in subset-rank order over the parts
    (ordered by their minima) that were flipped.
    """
    if not is_basis(m_ref, b):
        raise ValueError(f"{sorted(b)} is not a basis of the oriented matroid")
    basis = _mask(b)
    f, base_point = basis_pass(_fundamentals(m_ref, basis), basis)
    members = tuple(_elements(x) for x in _flips(base_point, f.masks))
    return ReorientationClassResult(members, f)


def refined_alpha(m_ref: OrientedMatroid, a) -> frozenset[int]:
    """The refined active bijection: the active basis of -_A M with the
    reoriented dual-active elements removed and the reoriented active
    elements added."""
    a = frozenset(a)
    ostar, o = orientation_activities(m_ref, a)
    return _elements(_refine(_mask(a), _mask(active_basis(m_ref, a)), _mask(ostar), _mask(o)))


def _refine(a: int, b: int, ostar: int, o: int) -> int:
    """The refined image, as a mask, of the mask a with active basis b and orientation activities (ostar, o)."""
    return (b & ~(a & ostar)) | (a & o)


def refined_alpha_inverse(m_ref: OrientedMatroid, x) -> frozenset[int]:
    """Inverse of the refined bijection: take the record of the basis whose
    interval holds X and flip its base point on the parts whose active
    element lies in P ∪ Q (flipping an active element flips its part)."""
    x = _mask(x)
    _, f, base_point = _owner(m_ref, x)
    internal, external = f.minima()
    flipped = (internal & ~x) | (external & x)
    for part in f.masks:
        if part & flipped:
            base_point ^= part
    return _elements(base_point)

