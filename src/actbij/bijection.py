"""Fully optimal bases and the canonical and refined active bijections.

The map from a basis to its reorientation class is a cheap single pass;
the map from a reorientation to its basis goes through criterion-checked
search over all bases of the bounded/dual-bounded active minors, whose
uniqueness theorem doubles as a permanent self-test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .activities import (
    Filtration,
    _filtration_of,
    _flips,
    active_filtration_orientation,
    ActivityReport,
    basis_pass,
    orientation_activities,
    reorientation_params,
    subset_params,
)
from .core import (
    OrientedMatroid,
    SignedSubset,
    _mask,
    _fundamentals,
    bases,
    compose,
    dual,
    is_basis,
    is_bounded,
    is_dual_bounded,
    positive_circuits,
    positive_cocircuits,
    reorient,
    restrict_contract,
)


@dataclass(frozen=True)
class ReorientationClassResult:
    """A basis, the 2^(ι+ε) reorientations mapping onto it, and their
    shared active filtration."""

    basis: frozenset[int]
    class_members: tuple[frozenset[int], ...]
    filtration: Filtration


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
    # Adjacency/Dual-Adjacency characterize the fully optimal basis only
    # among uniactive bases; activities come from unsigned data alone.
    full = (1 << len(funds)) - 1
    active = 0
    covector = vector = SignedSubset.from_masks(0, 0)
    for e, x in enumerate(funds):
        support = x.pos | x.neg
        if support & -support == 1 << e:
            active |= 1 << e
        if basis >> e & 1:
            covector = compose(covector, x)
        else:
            vector = compose(vector, x)
    if active != 1 or basis & 1 != bounded:
        return False
    all_positive, negative_exactly_on_p = (full, 0), (full & ~1, 1)
    cov_ok = not basis or covector == (all_positive if bounded else negative_exactly_on_p)
    vec_ok = basis == full or vector == (negative_exactly_on_p if bounded else all_positive)
    return cov_ok and vec_ok


def is_fully_optimal(m: OrientedMatroid, b: frozenset[int], p: int) -> bool:
    """Whether B satisfies the full optimality criterion of the bounded
    (resp. dual-bounded) oriented matroid M w.r.t. p = min(E).

    Both the sign-opposition criterion and the composed covector/vector
    criterion are evaluated; a disagreement means corrupted input or an
    implementation bug and raises.
    """
    if p != min(m.ground_set):
        raise ValueError("full optimality is defined w.r.t. the smallest element")
    bounded = is_bounded(m, p)
    if not bounded and not is_dual_bounded(m, p):
        raise ValueError("oriented matroid is neither bounded nor dual-bounded w.r.t. p")
    basis = _mask(b)
    funds = _fundamentals(m, basis)
    by_signs = _sign_opposition_criterion(funds, basis, bounded)
    by_composition = _composition_criterion(funds, basis, bounded)
    if by_signs != by_composition:
        raise AssertionError(
            f"full optimality criteria disagree on basis {sorted(b)}: "
            f"sign-opposition={by_signs}, composition={by_composition}"
        )
    return by_signs


@lru_cache(maxsize=65536)
def _fully_optimal_scan(m: OrientedMatroid) -> frozenset[int]:
    p = min(m.ground_set)
    hits = [b for b in bases(m) if is_fully_optimal(m, b, p)]
    if len(hits) != 1:
        raise AssertionError(
            f"expected exactly one fully optimal basis, found {len(hits)}: "
            f"{[sorted(b) for b in hits]}"
        )
    return hits[0]


def fully_optimal_basis(m: OrientedMatroid, p: int) -> frozenset[int]:
    """The unique basis passing :func:`is_fully_optimal`, by scan over all
    bases.  Uniactive internal when M is bounded, uniactive external when
    dual-bounded; zero or several hits raise."""
    if m.n == 0:
        return frozenset()
    if p != min(m.ground_set):
        raise ValueError("full optimality is defined w.r.t. the smallest element")
    if not is_bounded(m, p) and not is_dual_bounded(m, p):
        raise ValueError("oriented matroid is neither bounded nor dual-bounded w.r.t. p")
    return _fully_optimal_scan(m)


def active_basis(m: OrientedMatroid) -> frozenset[int]:
    """The active basis: the disjoint union of the fully optimal bases of
    the active minors, translated back to the original element indices."""
    if m.n == 0:
        return frozenset()
    f = active_filtration_orientation(m)
    return frozenset().union(*(
        _translated(fully_optimal_basis(restrict_contract(m, large, small), 1), sorted(large - small))
        for small, large in zip(f.chain, f.chain[1:])
    ))


def _translated(sub: frozenset[int], back: list[int]) -> frozenset[int]:
    return frozenset(back[i - 1] for i in sub)


def active_basis_recursive(m: OrientedMatroid, *, circuit_induction: bool = False) -> frozenset[int]:
    """Alternate evaluator of the active basis by the recursive definition:
    fully optimal basis in the bounded/dual-bounded case, duality, and
    induction on the minor cut out by the greatest dual-active element
    (or greatest active element when ``circuit_induction``)."""
    n = m.n
    if n == 0:
        return frozenset()
    p = 1
    if is_bounded(m, p) or is_dual_bounded(m, p):
        return fully_optimal_basis(m, p)
    ostar, o = orientation_activities(m)
    ground = m.ground_set
    if circuit_induction:
        if not o:
            # acyclic: hop to the (totally cyclic) dual, same induction style
            return ground - active_basis_recursive(dual(m), circuit_induction=True)
        top = max(o)
        part = frozenset().union(
            *(c.support for c in positive_circuits(m) if min(c.support) == top)
        )
    else:
        if not ostar:
            return ground - active_basis_recursive(dual(m), circuit_induction=False)
        top = max(ostar)
        part = ground - frozenset().union(
            *(d.support for d in positive_cocircuits(m) if min(d.support) == top)
        )
    inside = restrict_contract(m, part, frozenset())
    outside = restrict_contract(m, ground, part)
    return _translated(
        active_basis_recursive(inside, circuit_induction=circuit_induction), sorted(part)
    ) | _translated(
        active_basis_recursive(outside, circuit_induction=circuit_induction),
        sorted(ground - part),
    )


def induction_step_sets(m: OrientedMatroid) -> list[frozenset[int]]:
    """All proper nonempty sets F usable in the threshold variants of the
    recursion: complements of unions of positive cocircuits with minimum
    above a threshold, and unions of positive circuits likewise."""
    ground = m.ground_set
    candidates = set()
    for t in range(0, m.n + 1):
        f = ground - frozenset().union(
            *(d.support for d in positive_cocircuits(m) if min(d.support) > t)
        )
        candidates.add(f)
        g = frozenset().union(
            *(c.support for c in positive_circuits(m) if min(c.support) > t)
        )
        candidates.add(g)
    return sorted(
        (f for f in candidates if f and f != ground),
        key=lambda f: (len(f), sorted(f)),
    )


def alpha_inverse_class(m_ref: OrientedMatroid, b: frozenset[int]) -> ReorientationClassResult:
    """The full activity class mapped onto B by the active basis map,
    computed by the single pass over E from the fundamental data of B.

    The first member is the representative in which no active element is
    reoriented; the rest follow in subset-rank order over the parts
    (ordered by their minima) that were flipped.
    """
    if not is_basis(m_ref, b):
        raise ValueError(f"{sorted(b)} is not a basis of the oriented matroid")
    part, external, base_point = basis_pass(m_ref, b)
    f = _filtration_of(part, external)
    return ReorientationClassResult(b, tuple(_flips(base_point, f.parts)), f)


def refined_alpha(m_ref: OrientedMatroid, a) -> frozenset[int]:
    """The refined active bijection: the active basis of -_A M with the
    reoriented dual-active elements removed and the reoriented active
    elements added."""
    a = frozenset(a)
    flipped = reorient(m_ref, a)
    b = active_basis(flipped)
    ostar, o = orientation_activities(flipped)
    return (b - (a & ostar)) | (a & o)


def refined_alpha_inverse(m_ref: OrientedMatroid, x) -> frozenset[int]:
    """Inverse of the refined bijection: recover the owning basis from the
    subset parameters and run the single pass with the sign choices at
    active elements pinned by P and Q."""
    x = frozenset(x)
    _, p, _, q = subset_params(m_ref, x)
    b = (x - q) | p
    _, _, flipped = basis_pass(m_ref, b, flip_active=p | q)
    return flipped


def check_active_duality(m: OrientedMatroid) -> bool:
    """Both duality identities on a bounded M (|E| > 1):
    the active basis of -_p M* complements α(M) up to swapping the two
    smallest elements, and α(M*) = E ∖ α(M) for the dual-bounded M*."""
    if m.n <= 1:
        raise ValueError("active duality needs at least two elements")
    p = 1
    if not is_bounded(m, p):
        raise ValueError("active duality applies to a bounded oriented matroid")
    p_next = 2
    ground = m.ground_set
    lhs = fully_optimal_basis(m, p)
    companion = reorient(dual(m), frozenset({p}))
    via_active_duality = (ground - fully_optimal_basis(companion, p)) - {p_next} | {p}
    plain = fully_optimal_basis(dual(m), p) == ground - lhs
    return lhs == via_active_duality and plain


def activity_report(m_ref: OrientedMatroid, a) -> ActivityReport:
    """Bundle every activity parameter of the reorientation A: orientation
    activities of -_A M, the four reorientation parameters, and the subset
    parameters of the refined image of A."""
    a = frozenset(a)
    ostar, o = orientation_activities(reorient(m_ref, a))
    theta_star, theta_star_bar, theta, theta_bar = reorientation_params(m_ref, a)
    image = refined_alpha(m_ref, a)
    internal, p, external, q = subset_params(m_ref, image)
    return ActivityReport(
        o=o,
        ostar=ostar,
        internal=internal,
        external=external,
        theta=theta,
        theta_bar=theta_bar,
        theta_star=theta_star,
        theta_star_bar=theta_star_bar,
        p=p,
        q=q,
    )
