"""Tutte polynomial by several mutually checking routes.

Routes: basis activities, reorientation activities (2^n sweep with exact
division of the class sizes), and two four-variable expansions (subset
parameters and reorientation parameters).  An independent
deletion/contraction recursion on unsigned circuit supports serves as an
oracle.  All coefficients and evaluations are exact integers.

The memoized sweeps cache per oriented matroid behind ``lru_cache``,
whose internal lock makes concurrent readers safe in CPython; the
oracle's memo lives only for one call.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from .activities import _interval_table
from .core import OrientedMatroid, _supports, check_enumeration_cap


class TuttePolynomial:
    """Map from (internal degree, external degree) to a nonnegative count."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        items = {(i, j): c for (i, j), c in dict(coeffs).items() if c}
        self._coeffs = tuple(sorted(items.items()))

    def coefficient(self, i: int, j: int) -> int:
        return dict(self._coeffs).get((i, j), 0)

    def items(self):
        return list(self._coeffs)

    def evaluate(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for (i, j), c in self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, TuttePolynomial) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for (i, j), c in sorted(self._coeffs, key=lambda t: (-t[0][0], t[0][1])):
            body = ""
            if i:
                body += "x" if i == 1 else f"x^{i}"
            if j:
                body += "y" if j == 1 else f"y^{j}"
            if not body:
                terms.append(str(c))
            else:
                terms.append(body if c == 1 else f"{c}{body}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"TuttePolynomial({self})"


@lru_cache(maxsize=4096)
def tutte_from_bases(m: OrientedMatroid) -> TuttePolynomial:
    """Count bases by (internal activity, external activity)."""
    counts: dict[tuple[int, int], int] = {}
    for _, internal, external, _, _ in _interval_table(m):
        key = (internal.bit_count(), external.bit_count())
        counts[key] = counts.get(key, 0) + 1
    return TuttePolynomial(counts)


def _submasks(mask: int):
    """Every submask of ``mask``, the mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _positive_minima(m: OrientedMatroid, signed_sets) -> array:
    """Per reorientation A (as a mask), the minima of the sets X made
    positive by A, i.e. those with A ∩ supp(X) equal to X⁺ or to X⁻."""
    full = (1 << m.n) - 1
    minima = array("Q", [0]) * (1 << m.n)
    for pos, neg in signed_sets:
        support = pos | neg
        low = support & -support
        for sub in _submasks(full & ~support):
            minima[pos | sub] |= low
            minima[neg | sub] |= low
    return minima


@lru_cache(maxsize=512)
def _reorientation_histogram(m: OrientedMatroid):
    """Counts of (|Θ*|, |Θ̄*|, |Θ|, |Θ̄|) over all 2^n reorientations."""
    check_enumeration_cap(m.n)
    under_o = _positive_minima(m, m.circuits)
    under_ostar = _positive_minima(m, m.cocircuits)
    counts: dict[tuple[int, int, int, int], int] = {}
    bit_count = int.bit_count
    for a in range(1 << m.n):
        o, ostar = under_o[a], under_ostar[a]
        key = (bit_count(ostar & ~a), bit_count(ostar & a), bit_count(o & ~a), bit_count(o & a))
        counts[key] = counts.get(key, 0) + 1
    return counts


def tutte_from_orientations(m: OrientedMatroid) -> TuttePolynomial:
    """Count reorientations by (dual-activity, activity) and divide each
    o_{ι,ε} by 2^(ι+ε); an inexact division signals corrupt input."""
    counts: dict[tuple[int, int], int] = {}
    for (ts, tsb, th, thb), c in _reorientation_histogram(m).items():
        key = (ts + tsb, th + thb)
        counts[key] = counts.get(key, 0) + c
    coeffs = {}
    for (iota, epsilon), o in counts.items():
        q, r = divmod(o, 1 << (iota + epsilon))
        if r:
            raise AssertionError(
                f"o_({iota},{epsilon}) = {o} is not divisible by 2^{iota + epsilon}"
            )
        coeffs[(iota, epsilon)] = q
    return TuttePolynomial(coeffs)


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


def beta(m: OrientedMatroid) -> int:
    """b_{1,0}: 1 for an isthmus, 0 for a loop, else the connectivity count."""
    return tutte_from_bases(m).coefficient(1, 0)


def beta_star(m: OrientedMatroid) -> int:
    """b_{0,1}: 0 for an isthmus, 1 for a loop; equals beta when |E| > 1."""
    return tutte_from_bases(m).coefficient(0, 1)


@lru_cache(maxsize=512)
def _subset_histogram(m: OrientedMatroid):
    """Counts of (|Int(A)|, |P(A)|, |Ext(A)|, |Q(A)|) over all A ⊆ E,
    each subset reached from its owning basis interval; the intervals
    must partition 2^E."""
    check_enumeration_cap(m.n)
    counts: dict[tuple[int, int, int, int], int] = {}
    seen = bytearray(1 << m.n)
    bit_count = int.bit_count
    for _, internal, external, lo, _ in _interval_table(m):
        for sub in _submasks(internal | external):
            a = lo | sub
            if seen[a]:
                raise AssertionError(f"subset {a:b} lies in two basis intervals")
            seen[a] = 1
            i, e = internal & a, external & a
            key = (bit_count(i), bit_count(internal ^ i), bit_count(external ^ e), bit_count(e))
            counts[key] = counts.get(key, 0) + 1
    if not all(seen):
        raise AssertionError(f"subset {seen.index(0):b} not covered by any basis interval")
    return counts


def four_var_subset_sum(m: OrientedMatroid, x: int, u: int, y: int, v: int) -> int:
    """Σ_A x^|Int(A)| u^|P(A)| y^|Ext(A)| v^|Q(A)| over all subsets;
    equals t(x+u, y+v)."""
    return sum(
        c * x**i * u**p * y**e * v**q
        for (i, p, e, q), c in _subset_histogram(m).items()
    )


def four_var_reorientation_sum(m_ref: OrientedMatroid, x: int, u: int, y: int, v: int) -> int:
    """Σ_A x^|Θ*(A)| u^|Θ̄*(A)| y^|Θ(A)| v^|Θ̄(A)| over all reorientations;
    equals t(x+u, y+v) for any reference orientation."""
    return sum(
        c * x**ts * u**tsb * y**th * v**thb
        for (ts, tsb, th, thb), c in _reorientation_histogram(m_ref).items()
    )


__all__ = [
    "TuttePolynomial",
    "beta",
    "beta_star",
    "four_var_reorientation_sum",
    "four_var_subset_sum",
    "tutte_delcon_oracle",
    "tutte_from_bases",
    "tutte_from_orientations",
]
