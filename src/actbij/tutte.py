"""Tutte polynomial by several mutually checking routes.

Routes: basis activities, reorientation activities (2^n sweep with exact
division of the class sizes), and two four-variable expansions (subset
parameters and reorientation parameters).  All coefficients and
evaluations are exact integers.

The memoized sweeps cache per oriented matroid behind ``lru_cache``,
whose internal lock makes concurrent readers safe in CPython.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from .activities import _interval_table, _interval_walk
from .core import OrientedMatroid, _submasks, check_enumeration_cap


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


def tutte_from_bases(m: OrientedMatroid) -> TuttePolynomial:
    """Count bases by (internal activity, external activity)."""
    counts: dict[tuple[int, int], int] = {}
    for _, f, _ in _interval_table(m):
        key = tuple(map(int.bit_count, f.minima()))  # (|Int(B)|, |Ext(B)|)
        counts[key] = counts.get(key, 0) + 1
    return TuttePolynomial(counts)


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


@lru_cache(maxsize=8)
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


def beta(m: OrientedMatroid) -> int:
    """Crapo's beta invariant b_{1,0}: 1 for an isthmus, 0 for a loop, else
    the connectivity count."""
    return tutte_from_bases(m).coefficient(1, 0)


def beta_star(m: OrientedMatroid) -> int:
    """The dual beta invariant b_{0,1}: 0 for an isthmus, 1 for a loop;
    equals beta when |E| > 1."""
    return tutte_from_bases(m).coefficient(0, 1)


def _four_var_sum(counts, x: int, u: int, y: int, v: int) -> int:
    return sum(c * x**i * u**p * y**e * v**q for (i, p, e, q), c in counts.items())


def four_var_subset_sum(m: OrientedMatroid, x: int, u: int, y: int, v: int) -> int:
    """Σ_A x^|Int(A)| u^|P(A)| y^|Ext(A)| v^|Q(A)| over all subsets;
    equals t(x+u, y+v)."""
    return _four_var_sum(_interval_walk(m)[1], x, u, y, v)


def four_var_reorientation_sum(m_ref: OrientedMatroid, x: int, u: int, y: int, v: int) -> int:
    """Σ_A x^|Θ*(A)| u^|Θ̄*(A)| y^|Θ(A)| v^|Θ̄(A)| over all reorientations;
    equals t(x+u, y+v) for any reference orientation."""
    return _four_var_sum(_reorientation_histogram(m_ref), x, u, y, v)
