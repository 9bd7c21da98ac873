"""Tutte polynomial by several mutually checking routes.

Routes: basis activities, reorientation activities (all 2^n
reorientations at once, each set of them one 2^n-bit int, with exact
division of the class sizes), and two four-variable sums: over subsets,
t(x+u, y+v) once the basis intervals partition 2^E; over reorientations,
counts that must equal its coefficients.  All coefficients and evaluations are exact.

The memoized sweeps cache per oriented matroid behind ``lru_cache``,
whose internal lock makes concurrent readers safe in CPython.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import comb

from .activities import _interval_table, _interval_walk
from .core import OrientedMatroid, _holding, _positive_flips, check_enumeration_cap


class TuttePolynomial(tuple):
    """Map from (internal degree, external degree) to a nonnegative count,
    stored as the tuple of its nonzero ((i, j), c) items in sorted order.
    Equality is tuple equality, so a polynomial equals a plain tuple with
    the same items, and polynomials sort like tuples."""

    __slots__ = ()

    def __new__(cls, coeffs) -> TuttePolynomial:
        return tuple.__new__(cls, sorted(((i, j), c) for (i, j), c in dict(coeffs).items() if c))

    def coefficient(self, i: int, j: int) -> int:
        return dict(self).get((i, j), 0)

    def items(self):
        return list(self)

    def evaluate(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for (i, j), c in self)

    def __str__(self) -> str:
        if not self:
            return "0"
        terms = []
        for (i, j), c in sorted(self, key=lambda t: (-t[0][0], t[0][1])):
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


def _active_groups(signed_sets, has: list[int], every: int) -> dict[tuple[int, int], int]:
    """Split all reorientations A, bit A of ``every``, by how many minima
    of the sets X made positive by A (A ∩ supp(X) equal to X⁺ or to X⁻)
    lie outside and inside A.  The sets are read minimum by minimum, and
    each minimum splits the groups as soon as its own sets are read."""
    groups = {(0, 0): every}
    minimum = lambda x: (x.pos | x.neg) & -(x.pos | x.neg)
    for low, sets in groupby(sorted(signed_sets, key=minimum), key=minimum):
        active = _positive_flips(sets, has, every)
        inside = active & has[low.bit_length() - 1]
        outside = active ^ inside
        for o, i in sorted(groups, reverse=True):  # (o + 1, i) and (o, i + 1) first
            group = groups[o, i]
            groups[o, i] = group & ~active
            for key, part in (((o + 1, i), group & outside), ((o, i + 1), group & inside)):
                groups[key] = groups.get(key, 0) | part
    return {key: group for key, group in groups.items() if group}


@lru_cache(maxsize=8)
def _reorientation_histogram(m: OrientedMatroid):
    """Counts of (|Θ*|, |Θ̄*|, |Θ|, |Θ̄|) over all 2^n reorientations, keyed
    in order of their first A.  A set of reorientations is one 2^n-bit int
    with bit A set for each member A; ``has[e - 1]`` is the set of A holding e."""
    check_enumeration_cap(m.n)
    every, has = _holding(m.n)
    dual = _active_groups(m.cocircuits, has, every)
    primal = _active_groups(m.circuits, has, every)
    found = []
    for (ts, tsb), d in dual.items():
        for (th, thb), p in primal.items():
            if both := d & p:
                found.append(((both & -both).bit_length(), (ts, tsb, th, thb), both.bit_count()))
    return {key: count for _, key, count in sorted(found)}


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


def _shifted_coefficients(t: TuttePolynomial) -> dict[tuple[int, int, int, int], int]:
    """The coefficients of t(x+u, y+v) in x, u, y, v, by exponents: t_ij·C(i,k)·C(j,l)
    at (k, i-k, l, j-l), what each four-variable sum must count."""
    return {(k, i - k, l, j - l): c * comb(i, k) * comb(j, l)
            for (i, j), c in t for k in range(i + 1) for l in range(j + 1)}


def four_var_subset_sum(m: OrientedMatroid, x: int, u: int, y: int, v: int) -> int:
    """The Tutte polynomial expression in refined activities for subsets:
    Σ_A x^|Int(A)| u^|P(A)| y^|Ext(A)| v^|Q(A)| over all subsets; equals t(x+u, y+v), as the
    basis intervals partition 2^E (the walk raises if not) and that of B adds (x+u)^|Int(B)|·(y+v)^|Ext(B)|."""
    _interval_walk(m)
    return tutte_from_bases(m).evaluate(x + u, y + v)


def four_var_reorientation_sum(m_ref: OrientedMatroid, x: int, u: int, y: int, v: int) -> int:
    """The Tutte polynomial expression in refined activities for reorientations:
    Σ_A x^|Θ*(A)| u^|Θ̄*(A)| y^|Θ(A)| v^|Θ̄(A)| over all reorientations;
    equals t(x+u, y+v) for any reference orientation."""
    return sum(c * x**i * u**p * y**e * v**q for (i, p, e, q), c in _reorientation_histogram(m_ref).items())
