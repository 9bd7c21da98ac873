"""Independent routes that ``actbij verify`` and the tests check the serving
maps against: the fully optimal basis of every reorientation at once, the recursive
active basis on minors of M under a flip mask, with positive sets from
``core._positive_under`` and not the serving test, the active duality identities,
and, from one rank table, the connected filtrations by chain growth and the
rank-generating Tutte sum.  Exponential, desk scale only; no serving module imports
them, and each table or memo lasts one call or one check."""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import and_, or_

from .activities import Filtration
from .bijection import _only_passing
from .core import (
    OrientedMatroid,
    _all_fundamentals,
    _basis_masks,
    _elements,
    _holding,
    _minor,
    _positions,
    _positive_flips,
    _positive_under,
    _reoriented,
    _squeeze,
    _submasks,
    _supports,
    _unsqueeze,
    dual,
)
from .tutte import TuttePolynomial, _shifted_coefficients


def _optimal_table(m: OrientedMatroid) -> tuple[list, int]:
    """The fully optimal basis mask of every -_A M at once (n ≥ 1), by the mask of A: None where -_A M is
    neither bounded nor dual-bounded, -1 where the scan must run (no or several bases pass, or the
    criteria disagree); then the A with -_A M bounded, as one 2^n-bit int from ``core._holding``.  Under
    -_A M, f_e (M's fundamental set of e, e positive) has sign f_e(x) ⊕ [x∈A] ⊕ [e∈A] at x, so each
    condition of either criterion on B is has[x] ^ has[e] or its complement."""
    (every, has), full = _holding(m.n), (1 << m.n) - 1

    # the A giving f_e the sign wanted at bit x: those where x and e are on opposite sides of A, or the rest
    sign = lambda f, e, x, negative: has[x] ^ has[e] ^ (every if (f.neg >> x & 1) == negative else 0)
    c0, c1, d0, d1 = (_positive_flips([x for x in sets if (x.pos | x.neg) & 1 == one], has, every)
                      for sets in (m.circuits, m.cocircuits) for one in (0, 1))  # missing 1, through 1
    bounded = every & ~(c0 | c1 | d0)
    dual_bounded = every & ~(d0 | d1 | c0 | bounded)
    masks, owners, disagree, once, twice = _basis_masks(m), [None] * (1 << m.n), 0, 0, 0
    for b, funds in zip(masks, _all_fundamentals(m, masks)):
        lows = [((f.pos | f.neg) & -(f.pos | f.neg)).bit_length() - 1 for f in funds]
        if any(low == e for e, low in enumerate(lows) if e):
            continue  # an active element besides 1: both criteria fail at every A
        # the smallest element of f_e negative for e > 1, as no domain below tests f_1
        by_signs, by_composition = reduce(and_, (sign(funds[e], e, lows[e], True) for e in range(1, m.n)), every), every
        for side in (b, full ^ b):  # composed: all positive on the side of 1, negative on 1 only off it
            covered = 0 if side else full
            for e in _positions(side):
                f = funds[e - 1]
                for x in _positions((f.pos | f.neg) & ~covered):
                    by_composition &= sign(f, e - 1, x - 1, x == 1 and not side & 1)
                covered |= f.pos | f.neg
            by_composition *= covered == full
        domain = bounded if b & 1 else dual_bounded  # elsewhere both criteria fail, on f_1 first
        hit = by_signs & by_composition & domain
        disagree, twice, once = disagree | (by_signs ^ by_composition) & domain, twice | once & hit, once | hit
        for a in _positions(hit):
            owners[a - 1] = b
    for a in _positions(disagree | twice | (bounded | dual_bounded) & ~once):
        owners[a - 1] = -1
    return owners, bounded


def _optimal_at(m: OrientedMatroid, table, a: int) -> int | None:
    """M's fully optimal basis mask under the mask a, from its :func:`_optimal_table`; where
    that leaves a to the scan, every basis is tested on -_a M, raising as the scan did."""
    owners, bounded = table
    return owners[a] if owners[a] != -1 else _only_passing(_reoriented(m, a), _basis_masks(m), bounded >> a & 1)


def active_basis_recursive(
    m: OrientedMatroid, *, flip: int = 0, circuit_induction: bool = False, memo=None
) -> frozenset[int]:
    """Alternate evaluator of the active basis of -_flip M (flip a mask) by the
    recursive definition: fully optimal basis from the table in the bounded/dual-bounded
    case, duality, and induction on the minor cut out by the greatest dual-active
    element (or greatest active element when ``circuit_induction``).  Each minor
    is (G, F, side) relative to M: M(G)/F, dualized when side is set after a dual
    hop, under flip ∩ (G∖F) squeezed.  ``memo`` holds three tables: "minors" maps
    (M, G, F, side) to that unsigned minor and the runs of G∖F, built once, "tables"
    the minor to its :func:`_optimal_table` and "bases" (minor, squeezed flip, style) to
    its basis mask, so no reoriented OM; when not passed in it lives for this call."""
    minors, tables, bases = ({} if memo is None else memo.setdefault(t, {}) for t in ("minors", "tables", "bases"))

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
        its squeezed flip, as a mask of the minor; only a flip its table marks is reoriented."""
        if minor.n == 0:
            return 0
        if minor not in tables:  # shared by both styles and every flip
            tables[minor] = _optimal_table(minor)
        if (hit := _optimal_at(minor, tables[minor], flipped)) is not None:
            return hit
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


def check_active_duality(m: OrientedMatroid, flip: int = 0, tables=None) -> bool:
    """Both duality identities on a bounded -_flip M (|E| > 1, flip a mask), w.r.t. p = 1:
    the active basis of -_p M* complements α(M) up to swapping the two smallest elements,
    and α(M*) = E ∖ α(M) for the dual-bounded M*.  False when -_p M* is neither bounded
    nor dual-bounded.  Read from ``tables``, the :func:`_optimal_table` of M and of M*."""
    if m.n <= 1:
        raise ValueError("active duality needs at least two elements")
    md, full = dual(m), (1 << m.n) - 1
    table, dual_table = tables or (_optimal_table(m), _optimal_table(md))
    if not table[1] >> flip & 1:
        raise ValueError("active duality applies to a bounded oriented matroid")
    lhs, companion = _optimal_at(m, table, flip), _optimal_at(md, dual_table, flip ^ 1)
    if companion is None:
        return False
    plain = _optimal_at(md, dual_table, flip)
    return lhs == full & ~companion & ~2 | 1 and plain == full ^ lhs


def _rank_table(m: OrientedMatroid) -> bytearray:
    """r(A) for every A ⊆ E, indexed by its mask: r(A) = r(A − e) + 1 for e = max(A), less 1 when
    A − e holds C − e for a circuit C with top e; per e those A − e are an OR of ANDs of ``core._holding``."""
    supports, (_, has), table = _supports(m.circuits), _holding(m.n), bytearray(1)
    for e in range(m.n):
        below = (1 << (1 << e)) - 1  # every mask under bit e
        spanned = reduce(or_, (reduce(and_, (has[x - 1] for x in _positions(s ^ 1 << e)), below)
                               for s in supports if s >> e == 1), 0)
        table += bytes(r + (bit == "0") for r, bit in zip(table, format(spanned, f"0{1 << e}b")[::-1]))
    return table


def all_connected_filtrations(m: OrientedMatroid) -> list[Filtration]:
    """The connected filtrations of M, each chain grown from ∅ one part at
    a time: cyclic parts by decreasing minimum, the cyclic flat closed at
    any step, then acyclic parts each holding the smallest element left.
    A chain is dropped at its first step whose minor M(G)/F is not connected,
    read off the :func:`_rank_table`: a single element is a loop iff r(G) = r(F),
    a larger part has no split X ⊔ Y with r(F∪X) + r(F∪Y) = r(G) + r(F).
    Each step's verdict is memoized for the call.  Exponential; desk scale only.
    """
    full, rank = (1 << m.n) - 1, _rank_table(m)
    memo: dict[tuple[int, int, bool], bool] = {}  # keyed on the chain masks F ⊂ G
    results = []

    def step_ok(small: int, large: int, cyclic: bool) -> bool:
        if (small, large, cyclic) not in memo:
            part = large ^ small
            rest = part & (part - 1)  # the part less its minimum
            memo[small, large, cyclic] = (rank[large] == rank[small]) == cyclic if not rest else all(
                rank[small | y] + rank[large ^ y] > rank[large] + rank[small] for y in _submasks(rest) if y)
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


def tutte_rank_oracle(m: OrientedMatroid) -> TuttePolynomial:
    """Crapo's rank-generating sum t(x, y) = Σ_A (x−1)^(r(E)−r(A)) (y−1)^(|A|−r(A)) over the
    :func:`_rank_table`: the A counted by (r(A), |A|), then t(x+u, y+v) read at u = v = −1."""
    table = _rank_table(m)
    counts = Counter(zip(table, map(int.bit_count, range(1 << m.n))))
    shifted = TuttePolynomial({(table[-1] - r, size - r): c for (r, size), c in counts.items()})
    coeffs = Counter()
    for (k, p, l, q), c in _shifted_coefficients(shifted).items():
        coeffs[k, l] += c * (-1) ** (p + q)
    return TuttePolynomial(coeffs)
