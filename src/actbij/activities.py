"""Activities and active filtrations of bases and of oriented matroids.

A filtration of the ordered ground set E is a nested chain

    ∅ = F'_ε ⊂ … ⊂ F'_0 = F_c = F_0 ⊂ … ⊂ F_ι = E

with the cyclic flat F_c marked, such that the minima of the successive
differences increase away from F_c on both sides.  The differences are
the *parts*; parts below F_c are cyclic ("external"), parts above are
acyclic ("internal").
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from operator import or_

from .core import (
    OrientedMatroid,
    _mask,
    _elements,
    _fundamentals,
    _positions,
    _reoriented,
    _runs,
    _squeeze,
    bases,
    is_connected_matroid,
    restrict_contract,
)


@dataclass(frozen=True)
class Filtration:
    """A nested subset chain with the position of the cyclic flat marked.

    Two filtrations are equal iff their chains and cyclic-flat indices
    are equal; the partition alone does not determine the placement of
    the cyclic flat.
    """

    chain: tuple[frozenset[int], ...]
    cyclic_index: int

    def __post_init__(self) -> None:
        chain = self.chain
        if not chain or chain[0]:
            raise ValueError("chain must start at the empty set")
        if not 0 <= self.cyclic_index < len(chain):
            raise ValueError("cyclic flat index out of range")
        for small, large in zip(chain, chain[1:]):
            if not small < large:
                raise ValueError("chain must be strictly nested")
        lows = [min(large - small) for small, large in zip(chain, chain[1:])]
        upper = lows[self.cyclic_index:]
        lower = lows[: self.cyclic_index]
        if any(a >= b for a, b in zip(upper, upper[1:])):
            raise ValueError("part minima above the cyclic flat must increase")
        if any(a <= b for a, b in zip(lower, lower[1:])):
            raise ValueError("part minima below the cyclic flat must decrease toward it")

    @property
    def ground_set(self) -> frozenset[int]:
        return self.chain[-1]

    @property
    def cyclic_flat(self) -> frozenset[int]:
        return self.chain[self.cyclic_index]

    @property
    def parts(self) -> tuple[frozenset[int], ...]:
        """Successive differences, in chain order; they partition E."""
        return tuple(b - a for a, b in zip(self.chain, self.chain[1:]))

    def part_is_cyclic(self, i: int) -> bool:
        """Whether the i-th part (chain order) lies inside the cyclic flat."""
        return i < self.cyclic_index

    @classmethod
    def from_parts(cls, cyclic_parts, acyclic_parts) -> Filtration:
        """Assemble the chain: cyclic parts by decreasing minimum from ∅,
        then acyclic parts by increasing minimum."""
        chain = [frozenset()]
        for p in sorted(cyclic_parts, key=min, reverse=True):
            chain.append(chain[-1] | p)
        cyclic_index = len(chain) - 1
        for p in sorted(acyclic_parts, key=min):
            chain.append(chain[-1] | p)
        return cls(tuple(chain), cyclic_index)


def basis_activities(m: OrientedMatroid, b: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    """(Int(B), Ext(B)): elements that are the minimum of their own
    fundamental cocircuit, resp. circuit.  Depends only on supports."""
    _, internal, external, *_ = _basis_record(m, _mask(b))
    return _elements(internal), _elements(external)


def _positive_supports(signed_sets, a: int) -> list[int]:
    """The supports of the signed sets of M that are positive, up to sign,
    in -_A M for the mask A: those with supp(X) ∩ A equal to X⁺ or to X⁻."""
    return [pos | neg for pos, neg in signed_sets if (meet := (pos | neg) & a) == pos or meet == neg]


def orientation_activities(m: OrientedMatroid, a=()) -> tuple[frozenset[int], frozenset[int]]:
    """(O*(-_A M), O(-_A M)): minima of positive cocircuits, resp. circuits."""
    a = _mask(a)
    ostar = frozenset((s & -s).bit_length() for s in _positive_supports(m.cocircuits, a))
    o = frozenset((s & -s).bit_length() for s in _positive_supports(m.circuits, a))
    return ostar, o


def _active_chain(m: OrientedMatroid, a: int) -> tuple[list[int], int]:
    """The active filtration of -_A M for the mask A: its chain as masks
    and the index of its cyclic flat.

    F_c is the union of the positive circuits (equivalently, the
    complement of the union of the positive cocircuits), the lower chain
    collects positive circuits by decreasing threshold on their minima,
    and the upper chain dually removes positive cocircuits.
    """
    pos_c = _positive_supports(m.circuits, a)
    pos_d = _positive_supports(m.cocircuits, a)

    def union_from(supports, low: int) -> int:
        """Union of the supports whose lowest bit is at least ``low``."""
        return reduce(or_, (s for s in supports if s & -s >= low), 0)

    active = sorted({s & -s for s in pos_c})
    dual_active = sorted({s & -s for s in pos_d})
    full = (1 << m.n) - 1
    chain = [0] + [union_from(pos_c, low) for low in reversed(active)]
    cyclic_index = len(chain) - 1
    chain += [full & ~union_from(pos_d, low) for low in dual_active[1:]]
    if dual_active:
        chain.append(full)
    if chain[-1] != full:
        raise AssertionError("active filtration does not reach the ground set")
    return chain, cyclic_index


def active_filtration_orientation(m: OrientedMatroid, a=()) -> Filtration:
    """The active filtration of -_A M, as built by :func:`_active_chain`."""
    chain, cyclic_index = _active_chain(m, _mask(a))
    return Filtration(tuple(map(_elements, chain)), cyclic_index)


@lru_cache(maxsize=512)
def _step_minor(m: OrientedMatroid, large: int, small: int):
    """The minor M(G)/F of the chain masks F ⊂ G, built once per step,
    with the runs of G∖F that squeeze a mask onto its ground set."""
    return restrict_contract(m, _elements(large), _elements(small)), _runs(large & ~small)


def _step_minors(m: OrientedMatroid, chain, a: int):
    """Per step F ⊂ G of the chain masks, (-_A M)(G)/F and the part G∖F:
    the cached M(G)/F reoriented by A ∩ (G∖F), squeezed onto it."""
    for small, large in zip(chain, chain[1:]):
        minor, runs = _step_minor(m, large, small)
        yield _reoriented(minor, _squeeze(a, runs)), large & ~small


def active_minors(m: OrientedMatroid, f: Filtration, a=()) -> list[OrientedMatroid]:
    """The minors (-_A M)(G)/F for consecutive chain subsets F ⊂ G, in chain order,
    each re-indexed on 1..|part|; original identities are sorted(part).
    For the active filtration of -_A M these are bounded (upper), resp.
    dual-bounded (lower), w.r.t. their smallest element."""
    return [minor for minor, _ in _step_minors(m, list(map(_mask, f.chain)), _mask(a))]


def is_connected_filtration(m: OrientedMatroid, f: Filtration) -> bool:
    """Every minor above the cyclic flat is connected and not a loop;
    every minor below is connected and not an isthmus."""
    return all(_connected_step(minor, f.part_is_cyclic(i)) for i, minor in enumerate(active_minors(m, f)))


def _connected_step(minor: OrientedMatroid, cyclic: bool) -> bool:
    """Connected, and a single element is a loop exactly when ``cyclic``."""
    return is_connected_matroid(minor) and (minor.n != 1 or (len(minor.circuits) == 1) == cyclic)


def basis_pass(m: OrientedMatroid, basis: int):
    """Single pass over E computing the active partition of a basis mask and
    one preimage reorientation, from the fundamental circuits/cocircuits only.

    Each part is a mask labelled by the bit of its minimum; the labels in
    B are Int(B), the others Ext(B), and a part is cyclic exactly when its
    label lies outside B.  No active element is flipped, and every other
    element's sign is forced by its anchor: the smallest element of its
    part within its fundamental circuit/cocircuit.

    Returns (parts, cyclic_index, base_point): the parts in chain order
    (cyclic parts by decreasing minimum, then the others by increasing
    minimum), the number of cyclic parts and the reorientation as a mask.
    """
    parts: dict[int, int] = {}  # label -> part, labels ascending
    cyclic = base_point = 0  # cyclic: the elements of the cyclic parts so far
    for e, (pos, neg) in enumerate(_fundamentals(m, basis)):
        bit = 1 << e
        earlier = (pos | neg) & (bit - 1)
        if not earlier:
            parts[bit] = bit
            if not basis & bit:
                cyclic |= bit
            continue
        cross = earlier & (cyclic if basis & bit else ~cyclic)
        if cross:
            label = next(label for label in reversed(parts) if parts[label] & cross)
        else:
            label = next(label for label in parts if parts[label] & earlier)
        if label & cyclic:
            cyclic |= bit
        anchor = earlier & parts[label]
        # e is positive in its fundamental set: flip e iff the anchor has
        # the same sign there, unless the anchor itself was flipped
        if (pos ^ base_point) & anchor & -anchor:
            base_point |= bit
        parts[label] |= bit
    cyclic_parts = [parts[label] for label in reversed(parts) if not label & basis]
    acyclic_parts = [parts[label] for label in parts if label & basis]
    return (*cyclic_parts, *acyclic_parts), len(cyclic_parts), base_point


def _filtration_of(parts, cyclic_index: int) -> Filtration:
    """The filtration whose chain accumulates ``parts`` (masks, chain order)."""
    return Filtration(tuple(map(_elements, accumulate(parts, or_, initial=0))), cyclic_index)


def active_filtration_basis(m: OrientedMatroid, b: frozenset[int]) -> Filtration:
    """The unique connected filtration attached to a basis, by the
    single-pass part mapping; the part minima are Int(B) ∪ Ext(B) and the
    cyclic flat is the union of the external parts."""
    parts, cyclic_index, _ = basis_pass(m, _mask(b))
    return _filtration_of(parts, cyclic_index)


def _flips(base: int, parts) -> list[int]:
    """``base`` flipped on every union of parts (masks), in subset-rank
    order over the parts sorted by their minima."""
    members = [base]
    for part in sorted(parts, key=lambda part: part & -part):
        members += [member ^ part for member in members]
    return members


def activity_class(m_ref: OrientedMatroid, a) -> list[frozenset[int]]:
    """All 2^(ι+ε) reorientations obtained from A by flipping unions of
    parts of the active partition of -_A M, ordered by subset rank over
    the parts sorted by their minima."""
    parts = active_filtration_orientation(m_ref, a).parts
    return [_elements(x) for x in _flips(_mask(a), map(_mask, parts))]


def _basis_record(m: OrientedMatroid, basis: int):
    """(B, Int(B), Ext(B), B∖Int(B), B∪Ext(B), parts, cyclic index, base
    point) of a basis mask, all ints but the parts, a tuple of ints."""
    parts, cyclic_index, base_point = basis_pass(m, basis)
    minima = 0
    for part in parts:
        minima |= part & -part
    internal, external = minima & basis, minima & ~basis
    return basis, internal, external, basis & ~internal, basis | external, parts, cyclic_index, base_point


@lru_cache(maxsize=2048)
def _interval_table(m: OrientedMatroid):
    """The record of every basis, in the order of ``bases(m)``: one pass
    per basis serves the classes, the intervals and the activities."""
    return tuple(_basis_record(m, _mask(b)) for b in bases(m))


def _submasks(mask: int):
    """Every submask of ``mask``, the mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


@lru_cache(maxsize=8)
def _interval_walk(m: OrientedMatroid):
    """One walk over every basis interval [B∖Int(B), B∪Ext(B)], which must
    partition 2^E (Crapo): the owner array, per subset mask the index of
    its basis's record, and the counts of (|Int(A)|, |P(A)|, |Ext(A)|, |Q(A)|)."""
    table = _interval_table(m)  # first: bases(m) refuses n above the cap
    # the narrowest signed type that holds every record index
    typecode = "b" if len(table) < 1 << 7 else "h" if len(table) < 1 << 15 else "i"
    owner = array(typecode, [-1]) * (1 << m.n)
    counts: dict[tuple[int, int, int, int], int] = {}
    bit_count = int.bit_count
    for index, (_, internal, external, lo, *_) in enumerate(table):
        for sub in _submasks(internal | external):
            a = lo | sub
            if owner[a] >= 0:
                raise AssertionError(f"subset {a:b} lies in two basis intervals")
            owner[a] = index
            i, e = internal & a, external & a
            key = (bit_count(i), bit_count(internal ^ i), bit_count(external ^ e), bit_count(e))
            counts[key] = counts.get(key, 0) + 1
    if -1 in owner:
        raise AssertionError(f"subset {owner.index(-1):b} not covered by any basis interval")
    return owner, counts


def _owner(m: OrientedMatroid, a: int):
    """The record of the basis whose interval contains the subset mask ``a``."""
    if a >> m.n:
        raise ValueError(f"{_positions(a)} is not a subset of the ground set")
    return _interval_table(m)[_interval_walk(m)[0][a]]


def basis_of_subset(m: OrientedMatroid, a) -> frozenset[int]:
    """The unique basis whose interval [B∖Int(B), B∪Ext(B)] contains A."""
    return _elements(_owner(m, _mask(a))[0])


def interval_of_basis(m: OrientedMatroid, b: frozenset[int]):
    """(B∖Int(B), B∪Ext(B)); over all bases these intervals partition 2^E."""
    _, _, _, lo, hi, *_ = _basis_record(m, _mask(b))
    return _elements(lo), _elements(hi)


def subset_params(m: OrientedMatroid, a):
    """(Int(A), P(A), Ext(A), Q(A)) for the owning basis B of A:
    Int(B)∩A, Int(B)∖A, Ext(B)∖A, Ext(B)∩A."""
    a = _mask(a)
    _, internal, external, *_ = _owner(m, a)
    return tuple(_elements(x) for x in (internal & a, internal & ~a, external & ~a, external & a))


def reorientation_params(m_ref: OrientedMatroid, a):
    """(Θ*, Θ̄*, Θ, Θ̄) of the reorientation A w.r.t. the reference:
    the dual-active and active sets of -_A M split by membership in A."""
    a = frozenset(a)
    ostar, o = orientation_activities(m_ref, a)
    return ostar - a, ostar & a, o - a, o & a


@dataclass(frozen=True)
class ActivityReport:
    """All activity data of one reorientation A of a reference OM:
    orientation activities of -_A M, the four reorientation parameters,
    and the subset parameters of the refined image of A."""

    o: frozenset[int]
    ostar: frozenset[int]
    internal: frozenset[int]
    external: frozenset[int]
    theta: frozenset[int]
    theta_bar: frozenset[int]
    theta_star: frozenset[int]
    theta_star_bar: frozenset[int]
    p: frozenset[int]
    q: frozenset[int]


def subsets_by_rank(n: int):
    """All subsets of 1..n ordered by bitmask rank (element i = bit i-1)."""
    for mask in range(1 << n):
        yield _elements(mask)
