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
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import accumulate, pairwise
from operator import or_

from .core import (
    OrientedMatroid,
    _mask,
    _elements,
    _all_fundamentals,
    _basis_masks,
    _fundamentals,
    _minor,
    _new,
    _positions,
    _reoriented,
    _squeeze,
    is_connected_matroid,
)


class Filtration(namedtuple("_Parts", ["masks", "cyclic_index"])):
    """A nested subset chain with the position of the cyclic flat marked,
    stored as the int masks of its parts (the successive differences) in
    chain order; the chain and the element sets are derived on demand.

    Two filtrations are equal iff their chains and cyclic-flat indices
    are equal; the partition alone does not determine the placement of
    the cyclic flat.  ``_make`` and ``_replace`` go through :meth:`from_masks`;
    equality stays tuple equality, as an ``__eq__`` in Python would slow
    every comparison and cache lookup.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls.from_masks(*fields))

    def __new__(cls, chain, cyclic_index: int) -> Filtration:
        chain = list(map(_mask, chain))
        if not chain or chain[0]:
            raise ValueError("chain must start at the empty set")
        # the parts of a chain that is not strictly nested are empty or overlap
        return cls.from_masks([large ^ small for small, large in pairwise(chain)], cyclic_index)

    def __getnewargs__(self):
        return self.chain, self.cyclic_index

    @classmethod
    def from_masks(cls, parts, cyclic_index: int) -> Filtration:
        """The filtration with the given parts (masks, chain order)."""
        parts = tuple(parts)
        if not 0 <= cyclic_index <= len(parts):
            raise ValueError("cyclic flat index out of range")
        if not all(parts) or reduce(or_, parts, 0).bit_count() != sum(map(int.bit_count, parts)):
            raise ValueError("chain must be strictly nested")
        lows = [part & -part for part in parts]
        if any(a >= b for a, b in pairwise(lows[cyclic_index:])):
            raise ValueError("part minima above the cyclic flat must increase")
        if any(a <= b for a, b in pairwise(lows[:cyclic_index])):
            raise ValueError("part minima below the cyclic flat must decrease toward it")
        return _new(cls, (parts, cyclic_index))

    @property
    def chain(self) -> tuple[frozenset[int], ...]:
        return tuple(map(_elements, accumulate(self.masks, or_, initial=0)))

    @property
    def cyclic_flat(self) -> frozenset[int]:
        """The cyclic flat F_c: the union of the parts below it."""
        return _elements(reduce(or_, self.masks[: self.cyclic_index], 0))

    @property
    def parts(self) -> tuple[frozenset[int], ...]:
        """Successive differences, in chain order; they partition E."""
        return tuple(map(_elements, self.masks))

    def part_is_cyclic(self, i: int) -> bool:
        """Whether the i-th part (chain order) lies inside the cyclic flat."""
        return i < self.cyclic_index

    def minima(self) -> tuple[int, int]:
        """The minima of the parts above the cyclic flat, and of those
        below, as masks: (Int(B), Ext(B)) for the filtration of a basis B,
        (O*, O) for the active filtration of a reorientation."""
        lows = [part & -part for part in self.masks]
        return reduce(or_, lows[self.cyclic_index:], 0), reduce(or_, lows[: self.cyclic_index], 0)


def basis_activities(m: OrientedMatroid, b: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    """(Int(B), Ext(B)): elements that are the minimum of their own
    fundamental cocircuit, resp. circuit.  Depends only on supports."""
    basis = _mask(b)
    internal, external = basis_pass(_fundamentals(m, basis), basis)[0].minima()
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


def active_filtration_orientation(m: OrientedMatroid, a=()) -> Filtration:
    """The active filtration of -_A M.

    F_c is the union of the positive circuits, and its complement the
    union of the positive cocircuits.  The cyclic part whose minimum is
    the active element e is the union of the positive circuits with
    minimum e, less those with a larger minimum; the acyclic parts come
    dually from the positive cocircuits.
    """
    a = _mask(a)

    def parts(supports) -> list[int]:
        """The parts of the positive supports, by decreasing minimum."""
        unions: dict[int, int] = {}  # per minimum, as a bit: the union of the supports
        for s in supports:
            unions[s & -s] = unions.get(s & -s, 0) | s
        out, above = [], 0
        for low in sorted(unions, reverse=True):
            out.append(unions[low] & ~above)
            above |= unions[low]
        return out

    cyclic = parts(_positive_supports(m.circuits, a))
    acyclic = parts(_positive_supports(m.cocircuits, a))
    if reduce(or_, cyclic + acyclic, 0) != (1 << m.n) - 1:
        raise AssertionError("active filtration does not reach the ground set")
    return Filtration.from_masks(cyclic + acyclic[::-1], len(cyclic))


_step_minor = lru_cache(maxsize=512)(_minor)  # (M(G)/F, runs of G∖F) per chain step F ⊂ G, built once


def active_minors(m: OrientedMatroid, f: Filtration, a=()) -> list[OrientedMatroid]:
    """The minors (-_A M)(G)/F for consecutive chain subsets F ⊂ G, in chain order,
    each re-indexed on 1..|part|; original identities are sorted(part).
    For the active filtration of -_A M these are bounded (upper), resp.
    dual-bounded (lower), w.r.t. their smallest element.  Each is the
    cached M(G)/F of ``core._minor`` reoriented by A ∩ (G∖F), squeezed onto it."""
    return [minor for minor, _ in _active_steps(m, f, _mask(a))]


def _active_steps(m: OrientedMatroid, f: Filtration, a: int) -> list[tuple[OrientedMatroid, tuple]]:
    """Each minor of :func:`active_minors` under the mask a, with the runs that unsqueeze its masks."""
    steps = (_step_minor(m, large, small) for small, large in pairwise(accumulate(f.masks, or_, initial=0)))
    return [(_reoriented(minor, _squeeze(a, runs)), runs) for minor, runs in steps]


def is_connected_filtration(m: OrientedMatroid, f: Filtration) -> bool:
    """Every minor above the cyclic flat is connected and not a loop;
    every minor below is connected and not an isthmus."""
    return all(_connected_step(minor, f.part_is_cyclic(i)) for i, minor in enumerate(active_minors(m, f)))


def _connected_step(minor: OrientedMatroid, cyclic: bool) -> bool:
    """Connected, and a single element is a loop exactly when ``cyclic``."""
    return is_connected_matroid(minor) and (minor.n != 1 or (len(minor.circuits) == 1) == cyclic)


def basis_pass(funds, basis: int):
    """Single pass over E computing the active partition of a basis mask and
    one preimage reorientation, from its fundamental circuits/cocircuits
    ``funds`` (as :func:`core._fundamentals` gives them) only.

    Each part is a mask labelled by the bit of its minimum; the labels in
    B are Int(B), the others Ext(B), and a part is cyclic exactly when its
    label lies outside B.  No active element is flipped, and every other
    element's sign is forced by its anchor: the smallest element of its
    part within its fundamental circuit/cocircuit.

    Returns (filtration, base_point): the filtration whose parts are the
    cyclic parts by decreasing minimum, then the others by increasing
    minimum, and the reorientation as a mask.
    """
    parts: dict[int, int] = {}  # label -> part, labels ascending
    cyclic = base_point = 0  # cyclic: the elements of the cyclic parts so far
    for e, (pos, neg) in enumerate(funds):
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
    return Filtration.from_masks(cyclic_parts + acyclic_parts, len(cyclic_parts)), base_point


def active_filtration_basis(m: OrientedMatroid, b: frozenset[int]) -> Filtration:
    """The unique connected filtration attached to a basis, by the
    single-pass part mapping; the part minima are Int(B) ∪ Ext(B) and the
    cyclic flat is the union of the external parts."""
    basis = _mask(b)
    return basis_pass(_fundamentals(m, basis), basis)[0]


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
    parts = active_filtration_orientation(m_ref, a).masks
    return [_elements(x) for x in _flips(_mask(a), parts)]


@lru_cache(maxsize=8)  # as many as the walk that reads it
def _interval_table(m: OrientedMatroid):
    """The record (B, filtration, base point) of every basis mask B, in the
    order of ``bases(m)``: one pass per basis serves the classes, the
    intervals and the activities, and one bit-sliced pass over the signed
    sets finds the fundamental sets of every basis."""
    masks = _basis_masks(m)
    return tuple((basis, *basis_pass(funds, basis)) for basis, funds in zip(masks, _all_fundamentals(m, masks)))


@lru_cache(maxsize=8)
def _interval_walk(m: OrientedMatroid):
    """One walk over every basis interval [B∖Int(B), B∪Ext(B)], which must
    partition 2^E (Crapo): the owner array, per subset mask the index of
    its basis's record."""
    table = _interval_table(m)  # first: the bases refuse n above the cap
    # the narrowest signed type that holds every record index
    typecode = "b" if len(table) < 1 << 7 else "h" if len(table) < 1 << 15 else "i"
    owner = array(typecode, [-1]) * (1 << m.n)
    for index, (basis, f, _) in enumerate(table):
        internal, external = f.minima()
        lo, free = basis & ~internal, internal | external
        sub = free
        while True:  # every submask of free, free first and 0 last
            if owner[lo | sub] >= 0:
                raise AssertionError(f"subset {lo | sub:b} lies in two basis intervals")
            owner[lo | sub] = index
            if not sub:
                break
            sub = (sub - 1) & free
    if -1 in owner:
        raise AssertionError(f"subset {owner.index(-1):b} not covered by any basis interval")
    return owner


def _owner(m: OrientedMatroid, a: int):
    """The record of the basis whose interval contains the subset mask ``a``."""
    if a >> m.n:
        raise ValueError(f"{_positions(a)} is not a subset of the ground set")
    return _interval_table(m)[_interval_walk(m)[a]]


def basis_of_subset(m: OrientedMatroid, a) -> frozenset[int]:
    """The basis of A in Crapo's partition of 2^E into the basis intervals
    [B∖Int(B), B∪Ext(B)]: the unique basis whose interval contains A."""
    return _elements(_owner(m, _mask(a))[0])


def interval_of_basis(m: OrientedMatroid, b: frozenset[int]):
    """(B∖Int(B), B∪Ext(B)); over all bases these intervals partition 2^E."""
    internal, external = basis_activities(m, b)
    return frozenset(b) - internal, frozenset(b) | external


def subset_params(m: OrientedMatroid, a):
    """(Int(A), P(A), Ext(A), Q(A)) for the owning basis B of A:
    Int(B)∩A, Int(B)∖A, Ext(B)∖A, Ext(B)∩A."""
    a = _mask(a)
    internal, external = _owner(m, a)[1].minima()
    return tuple(_elements(x) for x in (internal & a, internal & ~a, external & ~a, external & a))


def reorientation_params(m_ref: OrientedMatroid, a):
    """(Θ*, Θ̄*, Θ, Θ̄) of the reorientation A w.r.t. the reference:
    the dual-active and active sets of -_A M split by membership in A."""
    a = frozenset(a)
    ostar, o = orientation_activities(m_ref, a)
    return ostar - a, ostar & a, o - a, o & a

