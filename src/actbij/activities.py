"""Activities and active filtrations of bases and of oriented matroids.

A filtration of the ordered ground set E is a nested chain

    ∅ = F'_ε ⊂ … ⊂ F'_0 = F_c = F_0 ⊂ … ⊂ F_ι = E

with the cyclic flat F_c marked, such that the minima of the successive
differences increase away from F_c on both sides.  The differences are
the *parts*; parts below F_c are cyclic ("external"), parts above are
acyclic ("internal").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_

from .core import (
    OrientedMatroid,
    _mask,
    _elements,
    _fundamentals,
    _positions,
    _supports,
    bases,
    is_connected_matroid,
    positive_circuits,
    positive_cocircuits,
    reorient,
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
    def epsilon(self) -> int:
        return self.cyclic_index

    @property
    def iota(self) -> int:
        return len(self.chain) - 1 - self.cyclic_index

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


def _activity_masks(m: OrientedMatroid, basis: int) -> tuple[int, int]:
    """(Int(B), Ext(B)) as masks, for a basis given as a mask."""
    active = 0
    for e, (pos, neg) in enumerate(_fundamentals(m, basis)):
        if not (pos | neg) & ((1 << e) - 1):
            active |= 1 << e
    return active & basis, active & ~basis


def basis_activities(m: OrientedMatroid, b: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    """(Int(B), Ext(B)): elements that are the minimum of their own
    fundamental cocircuit, resp. circuit.  Depends only on supports."""
    internal, external = _activity_masks(m, _mask(b))
    return _elements(internal), _elements(external)


def orientation_activities(m: OrientedMatroid) -> tuple[frozenset[int], frozenset[int]]:
    """(O*(M), O(M)): minima of positive cocircuits, resp. circuits."""
    ostar = frozenset((s & -s).bit_length() for s in _supports(positive_cocircuits(m)))
    o = frozenset((s & -s).bit_length() for s in _supports(positive_circuits(m)))
    return ostar, o


def active_filtration_orientation(m: OrientedMatroid) -> Filtration:
    """The active filtration of an oriented matroid.

    F_c is the union of the positive circuits (equivalently, the
    complement of the union of the positive cocircuits), the lower chain
    collects positive circuits by decreasing threshold on their minima,
    and the upper chain dually removes positive cocircuits.
    """
    pos_c = _supports(positive_circuits(m))
    pos_d = _supports(positive_cocircuits(m))

    def union_from(supports, low: int) -> int:
        """Union of the supports whose lowest bit is at least ``low``."""
        return reduce(or_, (s for s in supports if s & -s >= low), 0)

    active = sorted({s & -s for s in pos_c})
    dual_active = sorted({s & -s for s in pos_d})
    full = (1 << m.n) - 1
    chain = [0] + [union_from(pos_c, a) for a in reversed(active)]
    cyclic_index = len(chain) - 1
    chain += [full & ~union_from(pos_d, a) for a in dual_active[1:]]
    if dual_active:
        chain.append(full)
    if chain[-1] != full:
        raise AssertionError("active filtration does not reach the ground set")
    return Filtration(tuple(_elements(c) for c in chain), cyclic_index)


def active_minors(m: OrientedMatroid, f: Filtration) -> list[OrientedMatroid]:
    """The minors M(G)/F for consecutive chain subsets F ⊂ G, in chain order.

    Each minor is re-indexed on 1..|part|; original identities are
    sorted(part).  For the active filtration these are bounded (upper),
    resp. dual-bounded (lower), w.r.t. their smallest element.
    """
    return [
        restrict_contract(m, large, small)
        for small, large in zip(f.chain, f.chain[1:])
    ]


def is_connected_filtration(m: OrientedMatroid, f: Filtration) -> bool:
    """Every minor above the cyclic flat is connected and not a loop;
    every minor below is connected and not an isthmus."""
    return all(_connected_step(minor, f.part_is_cyclic(i)) for i, minor in enumerate(active_minors(m, f)))


def _connected_step(minor: OrientedMatroid, cyclic: bool) -> bool:
    """Connected, and a single element is a loop exactly when ``cyclic``."""
    return is_connected_matroid(minor) and (minor.n != 1 or (len(minor.circuits) == 1) == cyclic)


def basis_pass(
    m: OrientedMatroid,
    b: frozenset[int],
    flip_active: frozenset[int] = frozenset(),
):
    """Single pass over E computing the active partition of a basis and one
    preimage reorientation, from the fundamental circuits/cocircuits only.

    Every element is assigned a part label (the smallest element of its
    part) and an internal/external nature; at each active element the
    arbitrary sign choice is "flip iff the element is in flip_active",
    every other element's sign is forced by the smallest element of its
    part within its fundamental circuit/cocircuit.

    Returns (part, external, flipped): the label map, the nature map and
    the reorientation.
    """
    part: dict[int, int] = {}
    external: dict[int, bool] = {}
    basis, active, flipped = _mask(b), _mask(flip_active), 0
    for e, (pos, neg) in enumerate(_fundamentals(m, basis), start=1):
        bit = 1 << (e - 1)
        in_basis = bool(basis & bit)
        earlier = _positions((pos | neg) & (bit - 1))
        if not earlier:
            part[e] = e
            external[e] = not in_basis
            flipped |= bit & active
            continue
        cross = [c for c in earlier if external[c] == in_basis]
        if cross:
            external[e] = in_basis
            part[e] = max(part[c] for c in cross)
        else:
            external[e] = not in_basis
            part[e] = min(part[c] for c in earlier)
        anchor = 1 << (min(c for c in earlier if part[c] == part[e]) - 1)
        # e is positive in its fundamental set: flip e iff the anchor has
        # the same sign there, unless the anchor itself was flipped
        if bool(pos & anchor) != bool(flipped & anchor):
            flipped |= bit
    return part, external, _elements(flipped)


def _filtration_of(part: dict[int, int], external: dict[int, bool]) -> Filtration:
    """The filtration whose parts are the label classes of ``part``,
    cyclic where the label is external."""
    groups: dict[int, set[int]] = {}
    for e, label in part.items():
        groups.setdefault(label, set()).add(e)
    return Filtration.from_parts(
        [g for label, g in groups.items() if external[label]],
        [g for label, g in groups.items() if not external[label]],
    )


def active_filtration_basis(m: OrientedMatroid, b: frozenset[int]) -> Filtration:
    """The unique connected filtration attached to a basis, by the
    single-pass part mapping; the part minima are Int(B) ∪ Ext(B) and the
    cyclic flat is the union of the external parts."""
    part, external, _ = basis_pass(m, b)
    return _filtration_of(part, external)


def _flips(base: frozenset[int], parts) -> list[frozenset[int]]:
    """``base`` flipped on every union of parts, in subset-rank order over
    the parts sorted by their minima."""
    parts = sorted(parts, key=min)
    return [
        base ^ frozenset().union(*(p for i, p in enumerate(parts) if selector >> i & 1))
        for selector in range(1 << len(parts))
    ]


def activity_class(m_ref: OrientedMatroid, a) -> list[frozenset[int]]:
    """All 2^(ι+ε) reorientations obtained from A by flipping unions of
    parts of the active partition of -_A M, ordered by subset rank over
    the parts sorted by their minima."""
    a = frozenset(a)
    return _flips(a, active_filtration_orientation(reorient(m_ref, a)).parts)


@lru_cache(maxsize=2048)
def _interval_table(m: OrientedMatroid):
    """(B, Int(B), Ext(B), B∖Int(B), B∪Ext(B)) per basis, all but B as masks."""
    table = []
    for b in bases(m):
        basis = _mask(b)
        internal, external = _activity_masks(m, basis)
        table.append((b, internal, external, basis & ~internal, basis | external))
    return tuple(table)


def _owner(m: OrientedMatroid, a: int):
    for row in _interval_table(m):
        if not row[3] & ~a and not a & ~row[4]:
            return row
    raise AssertionError(f"interval partition of 2^E misses {_positions(a)}")


def basis_of_subset(m: OrientedMatroid, a) -> frozenset[int]:
    """The unique basis whose interval [B∖Int(B), B∪Ext(B)] contains A."""
    return _owner(m, _mask(a))[0]


def interval_of_basis(m: OrientedMatroid, b: frozenset[int]):
    """(B∖Int(B), B∪Ext(B)); over all bases these intervals partition 2^E."""
    internal, external = basis_activities(m, b)
    return b - internal, b | external


def subset_params(m: OrientedMatroid, a):
    """(Int(A), P(A), Ext(A), Q(A)) for the owning basis B of A:
    Int(B)∩A, Int(B)∖A, Ext(B)∖A, Ext(B)∩A."""
    a = _mask(a)
    _, internal, external, _, _ = _owner(m, a)
    return tuple(_elements(x) for x in (internal & a, internal & ~a, external & ~a, external & a))


def reorientation_params(m_ref: OrientedMatroid, a):
    """(Θ*, Θ̄*, Θ, Θ̄) of the reorientation A w.r.t. the reference:
    the dual-active and active sets of -_A M split by membership in A."""
    a = frozenset(a)
    ostar, o = orientation_activities(reorient(m_ref, a))
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


@lru_cache(maxsize=300000)
def _minor_step_ok(m: OrientedMatroid, small: frozenset[int], large: frozenset[int], cyclic: bool) -> bool:
    return _connected_step(restrict_contract(m, large, small), cyclic)


def all_connected_filtrations(m: OrientedMatroid) -> list[Filtration]:
    """Exhaustive enumeration of the connected filtrations of M.

    Test/verification oracle: a filtration is a set partition of E with a
    subset of blocks marked cyclic (the chain is recovered from the block
    minima), so walk all partitions and all markings, filtering by minor
    connectivity.  Exponential; desk scale only.
    """
    ground = sorted(m.ground_set)
    if not ground:
        return [Filtration((frozenset(),), 0)]

    def set_partitions(elements: list[int]):
        if not elements:
            yield []
            return
        first, rest = elements[0], elements[1:]
        for blocks in set_partitions(rest):
            for i in range(len(blocks)):
                yield blocks[:i] + [blocks[i] | {first}] + blocks[i + 1:]
            yield [*blocks, frozenset({first})]

    results = []
    for blocks in set_partitions(ground):
        for marking in range(1 << len(blocks)):
            cyclic = [blocks[i] for i in range(len(blocks)) if marking >> i & 1]
            acyclic = [blocks[i] for i in range(len(blocks)) if not marking >> i & 1]
            f = Filtration.from_parts(cyclic, acyclic)
            if all(
                _minor_step_ok(m, small, large, f.part_is_cyclic(i))
                for i, (small, large) in enumerate(zip(f.chain, f.chain[1:]))
            ):
                results.append(f)
    return results
