"""Signed sets and oriented matroids on a linearly ordered ground set.

Elements are the integers 1..n and the linear order is numeric order.
A signed set is two disjoint int masks ``pos`` and ``neg``, bit e-1
standing for element e: the support is ``pos | neg``, reorientation is
an XOR and X ⊆ Y is ``X & ~Y == 0``.  Its element sets (``positive``,
``negative``, ``support``) are derived on demand, and every public
function takes and returns element sets.

An oriented matroid is stored by its full lists of signed circuits and
signed cocircuits, one canonical representative per opposite pair (the
smallest element of the support is positive).  A minor is built in one
pass over the masks and re-indexed on 1..m by compressing bits: the
i-th new element is the i-th smallest kept original element, so the
original identities are always recoverable via ``sorted(kept)``.

All values are immutable; every operation is a pure function of its
inputs and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

# Exhaustive operations are meant for desk-scale instances (soft cap
# n <= 16); 2^n enumeration entry points refuse anything above this.
ENUMERATION_CAP = 24

_new = tuple.__new__


class InvalidOrientedMatroid(ValueError):
    """Raised when circuit/cocircuit data violates a checked invariant."""


class GroundSetTooLarge(ValueError):
    """Raised by 2^n enumeration entry points when n exceeds the cap."""


def check_enumeration_cap(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise GroundSetTooLarge(
            f"refusing 2^{n} enumeration: ground set size {n} exceeds cap {ENUMERATION_CAP}"
        )


def _mask(elements) -> int:
    """The mask of an element set."""
    mask = 0
    for e in elements:
        mask |= 1 << (e - 1)
    return mask


def _positions(mask: int) -> list[int]:
    """The elements of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def _elements(mask: int) -> frozenset[int]:
    return frozenset(_positions(mask))


class SignedSubset(namedtuple("_Masks", ["pos", "neg"])):
    """A pair of disjoint element sets (positive part, negative part),
    stored as the int masks ``pos`` and ``neg``."""

    __slots__ = ()

    def __new__(cls, positive, negative) -> SignedSubset:
        return cls.from_masks(_mask(positive), _mask(negative))

    def __getnewargs__(self):
        return self.positive, self.negative

    @classmethod
    def from_masks(cls, pos: int, neg: int) -> SignedSubset:
        if pos & neg:
            raise ValueError("positive and negative parts must be disjoint")
        return _new(cls, (pos, neg))

    @property
    def positive(self) -> frozenset[int]:
        return _elements(self.pos)

    @property
    def negative(self) -> frozenset[int]:
        return _elements(self.neg)

    @property
    def support(self) -> frozenset[int]:
        return _elements(self.pos | self.neg)

    def sign(self, e: int) -> int:
        """+1, -1 or 0."""
        bit = 1 << (e - 1)
        return 1 if self.pos & bit else -1 if self.neg & bit else 0

    def negated(self) -> SignedSubset:
        return _new(SignedSubset, (self.neg, self.pos))

    def canonical(self) -> SignedSubset:
        """The representative of {X, -X} whose smallest support element is positive."""
        support = self.pos | self.neg
        return self.negated() if self.neg & support & -support else self

    def reoriented(self, flipped) -> SignedSubset:
        """Swap the sign of every element of ``flipped``."""
        flip = (self.pos | self.neg) & _mask(flipped)
        return _new(SignedSubset, (self.pos ^ flip, self.neg ^ flip))

    def restricted(self, kept) -> SignedSubset:
        kept = _mask(kept)
        return _new(SignedSubset, (self.pos & kept, self.neg & kept))

    def is_positive_pair(self) -> bool:
        """True when either representative of {X, -X} is all-positive."""
        return bool(self.pos | self.neg) and not (self.pos and self.neg)

    @classmethod
    def from_string(cls, s: str) -> SignedSubset:
        """Build from a sign string over ``+ - 0``; position i is element i (1-based)."""
        bad = [c for c in s if c not in "+-0"]
        if bad:
            raise ValueError(f"invalid sign character {bad[0]!r}")
        return cls.from_masks(*(sum(1 << i for i, c in enumerate(s) if c == sign) for sign in "+-"))

    def to_string(self, n: int) -> str:
        return "".join("0+-"[self.sign(i)] for i in range(1, n + 1))

    def __repr__(self) -> str:
        body = ",".join(f"{'+-'[self.sign(e) < 0]}{e}" for e in _positions(self.pos | self.neg))
        return f"SignedSubset({body})"


def compose(x: SignedSubset, y: SignedSubset) -> SignedSubset:
    """Composition x∘y: the sign of e is its sign in x if nonzero, else in y."""
    done = x.pos | x.neg
    return _new(SignedSubset, (x.pos | y.pos & ~done, x.neg | y.neg & ~done))


def _supports(signed_sets) -> list[int]:
    return [pos | neg for pos, neg in signed_sets]


def _canonical_list(signed_sets) -> tuple[SignedSubset, ...]:
    """One representative per support, smallest element positive, sorted
    by support as an ascending element list; conflicting signs raise."""
    out: dict[int, int] = {}
    for pos, neg in signed_sets:
        support = pos | neg
        if neg & support & -support:
            pos = neg
        if out.setdefault(support, pos) != pos:
            raise InvalidOrientedMatroid(
                f"conflicting signatures on support {set(_elements(support))}"
            )
    return tuple(_new(SignedSubset, (out[s], s ^ out[s])) for s in sorted(out, key=_positions))


def _check_antichain(sets: tuple[SignedSubset, ...], kind: str) -> None:
    for a, b in itertools.combinations(_supports(sets), 2):
        if not a & ~b or not b & ~a:
            raise InvalidOrientedMatroid(
                f"{kind} supports are not an antichain: {set(_elements(a))} vs {set(_elements(b))}"
            )


def _check_orthogonality(circuits, cocircuits) -> None:
    for c, d in itertools.product(circuits, cocircuits):
        # meeting supports must carry both an agreeing and an opposite sign
        agree = c.pos & d.pos | c.neg & d.neg
        oppose = c.pos & d.neg | c.neg & d.pos
        if bool(agree) != bool(oppose):
            raise InvalidOrientedMatroid(
                f"orthogonality fails for circuit {c!r} and cocircuit {d!r}"
            )


def _greedy_rank(supports, ground: int) -> int:
    """Size of the lexicographically smallest maximal support-free subset of ``ground``."""
    supports = [s for s in supports if not s & ~ground]
    independent = 0
    while ground:
        low = ground & -ground
        ground ^= low
        if all(s & ~(independent | low) for s in supports):
            independent |= low
    return independent.bit_count()


@dataclass(frozen=True)
class OrientedMatroid:
    """An oriented matroid on 1..n given by all signed circuits and cocircuits."""

    n: int
    circuits: tuple[SignedSubset, ...]
    cocircuits: tuple[SignedSubset, ...]
    rank: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # computed once: every cache lookup keyed on an OM hashes it
        object.__setattr__(self, "_hash", hash((self.n, self.circuits, self.cocircuits, self.rank)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def ground_set(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    def circuit_supports(self) -> tuple[frozenset[int], ...]:
        return tuple(c.support for c in self.circuits)

    def __repr__(self) -> str:
        return (
            f"OrientedMatroid(n={self.n}, rank={self.rank}, "
            f"{len(self.circuits)} circuits, {len(self.cocircuits)} cocircuits)"
        )


def om_from_lists(n: int, circuits, cocircuits, *, validate: bool = True) -> OrientedMatroid:
    """Canonicalize, deduplicate and validate circuit/cocircuit data.

    Validation checks the stored invariants: nonempty supports, antichain
    supports, circuit/cocircuit orthogonality, and agreement of the rank
    computed greedily from the circuits with n minus the rank computed
    from the cocircuits read as circuits of the dual.
    """
    if n < 0:
        raise ValueError("ground set size must be nonnegative")
    for x in itertools.chain(circuits, cocircuits):
        if not x.pos | x.neg:
            raise InvalidOrientedMatroid("signed sets must have nonempty support")
        if (x.pos | x.neg) >> n:
            raise InvalidOrientedMatroid(f"element out of range 1..{n} in {x!r}")
    ctuple = _canonical_list(circuits)
    dtuple = _canonical_list(cocircuits)
    full = (1 << n) - 1
    rank = _greedy_rank(_supports(ctuple), full)
    if validate:
        _check_antichain(ctuple, "circuit")
        _check_antichain(dtuple, "cocircuit")
        _check_orthogonality(ctuple, dtuple)
        dual_rank = _greedy_rank(_supports(dtuple), full)
        if rank + dual_rank != n:
            raise InvalidOrientedMatroid(
                f"rank mismatch: circuits give rank {rank}, "
                f"cocircuits give dual rank {dual_rank}, n = {n}"
            )
    return OrientedMatroid(n, ctuple, dtuple, rank)


def dual(m: OrientedMatroid) -> OrientedMatroid:
    """Swap circuits and cocircuits; rank becomes n - rank."""
    return OrientedMatroid(m.n, m.cocircuits, m.circuits, m.n - m.rank)


def _reoriented(signed_sets, flipped: int) -> tuple[SignedSubset, ...]:
    """Flip signs on the mask, re-canonicalized; supports, and so the order, are unchanged."""
    out = []
    for pos, neg in signed_sets:
        support = pos | neg
        flip = support & flipped
        pos ^= flip
        neg ^= flip
        out.append(_new(SignedSubset, (neg, pos) if neg & support & -support else (pos, neg)))
    return tuple(out)


def reorient(m: OrientedMatroid, flipped) -> OrientedMatroid:
    """Flip all signs on the element set ``flipped``, re-canonicalized."""
    a = _mask(flipped)
    if not a:
        return m
    return OrientedMatroid(m.n, _reoriented(m.circuits, a), _reoriented(m.cocircuits, a), m.rank)


def _minor_sets(signed_sets, avoid: int, ground: int, runs) -> tuple[SignedSubset, ...]:
    """The minimal nonzero restrictions to ``ground`` of the signed sets
    missing ``avoid``, canonical, with each run of ground bits shifted down."""
    restricted = {(pos & ground, neg & ground) for pos, neg in signed_sets if not (pos | neg) & avoid}
    minimal: set[int] = set()
    for support in sorted({pos | neg for pos, neg in restricted} - {0}, key=int.bit_count):
        if all(s & ~support for s in minimal):
            minimal.add(support)
    squeezed = []
    for pos, neg in restricted:
        if pos | neg in minimal:
            p = q = 0
            for run, shift in runs:
                p |= (pos & run) >> shift
                q |= (neg & run) >> shift
            squeezed.append((p, q))
    return _canonical_list(squeezed)


def restrict_contract(m: OrientedMatroid, keep, contracted) -> OrientedMatroid:
    """The minor M(keep)/contracted, re-indexed on sorted(keep - contracted).

    Built in one step: the circuits are the minimal nonzero restrictions
    to keep - contracted of the circuits inside keep, and dually the
    cocircuits are those of the cocircuits avoiding contracted.
    """
    keep, contracted = _mask(keep), _mask(contracted)
    ground = rest = keep & ~contracted
    runs, size = [], 0  # each run of consecutive ground bits, with its shift onto 0..size-1
    while rest:
        low = rest & -rest
        run = rest & ~(rest + low)
        runs.append((run, low.bit_length() - 1 - size))
        size += run.bit_count()
        rest ^= run
    circuits = _minor_sets(m.circuits, ~keep, ground, runs)
    cocircuits = _minor_sets(m.cocircuits, contracted, ground, runs)
    return OrientedMatroid(size, circuits, cocircuits, _greedy_rank(_supports(circuits), (1 << size) - 1))


def delete(m: OrientedMatroid, removed) -> OrientedMatroid:
    """Delete the element set: keep circuits avoiding it, restrict cocircuits.
    New element i is the i-th smallest kept original element."""
    return restrict_contract(m, m.ground_set - frozenset(removed), ())


def contract(m: OrientedMatroid, removed) -> OrientedMatroid:
    """Contract the element set; dual rules to :func:`delete`."""
    return restrict_contract(m, m.ground_set, removed)


def positive_circuits(m: OrientedMatroid) -> list[SignedSubset]:
    """Stored circuits whose pair {X, -X} contains an all-positive member."""
    return [c for c in m.circuits if not (c.pos and c.neg)]


def positive_cocircuits(m: OrientedMatroid) -> list[SignedSubset]:
    return [d for d in m.cocircuits if not (d.pos and d.neg)]


def is_acyclic(m: OrientedMatroid) -> bool:
    return not positive_circuits(m)


def is_totally_cyclic(m: OrientedMatroid) -> bool:
    return not positive_cocircuits(m)


def is_bounded(m: OrientedMatroid, p: int) -> bool:
    """Acyclic and every positive cocircuit contains p (single isthmus counts)."""
    if not 1 <= p <= m.n:
        raise ValueError(f"element {p} not in the ground set")
    bit = 1 << (p - 1)
    return is_acyclic(m) and all((d.pos | d.neg) & bit for d in positive_cocircuits(m))


def is_dual_bounded(m: OrientedMatroid, p: int) -> bool:
    """Totally cyclic and every positive circuit contains p (single loop counts)."""
    if not 1 <= p <= m.n:
        raise ValueError(f"element {p} not in the ground set")
    bit = 1 << (p - 1)
    return is_totally_cyclic(m) and all((c.pos | c.neg) & bit for c in positive_circuits(m))


@lru_cache(maxsize=4096)
def bases(m: OrientedMatroid) -> tuple[frozenset[int], ...]:
    """All maximal circuit-support-free subsets, in lexicographic order."""
    check_enumeration_cap(m.n)
    supports = _supports(m.circuits)
    combos = (sum(c) for c in itertools.combinations([1 << i for i in range(m.n)], m.rank))
    return tuple(_elements(b) for b in combos if all(s & ~b for s in supports))


def is_basis(m: OrientedMatroid, b) -> bool:
    mask = _mask(b)
    return len(b) == m.rank and not mask >> m.n and all(s & ~mask for s in _supports(m.circuits))


def _fundamentals(m: OrientedMatroid, basis: int) -> list[SignedSubset]:
    """Per element e (at index e-1), its fundamental cocircuit if it lies in
    the basis mask, else its fundamental circuit, signed so that e is
    positive; one pass over all signed sets finds them all."""
    hits: list[list[SignedSubset]] = [[] for _ in range(m.n)]
    for signed_sets, side in ((m.circuits, ~basis), (m.cocircuits, basis)):
        for x in signed_sets:
            own = (x.pos | x.neg) & side  # a single element: x is its fundamental set
            if own and not own & (own - 1):
                hits[own.bit_length() - 1].append(x)
    out = []
    for e, found in enumerate(hits):
        bit = 1 << e
        if len(found) != 1:
            kind, allowed = ("cocircuit", ~basis | bit) if basis & bit else ("circuit", basis | bit)
            raise InvalidOrientedMatroid(
                f"expected exactly one {kind} inside {_positions(allowed & ((1 << m.n) - 1))}, "
                f"found {len(found)}"
            )
        x = found[0]
        out.append(x if x.pos & bit else _new(SignedSubset, (x.neg, x.pos)))
    return out


def fundamental_circuit(m: OrientedMatroid, b: frozenset[int], e: int) -> SignedSubset:
    """The unique circuit inside B ∪ {e}, sign-normalized so that e is positive."""
    if e in b:
        raise ValueError(f"element {e} lies in the basis")
    return _fundamentals(m, _mask(b))[e - 1]


def fundamental_cocircuit(m: OrientedMatroid, b: frozenset[int], elt: int) -> SignedSubset:
    """The unique cocircuit inside (E∖B) ∪ {b}, sign-normalized so that b is positive."""
    if elt not in b:
        raise ValueError(f"element {elt} is not in the basis")
    return _fundamentals(m, _mask(b))[elt - 1]


def subset_rank(m: OrientedMatroid, subset) -> int:
    """Rank of a subset: greedy independence within it over circuit supports."""
    return _greedy_rank(_supports(m.circuits), _mask(subset))


def is_connected_matroid(m: OrientedMatroid) -> bool:
    """Connected: every pair of elements lies in a common circuit (n <= 1 counts)."""
    if m.n <= 1:
        return True
    reach = [0] * m.n  # per element, the union of the circuits through it
    for s in _supports(m.circuits):
        for e in _positions(s):
            reach[e - 1] |= s
    return all(r == (1 << m.n) - 1 for r in reach)
