"""Signed sets and oriented matroids on a linearly ordered ground set.

Elements are the integers 1..n and the linear order is numeric order;
boundedness is w.r.t. its least element 1 = min(E).
A signed set is two disjoint int masks ``pos`` and ``neg``, bit e-1
standing for element e: the support is ``pos | neg``, reorientation is
an XOR and X ⊆ Y is ``X & ~Y == 0``.  Its element sets (``positive``,
``negative``, ``support``) are derived on demand, and every public
function takes and returns element sets.

An oriented matroid is stored by its full lists of signed circuits and
signed cocircuits, one canonical representative per opposite pair (the
smallest element of the support is positive), sorted by support mask.
``_minor`` builds M(G)/F in one pass over the masks, re-indexed on 1..|G∖F|
by squeezing the runs of G∖F (the i-th new element is the i-th smallest kept
one), and returns those runs, by which ``_unsqueeze`` maps its masks back onto
M's elements.  When G∖F is a prefix 1..k that cuts none of the sets it keeps,
the minor takes M's own sets as they are, in their order.
The fundamental sets of one basis come from one pass over the signed
sets; those of a whole list of bases from one pass bit-sliced over the
bases, a set of bases being one int.  The bases themselves grow level by
level, bit-sliced over each level in the same way.

All values are immutable; every operation is a pure function of its
inputs and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache, reduce
from operator import and_, or_

# Exhaustive operations are meant for desk-scale instances (soft cap
# n <= 16); 2^n enumeration entry points refuse anything above this.
ENUMERATION_CAP = 24

_new = tuple.__new__
_minors_built = [0]  # calls of _minor in this process, read by ``verify --stats`` alone


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


def _submasks(mask: int):
    """Every submask of ``mask``, the mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


class SignedSubset(namedtuple("_Masks", ["pos", "neg"])):
    """A pair of disjoint element sets (positive part, negative part),
    stored as the int masks ``pos`` and ``neg``.  ``_make`` and ``_replace``
    go through :meth:`from_masks`; equality stays tuple equality, as an
    ``__eq__`` in Python would slow every OM comparison and cache lookup."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls.from_masks(*fields))

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
        """The support of X: the elements of nonzero sign."""
        return _elements(self.pos | self.neg)

    def sign(self, e: int) -> int:
        """+1, -1 or 0."""
        bit = 1 << (e - 1)
        return 1 if self.pos & bit else -1 if self.neg & bit else 0

    def negated(self) -> SignedSubset:
        """The opposite signed set −X: every sign swapped."""
        return _new(SignedSubset, (self.neg, self.pos))

    def reoriented(self, flipped) -> SignedSubset:
        """The reorientation of X on ``flipped``: every sign there swapped."""
        flip = (self.pos | self.neg) & _mask(flipped)
        return _new(SignedSubset, (self.pos ^ flip, self.neg ^ flip))

    @classmethod
    def from_string(cls, s: str) -> SignedSubset:
        """Build from a sign string over ``+ - 0``; position i is element i (1-based)."""
        bad = [c for c in s if c not in "+-0"]
        if bad:
            raise ValueError(f"invalid sign character {bad[0]!r}")
        return cls.from_masks(*(sum(1 << i for i, c in enumerate(s) if c == sign) for sign in "+-"))

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
    by support mask; conflicting signs raise."""
    out: dict[int, int] = {}
    for pos, neg in signed_sets:
        support = pos | neg
        if neg & support & -support:
            pos = neg
        if out.setdefault(support, pos) != pos:
            raise InvalidOrientedMatroid(f"conflicting signatures on support {set(_elements(support))}")
    return tuple(_new(SignedSubset, (out[s], s ^ out[s])) for s in sorted(out))


def _check_antichain(sets: tuple[SignedSubset, ...], kind: str) -> None:
    for a, b in itertools.combinations(_supports(sets), 2):  # by mask, a subset comes first
        if not a & ~b:
            raise InvalidOrientedMatroid(
                f"{kind} supports are not an antichain: {set(_elements(a))} vs {set(_elements(b))}"
            )


def _check_orthogonality(circuits, cocircuits) -> None:
    for c, d in itertools.product(circuits, cocircuits):
        # meeting supports must carry both an agreeing and an opposite sign
        agree = c.pos & d.pos | c.neg & d.neg
        oppose = c.pos & d.neg | c.neg & d.pos
        if bool(agree) != bool(oppose):
            raise InvalidOrientedMatroid(f"orthogonality fails for circuit {c!r} and cocircuit {d!r}")


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


class OrientedMatroid(namedtuple("_Lists", ["hash_value", "n", "circuits", "cocircuits", "rank"])):
    """An oriented matroid on 1..n given by all signed circuits and cocircuits,
    after ``hash_value``, the hash of the other four fields, computed once as
    every cache keyed on an OM hashes it (two OMs then mostly differ at item 0).
    ``_make`` and ``_replace`` go through the constructor, which recomputes it;
    equality is tuple equality, so an OM equals a plain tuple with the same
    items, and OMs sort like tuples."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*list(fields)[1:]))

    def __new__(cls, n: int, circuits, cocircuits, rank: int) -> OrientedMatroid:
        return _new(cls, (hash((n, circuits, cocircuits, rank)), n, circuits, cocircuits, rank))

    def __getnewargs__(self):
        return self[1:]

    def __hash__(self) -> int:
        return self.hash_value

    @property
    def ground_set(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    def __repr__(self) -> str:
        counts = f"{len(self.circuits)} circuits, {len(self.cocircuits)} cocircuits"
        return f"OrientedMatroid(n={self.n}, rank={self.rank}, {counts})"


def om_from_lists(n: int, circuits, cocircuits) -> OrientedMatroid:
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


def reorient(m: OrientedMatroid, flipped) -> OrientedMatroid:
    """Flip all signs on the element set ``flipped``, re-canonicalized."""
    return _reoriented(m, _mask(flipped))


def _reoriented(m: OrientedMatroid, flipped: int) -> OrientedMatroid:
    """:func:`reorient` by a mask; supports, and so the order, are unchanged."""
    if not flipped:
        return m
    sides: tuple[list, list] = ([], [])
    for side, signed_sets in zip(sides, (m.circuits, m.cocircuits)):
        for pos, neg in signed_sets:
            support = pos | neg
            moved = support & flipped
            pos, neg = pos ^ moved, neg ^ moved
            side.append(_new(SignedSubset, (neg, pos) if neg & support & -support else (pos, neg)))
    return OrientedMatroid(m.n, tuple(sides[0]), tuple(sides[1]), m.rank)


def _runs(ground: int) -> tuple[tuple[int, int], ...]:
    """Each run of consecutive bits of ``ground``, with its shift onto 0..|ground|-1."""
    runs, size = [], 0
    while ground:
        run = ground & ~(ground + (ground & -ground))
        runs.append((run, (run & -run).bit_length() - 1 - size))
        size += run.bit_count()
        ground ^= run
    return tuple(runs)


def _squeeze(mask: int, runs) -> int:
    """The bits of ``mask`` inside the runs, each run shifted down."""
    out = 0
    for run, shift in runs:
        out |= (mask & run) >> shift
    return out


def _unsqueeze(mask: int, runs) -> int:
    """The inverse of :func:`_squeeze`: the bits of ``mask`` shifted back into the runs."""
    return sum((mask << shift) & run for run, shift in runs)


def _minor_sets(signed_sets, avoid: int, ground: int, runs) -> tuple[SignedSubset, ...]:
    """The minimal nonzero restrictions to ``ground`` of the signed sets
    missing ``avoid``, canonical, squeezed by the runs of ground.  When ground
    is a prefix 1..k and cuts none of the kept sets, they are M's own sets."""
    kept = [x for x in signed_sets if not (x.pos | x.neg) & avoid]
    if runs == ((ground, 0),) and not any((x.pos | x.neg) & ~ground for x in kept):
        return tuple(kept)  # already an antichain, canonical and sorted
    restricted = {(pos & ground, neg & ground) for pos, neg in kept}
    minimal: set[int] = set()
    for support in sorted({pos | neg for pos, neg in restricted} - {0}, key=int.bit_count):
        if all(s & ~support for s in minimal):
            minimal.add(support)
    squeezed = ((_squeeze(pos, runs), _squeeze(neg, runs)) for pos, neg in restricted if pos | neg in minimal)
    return _canonical_list(squeezed)


def restrict_contract(m: OrientedMatroid, keep, contracted) -> OrientedMatroid:
    """The minor M(keep)/contracted, re-indexed on sorted(keep - contracted).

    Built in one step: the circuits are the minimal nonzero restrictions
    to keep - contracted of the circuits inside keep, and dually the
    cocircuits are those of the cocircuits avoiding contracted.
    """
    return _minor(m, _mask(keep), _mask(contracted))[0]


def _minor(m: OrientedMatroid, keep: int, contracted: int):
    """:func:`restrict_contract` on masks, and the runs of keep - contracted it squeezed by."""
    _minors_built[0] += 1
    ground = keep & ~contracted
    runs, size = _runs(ground), ground.bit_count()
    circuits = _minor_sets(m.circuits, ~keep, ground, runs)
    cocircuits = _minor_sets(m.cocircuits, contracted, ground, runs)
    return OrientedMatroid(size, circuits, cocircuits, _greedy_rank(_supports(circuits), (1 << size) - 1)), runs


def delete(m: OrientedMatroid, removed) -> OrientedMatroid:
    """The deletion M∖X: keep circuits avoiding X, restrict cocircuits.
    New element i is the i-th smallest kept original element."""
    return restrict_contract(m, m.ground_set - frozenset(removed), ())


def contract(m: OrientedMatroid, removed) -> OrientedMatroid:
    """The contraction M/X; dual rules to :func:`delete`."""
    return restrict_contract(m, m.ground_set, removed)


def _holding(n: int) -> tuple[int, list[int]]:
    """All 2^n reorientations A as one 2^n-bit int, bit A set for each, and per bit x of
    a mask the set of A holding x: runs of 2^x clear bits alternating with 2^x set bits."""
    every = (1 << (1 << n)) - 1
    return every, [every // ((1 << (2 << x)) - 1) * ((1 << (2 << x)) - (1 << (1 << x))) for x in range(n)]


def _positive_flips(signed_sets, has: list[int], every: int) -> int:
    """:func:`_positive_under` at every A of :func:`_holding` at once: the A making some set positive up to sign."""
    out = 0
    for pos, neg in signed_sets:
        sides = [has[e - 1] for e in _positions(pos)] + [every ^ has[e - 1] for e in _positions(neg)]
        out |= reduce(and_, sides, every) | reduce(and_, (every ^ side for side in sides), every)
    return out


def _positive_under(signed_sets, flip: int) -> list[int]:
    """Supports of the signed sets of M positive up to sign in -_flip M: one side empty once the signs on
    flip swap.  The one boundedness test, for answers and oracles; ``activities._positive_supports`` is apart."""
    return [x | y for x, y in signed_sets if not (x & ~flip | y & flip) or not (y & ~flip | x & flip)]


def _bounded_under(m: OrientedMatroid, flip: int, dual: bool) -> bool:
    """Whether -_flip M (flip a mask) is bounded, or dual-bounded when ``dual``,
    w.r.t. 1 = min(E); no reoriented OM is built."""
    avoided, through_one = (m.cocircuits, m.circuits) if dual else (m.circuits, m.cocircuits)
    return not _positive_under(avoided, flip) and all(s & 1 for s in _positive_under(through_one, flip))


def is_bounded(m: OrientedMatroid) -> bool:
    """Acyclic and every positive cocircuit contains 1 = min(E) (single isthmus counts)."""
    return _bounded_under(m, 0, False)


def is_dual_bounded(m: OrientedMatroid) -> bool:
    """Totally cyclic and every positive circuit contains 1 = min(E) (single loop counts)."""
    return _bounded_under(m, 0, True)


def bases(m: OrientedMatroid) -> tuple[frozenset[int], ...]:
    """All maximal circuit-support-free subsets, in lexicographic order."""
    return tuple(map(_elements, _basis_masks(m)))


def _basis_masks(m: OrientedMatroid) -> tuple[int, ...]:
    """:func:`bases` as masks, cached on (n, rank, circuit supports) so that
    every reorientation of M shares one entry."""
    return _bases(m.n, m.rank, tuple(_supports(m.circuits)))


@lru_cache(maxsize=4096)
def _bases(n: int, rank: int, supports: tuple[int, ...]) -> tuple[int, ...]:
    """The basis masks in lexicographic order: the independent sets grown level by level,
    each member by each larger e, read out member by member, e ascending.  A level is
    bit-sliced, a set of members being one int with bit i for level[i]: e cannot join
    those that hold an element from e up, or C - e for a circuit C whose top is e."""
    check_enumeration_cap(n)
    by_top = [[_positions(s ^ 1 << e) for s in supports if s.bit_length() == e + 1] for e in range(n)]
    level = [0]
    for size in range(rank):
        width, every = len(level), (1 << len(level)) - 1
        rows = "".join(format(b, f"0{n}b") for b in reversed(level))  # as in _all_fundamentals
        holds = [int(rows[n - 1 - x :: n] or "0", 2) for x in range(n)]  # holds[x]: the members holding bit x
        high = list(itertools.accumulate(reversed(holds), or_))[::-1]  # high[e]: those holding a bit from e up
        grown: list[list[int]] = [[] for _ in level]
        for e in range(n - rank + size + 1):  # e leaves room for the rank - size - 1 elements still to come
            taken = reduce(or_, (reduce(and_, [holds[x - 1] for x in c], every) for c in by_top[e]), high[e])
            free, bit = format(every & ~taken, f"0{width}b")[::-1], 1 << e
            i = free.find("1")
            while i >= 0:
                grown[i].append(level[i] | bit)
                i = free.find("1", i + 1)
        level = [b for members in grown for b in members]
    return tuple(level)


bases.cache_info = _bases.cache_info  # the statistics of the shared cache, as bench/tracer.py reads them


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


def _all_fundamentals(m: OrientedMatroid, masks) -> list[list[SignedSubset]]:
    """``[_fundamentals(m, b) for b in masks]``, bit-sliced over the bases: a
    set of bases is one int with bit i for masks[i].  A signed set is the
    fundamental set of e exactly in the bases where e is its one element on
    the other side (E∖B for a circuit, B for a cocircuit).  If some basis
    finds a set missing or doubled, the bases go through the scan in order,
    which raises for the first such basis."""
    n, count = m.n, len(masks)
    # one row of bits per mask, the last first: column e, read down, is the set holds[e]
    rows = "".join(format(b, f"0{n}b") for b in reversed(masks))
    holds = [int(rows[n - 1 - e::n] or "0", 2) for e in range(n)]
    lacks = [h ^ ((1 << count) - 1) for h in holds]
    out = [[None] * n for _ in masks]
    hits = 0
    for signed_sets, side in ((m.circuits, lacks), (m.cocircuits, holds)):
        for x in signed_sets:
            elements = _positions(x.pos | x.neg)
            once = twice = 0  # the bases where x meets the other side at least once, twice
            for e in elements:
                twice |= once & side[e - 1]
                once |= side[e - 1]
            once &= ~twice  # now: exactly once
            flipped = _new(SignedSubset, (x.neg, x.pos))
            for e in elements:
                signed, where = x if x.pos >> (e - 1) & 1 else flipped, once & side[e - 1]
                hits += where.bit_count()
                while where:
                    i = where.bit_length() - 1
                    out[i][e - 1] = signed
                    where ^= 1 << i
    if hits != count * n or any(None in row for row in out):
        for basis in masks:
            _fundamentals(m, basis)
    return out


def fundamental_circuit(m: OrientedMatroid, b: frozenset[int], e: int) -> SignedSubset:
    """The fundamental circuit of e w.r.t. B: the unique circuit inside
    B ∪ {e}, sign-normalized so that e is positive."""
    if e in b:
        raise ValueError(f"element {e} lies in the basis")
    return _fundamentals(m, _mask(b))[e - 1]


def fundamental_cocircuit(m: OrientedMatroid, b: frozenset[int], elt: int) -> SignedSubset:
    """The fundamental cocircuit of b w.r.t. B: the unique cocircuit inside
    (E∖B) ∪ {b}, sign-normalized so that b is positive."""
    if elt not in b:
        raise ValueError(f"element {elt} is not in the basis")
    return _fundamentals(m, _mask(b))[elt - 1]


def is_connected_matroid(m: OrientedMatroid) -> bool:
    """Connected: every pair of elements lies in a common circuit (n <= 1 counts)."""
    if m.n <= 1:
        return True
    reach = [0] * m.n  # per element, the union of the circuits through it
    for s in _supports(m.circuits):
        for e in _positions(s):
            reach[e - 1] |= s
    return all(r == (1 << m.n) - 1 for r in reach)
