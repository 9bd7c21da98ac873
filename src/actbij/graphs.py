"""Ordered directed graphs, their oriented matroids, and the file formats.

Graph file format::

    graph <num_vertices>
    <tail> <head>        # one edge per line, '#' starts a comment

A graph is its tuple of ``(tail, head)`` edges.  Element k is the k-th
edge line (1-based); the reference orientation is tail -> head and the edge
order is the ground-set linear order.  The header count bounds the distinct
vertex tokens; isolated vertices do not enter the oriented matroid.

OM file format::

    om <n>
    C <s>                # s is a length-n string over + - 0
    D <s>

Both open with a ``<kind> <count>`` header line, read in one place; an
error names its line, the header's own after comments and blank lines.

Reorientation tokens are comma-separated distinct 1-based indices, ``-``
for the empty set, or a length-n bitstring prefixed ``b:``.
"""

from __future__ import annotations

from .core import (
    OrientedMatroid,
    SignedSubset,
    _all_fundamentals,
    _basis_masks,
    _mask,
    _positions,
    check_enumeration_cap,
    om_from_lists,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _reach(within: int, nbr: list[int]) -> int:
    """The vertices of the mask ``within`` that its lowest vertex reaches inside it,
    by one flood fill over the neighbour masks ``nbr``."""
    reached, frontier = 0, within & -within
    while frontier:
        reached |= frontier
        grown = 0
        for v in _positions(frontier):
            grown |= nbr[v - 1]
        frontier = grown & within & ~reached
    return reached


def _circuits(ends, adjacent) -> list[SignedSubset]:
    """Signed circuits from the simple cycles, by depth-first search: each
    cycle is found once, from its smallest edge k = (t, h), as k followed
    by a simple path h -> t over larger edges, and an edge traversed from
    tail to head is positive.  A self-loop is its own positive circuit."""
    circuits = []
    for k, (t, h) in enumerate(ends, start=1):
        if t == h:
            circuits.append(SignedSubset.from_masks(1 << (k - 1), 0))
            continue
        stack = [(h, 1 << h, 1 << (k - 1), 0)]
        while stack:
            at, visited, pos, neg = stack.pop()
            for j, w, forward in adjacent[at]:
                if j <= k or visited >> w & 1:
                    continue
                bit = 1 << (j - 1)
                p, q = (pos | bit, neg) if forward else (pos, neg | bit)
                if w == t:
                    circuits.append(SignedSubset.from_masks(p, q))
                else:
                    stack.append((w, visited | 1 << w, p, q))
    return circuits


def om_from_digraph(edges) -> OrientedMatroid:
    """Signed circuits from simple cycles, signed cocircuits from bonds, of
    the ordered ``(tail, head)`` edges; parallel edges and self-loops allowed.

    The vertices are numbered once, by first appearance, and vertex sets
    are masks.  Cycles come from a depth-first search (see :func:`_circuits`).
    A bond is the cut of a vertex set s holding the first vertex of its
    component, where s and the rest of the component both induce
    connected subgraphs; so each bond is found once and is minimal.  The
    sides s are grown connected from that vertex, each once, and only the
    rest is tested, by one flood fill (:func:`_reach`).
    """
    n = len(edges)
    check_enumeration_cap(n)
    index = {v: i for i, v in enumerate(dict.fromkeys(v for edge in edges for v in edge))}
    ends = [(index[t], index[h]) for t, h in edges]  # per edge: tail, head
    adjacent = [[] for _ in index]  # per vertex: (edge, other end, leaves it)
    for k, (t, h) in enumerate(ends, start=1):
        if t != h:
            adjacent[t].append((k, h, True))
            adjacent[h].append((k, t, False))
    circuits = _circuits(ends, adjacent)

    nbr = [sum({1 << w for _, w, _ in around}) for around in adjacent]  # per vertex: its neighbours
    bonds, unreached = [], (1 << len(index)) - 1
    while unreached:
        comp = _reach(unreached, nbr)
        unreached ^= comp
        anchor = comp & -comp
        stack = [(anchor, nbr[anchor.bit_length() - 1], 0)]  # (side, its frontier, barred vertices)
        while stack:
            s, frontier, barred = stack.pop()
            v = frontier & -frontier
            if v:  # s grows by its lowest frontier vertex v, or v is barred from it
                stack.append((s, frontier ^ v, barred | v))
                stack.append((s | v, (frontier | nbr[v.bit_length() - 1]) & ~(s | v | barred), barred))
            elif (other := comp ^ s) and _reach(other, nbr) == other:
                pos = sum(1 << k for k, (t, h) in enumerate(ends) if s >> t & 1 and other >> h & 1)
                neg = sum(1 << k for k, (t, h) in enumerate(ends) if s >> h & 1 and other >> t & 1)
                bonds.append(SignedSubset.from_masks(pos, neg))
    return om_from_lists(n, circuits, bonds)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _header(text: str, kind: str, count: str, noun: str):
    """The (line number, line) pairs after the ``<kind> <count>`` header, and the count."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(f"empty {kind} file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != kind:
        raise ParseError(f"expected '{kind} <{count}>', got {header!r}", lineno)
    token = parts[1]
    if not (token.isascii() and token.removeprefix("-").isdigit()):  # int() would also read 1_0, +1 and １
        raise ParseError(f"bad {noun} {token!r}", lineno)
    if token[0] == "-":
        raise ParseError(f"{noun} must be nonnegative", lineno)
    return lines[1:], int(token)


def parse_graph_file(text: str) -> tuple[tuple[str, str], ...]:
    """The ``(tail, head)`` edges of a graph file, in file order."""
    lines, declared = _header(text, "graph", "num_vertices", "vertex count")
    edges = []
    for lineno, line in lines:
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(f"expected '<tail> <head>', got {line!r}", lineno)
        edges.append((toks[0], toks[1]))
    tokens = len({v for edge in edges for v in edge})
    if tokens > declared:
        raise ParseError(f"{tokens} vertex tokens but only {declared} declared")
    return tuple(edges)


def parse_om_file(text: str) -> OrientedMatroid:
    lines, n = _header(text, "om", "n", "ground set size")
    check_enumeration_cap(n)
    circuits, cocircuits = [], []
    for lineno, line in lines:
        toks = line.split()
        if len(toks) != 2 or toks[0] not in ("C", "D"):
            raise ParseError(f"expected 'C <signs>' or 'D <signs>', got {line!r}", lineno)
        if len(toks[1]) != n:
            raise ParseError(
                f"sign string of length {len(toks[1])}, expected {n}", lineno
            )
        try:
            s = SignedSubset.from_string(toks[1])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        (circuits if toks[0] == "C" else cocircuits).append(s)
    m = om_from_lists(n, circuits, cocircuits)
    # completeness: a file missing a fundamental circuit or cocircuit of
    # some basis raises here; one basis does not catch every missing line
    _all_fundamentals(m, _basis_masks(m))
    return m


def parse_file(text: str) -> OrientedMatroid:
    """Dispatch on the header: a graph file or an om file."""
    for lineno, line in _content_lines(text):
        kind = line.split()[0]
        if kind == "graph":
            return om_from_digraph(parse_graph_file(text))
        if kind == "om":
            return parse_om_file(text)
        raise ParseError(f"unrecognized header {line!r}", lineno)
    raise ParseError("empty input file")


def parse_reorientation(token: str, n: int) -> frozenset[int]:
    """Parse a reorientation token into an element set over 1..n."""
    token = token.strip()
    if token == "-":
        return frozenset()
    if token.startswith("b:"):
        bits = token[2:]
        if len(bits) != n or any(c not in "01" for c in bits):
            raise ParseError(f"expected a length-{n} bitstring, got {bits!r}")
        return frozenset(i for i, c in enumerate(bits, start=1) if c == "1")
    items = token.split(",")
    if not all(t.isascii() and t.isdigit() for t in items):  # int() would also read 1_0, +1 and １
        raise ParseError(f"bad reorientation token {token!r}")
    elements = list(map(int, items))
    for e in elements:
        if not 1 <= e <= n:
            raise ParseError(f"element {e} out of range 1..{n}")
    if len(set(elements)) != len(elements):
        raise ParseError(f"repeated element in reorientation token {token!r}")
    return frozenset(elements)


# per byte k below the enumeration cap, the rendering of each byte value:
# its elements 8k+1..8k+8, comma-joined
_BYTE_NAMES = [
    [",".join(str(8 * k + i + 1) for i in range(8) if byte >> i & 1) for byte in range(256)]
    for k in range(3)
]


def _format_mask(mask: int) -> str:
    """The elements of a mask, comma-joined ascending; '-' when empty."""
    if mask >> 24:  # above the enumeration cap, beyond the tables
        return ",".join(map(str, _positions(mask)))
    low, mid, high = _BYTE_NAMES
    return ",".join(filter(None, (low[mask & 255], mid[mask >> 8 & 255], high[mask >> 16]))) or "-"


def format_elements(subset) -> str:
    """Comma-joined ascending indices; the empty set renders as '-'."""
    return _format_mask(_mask(subset))
