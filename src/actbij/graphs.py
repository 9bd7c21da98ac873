"""Ordered directed graphs, their oriented matroids, and the file formats.

Graph file format::

    graph <num_vertices>
    <tail> <head>        # one edge per line, '#' starts a comment

Element k is the k-th edge line (1-based); the reference orientation is
tail -> head and the edge order is the ground-set linear order.

OM file format::

    om <n>
    C <s>                # s is a length-n string over + - 0
    D <s>

Reorientation tokens are comma-separated distinct 1-based indices, ``-``
for the empty set, or a length-n bitstring prefixed ``b:``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    OrientedMatroid,
    SignedSubset,
    _fundamentals,
    _mask,
    _positions,
    bases,
    check_enumeration_cap,
    om_from_lists,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class OrderedDigraph:
    """A multigraph with ordered edges; parallel edges and self-loops allowed."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @property
    def n(self) -> int:
        return len(self.edges)

    def reversed_edges(self, flipped) -> OrderedDigraph:
        """Flip the arcs whose indices lie in ``flipped``."""
        a = frozenset(flipped)
        new = tuple(
            (h, t) if i in a else (t, h)
            for i, (t, h) in enumerate(self.edges, start=1)
        )
        return OrderedDigraph(self.vertices, new)


def _components(vertices: set[str], adjacent) -> list[set[str]]:
    """The vertex sets of the components of the subgraph induced on ``vertices``."""
    seen: set[str] = set()
    comps = []
    for v in vertices:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for _, w, _ in adjacent.get(u, ()):
                if w in vertices and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def _circuits(indexed, adjacent) -> list[SignedSubset]:
    """Signed circuits from the simple cycles, by depth-first search: each
    cycle is found once, from its smallest edge k = (t, h), as k followed
    by a simple path h -> t over larger edges, and an edge traversed from
    tail to head is positive.  A self-loop is its own positive circuit."""
    circuits = []
    for k, t, h in indexed:
        if t == h:
            circuits.append(SignedSubset.from_masks(1 << (k - 1), 0))
            continue
        stack = [(h, {h}, 1 << (k - 1), 0)]
        while stack:
            at, visited, pos, neg = stack.pop()
            for j, w, forward in adjacent.get(at, ()):
                if j <= k or w in visited:
                    continue
                bit = 1 << (j - 1)
                p, q = (pos | bit, neg) if forward else (pos, neg | bit)
                if w == t:
                    circuits.append(SignedSubset.from_masks(p, q))
                else:
                    stack.append((w, visited | {w}, p, q))
    return circuits


def om_from_digraph(g: OrderedDigraph) -> OrientedMatroid:
    """Signed circuits from simple cycles, signed cocircuits from bonds.

    Cycles come from a depth-first search (see :func:`_circuits`).  A bond
    is the cut of a vertex set s holding the smallest vertex of its
    component, where s and the rest of the component both induce
    connected subgraphs; so each bond is found once and is minimal.
    """
    vertex_set = set(g.vertices)
    for t, h in g.edges:
        if t not in vertex_set or h not in vertex_set:
            raise ParseError(f"unknown vertex token {t if t not in vertex_set else h!r}")
    n = g.n
    if n == 0:
        return om_from_lists(0, [], [])
    check_enumeration_cap(n)
    indexed = [(k, t, h) for k, (t, h) in enumerate(g.edges, start=1)]
    adjacent: dict[str, list[tuple[int, str, bool]]] = {}  # per vertex: (edge, other end, leaves it)
    for k, t, h in indexed:
        if t != h:
            adjacent.setdefault(t, []).append((k, h, True))
            adjacent.setdefault(h, []).append((k, t, False))
    circuits = _circuits(indexed, adjacent)

    bonds = []
    for comp in _components(vertex_set, adjacent):
        anchor, *others = sorted(comp)
        for r in range(len(others)):
            for side in itertools.combinations(others, r):
                s = {anchor, *side}
                if len(_components(s, adjacent)) == 1 == len(_components(comp - s, adjacent)):
                    pos = sum(1 << (k - 1) for k, t, h in indexed if t in s and h not in s)
                    neg = sum(1 << (k - 1) for k, t, h in indexed if h in s and t not in s)
                    bonds.append(SignedSubset.from_masks(pos, neg))
    return om_from_lists(n, circuits, bonds)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_graph_file(text: str) -> OrderedDigraph:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty graph file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "graph":
        raise ParseError(f"expected 'graph <num_vertices>', got {header!r}", lineno)
    try:
        declared = int(parts[1])
    except ValueError:
        raise ParseError(f"bad vertex count {parts[1]!r}", lineno) from None
    if declared < 0:
        raise ParseError("vertex count must be nonnegative", lineno)
    edges = []
    names: list[str] = []
    seen: set[str] = set()
    for lineno, line in lines[1:]:
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(f"expected '<tail> <head>', got {line!r}", lineno)
        for t in toks:
            if t not in seen:
                seen.add(t)
                names.append(t)
        edges.append((toks[0], toks[1]))
    if len(names) > declared:
        raise ParseError(
            f"{len(names)} vertex tokens but only {declared} declared"
        )
    names += [f"~{i}" for i in range(1, declared - len(names) + 1)]
    return OrderedDigraph(tuple(names), tuple(edges))


def serialize_graph(g: OrderedDigraph) -> str:
    lines = [f"graph {len(g.vertices)}"]
    lines += [f"{t} {h}" for t, h in g.edges]
    return "\n".join(lines) + "\n"


def parse_om_file(text: str) -> OrientedMatroid:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty om file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "om":
        raise ParseError(f"expected 'om <n>', got {header!r}", lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"bad ground set size {parts[1]!r}", lineno) from None
    if n < 0:
        raise ParseError("ground set size must be nonnegative", lineno)
    circuits, cocircuits = [], []
    for lineno, line in lines[1:]:
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
    for b in bases(m):
        _fundamentals(m, _mask(b))
    return m


def serialize_om(m: OrientedMatroid) -> str:
    lines = [f"om {m.n}"]
    lines += [f"C {c.to_string(m.n)}" for c in m.circuits]
    lines += [f"D {d.to_string(m.n)}" for d in m.cocircuits]
    return "\n".join(lines) + "\n"


def parse_file(text: str) -> OrientedMatroid:
    """Dispatch on the header: a graph file or an om file."""
    for _, line in _content_lines(text):
        kind = line.split()[0]
        if kind == "graph":
            return om_from_digraph(parse_graph_file(text))
        if kind == "om":
            return parse_om_file(text)
        raise ParseError(f"unrecognized header {line!r}", 1)
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
    try:
        elements = [int(t) for t in token.split(",")]
    except ValueError:
        raise ParseError(f"bad reorientation token {token!r}") from None
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
