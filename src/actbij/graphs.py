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


def _components(vertices, adjacency) -> list[set[str]]:
    seen: set[str] = set()
    comps = []
    for v in vertices:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adjacency.get(u, ()):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def _cycle_sign(edges: list[tuple[int, str, str]]) -> SignedSubset | None:
    """Signed circuit of an edge set that is a single simple cycle, else None.

    ``edges`` holds (element, tail, head) triples.  Loops only qualify alone.
    """
    if len(edges) == 1 and edges[0][1] == edges[0][2]:
        return SignedSubset(frozenset({edges[0][0]}), frozenset())
    incident: dict[str, list[tuple[int, str, str]]] = {}
    for k, t, h in edges:
        if t == h:
            return None
        incident.setdefault(t, []).append((k, t, h))
        incident.setdefault(h, []).append((k, t, h))
    if any(len(v) != 2 for v in incident.values()):
        return None
    # walk the cycle; it must close up through every edge (connectedness)
    start = min(incident)
    pos, neg = set(), set()
    at = start
    prev_elt = None
    for _ in range(len(edges)):
        k, t, h = next(e for e in incident[at] if e[0] != prev_elt)
        if at == t:
            pos.add(k)
            at = h
        else:
            neg.add(k)
            at = t
        prev_elt = k
    if at != start or len(pos) + len(neg) != len(edges):
        return None
    return SignedSubset(frozenset(pos), frozenset(neg))


def om_from_digraph(g: OrderedDigraph) -> OrientedMatroid:
    """Signed circuits from simple cycles, signed cocircuits from minimal cuts.

    Cycle and cut enumeration is exhaustive; minimal cuts are filtered
    explicitly.  A self-loop yields the positive singleton circuit.
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

    circuits = []
    for mask in range(1, 1 << n):
        chosen = [indexed[i] for i in range(n) if mask >> i & 1]
        c = _cycle_sign(chosen)
        if c is not None:
            circuits.append(c)

    adjacency: dict[str, set[str]] = {v: set() for v in g.vertices}
    for _, t, h in indexed:
        adjacency[t].add(h)
        adjacency[h].add(t)
    cuts: set[tuple[int, int]] = set()
    for comp in _components(g.vertices, adjacency):
        members = sorted(comp)
        anchor = members[0]
        for r in range(len(members)):
            for side in itertools.combinations(members[1:], r):
                s = {anchor, *side}
                pos = sum(1 << (k - 1) for k, t, h in indexed if t in s and h not in s)
                neg = sum(1 << (k - 1) for k, t, h in indexed if h in s and t not in s)
                if pos or neg:
                    cuts.add((pos, neg))
    supports = {pos | neg for pos, neg in cuts}
    minimal = [
        SignedSubset.from_masks(pos, neg)
        for pos, neg in cuts
        if not any(s != pos | neg and not s & ~(pos | neg) for s in supports)
    ]
    return om_from_lists(n, circuits, minimal)


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
    return om_from_lists(n, circuits, cocircuits)


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
        elements = [int(t) for t in token.split(",") if t.strip()]
    except ValueError:
        raise ParseError(f"bad reorientation token {token!r}") from None
    if not elements and token:
        raise ParseError(f"bad reorientation token {token!r}")
    for e in elements:
        if not 1 <= e <= n:
            raise ParseError(f"element {e} out of range 1..{n}")
    if len(set(elements)) != len(elements):
        raise ParseError(f"repeated element in reorientation token {token!r}")
    return frozenset(elements)


def format_elements(subset) -> str:
    """Comma-joined ascending indices; the empty set renders as '-'."""
    subset = sorted(subset)
    return ",".join(str(e) for e in subset) if subset else "-"
