"""Seeded instance files for the three workloads.

Everything here is computed by the benchmark itself, apart from the
library under test: the graphs, their seeded reference orientations, the
signed circuits and cocircuits written into the om file, and the sample
of reorientations.  The library only ever sees the files and tokens.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path


def complete_graph(k: int) -> tuple[list[str], list[tuple[str, str]]]:
    """K_k on vertices a, b, c, ...; edges in colex order ab, ac, bc, ad, ...

    This is the order of ``data/k4.graph``, extended."""
    names = [chr(ord("a") + i) for i in range(k)]
    return names, [(names[i], names[j]) for j in range(1, k) for i in range(j)]


def wheel(k: int) -> tuple[list[str], list[tuple[str, str]]]:
    """W_k: spokes h-r1 .. h-rk first, then the rim r1-r2 .. rk-r1."""
    rim = [f"r{i}" for i in range(1, k + 1)]
    spokes = [("h", r) for r in rim]
    cycle = [(rim[i], rim[(i + 1) % k]) for i in range(k)]
    return ["h", *rim], spokes + cycle


def read_graph(path: Path) -> tuple[list[str], list[tuple[str, str]]]:
    """Vertices (first-appearance order) and edges of a plain graph file."""
    lines = [
        raw.split("#", 1)[0].split()
        for raw in path.read_text(encoding="utf-8").splitlines()
    ]
    lines = [toks for toks in lines if toks]
    if lines[0][0] != "graph":
        raise ValueError(f"{path}: not a graph file")
    edges = [(t, h) for t, h in lines[1:]]
    names = list(dict.fromkeys(v for e in edges for v in e))
    if len(names) != int(lines[0][1]):
        raise ValueError(f"{path}: isolated vertices are not supported here")
    return names, edges


def reoriented(edges, rng: random.Random) -> tuple[list[tuple[str, str]], int]:
    """Reverse each arc with probability 1/2: the seeded reference
    orientation, and the mask of the reversed arcs (element i = bit i-1)."""
    out, mask = [], 0
    for i, (t, h) in enumerate(edges):
        if rng.random() < 0.5:
            out.append((h, t))
            mask |= 1 << i
        else:
            out.append((t, h))
    return out, mask


def graph_text(vertices, edges) -> str:
    return f"graph {len(vertices)}\n" + "".join(f"{t} {h}\n" for t, h in edges)


def _connected(vertices, edges) -> bool:
    vertices = set(vertices)
    if not vertices:
        return True
    adj = {v: set() for v in vertices}
    for t, h in edges:
        if t in vertices and h in vertices:
            adj[t].add(h)
            adj[h].add(t)
    start = next(iter(vertices))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return seen == vertices


def signed_cycles(edges) -> list[tuple[set[int], set[int]]]:
    """(forward, backward) edge sets of every cycle, by brute force over
    edge subsets: a subset is a cycle when it is connected and every
    vertex it touches has degree two.  Edges are numbered from 1."""
    n = len(edges)
    found = []
    for r in range(2, n + 1):
        for subset in itertools.combinations(range(n), r):
            degree: dict[str, int] = {}
            for i in subset:
                for v in edges[i]:
                    degree[v] = degree.get(v, 0) + 1
            if any(d != 2 for d in degree.values()):
                continue
            chosen = [edges[i] for i in subset]
            if not _connected(degree, chosen):
                continue
            # walk the cycle from the first edge in its own direction
            fwd, bwd = {subset[0] + 1}, set()
            at, used = edges[subset[0]][1], {subset[0]}
            while len(used) < len(subset):
                i = next(i for i in subset if i not in used and at in edges[i])
                used.add(i)
                t, h = edges[i]
                (fwd if t == at else bwd).add(i + 1)
                at = h if t == at else t
            found.append((fwd, bwd))
    return found


def signed_bonds(vertices, edges) -> list[tuple[set[int], set[int]]]:
    """(out, in) edge sets of every bond of a connected loopless graph: the
    cuts between a vertex set S holding the first vertex and its
    complement, where both sides are connected."""
    first, rest = vertices[0], vertices[1:]
    found = []
    for r in range(len(rest)):
        for side in itertools.combinations(rest, r):
            s = {first, *side}
            other = set(vertices) - s
            if not (_connected(s, edges) and _connected(other, edges)):
                continue
            out = {k for k, (t, h) in enumerate(edges, 1) if t in s and h not in s}
            inn = {k for k, (t, h) in enumerate(edges, 1) if h in s and t not in s}
            found.append((out, inn))
    return found


def om_text(vertices, edges) -> str:
    """The om file of a connected loopless digraph, from the benchmark's
    own cycle and bond enumeration."""
    n = len(edges)

    def signs(pos, neg):
        return "".join("+" if k in pos else "-" if k in neg else "0" for k in range(1, n + 1))

    lines = [f"om {n}"]
    lines += [f"C {signs(p, q)}" for p, q in signed_cycles(edges)]
    lines += [f"D {signs(p, q)}" for p, q in signed_bonds(vertices, edges)]
    return "\n".join(lines) + "\n"


def subset_token(mask: int, n: int) -> str:
    """A reorientation token as the CLI takes it: comma-joined indices or '-'."""
    elements = [str(i) for i in range(1, n + 1) if mask >> (i - 1) & 1]
    return ",".join(elements) if elements else "-"


# The orientations of K6 (as masks of arcs reversed from the order of
# complete_graph) whose active bases forward-sweep asks for.  They are
# drawn once, not per seed: the cost of one alpha call ranges from under
# a millisecond to seconds (a K6 bounded as a whole scans all 1296 bases),
# so a per-seed draw of 64 made the work itself depend on the seed.
ALPHA_ORIENTATIONS = tuple(random.Random(0).sample(range(1 << 15), 64))


def make(workload: str, seed: int, data: Path, out: Path) -> dict:
    """Write the workload's instance files under ``out``; return the spec
    the round runner reads: {"files": {role: path}, "graphs": {role:
    (vertices, edges)}, "sample": [tokens]}."""
    rng = random.Random(seed)
    if workload == "forward-sweep":
        plan = {"sweep": complete_graph(5), "sample": complete_graph(6)}
    elif workload == "inverse-tutte":
        plan = {"table": complete_graph(6)}
    elif workload == "verify-suite":
        plan = {
            "k4": read_graph(data / "k4.graph"),
            "diamond": read_graph(data / "diamond_doubled.graph"),
            "w4": wheel(4),
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files, graphs, flips = {}, {}, {}
    for role, (vertices, edges) in plan.items():
        edges, flips[role] = reoriented(edges, rng)
        graphs[role] = (vertices, edges)
        if role == "diamond":
            text, name = om_text(vertices, edges), "diamond.om"
        else:
            text, name = graph_text(vertices, edges), f"{role}.graph"
        path = out / name
        path.write_text(text, encoding="utf-8")
        files[role] = str(path)
    sample = []
    if workload == "forward-sweep":
        # tokens are relative to the seeded reference, so -_A M is the same
        # orientation of K6 whatever the seed
        n = len(graphs["sample"][1])
        sample = [subset_token(mask ^ flips["sample"], n) for mask in ALPHA_ORIENTATIONS]
    return {"files": files, "graphs": graphs, "sample": sample}
