"""Output checks against computations made apart from the program.

Each ``check_*`` takes the printed rows of one round and returns the set
of operation indices whose output is wrong (an index into the round's
list of operations).  A property that no single row carries, such as
"the images form a permutation", flags every operation it covers.

Independent computations: spanning trees by union-find over the graph's
edges, the spanning-tree count by the matrix-tree theorem, and the Tutte
polynomial from ``networkx.tutte_polynomial``.  The α check also feeds
each image back through the library's inverse map, as a round trip.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb


def parse_set(token: str) -> frozenset[int]:
    return frozenset() if token == "-" else frozenset(int(t) for t in token.split(","))


def is_spanning_tree(vertices, edges, chosen) -> bool:
    """Union-find: |V|-1 edges, none closing a cycle."""
    if len(chosen) != len(vertices) - 1:
        return False
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for k in chosen:
        if not 1 <= k <= len(edges):
            return False
        a, b = find(edges[k - 1][0]), find(edges[k - 1][1])
        if a == b:
            return False
        root[a] = b
    return True


def spanning_tree_count(vertices, edges) -> int:
    """Matrix-tree theorem: any cofactor of the Laplacian, exactly."""
    index = {v: i for i, v in enumerate(vertices)}
    size = len(vertices) - 1
    lap = [[Fraction(0)] * size for _ in range(size)]
    for t, h in edges:
        i, j = index[t], index[h]
        if i == j:
            continue
        for a, b, w in ((i, i, 1), (j, j, 1), (i, j, -1), (j, i, -1)):
            if a < size and b < size:
                lap[a][b] += w
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if lap[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            lap[col], lap[pivot] = lap[pivot], lap[col]
            det = -det
        det *= lap[col][col]
        for r in range(col + 1, size):
            factor = lap[r][col] / lap[col][col]
            for c in range(col, size):
                lap[r][c] -= factor * lap[col][c]
    return int(det)


def networkx_tutte(vertices, edges) -> dict[tuple[int, int], int]:
    """Coefficients t_ij of x^i y^j from networkx."""
    import networkx as nx
    import sympy

    g = nx.MultiGraph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    x, y = sympy.symbols("x y")
    poly = sympy.Poly(nx.tutte_polynomial(g), x, y)
    return {(int(i), int(j)): int(c) for (i, j), c in poly.terms()}


_TERM = re.compile(r"^(\d*)(?:x(?:\^(\d+))?)?(?:y(?:\^(\d+))?)?$")


def parse_polynomial(text: str) -> dict[tuple[int, int], int] | None:
    """Coefficients of a polynomial printed as 'x^2 + 3xy + y' (None if malformed)."""
    coeffs: dict[tuple[int, int], int] = {}
    for term in text.split(" + "):
        match = _TERM.match(term)
        if not term or match is None:
            return None
        c, i, j = match.groups()
        key = (
            int(i) if i else int("x" in term),
            int(j) if j else int("y" in term),
        )
        coeffs[key] = coeffs.get(key, 0) + (int(c) if c else 1)
    return coeffs


def check_refined(rows: list[tuple[int, str]], n: int, t: dict) -> set[int]:
    """Rows of `refined`: every A once, the images a permutation of 2^E,
    and Σ x^|Θ*| u^|Θ̄*| y^|Θ| v^|Θ̄| = t(x+u, y+v), i.e. the row count
    with parameter sizes (a, b, c, d) is t_{a+b,c+d} C(a+b,a) C(c+d,c)."""
    everything = {i for i, _ in rows}
    ground = frozenset(range(1, n + 1))
    parsed = []
    bad = set()
    for i, line in rows:
        fields = line.split("\t")
        try:
            sets = [parse_set(f) for f in fields]
        except ValueError:
            sets = []
        if len(sets) != 6 or not all(s <= ground for s in sets):
            bad.add(i)
            continue
        parsed.append((i, sets))
    if len(rows) != 1 << n or bad:
        return everything
    sources = {frozenset(s[0]) for _, s in parsed}
    images: dict[frozenset[int], list[int]] = {}
    for i, sets in parsed:
        images.setdefault(sets[1], []).append(i)
    if len(sources) != 1 << n:
        return everything
    bad = {i for idx in images.values() if len(idx) > 1 for i in idx}
    histogram: dict[tuple[int, ...], int] = {}
    for _, sets in parsed:
        key = tuple(len(s) for s in sets[2:])
        histogram[key] = histogram.get(key, 0) + 1
    expected = {}
    for (ti, tj), c in t.items():
        for a in range(ti + 1):
            for cc in range(tj + 1):
                expected[(a, ti - a, cc, tj - cc)] = c * comb(ti, a) * comb(tj, cc)
    if histogram != expected:
        return everything
    return bad


def check_alpha(rows, sample, graph, m, alpha_inverse_class) -> set[int]:
    """Each α image is a spanning tree, and A lies in the class that the
    inverse map returns for α(A)."""
    vertices, edges = graph
    bad = set()
    if len(rows) != len(sample):
        return {i for i, _ in rows}
    for (i, line), token in zip(rows, sample):
        a = parse_set(token)
        try:
            image = parse_set(line)
        except ValueError:
            bad.add(i)
            continue
        if not is_spanning_tree(vertices, edges, image):
            bad.add(i)
            continue
        try:
            members = alpha_inverse_class(m, image).class_members
        except Exception:  # the library rejects the image: the row is wrong
            bad.add(i)
            continue
        if a not in members:
            bad.add(i)
    return bad


def check_table(rows, graph, trees: int, t: dict) -> set[int]:
    """Rows of `table`: one per spanning tree, each basis a distinct
    spanning tree, the classes disjoint subsets of 2^E covering all 2^n
    reorientations, and #classes of size 2^k = Σ_{i+j=k} t_ij."""
    vertices, edges = graph
    n = len(edges)
    ground = frozenset(range(1, n + 1))
    everything = {i for i, _ in rows}
    if len(rows) != trees:
        return everything
    bad = set()
    owner: dict[frozenset[int], int] = {}
    bases = set()
    sizes: dict[int, int] = {}
    for i, line in rows:
        fields = line.split("\t")
        try:
            basis = parse_set(fields[-1])
            members = [parse_set(tok) for tok in fields[2].split(" ")]
        except (ValueError, IndexError):
            bad.add(i)
            continue
        if (
            len(fields) != 4
            or basis in bases
            or not is_spanning_tree(vertices, edges, basis)
            or not all(a <= ground for a in members)
        ):
            bad.add(i)
        bases.add(basis)
        for a in members:
            if a in owner:
                bad.update((i, owner[a]))
            owner[a] = i
        sizes[len(members)] = sizes.get(len(members), 0) + 1
    if len(owner) != 1 << n:
        return everything
    expected: dict[int, int] = {}
    for (ti, tj), c in t.items():
        expected[1 << (ti + tj)] = expected.get(1 << (ti + tj), 0) + c
    if sizes != expected:
        return everything
    return bad


def check_tutte(ops: dict[str, tuple[int, list[str]]], t: dict) -> set[int]:
    """`tutte --check`: coefficient rows and printed polynomials equal
    networkx's, both sum routes say ok, agree=4/4, and nothing else is
    printed."""
    bad = {idx for kind, (idx, _) in ops.items() if kind == "tutte:extra"}
    idx, lines = ops.get("tutte:bases", (None, []))
    rows = {}
    for line in lines[1:-1]:
        fields = line.split("\t")
        if len(fields) == 3 and all(f.isdigit() for f in fields):
            rows[(int(fields[0]), int(fields[1]))] = int(fields[2])
    if (
        len(lines) != len(t) + 2
        or lines[0] != "i\tj\tb"
        or rows != t
        or not lines[-1].startswith("t(x,y) = ")
        or parse_polynomial(lines[-1].split(" = ", 1)[1]) != t
    ):
        bad.add(idx)
    idx, lines = ops.get("tutte:orientations", (None, []))
    polys = [line.split("\t", 2) for line in lines]
    if [p[:2] for p in polys] != [["route", "bases"], ["route", "orientations"]] or any(
        parse_polynomial(p[2]) != t for p in polys
    ):
        bad.add(idx)
    idx, lines = ops.get("tutte:subset-sum", (None, []))
    if lines != ["route\tsubset-sum\tok"]:
        bad.add(idx)
    idx, lines = ops.get("tutte:reorientation-sum", (None, []))
    if lines != ["route\treorientation-sum\tok", "agree=4/4"]:
        bad.add(idx)
    return bad - {None}


def check_verify(rows, names) -> set[int]:
    """One `ok <check>` line per check, in order."""
    if len(rows) != len(names):
        return {i for i, _ in rows}
    return {i for (i, lines), name in zip(rows, names) if lines != [f"ok {name}"]}
