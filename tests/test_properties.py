"""Property tests: one-step minors against graph minors, and the mask
encoding of signed sets against the element-set formulas."""

from hypothesis import given, settings, strategies as st

from actbij.core import SignedSubset, compose, restrict_contract
from actbij.graphs import OrderedDigraph, om_from_digraph

VERTICES = "abcde"
N = 8  # ground set of the signed-set properties

# the same examples on every run, and nothing written to disk
steady = settings(deadline=None, derandomize=True, database=None)


@st.composite
def digraphs(draw, max_edges=8):
    """Loops, parallel edges and disconnected graphs all occur."""
    vertices = VERTICES[: draw(st.integers(1, len(VERTICES)))]
    vertex = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    return OrderedDigraph(tuple(vertices), tuple(edges))


@st.composite
def minors(draw):
    g = draw(digraphs())
    keep = draw(st.frozensets(st.integers(1, g.n))) if g.n else frozenset()
    contracted = draw(st.frozensets(st.sampled_from(sorted(keep)))) if keep else frozenset()
    return g, keep, contracted


def graph_minor(g: OrderedDigraph, keep, contracted) -> OrderedDigraph:
    """Drop the edges outside keep, merge the ends of each contracted edge
    by union-find and drop those; the other edges keep their order."""
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for k in contracted:
        t, h = g.edges[k - 1]
        root[find(t)] = find(h)
    edges = tuple(
        (find(t), find(h))
        for k, (t, h) in enumerate(g.edges, start=1)
        if k in keep and k not in contracted
    )
    return OrderedDigraph(tuple(v for v in g.vertices if find(v) == v), edges)


@settings(steady, max_examples=400)
@given(minors())
def test_restrict_contract_is_the_graph_minor(case):
    g, keep, contracted = case
    want = om_from_digraph(graph_minor(g, keep, contracted))
    assert restrict_contract(om_from_digraph(g), keep, contracted) == want


@st.composite
def signed_sets(draw):
    signs = draw(st.lists(st.sampled_from((0, 1, -1)), min_size=N, max_size=N))
    pos = frozenset(e for e, s in enumerate(signs, start=1) if s > 0)
    neg = frozenset(e for e, s in enumerate(signs, start=1) if s < 0)
    return pos, neg


def mask(elements) -> int:
    return sum(1 << (e - 1) for e in elements)


element_sets = st.frozensets(st.integers(1, N))


@steady
@given(signed_sets())
def test_element_and_mask_constructors_agree(parts):
    pos, neg = parts
    x = SignedSubset(pos, neg)
    y = SignedSubset.from_masks(mask(pos), mask(neg))
    assert x == y and hash(x) == hash(y)
    assert (y.positive, y.negative, y.support) == (pos, neg, pos | neg)
    assert SignedSubset.from_string(x.to_string(N)) == x


@steady
@given(signed_sets(), element_sets)
def test_reoriented_and_restricted_match_set_formulas(parts, a):
    pos, neg = parts
    x = SignedSubset(pos, neg)
    flipped = x.reoriented(a)
    assert flipped.positive == (pos - a) | (neg & a)
    assert flipped.negative == (neg - a) | (pos & a)
    kept = x.restricted(a)
    assert (kept.positive, kept.negative) == (pos & a, neg & a)


@steady
@given(signed_sets())
def test_canonical_matches_set_formula(parts):
    pos, neg = parts
    x = SignedSubset(pos, neg)
    if not pos | neg:
        assert x.canonical() == x
    else:
        first_positive = min(pos | neg) in pos
        assert x.canonical() == (x if first_positive else SignedSubset(neg, pos))


@steady
@given(signed_sets(), signed_sets())
def test_compose_matches_set_formula(first, second):
    x, y = SignedSubset(*first), SignedSubset(*second)
    z = compose(x, y)
    assert z.positive == x.positive | (y.positive - x.support)
    assert z.negative == x.negative | (y.negative - x.support)
