"""Normal forms, Cayley balls and girth."""

import hashlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthlab.groups import (
    BallCapExceeded,
    GroupSpec,
    GroupSpecError,
    ball,
    parse_group_spec,
    tree_vertex_count,
    word_str,
)
from oracles import (
    append_syllable,
    inverse,
    multiply,
    normal_form,
    tree_sphere_size,
    word_length,
)

F2 = parse_group_spec("Z*Z")
Z5Z5 = parse_group_spec("Z5*Z5")
Z2CUBED = parse_group_spec("Z2*Z2*Z2")


def test_parse_round_trip():
    for text in ("Z*Z", "Z5*Z5", "Z2*Z2*Z2", "Z3*Z4", "Z"):
        assert parse_group_spec(text).describe() == text


@pytest.mark.parametrize("bad", ["", "Z1*Z2", "Q*Z", "Z*", "Z0", "Zx"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(GroupSpecError):
        parse_group_spec(bad)


def test_degree_and_tree_flags():
    assert F2.degree == 4 and F2.is_tree and F2.known_girth is None
    assert Z2CUBED.degree == 3 and Z2CUBED.is_tree
    assert Z5Z5.degree == 4 and not Z5Z5.is_tree and Z5Z5.known_girth == 5
    assert parse_group_spec("Z3*Z4").known_girth == 3


def test_generator_count_matches_degree():
    for spec in (F2, Z5Z5, Z2CUBED, parse_group_spec("Z2*Z7")):
        assert len(spec.generators()) == spec.degree


# --- normal forms -----------------------------------------------------------

def syllable_lists(spec):
    syllable = st.tuples(
        st.integers(0, len(spec.orders) - 1), st.integers(-7, 7)
    )
    return st.lists(syllable, max_size=12)


@given(syllable_lists(Z5Z5))
def test_normal_form_idempotent_z5(syls):
    w = normal_form(Z5Z5, syls)
    assert normal_form(Z5Z5, w) == w
    # normal form: no zero exponents, no adjacent same-factor syllables
    assert all(e != 0 for _, e in w)
    assert all(a[0] != b[0] for a, b in zip(w, w[1:]))


@given(syllable_lists(F2))
def test_inverse_cancels(syls):
    w = normal_form(F2, syls)
    assert multiply(F2, w, inverse(F2, w)) == ()
    assert multiply(F2, inverse(F2, w), w) == ()


@given(syllable_lists(Z5Z5), syllable_lists(Z5Z5), syllable_lists(Z5Z5))
@settings(max_examples=50)
def test_multiply_associative(a, b, c):
    wa, wb, wc = (normal_form(Z5Z5, s) for s in (a, b, c))
    lhs = multiply(Z5Z5, multiply(Z5Z5, wa, wb), wc)
    rhs = multiply(Z5Z5, wa, multiply(Z5Z5, wb, wc))
    assert lhs == rhs


def test_word_length_uses_shorter_arc():
    # a^4 in Z5 is one step (a^-1), not four
    assert word_length(Z5Z5, ((0, 4),)) == 1
    assert word_length(Z5Z5, ((0, 2),)) == 2
    assert word_length(F2, ((0, -3), (1, 2))) == 5


def test_word_str():
    assert word_str(F2, ()) == "e"
    assert word_str(F2, ((0, 2), (1, -1))) == "a^2.b^-1"


# --- balls ------------------------------------------------------------------

def test_ball_distances_match_word_length():
    for spec in (F2, Z5Z5, Z2CUBED):
        b = ball(spec, 4)
        for v in range(b.n_vertices):
            assert b.dist[v] == word_length(spec, b.word(v))


def test_tree_ball_sizes_match_formula():
    for spec in (F2, Z2CUBED):
        d = spec.degree
        b = ball(spec, 5)
        assert b.n_vertices == tree_vertex_count(d, 5)
        assert np.bincount(b.dist).tolist() == [tree_sphere_size(d, r) for r in range(6)]


def test_z5z5_ball_counts():
    b = ball(Z5Z5, 2)
    assert b.n_vertices == 17  # cycles overlap: smaller than the tree ball (21)
    assert np.bincount(b.dist).tolist() == [1, 4, 12]


def test_interior_vertices_have_full_degree():
    for spec in (F2, Z5Z5):
        b = ball(spec, 4)
        for v in range(b.n_vertices):
            if b.dist[v] < b.radius:
                assert len(b.adj[v]) == spec.degree


def test_ball_edges_symmetric_and_unique():
    b = ball(Z5Z5, 4)
    edges = b.edges()
    assert len(edges) == len(set(edges)) == b.n_edges
    for u, v in edges:
        assert v in [w for w, _ in b.adj[u]] and u in [w for w, _ in b.adj[v]]


def test_arc_reversal_involution():
    b = ball(Z5Z5, 3)
    n_arcs = len(b.arc_head)
    for a in range(n_arcs):
        r = a ^ 1
        assert r ^ 1 == a and r < n_arcs
        assert b.arc_head[a] == b.arc_tail[r]
        assert b.arc_tail[a] == b.arc_head[r]
    # adj lists every arc once, under its tail
    assert sorted(a for nbrs in b.adj for _, a in nbrs) == list(range(n_arcs))
    for u, nbrs in enumerate(b.adj):
        for v, a in nbrs:
            assert (b.arc_tail[a], b.arc_head[a]) == (u, v)


@given(st.sampled_from(["Z*Z", "Z5*Z5", "Z4*Z4", "Z2*Z3"]), st.integers(0, 6),
       st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_edge_ends_cover_every_arc(text, radius, pick):
    # odd middle pairs (Z5) and even antipodes (Z4) add edges between
    # vertices of one sphere; a lazily drawing trial still reads only
    # uniforms below edge_ends[x] when it expands x
    b = ball(parse_group_spec(text), radius)
    ends = b.edge_ends
    assert len(ends) == b.n_vertices and ends[-1] == b.n_edges
    for x, nbrs in enumerate(b.adj):
        assert all(a >> 1 < ends[x] for _, a in nbrs)
    x = pick % b.n_vertices
    assert ends[x] == sum(u <= x for u, _ in b.edges())


def _reference_ball(spec, radius):
    """The neighbour-list BFS that `ball` replaced, with its `edges()` and
    arc numbering: (words, dist, adj, girth_found, edges, arc_tail,
    arc_head, arc_rev, out_arcs).  girth_found is the shortest cycle
    through the root that the BFS closes, None if it closes none; it is
    the oracle for `GroupSpec.known_girth`."""
    gens = spec.generators()
    words, index, dist, adj = [()], {(): 0}, [0], [[]]
    girth_found = None
    queue = deque([0])
    while queue:
        u = queue.popleft()
        if dist[u] == radius:
            continue
        for factor, exp in gens:
            wv = append_syllable(spec, words[u], factor, exp)
            v = index.get(wv)
            if v is None:
                v = len(words)
                index[wv] = v
                words.append(wv)
                dist.append(dist[u] + 1)
                adj.append([])
                queue.append(v)
                adj[u].append(v)
                adj[v].append(u)
            elif v not in adj[u]:
                adj[u].append(v)
                adj[v].append(u)
                cyc = dist[u] + dist[v] + 1
                if girth_found is None or cyc < girth_found:
                    girth_found = cyc
    edges = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v]
    arc_id, arc_tail, arc_head = {}, [], []
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            arc_id[(a, b)] = len(arc_tail)
            arc_tail.append(a)
            arc_head.append(b)
    arc_rev = [arc_id[(h, t)] for t, h in zip(arc_tail, arc_head)]
    out_arcs = [[] for _ in words]
    for a, t in enumerate(arc_tail):
        out_arcs[t].append(a)
    return words, dist, adj, girth_found, edges, arc_tail, arc_head, arc_rev, out_arcs


def _assert_matches_reference(spec, radius):
    # edge ids key the percolation uniforms, so equal edge order pins the
    # Monte Carlo coupling; equal neighbour order pins the kernel sums
    b = ball(spec, radius)
    (words, dist, adj, girth_found, edges,
     tail, head, rev, out_arcs) = _reference_ball(spec, radius)
    b_words = [b.word(v) for v in range(b.n_vertices)]
    assert b_words == words and b.dist == dist
    assert [word_length(spec, w) for w in b_words] == b.dist
    assert b.edges() == edges and b.n_edges == len(edges)
    assert b.arc_tail.tolist() == tail and b.arc_head.tolist() == head
    assert [a ^ 1 for a in range(len(head))] == rev
    assert [[v for v, _ in nbrs] for nbrs in b.adj] == adj
    assert [[a for _, a in nbrs] for nbrs in b.adj] == out_arcs


@pytest.mark.parametrize(
    "text", ["Z*Z", "Z5*Z5", "Z2*Z3*Z4", "Z2*Z2*Z2", "Z3*Z3", "Z*Z5", "Z3*Z", "Z4*Z4", "Z7*Z7",
             "Z", "Z5", "Z6", "Z6*Z", "Z2*Z4*Z", "Z10*Z3"]
)
def test_ball_matches_neighbour_list_bfs(text):
    # single factors end in an empty sphere; even cycles meet at an antipode
    spec = parse_group_spec(text)
    for radius in range(9 if text in ("Z*Z", "Z5*Z5") else 7):
        _assert_matches_reference(spec, radius)


@given(st.lists(st.sampled_from([None, 2, 3, 4, 5, 6, 7, 8]), min_size=1, max_size=3),
       st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_ball_matches_reference_on_random_specs(orders, radius):
    _assert_matches_reference(GroupSpec(tuple(orders)), radius)


def test_ball_cap():
    with pytest.raises(BallCapExceeded):
        ball(F2, 10, vertex_cap=100)
    # a ball of exactly the cap builds; one vertex fewer refuses it
    for text, radius in (("Z*Z", 4), ("Z5*Z5", 5), ("Z2*Z3*Z4", 4), ("Z5", 4)):
        spec = parse_group_spec(text)
        size = ball(spec, radius).n_vertices
        assert ball(spec, radius, vertex_cap=size).n_vertices == size
        with pytest.raises(BallCapExceeded):
            ball(spec, radius, vertex_cap=size - 1)


# sha256 of `export_edge_list()` from the word-hashing BFS: edge ids key the
# percolation uniforms, so these pin the Monte Carlo coupling
GOLDEN_EDGE_LISTS = [
    ("Z5*Z5", 6, 1033, 1082, "5bb8d25f898f123ed837cc60e66114e655df655bf09756ab7f482be400da4138"),
    ("Z*Z", 8, 13121, 13120, "81f5c7cbf28712b61b22fc8178657c7e96343e908da608820deb2bfabde18051"),
    ("Z2*Z3*Z4", 7, 10998, 12162,
     "65b79c5dc3d9918376804015db30ddadf2d656618e44fa2abb3383843ccfa147"),
]


@pytest.mark.parametrize("text, radius, vertices, edges, digest", GOLDEN_EDGE_LISTS)
def test_golden_edge_lists(text, radius, vertices, edges, digest):
    b = ball(parse_group_spec(text), radius)
    assert (b.n_vertices, b.n_edges) == (vertices, edges)
    assert hashlib.sha256(b.export_edge_list().encode()).hexdigest() == digest


def test_export_edge_list_header():
    b = ball(Z5Z5, 2)
    text = b.export_edge_list()
    head = text.splitlines()[0]
    assert head.startswith("#") and "R=2" in head and "d=4" in head and "girth=5" in head
    assert len(text.splitlines()) == 1 + b.n_edges


# --- girth ------------------------------------------------------------------

def _root_cycle(spec, radius):
    """Shortest cycle through the root closed by the reference BFS."""
    return _reference_ball(spec, radius)[3]


def test_girth_values():
    assert _root_cycle(Z5Z5, 6) == Z5Z5.known_girth == 5
    assert _root_cycle(parse_group_spec("Z3*Z3"), 4) == 3
    assert _root_cycle(parse_group_spec("Z7*Z7"), 6) == 7
    # the certificate trusts the closed form; the reference BFS is its oracle
    for text in ("Z5*Z5", "Z3*Z4", "Z2*Z3*Z4", "Z*Z5", "Z3*Z", "Z7*Z7", "Z*Z", "Z2*Z*Z2"):
        spec = parse_group_spec(text)
        assert spec.known_girth == _root_cycle(spec, 4), text


def test_girth_bound_for_trees():
    # a tree closes no cycle; its girth is infinite
    for spec in (F2, Z2CUBED):
        assert _root_cycle(spec, 5) is None and spec.known_girth is None
    assert ball(F2, 2).export_edge_list().startswith("# R=2 d=4 girth=inf ")


@given(st.integers(3, 9))
@settings(max_examples=7, deadline=None)
def test_girth_equals_smallest_cyclic_order(m):
    spec = GroupSpec((m, m))
    assert _root_cycle(spec, m) == m == spec.known_girth
