"""Percolation estimators cross-checked against the branching oracle."""

from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthlab import branching, percolation
from girthlab.blocks import block_connections, pc_interval
from girthlab.groups import ball, parse_group_spec
from girthlab.percolation import (
    cluster_size_tail,
    crossing_probability,
    crossing_threshold,
    estimate_pc,
    nonuniqueness_witness,
    oracle_witness_radius,
    pc_bracket,
    susceptibility,
    two_point,
)
from girthlab.rng import trial_rng
from girthlab.stats import binomial_estimate
from oracles import (
    bottleneck_dijkstra,
    cycle_connection_sum,
    fit_beta,
    fit_gamma,
    inverse,
    multiply,
    tree_triangle_exact,
    word_length,
)

F2 = parse_group_spec("Z*Z")
Z5Z5 = parse_group_spec("Z5*Z5")


def edge_uniforms(ball, seed: int, trial: int) -> np.ndarray:
    """One uniform per undirected edge, keyed by (seed, trial): the shared
    coupling that makes connectivity monotone in p across a p-grid."""
    return trial_rng(seed, trial).random(ball.n_edges)


def open_mask(ball, p: float, seed: int, trial: int) -> np.ndarray:
    return edge_uniforms(ball, seed, trial) < p


class UnionFind:
    """Disjoint sets with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]

    def component_size(self, x: int) -> int:
        return self.size[self.find(x)]

    def partition(self) -> list[int]:
        return [self.find(i) for i in range(len(self.parent))]


def root_cluster(ball, open_edges):
    """The whole open cluster of the root by BFS: the oracle for the
    searches of `crossing_probability` and `two_point`, which stop early.

    Returns (members list, touched_boundary).
    """
    adj = ball.adj
    dist = ball.dist
    radius = ball.radius
    seen = bytearray(ball.n_vertices)
    seen[0] = 1
    members = [0]
    touched = radius == 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v, a in adj[u]:
            if not seen[v] and open_edges[a >> 1]:
                seen[v] = 1
                members.append(v)
                if dist[v] == radius:
                    touched = True
                queue.append(v)
    return members, touched


def cluster_partition(ball, open_edges) -> list[int]:
    """Full cluster partition by union-find (root representative per vertex)."""
    uf = UnionFind(ball.n_vertices)
    for eid, (u, v) in enumerate(ball.edges()):
        if open_edges[eid]:
            uf.union(u, v)
    return uf.partition()


def test_union_find_components():
    uf = UnionFind(6)
    uf.union(0, 1)
    uf.union(1, 2)
    uf.union(4, 5)
    assert uf.find(0) == uf.find(2) != uf.find(3)
    assert uf.component_size(1) == 3
    assert uf.component_size(3) == 1
    part = uf.partition()
    assert part[4] == part[5] != part[3]


@given(st.floats(0.05, 0.95), st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_bfs_cluster_matches_union_find(p, trial):
    b = ball(Z5Z5, 3)
    mask = open_mask(b, p, seed=11, trial=trial)
    members, _ = root_cluster(b, mask)
    part = cluster_partition(b, mask)
    root_rep = part[0]
    assert sorted(members) == [v for v in range(b.n_vertices) if part[v] == root_rep]


def test_root_cluster_boundary_flag():
    b = ball(F2, 3)
    all_open = np.ones(b.n_edges, dtype=bool)
    members, touched = root_cluster(b, all_open)
    assert touched and len(members) == b.n_vertices
    none_open = np.zeros(b.n_edges, dtype=bool)
    members, touched = root_cluster(b, none_open)
    assert members == [0] and not touched


def test_crossing_probability_extremes():
    b = ball(F2, 4)
    assert crossing_probability(b, 0.0, 10, seed=1).value == 0.0
    assert crossing_probability(b, 1.0, 10, seed=1).value == 1.0
    for p in (0.0, 0.5):  # p = 0 used to return a 0-trial estimate
        with pytest.raises(ValueError, match="trials must be >= 1"):
            crossing_probability(b, p, 0, seed=1)


def test_crossing_matches_branching_oracle():
    # graph MC vs the no-graph GW recursion on the tree
    b = ball(F2, 4)
    for p in (0.25, 0.4, 0.55):
        est = crossing_probability(b, p, trials=600, seed=3)
        exact = branching.crossing_probability_exact(4, p, 4)
        assert est.ci_lo - 0.01 <= exact <= est.ci_hi + 0.01


def test_two_point_tree_exact():
    b = ball(F2, 3)
    x = next(v for v in range(b.n_vertices) if b.dist[v] == 2)
    est, exact = two_point(b, 0.5, x, trials=800, seed=4)
    assert exact == pytest.approx(0.25)
    assert est.ci_lo - 0.01 <= exact <= est.ci_hi + 0.01


@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(2, 5)])
def test_block_connections_is_the_cycle_brute_force(m, p):
    assert block_connections(m, p) == cycle_connection_sum(m, p)


def _load(spec, p):
    """sum_f T_f/(1+T_f) in Fractions: < 1 iff chi(p) < inf."""
    return sum(t / (1 + t) for t in (block_connections(m, p) for m in spec.orders))


def _perron_root(spec, p: float) -> float:
    """The Perron root of M(p) = (T_f [f != g]), by numpy, independent of
    the scalar reduction `pc_interval` uses."""
    t = np.array([block_connections(m, p) for m in spec.orders])
    k = len(t)
    return max(np.linalg.eigvals(t[:, None] * (1 - np.eye(k))).real)


# p_c from ROADMAP item 4's block-tree table, to 7 digits
PC_TABLE = {"Z5*Z5": 0.3403996, "Z2*Z3": 0.6372776, "Z*Z5": 0.3367155,
            "Z2*Z3*Z4": 0.2626469, "Z3*Z3": 0.4030317}


@pytest.mark.parametrize("spec_text", sorted(PC_TABLE) + ["Z*Z", "Z*Z*Z", "Z2*Z2*Z2"])
def test_pc_interval_is_a_checked_bracket(spec_text):
    spec = parse_group_spec(spec_text)
    lo, hi = pc_interval(spec)
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert 0 < hi - lo <= Fraction(1, 10**8)
    assert _load(spec, lo) < 1 < _load(spec, hi)
    assert _perron_root(spec, float(lo)) < 1 < _perron_root(spec, float(hi))
    if spec.is_tree:
        assert lo < Fraction(1, spec.degree - 1) < hi
    else:
        assert abs(float(lo) - PC_TABLE[spec_text]) < 1e-7
        assert abs(float(hi) - PC_TABLE[spec_text]) < 1e-7


def test_pc_interval_decreases_in_the_cycle_order():
    # T_{m+1} - T_m = p^m (m + 1 - m p) > 0, so p_c(Zm*Zm) falls as m grows
    brackets = [pc_interval(parse_group_spec(f"Z{m}*Z{m}")) for m in range(3, 13)]
    assert all(hi_next < lo for (lo, _), (_, hi_next) in zip(brackets, brackets[1:]))


@pytest.mark.parametrize("spec_text", ["Z", "Z2", "Z5", "Z2*Z2"])
def test_pc_interval_needs_degree_three(spec_text):
    with pytest.raises(ValueError, match="degree >= 3"):
        pc_interval(parse_group_spec(spec_text))


def test_estimate_pc_tree_brackets_exact_value():
    est = estimate_pc(F2, radius=5, trials=300, seed=2)
    assert est.lo < est.hi
    assert est.lo <= 1 / 3 + 0.06 and est.hi >= 1 / 3 - 0.06
    assert 0.0 <= est.lo and est.hi <= 1.0


# the largest |midpoint - p_c| `pc_bracket` may show at each radius, over
# seeds 0-9 at 200 trials on the four specs below.  Measured: 0.124 at R = 4,
# 0.067 at R = 6 (both Z2*Z3) and 0.062 at R = 8 (Z*Z5).  On Z5*Z5, Z*Z5 and
# Z*Z the bias is positive and grows with R: the bisection finds where the
# radius-R crossing has probability 1/2, which tends to theta(p) = 1/2, above
# p_c.  On Z2*Z3, whose balls stay small (106 vertices at R = 8), it is
# negative and shrinks.
PC_BRACKET_TOL = {4: 0.15, 6: 0.08, 8: 0.08}


@pytest.mark.parametrize("spec_text", ["Z5*Z5", "Z2*Z3", "Z*Z5", "Z*Z"])
def test_pc_bracket_midpoint_is_near_the_exact_pc(spec_text):
    spec = parse_group_spec(spec_text)
    lo, hi = (Fraction(1, spec.degree - 1),) * 2 if spec.is_tree else pc_interval(spec)
    pc = float(lo + hi) / 2
    for radius, tol in PC_BRACKET_TOL.items():
        b = ball(spec, radius)
        for seed in range(10):
            est = pc_bracket(b, 200, seed)
            assert abs((est.lo + est.hi) / 2 - pc) <= tol, (radius, seed)


def test_estimate_pc_validation():
    with pytest.raises(ValueError):
        estimate_pc(F2, 2, 0, 0)


def _estimate_pc_reference(spec, radius, trials, seed, tol=0.02):
    """Reference for `estimate_pc`: the same bisection against 1/2 and the
    same widening, with every step re-running all trials through
    `crossing_probability`."""
    b = ball(spec, radius)
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if crossing_probability(b, mid, trials, seed).value >= 0.5:
            hi = mid
        else:
            lo = mid
    for _ in range(10):
        if lo <= 0.0 or crossing_probability(b, lo, trials, seed).ci_hi < 0.5:
            break
        lo = max(0.0, lo - tol)
    for _ in range(10):
        if hi >= 1.0 or crossing_probability(b, hi, trials, seed).ci_lo > 0.5:
            break
        hi = min(1.0, hi + tol)
    return lo, hi


@pytest.mark.parametrize("spec", ["Z*Z", "Z5*Z5", "Z2*Z3"])
@pytest.mark.parametrize("radius", range(7))
def test_estimate_pc_equals_reference_bisection(spec, radius):
    g = parse_group_spec(spec)
    for seed in (1, 8):
        est = estimate_pc(g, radius, 40, seed)
        assert (est.lo, est.hi) == _estimate_pc_reference(g, radius, 40, seed)


@given(st.sampled_from(["Z*Z", "Z5*Z5", "Z2*Z3"]), st.integers(0, 4),
       st.integers(0, 2**32), st.floats(0.0, 1.0), st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_threshold_count_equals_crossing_hits(spec, radius, seed, p, pick):
    b = ball(parse_group_spec(spec), radius)
    trials = 25
    us = [edge_uniforms(b, seed, t) for t in range(trials)]
    thr = np.array([crossing_threshold(b, u) for u in us])
    # a random p, then p exactly at a trial's threshold and at one of its
    # edge uniforms, where the strict u < p decides the tie
    ps = [p]
    if np.isfinite(thr[pick]):
        ps.append(float(thr[pick]))
    if b.n_edges:
        ps.append(float(us[pick][pick % b.n_edges]))
    for q in ps:
        hits = int(np.count_nonzero(thr < q))
        assert crossing_probability(b, q, trials, seed).value == hits / trials


@pytest.mark.parametrize("spec", ["Z*Z", "Z5*Z5", "Z4*Z4", "Z2*Z3", "Z2*Z3*Z4"])
def test_crossing_threshold_equals_bottleneck_dijkstra(spec):
    # all equal; Philox uniforms; the same rounded down to multiples of
    # 1/8, so many edges tie with one another and with the level
    g = parse_group_spec(spec)
    for radius in range(6):
        b = ball(g, radius)
        cases = [np.full(b.n_edges, 0.5)]
        for t in range(20):
            u = edge_uniforms(b, 7, t)
            cases += [u, np.floor(u * 8) / 8]
        for us in cases:
            assert crossing_threshold(b, us) == bottleneck_dijkstra(b, us)


def test_estimate_pc_draws_each_trial_once(monkeypatch):
    streams = []
    real = percolation.trial_streams

    def counting(seed, ids):
        ids = list(ids)
        for t, gen in zip(ids, real(seed, ids)):
            streams.append(t)
            yield gen

    monkeypatch.setattr(percolation, "trial_streams", counting)
    estimate_pc(Z5Z5, 4, 30, seed=3)
    assert sorted(streams) == list(range(30))


def _reaches_full(b, open_edges, targets):
    """The early-stopping BFS over a whole trial's open-edge mask."""
    if targets[0]:
        return True
    seen, queue = {0}, deque([0])
    while queue:
        for v, a in b.adj[queue.popleft()]:
            if v not in seen and open_edges[a >> 1]:
                if targets[v]:
                    return True
                seen.add(v)
                queue.append(v)
    return False


def _hits_full(b, p, trials, seed, targets):
    return sum(_reaches_full(b, open_mask(b, p, seed, t), targets) for t in range(trials))


@pytest.mark.parametrize("spec", ["Z*Z", "Z5*Z5", "Z4*Z4", "Z2*Z3"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_lazy_draws_equal_full_draws(spec, p):
    # a trial that draws its uniforms as its search reaches them gets the
    # hits of one that draws every edge's uniform up front
    trials = 30
    for radius in range(6):
        b = ball(parse_group_spec(spec), radius)
        boundary = [d == radius for d in b.dist]
        hits = _hits_full(b, p, trials, 11, boundary)
        assert crossing_probability(b, p, trials, 11).value == hits / trials
        for x in {0, 1 % b.n_vertices, b.n_vertices // 2, b.n_vertices - 1}:
            target = [v == x for v in range(b.n_vertices)]
            est, _ = two_point(b, p, x, trials, 12)
            assert est == binomial_estimate(_hits_full(b, p, trials, 12, target), trials)


@given(st.sampled_from(["Z*Z", "Z5*Z5", "Z2*Z3", "Z4*Z"]), st.integers(0, 4),
       st.floats(0.0, 1.0), st.integers(0, 10**6), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_early_stops_equal_whole_cluster(spec, radius, p, pick, seed):
    b = ball(parse_group_spec(spec), radius)
    x = pick % b.n_vertices
    trials = 20
    hits = sum(x in root_cluster(b, open_mask(b, p, seed, t))[0] for t in range(trials))
    est, _ = two_point(b, p, x, trials, seed)
    assert est.value == hits / trials
    touched = sum(root_cluster(b, open_mask(b, p, seed, t))[1] for t in range(trials))
    assert crossing_probability(b, p, trials, seed).value == touched / trials


# --- triangle diagram -------------------------------------------------------

def test_tree_triangle_closed_form():
    # d=4, p=1/3: independently derived tripod value 37/9
    assert tree_triangle_exact(4, 1 / 3) == pytest.approx(37 / 9)
    with pytest.raises(ValueError):
        tree_triangle_exact(4, 0.6)


def _pair_counts_oracle(b, max_dist):
    """The pair table by one word product per pair: counts[r1, r2, r] = #
    pairs (x, y) of the ball with |x| = r1, |y| = r2 and |x^{-1} y| = r."""
    spec = b.spec
    counts = np.zeros((b.radius + 1, b.radius + 1, max_dist + 1), dtype=np.int64)
    words = [b.word(v) for v in range(b.n_vertices)]
    inverses = [inverse(spec, w) for w in words]
    for i, wi in enumerate(inverses):
        for j, wj in enumerate(words):
            dij = word_length(spec, multiply(spec, wi, wj))
            if dij <= max_dist:
                counts[b.dist[i], b.dist[j], dij] += 1
    return counts


def test_triangle_truncation_approaches_closed_form():
    # an independent oracle for the tripod closed form: the triangle sum
    # over pairs of the radius-R ball with d(x, y) <= R, tau = p^dist on
    # a tree, rises towards 37/9 from below
    p = 1 / 3
    target = tree_triangle_exact(4, p)
    vals = []
    for R in (2, 3, 4):
        counts = _pair_counts_oracle(ball(F2, R), R)
        vals.append(sum(int(c) * p ** (r1 + r2 + r)
                        for (r1, r2, r), c in np.ndenumerate(counts) if c))
    assert vals[0] < vals[1] < vals[2] < target
    # pinned values of this truncated sum
    assert vals == pytest.approx([3.25514, 3.73251, 3.95321], abs=5e-6)


# --- non-uniqueness witness -------------------------------------------------

def test_oracle_witness_radius():
    assert oracle_witness_radius(4, 0.4) == 2
    assert oracle_witness_radius(4, 0.3) is None  # subcritical


def test_nonuniqueness_witness_structure():
    out = nonuniqueness_witness(F2, 0.4, r_max=3, trials=300, seed=1,
                                theta_radius=6)
    assert [e["R"] for e in out["entries"]] == [1, 2, 3]
    for e in out["entries"]:
        assert e["two_point_exact"] == pytest.approx(0.4 ** e["R"])
        assert e["margin"] >= e["margin_lo"]
    if out["conclusive"]:
        first = out["first_positive_R"]
        assert out["entries"][first - 1]["margin_lo"] > 0


# --- exponents --------------------------------------------------------------

def test_cluster_size_tail_slope():
    ns, curve, fit = cluster_size_tail(F2, 1 / 3, n_max=2000, trials=20_000, seed=3)
    assert len(ns) == len(curve)
    assert curve[0] == 1.0
    assert not fit.rejected
    assert fit.within(0.1)  # acceptance runs the tighter full-budget version


def test_cluster_size_tail_tree_only():
    with pytest.raises(NotImplementedError):
        cluster_size_tail(Z5Z5, 0.3, 100, 100, 0)


def test_susceptibility_matches_oracle():
    rows = susceptibility(F2, [0.2, 0.25], trials=20_000, seed=4)
    for p, est, se in rows:
        assert abs(est.value - branching.mean_cluster_size(4, p)) < 3 * se


def test_susceptibility_guards():
    with pytest.raises(NotImplementedError):
        susceptibility(Z5Z5, [0.2], 10, 0)
    with pytest.raises(RuntimeError):
        susceptibility(F2, [0.5], trials=2000, seed=0, n_cap=100)


def test_fit_gamma_and_beta():
    gamma = fit_gamma(F2, [0.25, 0.27, 0.29, 0.31], pc=1 / 3)
    assert gamma.within(0.1)
    # theta is concave in p, so the slope only reaches 1 near criticality
    near_pc = [1 / 3 + g for g in np.geomspace(1e-4, 1e-2, 8)]
    beta = fit_beta(F2, near_pc, pc=1 / 3)
    assert beta.within(0.1)
    far = fit_beta(F2, [0.36, 0.39, 0.42, 0.45], pc=1 / 3)
    assert 0.5 < far.slope < 1.0  # concavity pulls the far-window slope down
