"""Percolation estimators cross-checked against the branching oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthlab import branching
from girthlab.groups import ball, inverse, multiply, parse_group_spec, word_length
from girthlab.percolation import (
    UnionFind,
    _pairwise_distance_counts,
    cluster_partition,
    cluster_size_tail,
    crossing_probability,
    estimate_pc,
    fit_beta,
    fit_gamma,
    nonuniqueness_witness,
    open_mask,
    oracle_witness_radius,
    root_cluster,
    susceptibility,
    theta_curve,
    tree_triangle_exact,
    triangle_diagram,
    two_point,
)

F2 = parse_group_spec("Z*Z")
Z5Z5 = parse_group_spec("Z5*Z5")


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


def test_open_mask_deterministic_and_monotone():
    b = ball(Z5Z5, 4)
    m1 = open_mask(b, 0.3, seed=5, trial=2)
    m2 = open_mask(b, 0.3, seed=5, trial=2)
    assert np.array_equal(m1, m2)
    assert len(m1) == b.n_edges
    # shared uniforms couple the masks monotonically in p
    lo = open_mask(b, 0.2, seed=5, trial=2)
    hi = open_mask(b, 0.6, seed=5, trial=2)
    assert (~lo | hi).all()


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
    # also accepts the word itself
    est2, _ = two_point(b, 0.5, b.words[x], trials=10, seed=4)
    assert est2.trials == 10


def test_theta_curve_decreasing():
    curve = theta_curve(F2, 0.45, [1, 2, 3, 4], trials=400, seed=6)
    vals = [e.value for _, e in curve]
    assert all(a >= b - 0.05 for a, b in zip(vals, vals[1:]))


def test_estimate_pc_tree_brackets_exact_value():
    est = estimate_pc(F2, radius=5, trials=300, seed=2, tol=0.02)
    assert est.lo < est.hi
    assert est.lo <= 1 / 3 + 0.06 and est.hi >= 1 / 3 - 0.06
    assert 0.0 <= est.lo and est.hi <= 1.0


def test_estimate_pc_validation():
    with pytest.raises(ValueError):
        estimate_pc(F2, 3, 10, 0, theta_star=1.0)


# --- triangle diagram -------------------------------------------------------

def test_tree_triangle_closed_form():
    # d=4, p=1/3: independently derived tripod value 37/9
    assert tree_triangle_exact(4, 1 / 3) == pytest.approx(37 / 9)
    with pytest.raises(ValueError):
        tree_triangle_exact(4, 0.6)


def test_triangle_truncation_approaches_closed_form():
    target = tree_triangle_exact(4, 1 / 3)
    vals = [triangle_diagram(F2, 1 / 3, R, method="exact-tree").value
            for R in (2, 3, 4, 5)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < target
    assert target - vals[-1] < 0.25


def test_triangle_certification():
    res = triangle_diagram(F2, 1 / 3, 3, method="exact-tree", rho_ub=math.sqrt(3) / 2)
    assert res.certified and res.tail_bound < math.inf
    assert res.upper == res.value + res.tail_bound
    res2 = triangle_diagram(F2, 1 / 3, 3, method="exact-tree")
    assert not res2.certified and res2.tail_bound == math.inf


@pytest.mark.parametrize("p, rho_ub", [(-0.1, 0.9), (1.5, 0.9), (0.1, 1.5), (0.1, 0.0)])
def test_triangle_rejects_bad_p_and_rho(p, rho_ub):
    with pytest.raises(ValueError):
        triangle_diagram(F2, p, 3, method="exact-tree", rho_ub=rho_ub)


def test_triangle_mc_agrees_with_exact_on_tree():
    exact = triangle_diagram(F2, 0.3, 3, method="exact-tree").value
    mc = triangle_diagram(F2, 0.3, 3, method="mc", trials=800, seed=5).value
    assert mc == pytest.approx(exact, rel=0.15)


def _pair_counts_oracle(b, max_dist):
    """The pair table by one word product per pair: |x^{-1} y| for all (x, y)."""
    spec = b.spec
    counts = np.zeros((b.radius + 1, b.radius + 1, max_dist + 1), dtype=np.int64)
    inverses = [inverse(spec, w) for w in b.words]
    for i, wi in enumerate(inverses):
        for j, wj in enumerate(b.words):
            dij = word_length(spec, multiply(spec, wi, wj))
            if dij <= max_dist:
                counts[b.dist[i], b.dist[j], dij] += 1
    return counts


@pytest.mark.parametrize("spec, radius, max_dist", [
    ("Z*Z", 5, 5),
    ("Z5*Z5", 4, 4),
    ("Z5*Z5", 6, 6),
    ("Z2*Z3*Z4", 4, 4),
    ("Z*Z5", 4, 3),
    ("Z3*Z", 5, 5),
    ("Z2*Z2*Z2", 4, 4),
    ("Z4*Z4", 4, 8),
    ("Z*Z", 0, 0),
])
def test_pairwise_distance_counts_match_word_products(spec, radius, max_dist):
    b = ball(parse_group_spec(spec), radius)
    got = _pairwise_distance_counts(b, max_dist)
    assert got.dtype == np.int64
    assert np.array_equal(got, _pair_counts_oracle(b, max_dist))


def test_triangle_method_validation():
    with pytest.raises(ValueError):
        triangle_diagram(Z5Z5, 0.3, 3, method="exact-tree")
    with pytest.raises(ValueError):
        triangle_diagram(F2, 0.3, 3, method="mc", trials=0)
    with pytest.raises(ValueError):
        triangle_diagram(F2, 0.3, 3, method="bogus")


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
