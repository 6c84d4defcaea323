"""Self-avoiding-walk census, Rosenbluth sampling and generating functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthlab.groups import append_syllable, parse_group_spec, word_length
from girthlab.saw import (
    bubble_diagram,
    connective_constant,
    enumerate_saw,
    green_function,
    low_displacement_mass,
    rosenbluth_sampler,
    saw_endpoint_law,
    speed_alpha,
    speed_exact,
    susceptibility_saw,
)

F2 = parse_group_spec("Z*Z")
Z5Z5 = parse_group_spec("Z5*Z5")
Z2CUBED = parse_group_spec("Z2*Z2*Z2")

# c_0..c_8 on Z5*Z5, frozen from the walk-by-walk DFS census
Z5Z5_COUNTS = [1, 4, 12, 36, 108, 320, 952, 2832, 8424]


def tree_counts(d, n):
    return 1 if n == 0 else d * (d - 1) ** (n - 1)


def test_census_tree_counts():
    for spec in (F2, Z2CUBED):
        census = enumerate_saw(spec, 8)
        assert census.counts == [tree_counts(spec.degree, n) for n in range(9)]


def test_census_z5z5_counts():
    census = enumerate_saw(Z5Z5, 8)
    assert census.counts == Z5Z5_COUNTS
    # strictly below the tree envelope once loops can close
    for n in range(5, 9):
        assert census.counts[n] < tree_counts(4, n)
    for n in range(5):
        assert census.counts[n] == tree_counts(4, n)


def test_census_endpoint_consistency():
    census = enumerate_saw(Z5Z5, 6)
    for n in range(7):
        assert sum(census.endpoint_counts[n].values()) == census.counts[n]
        law = census.endpoint_law(n)
        assert sum(law.values()) == pytest.approx(1.0)
        assert census.sup_endpoint_probability(n) == max(law.values())


def test_census_tree_endpoints_unique():
    census = enumerate_saw(F2, 6)
    for n in range(7):
        # on a tree a SAW is a geodesic ray: every endpoint reached once
        assert set(census.endpoint_counts[n].values()) == {1}
        assert census.mean_endpoint_distance(n) == n


def dfs_census(spec, n_max):
    """The walk-by-walk DFS census on tuple words: the oracle for the
    block-tree recursion of `enumerate_saw`."""
    counts = [0] * (n_max + 1)
    endpoint_counts = [{} for _ in range(n_max + 1)]
    gens = spec.generators()
    visited = set()

    def dfs(w, depth):
        counts[depth] += 1
        ec = endpoint_counts[depth]
        ec[w] = ec.get(w, 0) + 1
        if depth == n_max:
            return
        visited.add(w)
        for f, e in gens:
            nxt = append_syllable(spec, w, f, e)
            if nxt not in visited:
                dfs(nxt, depth + 1)
        visited.discard(w)

    dfs((), 0)
    return counts, endpoint_counts


@pytest.mark.parametrize("text", ["Z*Z", "Z5*Z5", "Z2*Z2*Z2", "Z2*Z3*Z4", "Z*Z5", "Z3*Z",
                                  "Z3*Z3", "Z4*Z4", "Z7*Z7", "Z5", "Z"])
def test_census_matches_dfs_oracle(text):
    spec = parse_group_spec(text)
    for n_max in range(9):
        census = enumerate_saw(spec, n_max)
        counts, endpoint_counts = dfs_census(spec, n_max)
        assert census.n_max == n_max
        assert census.counts == counts
        # dict equality: endpoint order is not part of the census
        assert census.endpoint_counts == endpoint_counts


def test_census_validation():
    with pytest.raises(ValueError):
        enumerate_saw(F2, -1)


def test_connective_constant_bounds():
    census = enumerate_saw(Z5Z5, 8)
    mu = connective_constant(census)
    assert mu.best_upper == min(mu.sequence)
    assert mu.tree_exact is None
    assert mu.mu_hat == mu.best_upper
    assert 3.0 < mu.best_upper < 4.0
    tree_mu = connective_constant(enumerate_saw(F2, 8))
    assert tree_mu.tree_exact == 3.0
    assert tree_mu.mu_hat == 3.0
    # c_n^{1/n} = (d (d-1)^{n-1})^{1/n} decreases toward d-1 = 3
    assert tree_mu.sequence == sorted(tree_mu.sequence, reverse=True)
    assert tree_mu.sequence[-1] == pytest.approx(3 * (4 / 3) ** (1 / 8))


# --- endpoint law and speed -------------------------------------------------

def test_endpoint_decay_tree():
    census = enumerate_saw(F2, 8)
    decay = saw_endpoint_law(census, rho_ub=math.sqrt(3) / 2)
    assert decay.bound_applies
    assert decay.bound_base < 1.0
    assert decay.fitted_rate < 0
    # envelope really dominates: sup prob <= C * base^n
    for n, v in decay.sup_probs:
        assert v <= decay.bound_constant * decay.bound_base**n * (1 + 1e-12)


def test_endpoint_decay_without_rho():
    decay = saw_endpoint_law(enumerate_saw(F2, 5))
    assert not decay.bound_applies
    assert math.isnan(decay.bound_base)


def test_endpoint_decay_base_too_large():
    decay = saw_endpoint_law(enumerate_saw(F2, 5), rho_ub=0.999, eps=0.5)
    assert not decay.bound_applies
    assert decay.bound_base >= 1.0


def test_speed_exact():
    census = enumerate_saw(F2, 8)
    for n in range(1, 9):
        assert speed_exact(census, n) == 1.0
    census5 = enumerate_saw(Z5Z5, 8)
    s = speed_exact(census5, 8)
    assert 0.8 < s < 1.0
    with pytest.raises(ValueError):
        speed_exact(census5, 9)


def test_low_displacement_mass():
    census = enumerate_saw(Z5Z5, 8)
    assert low_displacement_mass(census, 8, 1.0) == 1.0
    assert low_displacement_mass(census, 8, 0.0) == 0.0
    m = low_displacement_mass(census, 8, 0.5)
    assert 0.0 <= m < 0.5


def test_speed_alpha():
    a = speed_alpha(4, math.sqrt(3) / 2, 1 / 3)
    assert a > 0
    with pytest.raises(ValueError):
        speed_alpha(4, 0.999, 1 / 3, eps=0.5)


# --- Rosenbluth -------------------------------------------------------------

def test_rosenbluth_unbiased_on_tree():
    # on a tree every step has exactly d-1 continuations: zero variance
    res = rosenbluth_sampler(F2, 6, trials=50, seed=1)
    assert res.dead_ends == 0
    assert (res.weights == 4 * 3**5).all()
    assert (res.endpoint_dists == 6).all()
    assert res.speed_estimate == 1.0


def test_rosenbluth_unbiased_on_z5z5():
    census = enumerate_saw(Z5Z5, 8)
    res = rosenbluth_sampler(Z5Z5, 8, trials=3000, seed=2)
    est = res.c_n_estimate
    se = res.weights.std(ddof=1) / math.sqrt(len(res.weights))
    assert abs(est.value - census.counts[8]) < 3 * se


def test_rosenbluth_deterministic():
    a = rosenbluth_sampler(Z5Z5, 6, 100, seed=3)
    b = rosenbluth_sampler(Z5Z5, 6, 100, seed=3)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.endpoint_dists, b.endpoint_dists)
    with pytest.raises(ValueError):
        rosenbluth_sampler(F2, 0, 10, 0)


# --- generating functions ---------------------------------------------------

def test_green_function_tree_chi():
    z = 0.2
    g = green_function(F2, z, truncation=30)
    closed = 1 + 4 * z / (1 - 3 * z)
    assert g.chi + g.chi_tail >= closed - 1e-12
    assert g.chi <= closed
    assert g.certified
    assert closed - g.chi < 1e-6  # truncation 30 at z=0.2 is tiny


def test_green_function_census_matches_tree():
    census = enumerate_saw(F2, 8)
    z = 0.25
    g_census = green_function(F2, z, 8, census=census, rho_ub=math.sqrt(3) / 2)
    g_tree = green_function(F2, z, 8, rho_ub=math.sqrt(3) / 2)
    assert g_census.chi == pytest.approx(g_tree.chi)
    assert g_census.vertex_tail == pytest.approx(g_tree.vertex_tail)
    # per-endpoint values on the tree are z^{|x|}
    for x, v in g_census.values.items():
        assert v == pytest.approx(z ** word_length(F2, x))


def test_green_function_validation():
    with pytest.raises(ValueError):
        green_function(F2, -0.1, 5)
    with pytest.raises(ValueError):
        green_function(Z5Z5, 0.2, 5)  # non-tree needs census
    census = enumerate_saw(Z5Z5, 4)
    with pytest.raises(ValueError):
        green_function(Z5Z5, 0.2, 5, census=census)


def test_green_function_uncertified_beyond_radius():
    g = green_function(F2, 0.4, 10)  # z(d-1) > 1
    assert not g.certified
    assert g.chi_tail == math.inf


def test_susceptibility_ratio_tree_closed_form():
    rows = susceptibility_saw(F2, [0.0, 0.1, 0.2, 0.3], truncation=10)
    for r in rows:
        z = r["z"]
        assert r["ratio_lo"] == pytest.approx(1 / 3 + z / 3)
        assert r["certified"]
    with pytest.raises(ValueError):
        susceptibility_saw(F2, [0.34], truncation=10)


def test_susceptibility_ratio_census_bounded():
    census = enumerate_saw(Z5Z5, 8)
    mu_inv = 1.0 / connective_constant(census).mu_hat
    zs = [0.0, 0.5 * mu_inv, 0.9 * mu_inv]
    rows = susceptibility_saw(Z5Z5, zs, truncation=8, census=census)
    for r in rows:
        assert r["certified"]
        assert 0 < r["ratio_lo"] <= r["ratio_hi"] < math.inf


@pytest.mark.parametrize("text", ["Z5*Z5", "Z2*Z3*Z4"])
def test_susceptibility_census_matches_green_function(text):
    spec = parse_group_spec(text)
    census = enumerate_saw(spec, 8)
    mu_inv = 1.0 / connective_constant(census).mu_hat
    zs = [0.0, 0.3 * mu_inv, 0.5 * mu_inv, 0.9 * mu_inv]
    for truncation in (0, 5, 8):
        rows = susceptibility_saw(spec, zs, truncation, census=census)
        for z, r in zip(zs, rows):
            g = green_function(spec, z, truncation, census=census)
            # bit-equal: the same sum in the same order
            assert r["chi"] == g.chi
            assert r["tail"] == g.chi_tail
            assert r["certified"] == g.certified
    with pytest.raises(ValueError):
        susceptibility_saw(spec, [0.1], 9, census=census)
    with pytest.raises(ValueError):
        susceptibility_saw(spec, [0.1], 5, mu_hat=3.0)


# --- bubble -----------------------------------------------------------------

def pair_intersection_bubble(census, z, truncation):
    """The census bubble sum as one dict intersection per (n, m) pair."""
    value = 0.0
    for n in range(truncation + 1):
        for m in range(truncation + 1):
            ec_n = census.endpoint_counts[n]
            ec_m = census.endpoint_counts[m]
            small, big = (ec_n, ec_m) if len(ec_n) <= len(ec_m) else (ec_m, ec_n)
            overlap = sum(c * big[x] for x, c in small.items() if x in big)
            value += overlap * z ** (n + m)
    return value


@pytest.mark.parametrize("text", ["Z5*Z5", "Z*Z5", "Z2*Z3*Z4"])
def test_bubble_census_matches_pair_intersections(text):
    spec = parse_group_spec(text)
    census = enumerate_saw(spec, 8)
    mu_inv = 1.0 / connective_constant(census).mu_hat
    for truncation in range(9):
        for z in (0.5 * mu_inv, mu_inv, 0.3):
            res = bubble_diagram(spec, z, truncation, census=census, rho_ub=0.95)
            assert res.value == pair_intersection_bubble(census, z, truncation)

def test_bubble_tree_value():
    res = bubble_diagram(F2, 1 / 3, 40)
    assert res.method == "exact-tree"
    assert res.certified
    # sphere-sum oracle: 1 + sum 4*3^(r-1) (1/9)^r = 5/3
    assert res.value == pytest.approx(5 / 3, abs=1e-12)
    assert res.tail_bound < 1e-18


def test_bubble_tree_uncertified_when_divergent():
    res = bubble_diagram(F2, 0.7, 10)
    assert not res.certified and res.tail_bound == math.inf


def test_bubble_census_matches_tree():
    census = enumerate_saw(F2, 8)
    z = 0.3
    tree = bubble_diagram(F2, z, 8)
    cen = bubble_diagram(F2, z, 8, census=census, rho_ub=math.sqrt(3) / 2)
    assert cen.method == "census"
    assert cen.certified
    # same truncated sum: on a tree the only (n, m) overlap is n = m = |x|
    assert cen.value == pytest.approx(tree.value)


def test_bubble_census_z5z5():
    census = enumerate_saw(Z5Z5, 8)
    mu_hat = connective_constant(census).mu_hat
    res = bubble_diagram(Z5Z5, 1 / mu_hat, 8, census=census, rho_ub=0.95)
    assert res.value > 1.0
    assert res.certified == (1 / mu_hat * 3 * 0.95 < 1.0)


def test_bubble_validation():
    with pytest.raises(ValueError):
        bubble_diagram(Z5Z5, 0.2, 5)


def test_bubble_rejects_negative_z_and_bad_rho():
    census = enumerate_saw(Z5Z5, 4)
    with pytest.raises(ValueError):
        bubble_diagram(Z5Z5, -0.5, 4, census=census, rho_ub=0.9)
    with pytest.raises(ValueError):
        bubble_diagram(F2, -0.1, 4)
    with pytest.raises(ValueError):
        bubble_diagram(Z5Z5, 0.2, 4, census=census, rho_ub=1.5)
    with pytest.raises(ValueError):
        bubble_diagram(Z5Z5, 0.2, 9, census=enumerate_saw(Z5Z5, 8), rho_ub=0.9)
