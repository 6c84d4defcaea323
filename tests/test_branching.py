"""Branching-process oracle: the independent ground truth for tree percolation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthlab.branching import (
    _branch_survival_bisection,
    branch_survival,
    critical_probability,
    crossing_probability_exact,
    estimate_pc_exact,
    mean_cluster_size,
    survival_probability,
    tail_curve,
    total_progeny_samples,
)

# theta(0.4) on the 4-regular tree, frozen after the two independent
# fixed-point methods agreed to 1e-12
THETA_04_D4 = 0.541502622132807


def test_crossing_probability_edge_cases():
    assert crossing_probability_exact(4, 0.7, 0) == 1.0
    assert crossing_probability_exact(4, 0.0, 3) == 0.0
    assert crossing_probability_exact(4, 1.0, 5) == 1.0
    # one level: any of the d root edges open
    assert crossing_probability_exact(4, 0.3, 1) == pytest.approx(1 - 0.7**4)


def test_crossing_decreases_in_radius():
    vals = [crossing_probability_exact(4, 0.4, r) for r in range(1, 12)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # supercritical: converges to theta(p), not to zero
    assert vals[-1] > survival_probability(4, 0.4) - 1e-6


def test_crossing_converges_to_survival():
    for d, p in ((4, 0.4), (3, 0.6)):
        limit = survival_probability(d, p)
        assert crossing_probability_exact(d, p, 200) == pytest.approx(limit, abs=1e-9)


def test_survival_zero_at_and_below_critical():
    assert branch_survival(4, 1 / 3) == 0.0
    assert branch_survival(4, 0.2) == 0.0
    assert survival_probability(3, 0.5) == 0.0


def test_survival_methods_agree():
    for d, p in ((4, 0.4), (4, 0.35), (3, 0.6), (3, 0.9)):
        a = branch_survival(d, p)
        b = _branch_survival_bisection(d, p)
        assert a == pytest.approx(b, abs=1e-9)
        assert 0 < a < 1


def test_survival_frozen_value():
    assert survival_probability(4, 0.4) == pytest.approx(THETA_04_D4, abs=1e-10)


def test_survival_rejects_bad_input():
    with pytest.raises(ValueError):
        branch_survival(4, 1.5)


@given(st.integers(3, 6), st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_survival_fixed_point_property(d, p):
    tb = branch_survival(d, p)
    assert 0.0 <= tb <= 1.0
    assert abs(tb - (1 - (1 - p * tb) ** (d - 1))) < 1e-9 or tb == 0.0


def test_mean_cluster_size_closed_form():
    # 1 + d p / (1 - (d-1) p)
    assert mean_cluster_size(4, 0.25) == pytest.approx(1 + 1 / 0.25)
    assert mean_cluster_size(4, 0.2) == pytest.approx(3.0)
    assert mean_cluster_size(4, 1 / 3) == math.inf
    assert mean_cluster_size(3, 0.6) == math.inf


def test_critical_probability_and_pc_interval():
    assert critical_probability(4) == pytest.approx(1 / 3)
    for d in (3, 4):
        lo, hi = estimate_pc_exact(d)
        assert hi - lo < 1e-8
        assert lo <= critical_probability(d) <= hi


def test_pc_interval_matches_survival_bisection():
    # the bisection as it ran on the survival oracle itself
    def bisect(d, tol):
        lo, hi = 0.0, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if survival_probability(d, mid) > 0.0:
                hi = mid
            else:
                lo = mid
        return lo, hi

    for d in (3, 4, 5):
        assert estimate_pc_exact(d, tol=1e-6) == bisect(d, 1e-6)


# --- total progeny sampler --------------------------------------------------

def test_progeny_deterministic_and_prefix_stable():
    a = total_progeny_samples(4, 0.25, 1000, trials=5000, seed=7)
    b = total_progeny_samples(4, 0.25, 1000, trials=5000, seed=7)
    assert np.array_equal(a, b)
    # fixed chunking: the first chunk is independent of the total trial count
    c = total_progeny_samples(4, 0.25, 1000, trials=4096, seed=7)
    assert np.array_equal(a[:4096], c)
    d = total_progeny_samples(4, 0.25, 1000, trials=5000, seed=8)
    assert not np.array_equal(a, d)


def test_progeny_subcritical_mean_matches_oracle():
    sizes = total_progeny_samples(4, 0.25, 100_000, trials=40_000, seed=1)
    assert not (sizes > 100_000).any()
    m = sizes.mean()
    se = sizes.std(ddof=1) / math.sqrt(len(sizes))
    assert abs(m - mean_cluster_size(4, 0.25)) < 3 * se


def test_progeny_censoring():
    sizes = total_progeny_samples(4, 0.9, n_max=50, trials=2000, seed=2)
    assert sizes.max() == 51  # censored marker
    assert (sizes >= 1).all()
    frac_censored = (sizes == 51).mean()
    assert frac_censored > survival_probability(4, 0.9) - 0.05


def test_progeny_p_zero_and_validation():
    sizes = total_progeny_samples(4, 0.0, 10, trials=100, seed=0)
    assert (sizes == 1).all()
    with pytest.raises(ValueError):
        total_progeny_samples(4, 0.5, 10, trials=0, seed=0)
    with pytest.raises(ValueError):
        total_progeny_samples(4, 0.5, -1, trials=10, seed=0)


def test_progeny_p_one_and_zero_cap():
    # p = 1: the tree is infinite, so every sample is censored
    sizes = total_progeny_samples(4, 1.0, 1000, trials=5000, seed=3)
    assert (sizes == 1001).all()
    # n_max = 0: every cluster has the root, so every sample is 1 = n_max + 1
    for p in (0.0, 0.25, 1.0):
        assert (total_progeny_samples(3, p, 0, trials=5000, seed=4) == 1).all()


def cluster_size_law(d, p, n):
    """P(|C| = n) on the d-regular tree, exactly (Fisher-Essam): rooted
    subtrees of n vertices times the probability that exactly their
    n - 1 edges and none of their (d-2)n + 2 boundary edges are open."""
    p = Fraction(p)
    return (Fraction(d, (d - 2) * n + 2) * math.comb((d - 1) * n, n - 1)
            * p ** (n - 1) * (1 - p) ** ((d - 2) * n + 2))


def test_cluster_size_law_sums_to_one_below_pc():
    # subcritical: no infinite cluster, so the law has total mass 1
    assert float(sum(cluster_size_law(4, 0.25, n) for n in range(1, 1000))) == \
        pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d,p", [(3, 0.5), (3, 0.25), (4, 1 / 3), (4, 0.25)])
def test_progeny_matches_exact_cluster_size_law(d, p):
    n_max, trials = 12, 40_000
    sizes = total_progeny_samples(d, p, n_max, trials=trials, seed=17)
    assert sizes.min() >= 1 and sizes.max() <= n_max + 1
    censored = 1 - float(sum(cluster_size_law(d, p, n) for n in range(1, n_max + 1)))
    cases = [(float(cluster_size_law(d, p, n)), np.mean(sizes == n))
             for n in (1, 2, 3, 4, 5, n_max)]
    cases.append((censored, np.mean(sizes == n_max + 1)))
    for prob, freq in cases:
        se = math.sqrt(prob * (1 - prob) / trials)
        assert abs(freq - prob) <= 4 * se, (prob, freq, se)


def test_tail_curve():
    sizes = np.array([1, 1, 2, 5, 10])
    ns = np.array([1, 2, 5, 6, 11])
    assert tail_curve(sizes, ns) == pytest.approx([1.0, 0.6, 0.4, 0.2, 0.0])
