"""Branching-process oracle: the independent ground truth for tree percolation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthlab.branching import (
    _PROGENY_CHUNK,
    branch_survival,
    critical_probability,
    crossing_probability_exact,
    mean_cluster_size,
    survival_probability,
    tail_curve,
    total_progeny_samples,
)
from girthlab.rng import trial_rng
from oracles import branch_survival_bisection

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
    # down to p - p_c = 1e-4, the smallest gap criterion 7's beta fit reads
    near = [(d, 1 / (d - 1) + 1e-4) for d in (4, 3, 6)]
    for d, p in [(4, 0.4), (4, 0.35), (3, 0.6), (3, 0.9)] + near:
        a = branch_survival(d, p)
        b = branch_survival_bisection(d, p)
        assert a == pytest.approx(b, abs=1e-11)
        assert 0 < a < 1
    # closer in, float cancellation in f = 1 - (1-pt)^(d-1) - t, whose
    # slope at the root is about -(d-1)(p - p_c), leaves the float Newton
    # root off the exact one by 5.8e-9, 6.1e-8 and 2.8e-8 (d = 3, 4, 6)
    # at 1e-5, and by 9.0e-6, 4.5e-6 and 2.7e-6 at 1e-6, relatively
    for gap, rel in ((1e-5, 3e-7), (1e-6, 3e-5)):
        for d in (3, 4, 6):
            a = branch_survival(d, 1 / (d - 1) + gap)
            b = branch_survival_bisection(d, 1 / (d - 1) + gap)
            assert a == pytest.approx(b, rel=rel) and 0 < a < 1


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
    # the closed form 1/(d-1) is the edge of the survival oracle's
    # supercritical phase: theta vanishes there and is positive just above
    for d in (3, 4, 5, 6):
        pc = critical_probability(d)
        assert pc == 1 / (d - 1)
        assert survival_probability(d, pc) == 0.0
        assert survival_probability(d, pc + 1e-6) > 0.0


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


# --- the progeny loop against its first form ---------------------------------

def _total_progeny_reference(d, p, n_max, trials, seed):
    """`total_progeny_samples` as first written: every generation compacts
    the trials to the ones still alive before their next binomial draw."""
    chunk = _PROGENY_CHUNK
    out = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        rng = trial_rng(seed, start // chunk)
        idx = np.arange(start, stop)
        size = np.ones(stop - start, dtype=np.int64)
        frontier = rng.binomial(d, p, size=stop - start)
        while idx.size:
            size += frontier
            capped = size > n_max
            ended = (frontier == 0) & ~capped
            out[idx[capped]] = n_max + 1
            out[idx[ended]] = size[ended]
            alive = ~(capped | ended)
            idx, size = idx[alive], size[alive]
            frontier = rng.binomial((d - 1) * frontier[alive], p)
    return out


@pytest.mark.parametrize("d,p,n_max,trials,seed", [
    (4, 1 / 3, 10**4, 10**5, 123),  # the critical benchmark call
    (4, 1 / 3, 10**4, 10**5, 9),
    (3, 0.7, 500, 6000, 1),  # supercritical: most trials hit the cap
    (4, 0.0, 50, 3000, 2),
    (4, 1.0, 50, 3000, 2),
    (3, 0.25, 0, 3000, 4),
    (3, 0.5, 200, 4097, 5),  # one row past a whole chunk
    (4, 1 / 3, 200, 10, 6),
])
def test_progeny_equals_compacting_reference(d, p, n_max, trials, seed):
    got = total_progeny_samples(d, p, n_max, trials, seed)
    want = _total_progeny_reference(d, p, n_max, trials, seed)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_binomial_with_zero_trials_draws_nothing():
    # the progeny loop keeps finished trials as rows with n = 0: this holds
    # only while numpy's binomial returns 0 for them without a draw, so that
    # the live rows' values and the stream's end point do not move
    n = np.array([5, 40, 3, 1, 90, 7])
    with_zeros = np.zeros(3 * n.size, dtype=n.dtype)
    with_zeros[1::3] = n
    for p in (0.3, 0.5, 0.9, 1.0):
        a, b = trial_rng(8, 1), trial_rng(8, 1)
        plain, padded = a.binomial(n, p), b.binomial(with_zeros, p)
        assert np.array_equal(padded[1::3], plain)
        assert not padded[0::3].any() and not padded[2::3].any()
        assert a.random(4).tobytes() == b.random(4).tobytes()
