"""Self-avoiding-walk census, Rosenbluth sampling and generating functions."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from girthlab import blocks
from girthlab.cli import main
from girthlab.groups import parse_group_spec
from girthlab.kernels import kesten_rho
from girthlab.saw import (
    CENSUS_N_MAX,
    bubble_diagram,
    connective_constant,
    enumerate_saw,
    rosenbluth_sampler,
    speed_exact,
    susceptibility_saw,
)
from girthlab.verify import Bracket, check_endpoint_decay, point
from oracles import (
    append_syllable,
    census_bubble,
    census_classes,
    census_chi_bracket,
    renewal_series,
    sup_endpoint_probability,
    tree_sphere_size,
    word_length,
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
    # the endpoint sup, read off the endpoint words, is the class census's
    # largest c_n(x)
    census, classes = enumerate_saw(Z5Z5, 6), census_classes(Z5Z5, 6)
    for n in range(7):
        assert sum(census.endpoint_counts[n].values()) == census.counts[n]
        assert (sup_endpoint_probability(census, n)
                == max(poly[n] for _, poly in classes if n in poly) / census.counts[n])


@pytest.mark.parametrize("n", [-1, 4])
def test_sup_endpoint_probability_range(n):
    census = enumerate_saw(Z5Z5, 3)
    with pytest.raises(ValueError, match="census range"):
        sup_endpoint_probability(census, n)


def test_census_tree_endpoints_unique():
    census = enumerate_saw(F2, 6)
    for n in range(7):
        # on a tree a SAW is a geodesic ray: every endpoint reached once
        assert set(census.endpoint_counts[n].values()) == {1}
    assert [speed_exact(census, n) for n in range(1, 7)] == [1.0] * 6


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
        # the class census's classes partition the endpoint words and carry
        # their counts
        classes = census_classes(spec, n_max)
        words = set().union(*census.endpoint_counts)
        assert sum(size for size, _ in classes) == len(words)
        for n in range(n_max + 1):
            from_classes = Counter()
            for size, poly in classes:
                if n in poly:
                    from_classes[poly[n]] += size
            assert from_classes == Counter(census.endpoint_counts[n].values())
        # the distance sums are the endpoint words' lengths
        for n in range(1, n_max + 1):
            if census.counts[n] == 0:  # Z5 has no SAW longer than 4
                continue
            total = sum(c * word_length(spec, x) for x, c in census.endpoint_counts[n].items())
            assert census.distance_sums[n] == total
            assert speed_exact(census, n) == total / census.counts[n] / n


def test_census_z5z5_n12():
    census = enumerate_saw(Z5Z5, 12)
    assert census.counts == [1, 4, 12, 36, 108, 320, 952, 2832, 8424, 25056, 74528,
                             221680, 659376]
    assert [len(ec) for ec in census.endpoint_counts] == [
        1, 4, 12, 36, 108, 304, 872, 2464, 6936, 19376, 53920, 149456, 413104]


def test_census_builds_no_words():
    # the counts, mu and speed read the renewal digits alone;
    # `endpoint_counts`, the only place words are built, is cached in the
    # instance on its first read, which the endpoint-sup oracle is
    census = enumerate_saw(Z5Z5, 8)
    fresh = enumerate_saw(Z5Z5, 8)
    connective_constant(fresh)
    speed_exact(fresh, 8)
    assert "endpoint_counts" not in vars(fresh)
    sup_endpoint_probability(fresh, 8)
    assert "endpoint_counts" in vars(fresh)
    # built on first read, then kept; it matches the walk-by-walk oracle
    assert fresh.endpoint_counts == dfs_census(Z5Z5, 8)[1]
    assert fresh.endpoint_counts is fresh.endpoint_counts
    # equality and repr ignore whether the words have been built
    assert "endpoint_counts" not in vars(census)
    assert census == fresh and repr(census) == repr(fresh)
    assert census != enumerate_saw(Z5Z5, 7)


def test_census_validation():
    with pytest.raises(ValueError):
        enumerate_saw(F2, -1)
    # past the ceiling a census value would take gigabytes: refused before
    # `blocks.series` runs; at the ceiling it runs (here stubbed)
    with pytest.raises(ValueError, match=r"n_max must be in \[0, 4000\], got 4001"):
        enumerate_saw(F2, CENSUS_N_MAX + 1)


def test_census_runs_at_the_ceiling(monkeypatch):
    monkeypatch.setattr(blocks, "series", lambda spec, n_max: ([n_max], [0]))
    assert enumerate_saw(Z5Z5, CENSUS_N_MAX).counts == [4000]


def test_connective_constant_bounds():
    census = enumerate_saw(Z5Z5, 8)
    mu = connective_constant(census)
    assert mu.best_upper == min(mu.sequence)
    assert 3.0 < mu.best_upper < 4.0
    tree_mu = connective_constant(enumerate_saw(F2, 8))
    # c_n^{1/n} = (d (d-1)^{n-1})^{1/n} decreases toward d-1 = 3
    assert tree_mu.sequence == sorted(tree_mu.sequence, reverse=True)
    assert tree_mu.sequence[-1] == pytest.approx(3 * (4 / 3) ** (1 / 8))


@pytest.mark.parametrize("spec", [F2, Z5Z5])
def test_connective_constant_needs_a_step(spec):
    with pytest.raises(ValueError, match="n_max >= 1"):
        connective_constant(enumerate_saw(spec, 0))


# --- endpoint law and speed -------------------------------------------------

def test_endpoint_decay_tree():
    # the endpoint_decay envelope against the census, at Kesten's rho and
    # the exact tree mu = d - 1
    for spec in (F2, Z2CUBED):
        d, rho = spec.degree, kesten_rho(spec.degree)
        entry = check_endpoint_decay(d, point(rho), point(d - 1))
        lam, const = entry.lhs.hi, d / ((d - 1) * (1 - rho))
        assert entry.status == "pass" and lam < 1
        census = enumerate_saw(spec, 8)
        for n in range(9):
            assert sup_endpoint_probability(census, n) <= const * lam**n


def test_endpoint_decay_without_rho():
    # a NaN upper end decides nothing; the certificate always has one
    entry = check_endpoint_decay(4, Bracket(kesten_rho(4), math.nan), point(3.0))
    assert entry.status == "inconclusive" and math.isnan(entry.lhs.hi)


def test_endpoint_decay_base_too_large():
    # (d-1) rho_ub above mu_lo: the envelope does not decay, which decides nothing
    entry = check_endpoint_decay(4, point(0.995), point(2.9))
    assert entry.lhs.hi > 1.0 and entry.status == "inconclusive"


def test_speed_exact():
    census = enumerate_saw(F2, 8)
    for n in range(1, 9):
        assert speed_exact(census, n) == 1.0
    census5 = enumerate_saw(Z5Z5, 8)
    s = speed_exact(census5, 8)
    assert 0.8 < s < 1.0
    with pytest.raises(ValueError):
        speed_exact(census5, 9)


@pytest.mark.parametrize("call", [
    lambda c: connective_constant(c),
    lambda c: speed_exact(c, 6),
    lambda c: sup_endpoint_probability(c, 5),
    ["saw", "--spec", "Z5", "--nmax", "6"],
    ["saw", "--spec", "Z5", "--nmax", "6", "--z-grid", "0.1"],
], ids=["connective_constant", "speed_exact", "sup_endpoint_probability", "cli",
        "cli-z-grid"])
def test_finite_factor_empty_length_is_a_value_error(call, tmp_path, capsys):
    # a single 5-cycle has no self-avoiding walk of length >= 5
    census = enumerate_saw(parse_group_spec("Z5"), 6)
    assert census.counts[4:] == [2, 0, 0]
    if callable(call):
        with pytest.raises(ValueError, match=r"length [56] on Z5: c_[56] = 0"):
            call(census)
    else:
        assert main(call + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no self-avoiding walk of length 5 on Z5")
        assert "Traceback" not in err and list(tmp_path.iterdir()) == []


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


def test_rosenbluth_rejects_no_trials():
    for trials in (0, -1):
        with pytest.raises(ValueError):
            rosenbluth_sampler(F2, 5, trials, 0)


def rosenbluth_law(spec, n):
    """Exact law of (weight, endpoint distance) under Rosenbluth growth,
    by a DFS over tuple words: a walk picks uniformly among the
    neighbours it has not visited, so a SAW (or a walk trapped after
    fewer than n steps, weight 0) has probability prod 1/k_i."""
    law = {}
    gens = spec.generators()

    def grow(w, visited, depth, weight, prob):
        if depth == n:
            key = (weight, word_length(spec, w))
            law[key] = law.get(key, 0.0) + prob
            return
        choices = [u for u in (append_syllable(spec, w, f, e) for f, e in gens)
                   if u not in visited]
        if not choices:
            key = (0, word_length(spec, w))
            law[key] = law.get(key, 0.0) + prob
            return
        for u in choices:
            visited.add(u)
            grow(u, visited, depth + 1, weight * len(choices), prob / len(choices))
            visited.discard(u)

    grow((), {()}, 0, 1, 1.0)
    return law


@pytest.mark.parametrize("text", ["Z5*Z5", "Z2*Z3*Z4", "Z3*Z", "Z4*Z4"])
def test_rosenbluth_exact_law(text):
    spec = parse_group_spec(text)
    trials = 50_000
    for n in range(1, 7):
        law = rosenbluth_law(spec, n)
        assert sum(law.values()) == pytest.approx(1.0)
        res = rosenbluth_sampler(spec, n, trials, seed=100 + n)
        pairs, freq = np.unique(np.stack([res.weights, res.endpoint_dists]),
                                axis=1, return_counts=True)
        seen = {(int(w), int(x)): c / trials for (w, x), c in zip(pairs.T, freq)}
        assert set(seen) <= set(law)
        for key, p in law.items():
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(seen.get(key, 0.0) - p) <= 4 * se, (text, n, key)
        assert res.dead_ends == sum(res.weights == 0)


@pytest.mark.parametrize("text", ["Z*Z", "Z2*Z2*Z2", "Z"])
def test_rosenbluth_tree_weights_exact(text):
    spec = parse_group_spec(text)
    d = spec.degree
    for n in (1, 7, 37, 40, 44):
        res = rosenbluth_sampler(spec, n, 300, seed=n)
        assert res.dead_ends == 0
        # the exact integer rounded once, not a running float product
        # (on Z*Z they differ at n = 37 and 44; n = 40 is 4 * 3**39)
        assert (res.weights == float(d * (d - 1) ** (n - 1))).all()
        assert (res.endpoint_dists == n).all()


def test_rosenbluth_single_cycle():
    z5 = parse_group_spec("Z5")
    res = rosenbluth_sampler(z5, 4, 200, seed=1)
    assert (res.weights == 2).all() and res.dead_ends == 0
    assert (res.endpoint_dists == 1).all()
    res = rosenbluth_sampler(z5, 5, 200, seed=1)
    assert (res.weights == 0).all() and res.dead_ends == 200
    assert (res.endpoint_dists == 1).all()


def test_rosenbluth_weight_overflow():
    with pytest.raises(OverflowError):
        rosenbluth_sampler(F2, 700, 3, seed=0)


def test_rosenbluth_prefix_stable():
    full = rosenbluth_sampler(Z5Z5, 10, 9000, seed=5)
    for t in (1, 100, 4096, 5000):
        part = rosenbluth_sampler(Z5Z5, 10, t, seed=5)
        assert np.array_equal(part.weights, full.weights[:t])
        assert np.array_equal(part.endpoint_dists, full.endpoint_dists[:t])
        assert part.dead_ends == sum(full.weights[:t] == 0)
    other = rosenbluth_sampler(Z5Z5, 10, 9000, seed=6)
    assert not np.array_equal(other.weights, full.weights)


# --- generating functions ---------------------------------------------------

def test_susceptibility_ratio_tree_closed_form():
    # chi = 1 + dz/(1-(d-1)z) exactly in Fractions, and z_c's bracket holds
    # the ratio chi(z) (1/(d-1) - z) = (1+z)/(d-1)
    for text in ("Z*Z", "Z*Z2", "Z2*Z2*Z2", "Z*Z*Z"):
        spec = parse_group_spec(text)
        d = spec.degree
        zs = [Fraction(0), Fraction(1, 2 * (d - 1)), Fraction(9, 10 * (d - 1))]
        for z, r in zip(zs, susceptibility_saw(spec, zs)):
            assert r["chi"] == (1 + z) / (1 - (d - 1) * z)
            assert r["ratio_lo"] < (1 + z) / (d - 1) < r["ratio_hi"]
    for r in susceptibility_saw(F2, [0.0, 0.1, 0.2, 0.3]):
        assert r["ratio_lo"] == pytest.approx(1 / 3 + r["z"] / 3)
    with pytest.raises(ValueError):
        susceptibility_saw(F2, [0.34])


def test_susceptibility_rejects_negative_z():
    for spec in (F2, Z5Z5):
        for z in (-0.5, math.nan):
            with pytest.raises(ValueError, match="z must be >= 0"):
                susceptibility_saw(spec, [0.1, z])


def test_susceptibility_ratio_bounded_off_trees():
    # the ratio stays positive and finite up to z_c's lower end, and a
    # Fraction z gives chi in Fractions
    lo, _ = blocks.critical_interval(Z5Z5, blocks.walks)
    zs = [f * float(lo) for f in (0.0, 0.5, 0.9, 0.999)]
    for r in susceptibility_saw(Z5Z5, zs):
        assert 0 < r["ratio_lo"] <= r["ratio_hi"] < math.inf
    [exact] = susceptibility_saw(Z5Z5, [Fraction(1, 5)])
    assert isinstance(exact["chi"], Fraction)
    assert float(exact["chi"]) == pytest.approx(susceptibility_saw(Z5Z5, [0.2])[0]["chi"])


@pytest.mark.parametrize("text", ["Z5*Z5", "Z2*Z3", "Z*Z5", "Z2*Z3*Z4"])
def test_susceptibility_tail_bounds_the_longer_sum(text):
    # chi lies between the 12-step sum and a 5-step census's sum plus its
    # submultiplicative tail, which never saw c_6..c_12; a 12-step census
    # of Z2*Z3*Z4 (4.2M walks at n = 11 alone) is too slow for tier 1, so
    # c_n comes from the renewal series, which test_blocks checks against
    # the census
    spec = parse_group_spec(text)
    counts, _ = renewal_series(spec, 12)
    short = enumerate_saw(spec, 5)
    assert counts[:6] == short.counts
    mu_inv = 1.0 / connective_constant(short).best_upper
    zs = [f * mu_inv for f in (0.3, 0.5, 0.9)]
    for z, r in zip(zs, susceptibility_saw(spec, zs)):
        head, bound = census_chi_bracket(short, z)
        assert head < sum(c * z**n for n, c in enumerate(counts)) <= r["chi"] <= bound


def test_susceptibility_validation():
    lo, hi = blocks.critical_interval(Z5Z5, blocks.walks)
    for z in (lo, hi, 0.5):
        with pytest.raises(ValueError, match="z_c's lower end"):
            susceptibility_saw(Z5Z5, [0.1, z])
    # degree 2 has no critical point: the lines Z and Z2*Z2, the cycle Z5
    for text in ("Z", "Z2*Z2", "Z5"):
        with pytest.raises(ValueError, match="need degree >= 3, got 2"):
            susceptibility_saw(parse_group_spec(text), [0.1])


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
    # the census oracle's class sum against the endpoint words, and both
    # below the closed form
    spec = parse_group_spec(text)
    census, classes = enumerate_saw(spec, 8), census_classes(spec, 8)
    z_c = float(blocks.critical_interval(spec, blocks.walks)[0])
    for truncation in range(9):
        for z in (0.5 * z_c, z_c, 0.3):
            value = census_bubble(classes, z, truncation)
            assert value == pair_intersection_bubble(census, z, truncation)
            assert value < bubble_diagram(spec, z)


def test_bubble_tree_value():
    # sphere-sum oracle: 1 + sum 4*3^(r-1) (1/9)^r = 5/3, exact in Fractions
    assert bubble_diagram(F2, Fraction(1, 3)) == Fraction(5, 3)
    assert bubble_diagram(F2, 1 / 3) == pytest.approx(5 / 3, abs=1e-15)
    z = Fraction(3, 10)
    spheres = 1 + sum(tree_sphere_size(4, r) * z ** (2 * r) for r in range(1, 60))
    assert 0 < bubble_diagram(F2, z) - spheres < Fraction(1, 10**25)


def test_bubble_tree_uncertified_when_divergent():
    # (d-1) z^2 >= 1 on Z*Z: 0.7, the edge 1/sqrt(3) and z >= 1 on a Z block
    for z in (0.7, Fraction(1, 1), 2.0):
        assert bubble_diagram(F2, z) == math.inf
    assert bubble_diagram(F2, 0.577) < math.inf


def test_bubble_census_matches_tree():
    # on a tree the only (n, m) overlap is n = m = |x|: the census sum is
    # the sphere sum, truncated at radius N
    classes = census_classes(F2, 8)
    z = 0.3
    for n in range(9):
        spheres = 1 + sum(tree_sphere_size(4, r) * z ** (2 * r) for r in range(1, n + 1))
        assert census_bubble(classes, z, n) == pytest.approx(spheres, rel=1e-14)


def test_bubble_census_z5z5():
    # the census's partial sums over walk lengths n, m <= N sit below B(z)
    # and close the gap as N grows, below z_c and at z_c's upper end (on
    # Z*Z too)
    for spec in (Z5Z5, F2):
        classes = census_classes(spec, 12)
        _, z_hi = blocks.critical_interval(spec, blocks.walks)
        for z in (0.2, float(z_hi)):
            whole = bubble_diagram(spec, z)
            gaps = [whole - census_bubble(classes, z, n) for n in range(13)]
            assert all(g > 0 for g in gaps)
            assert gaps == sorted(gaps, reverse=True) and gaps[-1] < 0.01 * gaps[0]
    # a single 5-cycle is one block: B = 1 + sum_e (z^e + z^{5-e})^2, all
    # of it in the census from n = 4 on
    cycle, z = parse_group_spec("Z5"), Fraction(1, 5)
    one_block = 1 + sum((z**e + z ** (5 - e)) ** 2 for e in range(1, 5))
    assert bubble_diagram(cycle, z) == one_block
    assert census_bubble(census_classes(cycle, 4), float(z), 4) == pytest.approx(float(one_block))


def test_bubble_validation():
    for spec in (F2, Z5Z5, parse_group_spec("Z5")):
        for z in (-0.5, -0.1, math.nan, Fraction(-1, 3)):
            with pytest.raises(ValueError, match="z must be >= 0"):
                bubble_diagram(spec, z)


def test_bubble_rejects_negative_z_and_bad_rho():
    with pytest.raises(ValueError, match="z must be >= 0"):
        bubble_diagram(Z5Z5, -0.5)
    with pytest.raises(ValueError, match="z must be >= 0"):
        bubble_diagram(F2, -0.1)
    # a 5-cycle has rho = 1, which the closed form never reads: it is a
    # valid input with the one-block value 1 + sum_e (z^e + z^{5-e})^2
    cycle, z = parse_group_spec("Z5"), Fraction(1, 5)
    assert bubble_diagram(cycle, z) == 1 + sum((z**e + z ** (5 - e)) ** 2 for e in range(1, 5))
