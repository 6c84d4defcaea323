"""Acceptance gate: eleven desk-scale criteria, one pass/fail line each.

Each test registers its verdict on the shared scoreboard, which conftest
prints as a terminal-summary section after the run.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import conftest

from girthlab import blocks, branching, percolation, saw as saw_mod
from girthlab.groups import ball, parse_group_spec
from girthlab.kernels import (
    check_nbw_le_rho_power,
    check_nbw_le_srw_tail,
    estimate_spectral_radius,
    float_above,
    kesten_rho,
    kesten_rho_upper_fraction,
    nbw_kernel,
    rho_upper,
    srw_kernel,
)
from girthlab.verify import (
    GraphJob,
    VerifyConfig,
    check_perccond,
    point,
    run_certificate,
)
from oracles import fit_beta, fit_gamma, tree_sphere_size

F2 = parse_group_spec("Z*Z")
Z5Z5 = parse_group_spec("Z5*Z5")
Z2CUBED = parse_group_spec("Z2*Z2*Z2")


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.scoreboard.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def census_f2():
    return saw_mod.enumerate_saw(F2, 12)


@pytest.fixture(scope="module")
def census_z2cubed():
    return saw_mod.enumerate_saw(Z2CUBED, 12)


@pytest.fixture(scope="module")
def census_z5z5():
    return saw_mod.enumerate_saw(Z5Z5, 12)


def test_criterion_01_tree_exactness(census_f2, census_z2cubed):
    ok = True
    for spec, census in ((F2, census_f2), (Z2CUBED, census_z2cubed)):
        d = spec.degree
        ok &= census.counts == [1] + [d * (d - 1) ** (n - 1) for n in range(1, 13)]
        b = ball(spec, 6)
        ok &= np.bincount(b.dist).tolist() == [tree_sphere_size(d, r) for r in range(7)]
        srw = srw_kernel(b, 2, exact=True)
        ok &= srw.prob(2, 0) * d == 1  # exact rational p^2(0,0) = 1/d
        nbw = nbw_kernel(b, 6, exact=True)
        ok &= all(nbw.prob(n, 0) == 0 for n in range(1, 7))
    report(1, ok, "tree census/spheres/kernels exact on Z*Z and Z2*Z2*Z2")


def test_criterion_02_spectral_radius():
    ok = True
    details = []
    for d, spec in ((3, Z2CUBED), (4, F2)):
        est = estimate_spectral_radius(spec, 200)
        rho = kesten_rho(d)
        ok &= all(s <= rho + 1e-12 for s in est.sequence)
        ok &= est.sequence[-1] >= 0.95 * rho
        details.append(f"d={d}: final/kesten={est.sequence[-1] / rho:.4f}")
    report(2, ok, "radial return-rate sequence vs Kesten; " + "; ".join(details))


def test_criterion_03_kernel_inequality_suite():
    configs = [
        (F2, kesten_rho_upper_fraction(4), True),        # exact-rational mode
        (Z5Z5, float_above(rho_upper(Z5Z5)[0]), False),  # float mode, certified rho
    ]
    total = 0
    violations = 0
    for spec, rho_ub, exact in configs:
        b = ball(spec, 10)
        srw = srw_kernel(b, b.radius, exact=exact)
        nbw = nbw_kernel(b, 10, exact=exact)
        chunk = 20_000
        for start in range(0, b.n_vertices, chunk):
            vs = list(range(start, min(start + chunk, b.n_vertices)))
            for result in (
                check_nbw_le_srw_tail(b, 10, rho_ub, test_vertices=vs,
                                     exact=exact, srw=srw, nbw=nbw),
                check_nbw_le_rho_power(b, 10, rho_ub, test_vertices=vs,
                                    exact=exact, nbw=nbw),
            ):
                total += result.pairs
                violations += result.violations
        # every (x, n <= 10) pair was covered by both inequalities
    expected = 2 * 11 * (ball(F2, 10).n_vertices + ball(Z5Z5, 10).n_vertices)
    ok = violations == 0 and total == expected
    report(3, ok, f"{total} kernel-inequality checks, {violations} violations")


def test_criterion_04_saw_census_oracle(census_z5z5):
    counts = census_z5z5.counts
    ok = counts[5] == 320
    ok &= all(counts[n] == 4 * 3 ** (n - 1) for n in range(1, 5))
    ok &= all(counts[n] < 4 * 3 ** (n - 1) for n in range(5, 13))
    res = saw_mod.rosenbluth_sampler(Z5Z5, 5, trials=10_000, seed=17)
    se = res.weights.std(ddof=1) / math.sqrt(len(res.weights))
    dev = abs(res.c_n_estimate.value - 320)
    ok &= dev < 3 * se
    report(4, ok, f"c_5=320, Rosenbluth dev {dev:.2f} < 3*SE={3 * se:.2f}")


def test_criterion_05_bubble():
    # the closed form against the sphere sum 1 + sum_r 4*3^(r-1) 9^-r = 5/3
    # on Z*Z, and B(z_c) on Z5*Z5 from z_c's Fraction bracket
    tree = saw_mod.bubble_diagram(F2, Fraction(1, 3))
    ok = tree == Fraction(5, 3)
    ok &= abs(1 + sum(tree_sphere_size(4, r) / 9**r for r in range(1, 40)) - tree) < 1e-12
    lo, hi = blocks.critical_interval(Z5Z5, blocks.walks)
    b_lo, b_hi = saw_mod.bubble_diagram(Z5Z5, lo), saw_mod.bubble_diagram(Z5Z5, hi)
    ok &= 1.8136592 < b_lo <= b_hi < 1.8136594
    report(5, ok, f"bubble(1/3)={float(tree):.6f} on Z*Z; "
                  f"B(z_c) in [{float(b_lo):.7f}, {float(b_hi):.7f}] on Z5*Z5")


def test_criterion_06_chi_scaling():
    rows = saw_mod.susceptibility_saw(F2, [0.0, 0.1, 0.2, 0.3, 0.33])
    ok = all(abs(r["ratio_lo"] - (1 / 3 + r["z"] / 3)) < 1e-6 for r in rows)
    z_lo = float(blocks.critical_interval(Z5Z5, blocks.walks)[0])
    zs = [f * z_lo for f in (0.0, 0.25, 0.5, 0.75, 0.95)]
    rows5 = saw_mod.susceptibility_saw(Z5Z5, zs)
    lo = min(r["ratio_lo"] for r in rows5)
    hi = max(r["ratio_hi"] for r in rows5)
    ok &= 0.0 < lo and hi < math.inf
    report(6, ok, f"Z*Z ratio = 1/3 + z/3 to 1e-6; Z5*Z5 ratio in [{lo:.4f}, {hi:.4f}]")


def test_criterion_07_percolation_exponents():
    _, _, delta = percolation.cluster_size_tail(
        F2, 1 / 3, n_max=10_000, trials=100_000, seed=23)
    ok = delta.within(0.05)
    gamma = fit_gamma(F2, [0.25, 0.27, 0.29, 0.31, 0.32], pc=1 / 3)
    ok &= gamma.within(0.05)
    chi_ok = True
    for i, p in enumerate((0.20, 0.25, 0.30)):
        rows = percolation.susceptibility(F2, [p], trials=30_000, seed=31 + i)
        _, est, se = rows[0]
        chi_ok &= abs(est.value - (1 + 4 * p / (1 - 3 * p))) < 3 * se
    ok &= chi_ok
    # beta = 1 means theta(p) =~ (p - pc): slope 1 +- 0.1 on a near-critical
    # grid, plus two-sided linear bounds across the stated window (the
    # oracle curve is concave there, so its far-window log-log slope sits
    # well below 1 by construction)
    near_pc = [1 / 3 + g for g in np.geomspace(1e-4, 1e-2, 8)]
    beta = fit_beta(F2, near_pc, pc=1 / 3)
    ok &= beta.within(0.1)
    ratios = [branching.survival_probability(4, p) / (p - 1 / 3)
              for p in (0.36, 0.39, 0.42, 0.45)]
    ok &= 0 < min(ratios) and max(ratios) / min(ratios) < 3
    report(7, ok, f"delta={delta.slope:.4f}, gamma={gamma.slope:.4f}, "
                  f"chi 3-SE ok={chi_ok}, beta={beta.slope:.4f}, "
                  f"theta/(p-pc) in [{min(ratios):.2f}, {max(ratios):.2f}]")


def test_criterion_08_nonuniqueness_witness():
    r0 = percolation.oracle_witness_radius(4, 0.4)
    out = percolation.nonuniqueness_witness(F2, 0.4, r_max=r0, trials=1200,
                                            seed=41, theta_radius=8)
    entry = out["entries"][r0 - 1]
    ok = entry["R"] == r0 and entry["margin_lo"] > 0
    report(8, ok, f"R0={r0}, margin_lo={entry['margin_lo']:.4f} > 0 at 95%")


def test_criterion_09_perccond_and_mu_pc(census_f2, census_z2cubed):
    ok = True
    details = []
    for spec, census in ((F2, census_f2), (Z2CUBED, census_z2cubed)):
        d = spec.degree
        pc = point(branching.critical_probability(d))
        entry = check_perccond(d, pc, point(kesten_rho(d)))
        ok &= entry.status == "pass"
        ok &= abs(entry.margin - (1 - kesten_rho(d))) < 1e-3
        # mu p_c >= 1: q = 1/(d-1) is both z_c = 1/mu and p_c exactly, the
        # SAW and the cluster loads both 1 there; the census bounds mu above
        q = Fraction(1, d - 1)
        ok &= blocks.load(spec, blocks.walks, q) == 1 == blocks.load(
            spec, blocks.block_connections, q)
        mu_ub = saw_mod.connective_constant(census).best_upper
        product = mu_ub * pc.hi
        ok &= Fraction(mu_ub) * q >= 1 and abs(product - 1.0) <= 0.05
        details.append(f"d={d}: margin={entry.margin:.4f}, mu*pc={product:.4f}")
    report(9, ok, "; ".join(details))


def test_criterion_10_speed(census_f2, census_z5z5):
    ok = all(saw_mod.speed_exact(census_f2, n) == 1.0 for n in range(1, 13))
    exact = saw_mod.speed_exact(census_z5z5, 10)
    res = saw_mod.rosenbluth_sampler(Z5Z5, 10, trials=4000, seed=53)
    rel = abs(res.speed_estimate - exact) / exact
    ok &= rel < 0.02
    report(10, ok, f"tree speed = 1 for n<=12; Z5*Z5 n=10: exact {exact:.5f} "
                   f"vs Rosenbluth {res.speed_estimate:.5f} ({rel:.2%})")


def test_criterion_11_reproducibility():
    jobs = [GraphJob(text, bnp_c=1.0) for text in ("Z*Z", "Z2*Z2*Z2", "Z5*Z5")]
    first = run_certificate(VerifyConfig(jobs=jobs))
    second = run_certificate(VerifyConfig(jobs=jobs))
    ok = first.to_json(include_meta=False) == second.to_json(include_meta=False)
    bad = conftest.negative_margin_passes(first)
    misrecorded = conftest.misrecorded_entries(first)
    sampled = conftest.sampled_inputs(first)
    ok &= not bad and not misrecorded and not sampled
    report(11, ok, "verify certificates byte-identical across two runs; "
                   f"{len(bad)} passing entries with negative margin; "
                   f"{len(misrecorded)} statuses not recomputable from their records; "
                   f"{len(sampled)} sampled inputs")
