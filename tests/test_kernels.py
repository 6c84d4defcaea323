"""SRW/NBW kernels, spectral-radius estimates and the kernel inequalities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthlab.groups import ball, parse_group_spec
from girthlab.kernels import (
    FLOAT_MASS_TOL,
    chained_tail,
    check_nbw_le_rho_power,
    check_nbw_le_srw_tail,
    estimate_spectral_radius,
    kesten_rho,
    kesten_rho_upper_fraction,
    nbw_kernel,
    series_tail,
    srw_kernel,
    tree_return_probabilities,
)
from girthlab.saw import bubble_diagram, enumerate_saw
from girthlab.verify import FAIL, PASS, point, status

F2 = parse_group_spec("Z*Z")
Z5Z5 = parse_group_spec("Z5*Z5")
Z2Z2Z2 = parse_group_spec("Z2*Z2*Z2")
KERNELS = {"srw": srw_kernel, "nbw": nbw_kernel}


def _fraction_steps(b, kind, n_steps):
    """Walk distributions propagated as dicts vertex -> Fraction over the
    ball's adjacency lists: the reference the integer-count kernels match."""
    d = b.spec.degree
    steps = [{0: Fraction(1)}]
    if kind == "srw":
        for _ in range(n_steps):
            nxt = {}
            for u, mass in steps[-1].items():
                for v, _ in b.adj[u]:
                    nxt[v] = nxt.get(v, Fraction(0)) + mass / d
            steps.append(nxt)
        return steps
    head = b.arc_head.tolist()
    arc = {a: Fraction(1, d) for _, a in b.adj[0]}
    for n in range(1, n_steps + 1):
        if n > 1:
            nxt = {}
            for a, mass in arc.items():
                for _, c in b.adj[head[a]]:
                    if c != a ^ 1:
                        nxt[c] = nxt.get(c, Fraction(0)) + mass / (d - 1)
            arc = nxt
        at = {}
        for a, mass in arc.items():
            at[head[a]] = at.get(head[a], Fraction(0)) + mass
        steps.append(at)
    return steps


@pytest.mark.parametrize("kind", ["srw", "nbw"])
@pytest.mark.parametrize("radius", [0, 1, 3, 5])
@pytest.mark.parametrize("spec", ["Z*Z", "Z5*Z5", "Z2*Z2*Z2", "Z2*Z3*Z4"])
def test_exact_steps_match_fraction_propagation(spec, radius, kind):
    b = ball(parse_group_spec(spec), radius)
    n_steps = radius + 2  # past the horizon, where mass leaves the ball
    table = KERNELS[kind](b, n_steps, exact=True)
    want = _fraction_steps(b, kind, n_steps)
    assert table.steps == want
    assert table.denominators == [1] + [
        b.spec.degree ** n if kind == "srw" else b.spec.degree * (b.spec.degree - 1) ** (n - 1)
        for n in range(1, n_steps + 1)]
    for n, step in enumerate(want):
        assert all(type(v) is int for v in table.steps[n])
        assert table.support(n) == sorted(step)
        assert table.mass(n) == sum(step.values())
        assert [table.prob(n, v) for v in range(b.n_vertices)] == [
            step.get(v, Fraction(0)) for v in range(b.n_vertices)]


@pytest.mark.parametrize("kind", ["srw", "nbw"])
def test_exact_counts_switch_to_python_ints_past_int64(kind):
    # D_40 = 4^40 (SRW) and 4*3^39 (NBW) both exceed 2^63
    b = ball(F2, 3)
    table = KERNELS[kind](b, 40, exact=True)
    assert table.denominators[40] > 2**63
    assert [c.dtype == object for c in table.counts] == [
        den >= 2**63 for den in table.denominators]
    assert table.steps == _fraction_steps(b, kind, 40)


def test_srw_exact_small_values():
    b = ball(Z5Z5, 4)
    kt = srw_kernel(b, 4, exact=True)
    a = 1  # the first generator's step from the root
    assert b.word(a) == ((0, 1),)
    assert kt.prob(1, a) == Fraction(1, 4)
    assert kt.prob(2, 0) == Fraction(1, 4)
    assert kt.prob(0, 0) == 1


def test_srw_mass_conserved_exact():
    b = ball(F2, 5)
    kt = srw_kernel(b, 5, exact=True)
    for n in range(6):
        assert kt.mass(n) == 1


def test_srw_float_matches_exact():
    b = ball(Z5Z5, 5)
    ex = srw_kernel(b, 5, exact=True)
    fl = srw_kernel(b, 5, exact=False)
    for n in range(6):
        assert abs(fl.mass(n) - 1.0) < FLOAT_MASS_TOL
        for v in ex.support(n):
            assert abs(float(ex.prob(n, v)) - fl.prob(n, v)) < 1e-12


def test_srw_support_within_distance():
    b = ball(F2, 5)
    kt = srw_kernel(b, 5, exact=True)
    for n in range(6):
        assert all(b.dist[v] <= n for v in kt.support(n))


def test_nbw_never_returns_on_tree():
    for spec in (F2, parse_group_spec("Z2*Z2*Z2")):
        b = ball(spec, 6)
        kt = nbw_kernel(b, 6, exact=True)
        for n in range(1, 7):
            assert kt.prob(n, 0) == 0


def test_nbw_uniform_below_girth():
    # before any cycle can close, q^n spreads mass 1/(d (d-1)^(n-1)) per
    # endpoint, exactly as on the tree
    b = ball(Z5Z5, 4)
    kt = nbw_kernel(b, 4, exact=True)
    d = 4
    for n in range(1, 5):
        vals = set(kt.prob(n, v) for v in kt.support(n))
        assert vals == {Fraction(1, d * (d - 1) ** (n - 1))}


def test_nbw_first_return_at_girth():
    b = ball(Z5Z5, 6)
    kt = nbw_kernel(b, 6, exact=True)
    for n in range(1, 5):
        assert kt.prob(n, 0) == 0
    # at n = girth = 5 each of the 2 directed 5-cycles through the root
    # returns with probability (1/4) (1/3)^4
    assert kt.prob(5, 0) == Fraction(4, 4 * 81)


def test_nbw_mass_conserved():
    b = ball(Z5Z5, 5)
    ex = nbw_kernel(b, 5, exact=True)
    fl = nbw_kernel(b, 5, exact=False)
    for n in range(6):
        assert ex.mass(n) == 1
        assert abs(fl.mass(n) - 1.0) < FLOAT_MASS_TOL


def test_nbw_float_matches_exact():
    b = ball(Z5Z5, 5)
    ex = nbw_kernel(b, 5, exact=True)
    fl = nbw_kernel(b, 5, exact=False)
    for n in range(6):
        for v in ex.support(n):
            assert abs(float(ex.prob(n, v)) - fl.prob(n, v)) < 1e-12


def test_nbw_rejects_degree_two():
    b = ball(parse_group_spec("Z"), 3)
    with pytest.raises(ValueError):
        nbw_kernel(b, 3)


def test_kernel_horizon():
    b = ball(F2, 3)
    assert srw_kernel(b, 6).horizon == 3
    assert srw_kernel(b, 2).horizon == 2


def test_to_csv_rows():
    b = ball(F2, 2)
    rows = srw_kernel(b, 2, exact=True).to_csv_rows()
    assert rows[0] == ("srw", 0, "e", 1.0)
    assert all(len(r) == 4 for r in rows)


# --- spectral radius --------------------------------------------------------

def test_kesten_values():
    assert kesten_rho(4) == pytest.approx(math.sqrt(3) / 2)
    assert kesten_rho(3) == pytest.approx(2 * math.sqrt(2) / 3)


def test_kesten_upper_fraction_is_upper_bound():
    for d in (3, 4, 5):
        frac = kesten_rho_upper_fraction(d)
        assert float(frac) > kesten_rho(d)
        assert float(frac) - kesten_rho(d) < 1e-11


def test_tree_return_probabilities_small_n():
    probs = tree_return_probabilities(4, 6)
    assert probs[0] == 1.0
    assert probs[1] == 0.0
    assert probs[2] == pytest.approx(0.25)
    # p^4(0,0): closed 4-walks are 16 back-and-forth + 12 depth-2 excursions
    assert probs[4] == pytest.approx(28 / 256)
    assert probs[3] == probs[5] == 0.0


def test_tree_return_matches_ball_kernel():
    b = ball(F2, 6)
    kt = srw_kernel(b, 6, exact=True)
    probs = tree_return_probabilities(4, 6)
    for n in range(7):
        assert probs[n] == pytest.approx(float(kt.prob(n, 0)), abs=1e-14)


@given(st.integers(3, 6))
@settings(max_examples=4, deadline=None)
def test_return_rate_below_kesten(d):
    probs = tree_return_probabilities(d, 100)
    rho = kesten_rho(d)
    rates = [probs[2 * n] ** (1 / (2 * n)) for n in range(1, 51)]
    assert all(r <= rho for r in rates)
    assert rates == sorted(rates)  # monotone approach from below


def test_estimate_spectral_radius_tree():
    est = estimate_spectral_radius(F2, 200)
    assert est.lower_bound <= kesten_rho(4)
    assert len(est.sequence) == 100


def test_estimate_spectral_radius_requires_ub_for_nontree():
    est = estimate_spectral_radius(Z5Z5, 6, srw=srw_kernel(ball(Z5Z5, 6), 6))
    assert len(est.sequence) == 3
    assert est.lower_bound <= 0.95
    with pytest.raises(ValueError):  # off trees the caller passes its table
        estimate_spectral_radius(Z5Z5, 6)


def test_estimate_spectral_radius_reads_shared_srw_table():
    own = estimate_spectral_radius(Z5Z5, 6, srw=srw_kernel(ball(Z5Z5, 6), 6))
    b = ball(Z5Z5, 7)
    shared = estimate_spectral_radius(Z5Z5, 6, srw=srw_kernel(b, 7))
    assert shared == own  # bit-equal return sequence from the larger ball
    exact = estimate_spectral_radius(Z5Z5, 6, srw=srw_kernel(b, 7, exact=True))
    assert exact.sequence == pytest.approx(own.sequence, rel=1e-12)
    for bad in (srw_kernel(b, 4), srw_kernel(ball(F2, 7), 7), nbw_kernel(b, 7)):
        with pytest.raises(ValueError):
            estimate_spectral_radius(Z5Z5, 6, srw=bad)


def test_estimate_spectral_radius_rejects_odd():
    with pytest.raises(ValueError):
        estimate_spectral_radius(F2, 7)


# --- kernel inequalities ----------------------------------------------------

def test_kernel_inequalities_pass_exact_small():
    b = ball(F2, 5)
    rho = kesten_rho_upper_fraction(4)
    for entries in (
        check_nbw_le_srw_tail(b, 5, rho, exact=True),
        check_nbw_le_rho_power(b, 5, rho, exact=True),
    ):
        assert entries and all(e.passed for e in entries)
        assert all(e.margin >= 0 for e in entries)


def test_kernel_inequalities_pass_float_nontree():
    b = ball(Z5Z5, 6)
    for entries in (
        check_nbw_le_srw_tail(b, 6, 0.95),
        check_nbw_le_rho_power(b, 6, 0.95),
    ):
        assert entries and all(e.passed for e in entries)


def test_kernel_inequality_record_fields():
    b = ball(F2, 3)
    entry = next(iter(check_nbw_le_rho_power(b, 2, 0.9, test_vertices=[0])))
    rec = entry.to_record()
    assert rec["pass"] and rec["margin"] == rec["rhs"] - rec["lhs"]
    assert rec["params"]["spec"] == "Z*Z"


def test_kernel_inequality_rejects_bad_rho_and_horizon():
    b = ball(F2, 3)
    with pytest.raises(ValueError):
        check_nbw_le_rho_power(b, 2, 1.0)
    with pytest.raises(ValueError):
        check_nbw_le_srw_tail(b, 5, 0.9)  # ball radius 3 < requested n_max
    with pytest.raises(ValueError):  # exact table in a float check
        check_nbw_le_rho_power(b, 2, 0.9, nbw=nbw_kernel(b, 2, exact=True))


def _oracle_records(ball_, n_max, rho_ub, exact, srw, nbw, xs=None):
    """Both checks as one comparison per pair with the SRW tail re-summed
    for every (n, x): the reference the suffix-sum checks must match.
    Exact mode reads rho_ub at its exact value and compares Fractions."""
    one = Fraction(1) if exact else 1.0
    if exact:
        rho_ub = Fraction(rho_ub)
    horizon = srw.horizon
    tail = rho_ub ** (horizon + 1) / (one - rho_ub)
    spec = ball_.spec.describe()

    def record(check, params, lhs, rhs):
        passed = lhs <= rhs if exact else float(lhs) <= float(rhs)
        return {"check": check, "params": params, "lhs": float(lhs), "rhs": float(rhs),
                "margin": float(rhs) - float(lhs), "pass": passed}

    xs = range(ball_.n_vertices) if xs is None else xs
    tail_records = [
        record("nbw_le_srw_tail", {"spec": spec, "n": n, "x": x, "J": horizon},
               nbw.prob(n, x), sum(srw.prob(j, x) for j in range(n, horizon + 1)) + tail)
        for n in range(n_max + 1) for x in xs
    ]
    power_records = [
        record("nbw_le_rho_power", {"spec": spec, "n": n, "x": x},
               nbw.prob(n, x), rho_ub**n / (one - rho_ub))
        for n in range(n_max + 1) for x in xs
    ]
    return tail_records, power_records


def _assert_summary_matches_scan(result):
    """pairs, violations and worst equal a scan of the materialised entries."""
    entries = list(result)
    assert result.pairs == len(result) == len(entries)
    assert result.violations == sum(not e.passed for e in entries)
    assert repr(result.worst) == repr(min(entries, key=lambda e: e.margin))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_kernel_check_summary_unsorted_duplicates_and_ties(exact):
    b = ball(F2, 4)
    rho = kesten_rho_upper_fraction(4) if exact else 0.9
    # descending ids with repeats: the worst pair is the first in list order
    vs = [5, 0, *range(b.n_vertices - 1, 0, -3), 17, 5, 0]
    for result in (check_nbw_le_srw_tail(b, 4, rho, test_vertices=vs, exact=exact),
                   check_nbw_le_rho_power(b, 4, rho, test_vertices=vs, exact=exact)):
        entries = list(result)
        least = min(e.margin for e in entries)
        tied = [e for e in entries if e.margin == least]
        assert len(tied) > 1  # symmetric vertices of the tree tie
        assert repr(result.worst) == repr(tied[0])
        assert result.worst.params["x"] != min(e.params["x"] for e in tied)
        _assert_summary_matches_scan(result)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("radius", [3, 5])
@pytest.mark.parametrize(
    "spec,rho_pass",
    # degree 4 makes every float sum exact; degree 3 makes its order matter
    [(F2, kesten_rho_upper_fraction(4)), (Z5Z5, 0.95), (Z2Z2Z2, kesten_rho_upper_fraction(3))],
    ids=["Z*Z", "Z5*Z5", "Z2*Z2*Z2"],
)
@pytest.mark.parametrize("failing", [False, True], ids=["rho-pass", "rho-1/10"])
def test_kernel_inequalities_match_per_pair_oracle(spec, rho_pass, radius, exact, failing):
    b = ball(spec, radius)
    rho = (Fraction(1, 10) if exact else 0.1) if failing else rho_pass
    srw = srw_kernel(b, radius, exact=exact)
    nbw = nbw_kernel(b, radius, exact=exact)
    want_tail, want_power = _oracle_records(b, radius, rho, exact, srw, nbw)
    tail = check_nbw_le_srw_tail(b, radius, rho, exact=exact, srw=srw, nbw=nbw)
    power = check_nbw_le_rho_power(b, radius, rho, exact=exact, nbw=nbw)
    got_tail = [e.to_record() for e in tail]
    got_power = [e.to_record() for e in power]
    # repr also pins the value types (float, bool) and the params key order
    assert [repr(r) for r in got_tail] == [repr(r) for r in want_tail]
    assert [repr(r) for r in got_power] == [repr(r) for r in want_power]
    _assert_summary_matches_scan(tail)
    _assert_summary_matches_scan(power)
    if not exact:  # a float pair passes by the rule the certificate applies
        for result in (tail, power):
            worst = result.worst
            assert (result.violations == 0) == (
                status(point(worst.lhs), point(worst.rhs), False) == PASS)
    violations = (tail.violations, power.violations)
    if not failing:
        assert violations == (0, 0)
    elif spec is F2 and radius == 3:
        assert violations == (48, 52)


def test_float_check_fails_a_near_tie_as_status_does():
    # q^0(0,0) a hair above rho^0/(1-rho) = 19.999999999999982: no slack
    # lets the pair pass, so the check and the certificate rule agree
    b = ball(Z5Z5, 3)
    nbw = nbw_kernel(b, 3)
    nbw.counts[0][0] = 20.0 + 5e-13
    power = check_nbw_le_rho_power(b, 3, 0.95, nbw=nbw)
    worst = power.worst
    assert power.violations == 1 and not worst.passed
    assert (worst.params["n"], worst.params["x"]) == (0, 0)
    assert 0 < worst.lhs - worst.rhs < 1e-12
    assert status(point(worst.lhs), point(worst.rhs), False) == FAIL


@pytest.mark.parametrize("rho", [Fraction(1, 10), 0.95], ids=["rho-1/10", "rho-0.95"])
def test_exact_tail_check_past_int64_matches_oracle(rho):
    # Z2*Z3 grows slowly enough for J = 27, where the tail check's
    # cross-product A_n(x) D_n at the root passes 2^63, so an int64 path
    # would wrap
    radius = 27
    b = ball(parse_group_spec("Z2*Z3"), radius)
    srw = srw_kernel(b, radius, exact=True)
    nbw = nbw_kernel(b, radius, exact=True)
    a_root = sum(int(srw.counts[j][0]) * 3 ** (radius - j) for j in (radius - 1, radius))
    assert a_root * nbw.denominators[radius - 1] > 2**63
    xs = list(range(0, b.n_vertices, 4001))
    want_tail, want_power = _oracle_records(b, radius, rho, True, srw, nbw, xs)
    tail = check_nbw_le_srw_tail(b, radius, rho, xs, exact=True, srw=srw, nbw=nbw)
    power = check_nbw_le_rho_power(b, radius, rho, xs, exact=True, nbw=nbw)
    assert [repr(e.to_record()) for e in tail] == [repr(r) for r in want_tail]
    assert [repr(e.to_record()) for e in power] == [repr(r) for r in want_power]
    assert (tail.violations, power.violations) == ((63, 87) if rho == Fraction(1, 10) else (0, 0))
    # each rho-power row is the one float of its exact tail rho^n/(1-rho)
    for n in range(radius + 1):
        assert (power.rhs[n] == float(series_tail(rho, n, exact=True))).all()


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_kernel_checks_reject_foreign_tables(exact):
    b = ball(Z5Z5, 4)
    srw, nbw = srw_kernel(b, 4, exact=exact), nbw_kernel(b, 4, exact=exact)
    twin = ball(Z5Z5, 4)  # an equal ball, but not the one checked
    foreign_tail = [
        dict(srw=nbw, nbw=srw), dict(srw=nbw, nbw=nbw), dict(srw=srw, nbw=srw),
        dict(srw=srw_kernel(twin, 4, exact=exact), nbw=nbw),
        dict(srw=srw, nbw=nbw_kernel(twin, 4, exact=exact)),
        dict(srw=srw_kernel(b, 4, exact=not exact), nbw=nbw),
    ]
    for tables in foreign_tail:
        with pytest.raises(ValueError, match="table of"):
            check_nbw_le_srw_tail(b, 4, 0.95, exact=exact, **tables)
    for table in (srw, nbw_kernel(twin, 4, exact=exact), nbw_kernel(b, 4, exact=not exact)):
        with pytest.raises(ValueError, match="table of"):
            check_nbw_le_rho_power(b, 4, 0.95, exact=exact, nbw=table)
    assert check_nbw_le_srw_tail(b, 4, 0.95, exact=exact, srw=srw, nbw=nbw).pairs == 5 * 137
    assert check_nbw_le_rho_power(b, 4, 0.95, exact=exact, nbw=nbw).pairs == 5 * 137


def test_exact_checks_decide_ties_in_integers():
    # rho = 1/5 gives rho/(1-rho) = 1/4 = q^1(0,x) at the 4 neighbours of
    # the root: an exact tie, which passes; 1e-30 lower it fails, while
    # lhs and rhs round to the same float
    b = ball(F2, 2)
    neighbours = [v for v in range(b.n_vertices) if b.dist[v] == 1]
    tie = check_nbw_le_rho_power(b, 1, Fraction(1, 5), exact=True)
    assert tie.violations == 0 and tie.worst.margin == 0.0
    below = check_nbw_le_rho_power(b, 1, Fraction(1, 5) - Fraction(1, 10**30), exact=True)
    assert below.violations == 4
    assert [e.params["x"] for e in below if not e.passed] == neighbours
    assert all(e.lhs == e.rhs == 0.25 for e in below if not e.passed)


def test_exact_checks_read_a_float_rho_at_its_exact_value():
    b = ball(Z5Z5, 5)
    for check in (check_nbw_le_srw_tail, check_nbw_le_rho_power):
        as_float = check(b, 5, 0.95, exact=True)
        as_fraction = check(b, 5, Fraction(0.95), exact=True)
        for field in ("lhs", "rhs", "passed"):
            assert np.array_equal(getattr(as_float, field), getattr(as_fraction, field))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("vertex", [10**6, 53, -1])
def test_kernel_inequalities_reject_vertices_outside_ball(exact, vertex):
    b = ball(F2, 3)  # 53 vertices
    rho = kesten_rho_upper_fraction(4)
    with pytest.raises(ValueError, match="outside"):
        check_nbw_le_rho_power(b, 2, rho, test_vertices=[0, vertex], exact=exact)
    with pytest.raises(ValueError, match="outside"):
        check_nbw_le_srw_tail(b, 2, rho, test_vertices=[vertex], exact=exact)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("vertex", [1.5, 2.0, "3"])
def test_kernel_inequalities_reject_non_integer_vertices(exact, vertex):
    b = ball(F2, 3)
    rho = kesten_rho_upper_fraction(4)
    with pytest.raises(ValueError, match="integer"):
        check_nbw_le_rho_power(b, 2, rho, test_vertices=[0, vertex], exact=exact)
    with pytest.raises(ValueError, match="integer"):
        check_nbw_le_srw_tail(b, 2, rho, test_vertices=[vertex], exact=exact)
    # numpy integers are vertex ids, recorded as Python ints
    result = check_nbw_le_rho_power(b, 2, rho, test_vertices=np.arange(3), exact=exact)
    assert [type(e.params["x"]) for e in result] == [int] * 9


# --- closed-form envelope tails ----------------------------------------------

@pytest.mark.parametrize("legs", [1, 2, 3])
@pytest.mark.parametrize("start", [0, 1, 7])
@pytest.mark.parametrize("base", [Fraction(0), Fraction(1, 3), Fraction(7, 8),
                                  Fraction(999, 1000)])
def test_series_tail_telescopes_exactly(base, start, legs):
    def coeff(s):
        return math.comb(s + legs - 1, legs - 1)

    for terms in (1, 5):
        head = sum(coeff(s) * base**s for s in range(start, start + terms))
        assert (series_tail(base, start, legs, exact=True) - head
                == series_tail(base, start + terms, legs, exact=True))
    if start == 0:
        # the full sum is the negative binomial series (1 - base)^-legs
        assert series_tail(base, 0, legs, exact=True) == (1 - base) ** -legs


@pytest.mark.parametrize("legs", [1, 2, 3])
@pytest.mark.parametrize("start", [0, 1, 7, 40])
@pytest.mark.parametrize("base", [0.1, 0.5, 0.866, 0.99, 1 - 1e-6])
def test_series_tail_float_matches_fraction(base, start, legs):
    exact = series_tail(Fraction(base), start, legs, exact=True)
    assert series_tail(base, start, legs) == pytest.approx(float(exact), rel=1e-13)


@pytest.mark.parametrize("legs", [1, 2, 3])
def test_series_tail_exact_reads_a_float_base_exactly(legs):
    got = series_tail(0.95, 6, legs, exact=True)
    assert type(got) is Fraction
    assert got == series_tail(Fraction(0.95), 6, legs, exact=True)
    if legs == 1:
        assert got == Fraction(0.95) ** 6 / (1 - Fraction(0.95))


def test_series_tail_one_leg_is_the_geometric_tail():
    # the kernel checks read this form bit for bit in both arithmetics
    rho = Fraction(7, 10)
    assert series_tail(rho, 5, exact=True) == rho**5 / (1 - rho)
    assert series_tail(rho, 5) == rho**5 / (1.0 - rho)
    assert series_tail(0.7, 5) == 0.7**5 / (1.0 - 0.7)


def test_series_tail_edges():
    assert series_tail(1.0, 3, 2) == math.inf
    assert series_tail(Fraction(3, 2), 0) == math.inf
    for base, legs in ((-0.1, 1), (math.nan, 1), (0.5, 0)):
        with pytest.raises(ValueError):
            series_tail(base, 0, legs)


def test_chained_tail_two_point_envelope():
    lam = 0.2 * 3 * 0.9
    assert chained_tail(4, 0.9, 0.2, 3, legs=1) == pytest.approx(
        4 / (3 * 0.1) * lam**3 / (1 - lam))
    assert chained_tail(4, 0.9, 0.5, 3, legs=1) == math.inf  # p(d-1)rho >= 1


@pytest.mark.parametrize("legs", [1, 2, 3])
def test_chained_tail_matches_term_by_term_sum(legs):
    # lam = 0.81: the terms past s = 600 add less than 1e-40 of the sum
    d, rho, x, start = 4, 0.9, 0.3, 6
    lam = x * (d - 1) * rho
    direct = sum(math.comb(s + legs - 1, legs - 1) * lam**s for s in range(start, 600))
    pref = (d / ((d - 1) * (1 - rho))) ** legs
    assert chained_tail(d, rho, x, start, legs) == pytest.approx(pref * direct, rel=1e-13)


def test_chained_tail_finite_just_below_one():
    d, rho = 4, 0.9
    for gap in (1e-6, 1e-9):
        x = (1 - gap) / ((d - 1) * rho)
        for legs in (1, 2, 3):
            tail = chained_tail(d, rho, x, 5, legs)
            assert 0 < tail < math.inf
            # in Fractions at the same float lam: 1 - lam is exact in float
            lam = Fraction(x * (d - 1) * rho)
            exact = ((Fraction(d) / ((d - 1) * (1 - Fraction(rho)))) ** legs
                     * series_tail(lam, 5, legs, exact=True))
            assert tail == pytest.approx(float(exact), rel=1e-13)


def test_chained_tail_missing_rho_is_nan_divergent_is_inf():
    assert math.isnan(chained_tail(4, math.nan, 0.1, 3, legs=3))
    assert chained_tail(4, 0.9, 1 / 2.7, 3, legs=2) == math.inf  # lam = 1
    assert chained_tail(4, 0.9, 0.9, 3, legs=3) == math.inf


@pytest.mark.parametrize("rho", [0.0, 1.0, 1.5, -0.2])
def test_chained_tail_rejects_rho_outside_unit_interval(rho):
    with pytest.raises(ValueError):
        chained_tail(4, rho, 0.1, 3, legs=1)


def test_chained_tail_rejects_negative_weight():
    with pytest.raises(ValueError):
        chained_tail(4, 0.9, -0.5, 3, legs=2)


@pytest.mark.parametrize("gap", [0.5, 1e-9])
def test_diagram_tails_are_the_chained_envelope(gap):
    rho = math.sqrt(3) / 2
    x = (1 - gap) / (3 * rho)
    census = enumerate_saw(Z5Z5, 5)
    bub = bubble_diagram(Z5Z5, x, 5, census=census, rho_ub=rho)
    assert bub.tail_bound == chained_tail(4, rho, x, 6, legs=2) < math.inf
    assert bub.certified
