"""SRW/NBW kernels, spectral-radius estimates and the kernel inequalities."""

import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from girthlab import kernels
from girthlab.groups import ball, parse_group_spec
from girthlab.kernels import (
    FLOAT_MASS_TOL,
    check_nbw_le_rho_power,
    check_nbw_le_srw_tail,
    estimate_spectral_radius,
    float_above,
    kesten_interval,
    kesten_rho,
    kesten_rho_upper_fraction,
    nbw_kernel,
    rho_upper,
    series_tail,
    srw_kernel,
    tree_return_probabilities,
)
from girthlab.saw import bubble_diagram
from girthlab.verify import FAIL, PASS, point, status
from oracles import census_bubble, census_classes, chained_tail, legs_tail, superharmonic_ratio

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


@pytest.mark.parametrize("d", range(3, 41))
def test_kesten_interval_is_outward(d):
    # the nearest float to K = 2 sqrt(d-1)/d lies above K at d = 3, 5, 8 and
    # below it at d = 4, 6, 7: the ends are the floats either side of K,
    # checked on K^2 = 4(d-1)/d^2 in Fractions (K is no float for d >= 3)
    k2 = Fraction(4 * (d - 1), d * d)
    lo, hi = kesten_interval(d)
    assert Fraction(lo) ** 2 < k2 < Fraction(hi) ** 2
    assert hi == math.nextafter(lo, math.inf)
    assert kesten_rho(d) in (lo, hi)
    above = {3: True, 5: True, 8: True, 4: False, 6: False, 7: False}
    if d in above:
        assert (kesten_rho(d) == hi) == above[d]


def test_kesten_upper_fraction_is_upper_bound():
    for d in (3, 4, 5):
        frac = kesten_rho_upper_fraction(d)
        assert float(frac) > kesten_rho(d)
        assert float(frac) - kesten_rho(d) < 1e-11


@pytest.mark.parametrize("text", ["Z5*Z5", "Z2*Z3", "Z*Z5", "Z2*Z3*Z4", "Z3*Z3"])
def test_rho_upper_is_the_witness_ratio_on_a_ball(text):
    # max over interior x of (Pf)(x)/f(x), f built from each vertex's word
    spec = parse_group_spec(text)
    lam, rs = rho_upper(spec)
    assert len(rs) == len(spec.orders) and all(0 < r < 1 for r in rs)
    assert superharmonic_ratio(ball(spec, 4), rs) == lam


@pytest.mark.parametrize("text,ref,tol", [
    # trees: Kesten's K is rho itself
    ("Z*Z", kesten_rho(4), 1e-9), ("Z2*Z2*Z2", kesten_rho(3), 1e-9),
    ("Z*Z*Z", kesten_rho(6), 1e-9),
    # Zm*Zm: the free-convolution values to 6 digits
    ("Z3*Z3", 0.957107, 1e-6), ("Z4*Z4", 0.918559, 1e-6), ("Z5*Z5", 0.896399, 1e-6),
    ("Z6*Z6", 0.883816, 1e-6), ("Z8*Z8", 0.872262, 1e-6), ("Z12*Z12", 0.866783, 1e-6),
    # unequal factors: an independent float search to 9 digits
    ("Z2*Z3", 0.988482213, 1e-9), ("Z*Z5", 0.881454029, 1e-9),
    ("Z2*Z3*Z4", 0.855874482, 1e-9),
])
def test_rho_upper_is_tight_and_above_every_return_rate(text, ref, tol):
    spec = parse_group_spec(text)
    lam, _ = rho_upper(spec)
    assert abs(float(lam) - ref) < tol
    if spec.is_tree:
        assert float(lam) >= ref
    # lam^{2n} >= p^{2n}(0,0), exactly, for every return on the ball
    srw = srw_kernel(ball(spec, 6), 6, exact=True)
    assert all(lam ** (2 * n) >= srw.prob(2 * n, 0) for n in range(4))
    up = float_above(lam)
    assert Fraction(up) >= lam and Fraction(math.nextafter(up, 0.0)) < lam


def _float_above_reference(q):
    x = float(q)
    return x if Fraction(x) >= q else math.nextafter(x, math.inf)


# ints and Fractions of both signs, zero, values on a float and a hair off
# one, tiny (subnormal or below) and huge (up to past the largest float) ones
RATIONALS = st.one_of(
    st.integers(-2**1100, 2**1100),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda x: st.sampled_from([-1, 0, 1]).map(lambda s: Fraction(x) + Fraction(s, 2**1200))),
    st.builds(lambda n, k: Fraction(n, 10**k), st.integers(-10**20, 10**20), st.integers(0, 400)),
    st.builds(lambda n, k: Fraction(n * 10**k, 3), st.integers(-10**5, 10**5), st.integers(0, 320)),
)


@given(RATIONALS)
@example(0)
@example(Fraction(-1, 10**400))
@example(Fraction(2**1024 - 2**970, 1))
@example(2**1024)
@example(-2**1024)
def test_float_above_is_the_fraction_reference(q):
    try:
        ref = _float_above_reference(q)
    except OverflowError:
        with pytest.raises(OverflowError):
            float_above(q)
        return
    up = float_above(q)
    assert up.hex() == ref.hex()  # the same float, the sign of a zero included
    assert Fraction(up) >= q if up != math.inf else q > Fraction(sys.float_info.max)


@pytest.mark.parametrize("text", ["Z5*Z5", "Z*Z", "Z2*Z3*Z2", "Z3*Z3*Z3", "Z*Z7*Z*Z7", "Z4*Z*Z4*Z"])
def test_rho_upper_lam_evaluates_each_order_once(text):
    # lam takes one (own, out) side per distinct order, in the float golden
    # section and in the final Fraction lambda alike
    spec = parse_group_spec(text)
    per_lam = []

    def profile(frame, event, arg):
        if event != "call" or frame.f_code.co_filename != kernels.__file__:
            return
        if frame.f_code.co_name == "lam":
            per_lam.append(0)
        elif frame.f_code.co_name == "own_out":
            caller = frame.f_back
            while caller.f_code.co_name.startswith("<"):  # a comprehension's frame
                caller = caller.f_back
            if caller.f_code.co_name == "lam":
                per_lam[-1] += 1

    sys.setprofile(profile)
    try:
        rho_upper(spec)
    finally:
        sys.setprofile(None)
    assert len(per_lam) > 1 and set(per_lam) == {len(set(spec.orders))}


@pytest.mark.parametrize("text", ["Z", "Z5", "Z2*Z2", "Z2"])
def test_rho_upper_needs_degree_three(text):
    with pytest.raises(ValueError, match="need degree >= 3 for rho < 1"):
        rho_upper(parse_group_spec(text))


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
    # off trees rho's upper end is rho_upper's witness, and there is no
    # return-rate estimate to take
    for spec in (Z5Z5, parse_group_spec("Z2*Z3")):
        with pytest.raises(ValueError, match="not a tree"):
            estimate_spectral_radius(spec, 6)


def test_estimate_spectral_radius_rejects_odd():
    with pytest.raises(ValueError):
        estimate_spectral_radius(F2, 7)


# --- kernel inequalities ----------------------------------------------------

def test_kernel_theorems_hold_on_the_readme_balls():
    # q^n(0,x) <= rho^n/(1-rho) and its SRW-tail form at the certified rho
    # (K on the tree, the witness's lambda rounded up otherwise), n <= 6, on
    # the balls the README config's jobs once built
    for b, rho in ((ball(F2, 8), kesten_rho(4)),
                   (ball(Z5Z5, 6), float_above(rho_upper(Z5Z5)[0]))):
        srw, nbw = srw_kernel(b, b.radius), nbw_kernel(b, 6)
        for chk in (check_nbw_le_srw_tail(b, 6, rho, srw=srw, nbw=nbw),
                    check_nbw_le_rho_power(b, 6, rho, nbw=nbw)):
            assert (chk.pairs, chk.violations) == (7 * b.n_vertices, 0)


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
    """pairs and violations equal a scan of the materialised entries."""
    entries = list(result)
    assert result.pairs == len(result) == len(entries)
    assert result.violations == sum(not e.passed for e in entries)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_kernel_check_summary_unsorted_duplicates_and_ties(exact):
    b = ball(F2, 4)
    rho = kesten_rho_upper_fraction(4) if exact else 0.9
    # descending ids with repeats: entries follow the list, n outer, and a
    # repeated vertex gives a repeated entry
    vs = [5, 0, *range(b.n_vertices - 1, 0, -3), 17, 5, 0]
    for result in (check_nbw_le_srw_tail(b, 4, rho, test_vertices=vs, exact=exact),
                   check_nbw_le_rho_power(b, 4, rho, test_vertices=vs, exact=exact)):
        entries = list(result)
        assert [(e.params["n"], e.params["x"]) for e in entries] == [
            (n, x) for n in range(5) for x in vs]
        least = min(e.margin for e in entries)
        tied = [e for e in entries if e.margin == least]
        assert len(tied) > 1  # symmetric vertices of the tree tie
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
            for e in result:
                assert e.passed == (status(point(e.lhs), point(e.rhs), False) == PASS)
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
    (bad,) = [e for e in power if not e.passed]
    assert power.violations == 1
    assert (bad.params["n"], bad.params["x"]) == (0, 0)
    assert 0 < bad.lhs - bad.rhs < 1e-12
    assert status(point(bad.lhs), point(bad.rhs), False) == FAIL


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
    assert tie.violations == 0 and min(e.margin for e in tie) == 0.0
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


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("check", [check_nbw_le_srw_tail, check_nbw_le_rho_power])
def test_check_entries_are_immutable_tuples(check, exact):
    b = ball(F2, 3)
    result = check(b, 2, kesten_rho_upper_fraction(4), test_vertices=np.arange(4), exact=exact)
    entries = list(result)
    assert entries == list(result) and len(entries) == len(result) == 12
    keys = ["spec", "n", "x"] + (["J"] if check is check_nbw_le_srw_tail else [])
    for e in entries:
        assert (type(e.x), type(e.lhs), type(e.passed)) == (int, float, bool)
        assert list(e.params) == keys
        assert e.params is not e.params  # built on each access
        with pytest.raises(AttributeError):
            e.passed = False
    assert [(e.n, e.x) for e in entries] == [(n, x) for n in range(3) for x in range(4)]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("check", [check_nbw_le_srw_tail, check_nbw_le_rho_power])
def test_empty_test_vertex_list_gives_no_entries(check, exact):
    # every row is empty, so no quotient takes a min or max of nothing
    result = check(ball(F2, 3), 3, kesten_rho_upper_fraction(4), test_vertices=[], exact=exact)
    assert result.pairs == result.violations == len(result) == 0
    assert list(result) == [] and result.lhs.shape == result.rhs.shape == (4, 0)


def test_entry_streams_are_pinned():
    # every entry of both checks at radius 6, in iteration order: the
    # digest was taken before entries were chained through one iterator
    # and small quotients divided in float64
    digest = hashlib.sha256()
    for spec, rho, exact in ((F2, kesten_rho_upper_fraction(4), True), (Z5Z5, 0.95, False),
                             (Z2Z2Z2, kesten_rho_upper_fraction(3), True)):
        b = ball(spec, 6)
        for result in (check_nbw_le_srw_tail(b, 6, rho, exact=exact),
                       check_nbw_le_rho_power(b, 6, rho, exact=exact)):
            for e in result:
                digest.update(repr(e.to_record()).encode())
    assert digest.hexdigest() == "b41d6f73a89b3a0d301d997d03d9166e5df80515d80666d00d47d777041ae6fc"


# --- _quotients: float64 division below 2^53, Python int division above ----

EDGES = [2**53 - 1, 2**53, 2**53 + 1]
QUOTIENT_INTS = st.one_of(st.integers(-2**20, 2**20), st.integers(-2**53 - 2, 2**53 + 2),
                          st.sampled_from(EDGES + [-e for e in EDGES]),
                          st.integers(-2**62, 2**62))


def _quotients_reference(vals, den, scale, offset):
    return [float(Fraction(v * scale + offset, den)).hex() for v in vals]


@given(st.lists(QUOTIENT_INTS, max_size=6),
       st.one_of(st.integers(1, 2**20), st.integers(1, 2**54), st.sampled_from(EDGES)),
       st.one_of(st.just(1), st.integers(1, 2**30), st.sampled_from(EDGES)),
       st.one_of(st.just(0), st.integers(-2**30, 2**30), st.integers(-2**54, 2**54)))
@example([2**53 - 1, -(2**53 - 1), 0], 3, 1, 0)  # the largest ends on both sides
@example([2**53, 1], 3, 1, 0)
@example([2**53 + 1, 1], 3, 1, 0)
@example([1, 5, 2**40], 2**53, 1, 0)  # den at 2^53
@example([2**52, 7], 3, 2, -1)  # 2^53 - 1 after the scale and offset
@example([2**52, 7], 3, 2, 0)
@example([0, 1, 2], 7, 2**53, 0)
@example([-5, 3], 11, 1, 2**53)
def test_quotients_on_both_paths_are_the_fraction_floats(vals, den, scale, offset):
    got = kernels._quotients(np.array(vals, dtype=np.int64), den, scale, offset)
    assert got.dtype == np.float64 and got.shape == (len(vals),)
    assert [x.hex() for x in got.tolist()] == _quotients_reference(vals, den, scale, offset)


def test_quotients_objects_and_empty():
    vals = [2**63 + 5, 2**64 - 1, 3, 2**63 + 5, -(2**70)]
    got = kernels._quotients(np.array(vals, dtype=object), 7 * 2**40, 3, 2**65)
    assert [x.hex() for x in got.tolist()] == _quotients_reference(vals, 7 * 2**40, 3, 2**65)
    for nums in (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=object)):
        got = kernels._quotients(nums, 3, 5, 2)
        assert got.dtype == np.float64 and got.shape == (0,)


@pytest.mark.parametrize("vals,den,scale,offset,divided", [
    ([2**53 - 1, -(2**53 - 1)], 3, 1, 0, True),
    ([2**52, 7], 3, 2, -1, True),
    ([2**53, 1], 3, 1, 0, False),
    ([-(2**53), 1], 3, 1, 0, False),
    ([2**52, 7], 3, 2, 0, False),
    ([1, 2], 2**53, 1, 0, False),
    ([1, 2], 2**53 - 1, 1, 0, True),
    ([0, 1], 3, 2**53, 0, False),
    ([0, 1], 3, 1, 2**53, False),
])
def test_quotients_divide_in_float64_only_below_2_53(vals, den, scale, offset, divided,
                                                       monkeypatch):
    # the exact path sorts the distinct values; the float64 path does not
    uniques = []
    real = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: uniques.append(a) or real(*a, **k))
    got = kernels._quotients(np.array(vals, dtype=np.int64), den, scale, offset)
    assert (not uniques) is divided
    assert [x.hex() for x in got.tolist()] == _quotients_reference(vals, den, scale, offset)


# --- closed-form envelope tails: the kernel checks' one-leg tail and the
# paper's chained envelope (a test oracle) -----------------------------------

@pytest.mark.parametrize("legs", [1, 2, 3])
@pytest.mark.parametrize("start", [0, 1, 7])
@pytest.mark.parametrize("base", [Fraction(0), Fraction(1, 3), Fraction(7, 8),
                                  Fraction(999, 1000)])
def test_series_tail_telescopes_exactly(base, start, legs):
    def coeff(s):
        return math.comb(s + legs - 1, legs - 1)

    for terms in (1, 5):
        head = sum(coeff(s) * base**s for s in range(start, start + terms))
        assert (legs_tail(base, start, legs, exact=True) - head
                == legs_tail(base, start + terms, legs, exact=True))
    if start == 0:
        # the full sum is the negative binomial series (1 - base)^-legs
        assert legs_tail(base, 0, legs, exact=True) == (1 - base) ** -legs


@pytest.mark.parametrize("legs", [1, 2, 3])
@pytest.mark.parametrize("start", [0, 1, 7, 40])
@pytest.mark.parametrize("base", [0.1, 0.5, 0.866, 0.99, 1 - 1e-6])
def test_series_tail_float_matches_fraction(base, start, legs):
    exact = legs_tail(Fraction(base), start, legs, exact=True)
    assert legs_tail(base, start, legs) == pytest.approx(float(exact), rel=1e-13)


@pytest.mark.parametrize("legs", [1, 2, 3])
def test_series_tail_exact_reads_a_float_base_exactly(legs):
    got = legs_tail(0.95, 6, legs, exact=True)
    assert type(got) is Fraction
    assert got == legs_tail(Fraction(0.95), 6, legs, exact=True)
    if legs == 1:
        assert got == series_tail(0.95, 6, exact=True) == Fraction(0.95) ** 6 / (1 - Fraction(0.95))


def test_series_tail_one_leg_is_the_geometric_tail():
    # the kernel checks read this form bit for bit in both arithmetics
    rho = Fraction(7, 10)
    assert series_tail(rho, 5, exact=True) == rho**5 / (1 - rho)
    assert series_tail(rho, 5) == rho**5 / (1.0 - rho)
    assert series_tail(0.7, 5) == 0.7**5 / (1.0 - 0.7)
    # and equals the envelope oracle's one leg, bit for bit and in type
    for base in (rho, 0.7, 0.0, 0, Fraction(0.95), 0.999999):
        for start in (0, 1, 7, 40):
            for exact in (False, True):
                got, want = series_tail(base, start, exact=exact), legs_tail(base, start, 1, exact)
                assert (got, type(got)) == (want, type(want))


def test_series_tail_edges():
    assert series_tail(1.0, 3) == legs_tail(1.0, 3, 2) == math.inf
    assert series_tail(Fraction(3, 2), 0) == math.inf
    for base in (-0.1, math.nan):
        with pytest.raises(ValueError):
            series_tail(base, 0)
    for base, legs in ((-0.1, 1), (math.nan, 1), (0.5, 0)):
        with pytest.raises(ValueError):
            legs_tail(base, 0, legs)


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
                     * legs_tail(lam, 5, legs, exact=True))
            assert tail == pytest.approx(float(exact), rel=1e-13)


def test_chained_tail_divergent_is_inf():
    assert chained_tail(4, 0.9, 1 / 2.7, 3, legs=2) == math.inf  # lam = 1
    assert chained_tail(4, 0.9, 0.9, 3, legs=3) == math.inf


@pytest.mark.parametrize("rho", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_chained_tail_rejects_rho_outside_unit_interval(rho):
    with pytest.raises(ValueError):
        chained_tail(4, rho, 0.1, 3, legs=1)


def test_chained_tail_rejects_negative_weight():
    with pytest.raises(ValueError):
        chained_tail(4, 0.9, -0.5, 3, legs=2)


@pytest.mark.parametrize("gap", [0.5, 1e-9])
def test_diagram_tails_are_the_chained_envelope(gap):
    # what the census's bubble sum over walk lengths n, m <= N leaves of the
    # closed form lies in the two-leg envelope from s = N + 1, at the
    # witness's rho
    rho = float_above(rho_upper(Z5Z5)[0])
    x = (1 - gap) / (3 * rho)
    classes = census_classes(Z5Z5, 8)
    for n in range(9):
        rest = bubble_diagram(Z5Z5, x) - census_bubble(classes, x, n)
        assert 0 < rest <= chained_tail(4, rho, x, n + 1, legs=2) < math.inf
