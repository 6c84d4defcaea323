"""Block-tree renewal sums: the closed-form block sums against their
syllable-by-syllable sums, mu, the bubble and the SAW speed against the
census, brute force and closed forms, the critical bisection against its
whole 60 steps, and the triangle condition at p_c, exactly."""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from girthlab import blocks
from girthlab.groups import ball, parse_group_spec
from girthlab.kernels import float_above, kesten_interval, rho_upper
from girthlab.saw import bubble_diagram, enumerate_saw
from girthlab.verify import GraphJob, VerifyConfig, run_certificate
from oracles import (
    ball_triangle,
    block_sums_by_syllable,
    block_triangle,
    census_classes,
    chained_tail,
    class_sums,
    critical_interval_60,
    cycle_saw_arcs,
    load_by_factor,
    renewal_series,
    speed_interval_by_factor,
    tree_triangle_exact,
    triangle_blocks,
)

# mu from ROADMAP item 4's block-tree table, to 7 digits
MU_TABLE = {"Z5*Z5": 2.9744492, "Z2*Z3": 1.7692924, "Z*Z5": 2.9874051,
            "Z2*Z3*Z4": 3.8999366, "Z*Z": 3.0}
# B(z_c) and the speed v, to 7 digits
BUBBLE_SPEED_TABLE = {"Z5*Z5": (1.8136593, 0.8950636), "Z2*Z3": (6.7692925, 0.8470617)}


@pytest.mark.parametrize("spec_text", ["Z5*Z5", "Z2*Z3", "Z*Z5", "Z2*Z3*Z4", "Z*Z"])
def test_renewal_series_is_the_census(spec_text):
    # c_n and sum_x |x| c_n(x) from the renewal rule's power series, in
    # integers, equal the class census's sums and the census exactly for
    # n <= 12
    spec = parse_group_spec(spec_text)
    counts, distance = renewal_series(spec, 12)
    assert (counts, distance) == class_sums(census_classes(spec, 12), 12)
    assert counts == enumerate_saw(spec, 12).counts
    if spec_text == "Z5*Z5":
        assert counts[12] == 659_376


@pytest.mark.parametrize("n_max", [0, 1, 2, 5, 12, 20])
@pytest.mark.parametrize("spec_text", ["Z", "Z2", "Z5", "Z2*Z2", "Z*Z", "Z2*Z2*Z2", "Z3*Z3",
                                       "Z5*Z5", "Z*Z5", "Z2*Z3", "Z2*Z3*Z4", "Z4*Z*Z2",
                                       "Z40*Z40", "Z1000*Z3"])
def test_series_digits_are_both_oracles(spec_text, n_max):
    # the base-2^b digits of the renewal rule at z = 2^-b are the explicit
    # power series and the class census's sums, orders above 2 n_max (read
    # as Z: Z5 from n_max = 2 down, Z40 below 20, Z1000 always) included
    spec = parse_group_spec(spec_text)
    got = blocks.series(spec, n_max)
    assert got == renewal_series(spec, n_max) == class_sums(census_classes(spec, n_max), n_max)
    assert all(type(c) is int for c in got[0] + got[1])


BLOCK_SUMS = (blocks.walks, blocks.bubbles, blocks.distances, blocks.lengths)


@pytest.mark.parametrize("m", [None, 2, *range(3, 13), 16, 27, 40, 60, 100])
@pytest.mark.parametrize("z", [Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(2, 5),
                               Fraction(9, 10), Fraction(1), Fraction(3, 2)])
def test_block_sums_are_the_syllable_sums(m, z):
    # the closed forms in G_k(z) = 1 + ... + z^(k-1) equal the per-syllable
    # sums exactly, at z = 1 (a removable singularity) and beyond it
    assert {block.__name__: block(m, z) for block in BLOCK_SUMS} == block_sums_by_syllable(m, z)


@pytest.mark.parametrize("m", [None, 2, 3, 4, 5, 16, 100])
def test_block_sums_at_one_and_infinity_in_floats(m):
    # a closed form's quotient would be nan at z = inf: every sum is inf there
    for z in (1.0, math.inf):
        assert {block.__name__: block(m, z) for block in BLOCK_SUMS} == block_sums_by_syllable(m, z)
    assert set(block_sums_by_syllable(m, math.inf).values()) == {math.inf}


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("z", [Fraction(1, 3), Fraction(2, 7), Fraction(9, 10)])
def test_walks_is_the_cycle_brute_force(m, z):
    assert blocks.walks(m, z) == cycle_saw_arcs(m, z)


@pytest.mark.parametrize("m", [None, 2, 3, 4, 5, 6])
def test_lengths_is_z_times_the_walks_derivative(m):
    # N = z T'(z): the central difference of T in Fractions, exact for a
    # polynomial of degree <= 2 and within h^2 otherwise
    z, h = Fraction(1, 4), Fraction(1, 10**6)
    slope = (blocks.walks(m, z + h) - blocks.walks(m, z - h)) / (2 * h)
    assert abs(z * slope - blocks.lengths(m, z)) < Fraction(1, 10**9)


@pytest.mark.parametrize("m", [None, 2, 5])
def test_block_sums_float_and_fraction_agree(m):
    z = Fraction(3, 10)
    for block in BLOCK_SUMS:
        assert block(m, 0.3) == pytest.approx(float(block(m, z)), rel=1e-14)


# equal factors, whose terms each sum evaluates once per distinct order
REUSE_SPECS = ["Z5*Z5", "Z*Z", "Z2*Z3*Z2", "Z3*Z3*Z3", "Z*Z7*Z*Z7", "Z4*Z*Z4*Z"]
BLOCK_FUNCTIONS = [blocks.walks, blocks.bubbles, blocks.distances, blocks.lengths,
                   blocks.block_connections]


def _same(got, want):
    # floats bit for bit (a NaN, as block_connections gives at p = inf,
    # matching a NaN), Fractions exactly, and the same type
    return type(got) is type(want) and (got == want or got != got and want != want)


@pytest.mark.parametrize("spec_text", REUSE_SPECS)
def test_load_and_speed_are_the_factor_by_factor_sums(spec_text):
    spec = parse_group_spec(spec_text)
    zs = [0.0, 0.05, 0.2, 0.25, 0.3, 1 / 3, 0.45, 0.6, 0.9, 1.0, 2.0, math.inf,
          Fraction(0), Fraction(1, 7), Fraction(3, 10), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    for block in BLOCK_FUNCTIONS:
        for z in zs:
            assert _same(blocks.load(spec, block, z), load_by_factor(spec, block, z)), (block, z)
    lo, hi = blocks.critical_interval(spec, blocks.walks)
    # equal ends, as a tree's z_c, are evaluated once; equal values of two
    # types are two ends, each in its own arithmetic
    for ends in ((lo, hi), (float(lo), float(hi)), (0.05, 0.3), (0.2, 0.21),
                 (Fraction(1, 20), Fraction(3, 10)), (Fraction(1, 3), Fraction(1, 3)),
                 (0.25, 0.25), (0.3, Fraction(0.3)), (Fraction(0.45), 0.45)):
        got, want = blocks.speed_interval(spec, *ends), speed_interval_by_factor(spec, *ends)
        assert all(map(_same, got, want)), ends


@pytest.mark.parametrize("spec_text", REUSE_SPECS)
def test_sums_evaluate_each_distinct_order_once(spec_text, monkeypatch):
    spec = parse_group_spec(spec_text)
    distinct = list(dict.fromkeys(spec.orders))
    calls = {}
    for fn in (blocks.walks, blocks.distances, blocks.lengths):
        def counting(m, z, fn=fn):
            calls.setdefault(fn.__name__, []).append(m)
            return fn(m, z)
        monkeypatch.setattr(blocks, fn.__name__, counting)
    for z in (0.2, Fraction(1, 5)):
        calls.clear()
        blocks.load(spec, blocks.walks, z)
        assert calls == {"walks": distinct}
    calls.clear()
    blocks.speed_interval(spec, 0.2, 0.25)
    both_ends = [m for m in distinct for _ in "lh"]
    assert calls == dict.fromkeys(("walks", "distances", "lengths"), both_ends)


def test_line_block_diverges_at_one():
    for block in BLOCK_SUMS:
        assert block(None, 1.0) == block(None, Fraction(3, 2)) == math.inf
    z5z = parse_group_spec("Z5*Z")
    # an infinite T_f adds 1 to the load, not inf/(1+inf) = nan
    assert blocks.load(z5z, blocks.walks, 1.0) == 1 + blocks.walks(5, 1.0) / (
        1 + blocks.walks(5, 1.0))
    assert bubble_diagram(z5z, 1.0) == math.inf


@pytest.mark.parametrize("spec_text", sorted(MU_TABLE))
def test_mu_table(spec_text):
    spec = parse_group_spec(spec_text)
    lo, hi = blocks.critical_interval(spec, blocks.walks)
    assert 0 < hi - lo < Fraction(1, 10**8)
    mu = MU_TABLE[spec_text]
    assert abs(float(1 / hi) - mu) < 1e-7 and abs(float(1 / lo) - mu) < 1e-7


@pytest.mark.parametrize("spec_text", sorted(BUBBLE_SPEED_TABLE))
def test_bubble_and_speed_table(spec_text):
    spec = parse_group_spec(spec_text)
    lo, hi = blocks.critical_interval(spec, blocks.walks)
    bub, speed = BUBBLE_SPEED_TABLE[spec_text]
    b_lo, b_hi = bubble_diagram(spec, lo), bubble_diagram(spec, hi)
    assert b_lo < b_hi and abs(float(b_lo) - bub) < 1e-6 and abs(float(b_hi) - bub) < 1e-6
    v_lo, v_hi = blocks.speed_interval(spec, lo, hi)
    assert v_lo < v_hi and abs(float(v_lo) - speed) < 1e-7 and abs(float(v_hi) - speed) < 1e-7


def test_z3z3_closed_forms_inside_their_brackets():
    # mu = 1 + sqrt 3, B(z_c) = 3 and v = (3 + sqrt 3)/6
    spec = parse_group_spec("Z3*Z3")
    lo, hi = blocks.critical_interval(spec, blocks.walks)
    root3 = math.sqrt(3)
    assert float(1 / hi) < 1 + root3 < float(1 / lo)
    assert bubble_diagram(spec, lo) < 3 < bubble_diagram(spec, hi)
    v_lo, v_hi = blocks.speed_interval(spec, lo, hi)
    assert float(v_lo) < (3 + root3) / 6 < float(v_hi)


def test_trees_are_exact_at_one_over_d_minus_one():
    # on a tree D = N, so the speed is 1; the bubble is (1 + z^2)/(1 - (d-1) z^2)
    for spec_text, d in (("Z*Z", 4), ("Z2*Z2*Z2", 3), ("Z*Z*Z", 6)):
        spec, z = parse_group_spec(spec_text), Fraction(1, d - 1)
        assert blocks.load(spec, blocks.walks, z) == 1
        assert blocks.speed_interval(spec, z, z) == (1, 1)
        assert bubble_diagram(spec, z) == (1 + z * z) / (1 - (d - 1) * z * z)
    assert bubble_diagram(parse_group_spec("Z*Z"), Fraction(1, 3)) == Fraction(5, 3)


# Zm*Zm and Z*Zm up to m = 100: from m = 19 on, mu p_c - 1 (about 3^-m) is
# below the brackets' 1e-8, which cannot show it; then the earlier specs
SEPARATED = list(dict.fromkeys(
    [f"{f}*Z{m}" for m in (*range(3, 13), 16, 20, 24, 27, 30, 40, 60, 100)
     for f in (f"Z{m}", "Z")]
    + ["Z5*Z5", "Z3*Z3", "Z2*Z3", "Z*Z5", "Z2*Z3*Z4", "Z4*Z4", "Z7*Z7"]))


@pytest.mark.parametrize("spec_text", SEPARATED)
def test_mu_times_pc_at_least_one(spec_text):
    # every open path is a SAW, so mu p_c >= 1.  Both loads increase, so a
    # rational q with the SAW load >= 1 and the cluster load <= 1 shows
    # z_c <= q <= p_c exactly: bisect in Fractions from z_c's lower end to
    # p_c's upper end until a midpoint is one.  At m = 100 the gap p_c - z_c
    # is about 1e-48, some 131 halvings of the 1e-8 bracket
    spec = parse_group_spec(spec_text)
    lo, hi = blocks.critical_interval(spec, blocks.walks)[0], blocks.pc_interval(spec)[1]
    for _ in range(200):
        q = (lo + hi) / 2
        if blocks.load(spec, blocks.walks, q) < 1:
            lo = q
        elif blocks.load(spec, blocks.block_connections, q) > 1:
            hi = q
        else:
            return
    pytest.fail(f"no separator in [{lo}, {hi}]")


# every two-factor spec over {Z, Z2, ..., Z40} but Z2*Z2 (degree 2), then six more
FACTORS = ["Z", *(f"Z{m}" for m in range(2, 41))]
SWEEP = [f"{a}*{b}" for a, b in combinations_with_replacement(FACTORS, 2) if (a, b) != ("Z2", "Z2")]
SWEEP += ["Z*Z*Z", "Z2*Z2*Z2", "Z*Z2", "Z2*Z3*Z4", "Z60*Z60", "Z100*Z100"]


def test_critical_interval_stops_at_the_60_step_ends():
    # once lo*1e9 and hi*1e9 share a grid step, no later step moves the
    # rounded ends: the early stop gives the whole bisection's brackets
    for text in SWEEP:
        spec = parse_group_spec(text)
        for block in (blocks.block_connections, blocks.walks):
            got = blocks.critical_interval(spec, block)
            assert got == critical_interval_60(spec, block), (text, block.__name__)


# the triangle at p = 1/(d-1) on trees, the tripod sums
TREE_TRIANGLES = [("Z*Z", 4, Fraction(37, 9)), ("Z2*Z2*Z2", 3, Fraction(43, 4)),
                  ("Z*Z*Z", 6, Fraction(107, 50)), ("Z*Z2*Z2*Z2", 5, Fraction(389, 144))]


@pytest.mark.parametrize("spec_text,d,want", TREE_TRIANGLES)
def test_block_triangle_is_the_tripod_sum_on_trees(spec_text, d, want):
    p = Fraction(1, d - 1)
    assert block_triangle(parse_group_spec(spec_text), p) == tree_triangle_exact(d, p) == want


def test_block_triangle_is_the_limit_of_ball_sums():
    # on Z5*Z5 at p = 3/20 the sums over the pairs of radius-R balls rise to it
    spec = parse_group_spec("Z5*Z5")
    exact = block_triangle(spec, Fraction(3, 20))
    r3, r4 = (ball_triangle(ball(spec, radius), 0.15) for radius in (3, 4))
    assert r3 < r4 < exact
    assert (r3, r4, float(exact)) == pytest.approx((1.3167007, 1.3169726, 1.31699625), abs=5e-8)


# the triangle at p_c's upper end where perccond does not pass, to 2 decimals
PERCCOND_OPEN = {"Z2*Z3": 75.95, "Z2*Z4": 32.51, "Z2*Z5": 21.30, "Z3*Z3": 17.00,
                 "Z3*Z4": 10.63, "Z3*Z5": 8.49, "Z3*Z6": 7.60}
TRIANGLE_SPECS = list(dict.fromkeys(
    [f"{f}*Z{m}" for m in (*range(3, 13), 16, 27) for f in (f"Z{m}", "Z")] + list(PERCCOND_OPEN)))


@pytest.mark.parametrize("spec_text", TRIANGLE_SPECS)
def test_triangle_finite_at_pc(spec_text):
    # the triangle condition: off the root every tau_e < 1, so Q_f < T_f, and
    # the squared load sum_f Q_f/(1+Q_f) lies below the cluster load, which
    # is 1 at p_c.  At p_c's upper end it is below 1 in Fractions, so the
    # triangle is finite there, and it bounds the triangle at p_c
    spec = parse_group_spec(spec_text)
    hi = blocks.pc_interval(spec)[1]
    squares = [triangle_blocks(m, hi)[0] for m in spec.orders]
    assert all(q < blocks.block_connections(m, hi) for q, m in zip(squares, spec.orders))
    assert blocks.load(spec, lambda m, p: triangle_blocks(m, p)[0], hi) < 1
    tri = block_triangle(spec, hi)
    assert 1 < tri < math.inf
    if spec_text in PERCCOND_OPEN:
        assert float(tri) == pytest.approx(PERCCOND_OPEN[spec_text], abs=0.005)


@pytest.mark.parametrize("spec_text", [*TRIANGLE_SPECS, "Z*Z", "Z2*Z2*Z2", "Z*Z*Z", "Z2*Z3*Z4"])
def test_block_triangle_is_below_the_envelope(spec_text):
    # the paper's three-leg envelope from s = 0 at the certificate's rho.hi
    # and p_c.hi is finite exactly where perccond passes, and there it
    # bounds the triangle, loosely: 5.3193 against 3,520,704 on Z5*Z5
    spec = parse_group_spec(spec_text)
    g = run_certificate(VerifyConfig([GraphJob(spec_text)])).graphs[0]
    perccond = {e["id"]: e for e in g["entries"]}["perccond"]["status"]
    d, rho, pc = g["inputs"]["degree"], g["inputs"]["rho"]["hi"], g["inputs"]["pc_interval"]["hi"]
    # rho is Kesten's K rounded outward on trees, [K rounded down, the
    # witness's lambda rounded up] on the other free products
    k_lo, k_hi = kesten_interval(d)
    assert g["inputs"]["rho"]["lo"] == k_lo
    assert rho == (k_hi if spec.is_tree else float_above(rho_upper(spec)[0]))
    envelope = chained_tail(d, rho, pc, 0, 3)
    assert (envelope < math.inf) == (perccond == "pass")
    if perccond == "pass":
        assert block_triangle(spec, pc) <= envelope
    if spec_text == "Z5*Z5":
        assert (float(block_triangle(spec, pc)), envelope) == pytest.approx((5.3193, 3_520_704),
                                                                            abs=0.5)
