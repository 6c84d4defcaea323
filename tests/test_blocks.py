"""Block-tree renewal sums: the closed-form block sums against their
syllable-by-syllable sums, and mu, the bubble and the SAW speed against the
census, brute force and closed forms."""

import math
from fractions import Fraction

import pytest

from girthlab import blocks
from girthlab.groups import parse_group_spec
from girthlab.saw import bubble_diagram, enumerate_saw
from oracles import block_sums_by_syllable, cycle_saw_arcs, renewal_series

# mu from ROADMAP item 4's block-tree table, to 7 digits
MU_TABLE = {"Z5*Z5": 2.9744492, "Z2*Z3": 1.7692924, "Z*Z5": 2.9874051,
            "Z2*Z3*Z4": 3.8999366, "Z*Z": 3.0}
# B(z_c) and the speed v, to 7 digits
BUBBLE_SPEED_TABLE = {"Z5*Z5": (1.8136593, 0.8950636), "Z2*Z3": (6.7692925, 0.8470617)}


@pytest.mark.parametrize("spec_text", ["Z5*Z5", "Z2*Z3", "Z*Z5", "Z2*Z3*Z4", "Z*Z"])
def test_renewal_series_is_the_census(spec_text):
    # c_n and sum_x |x| c_n(x) from the renewal rule's power series, in
    # integers, equal the word-free census exactly for n <= 12
    spec = parse_group_spec(spec_text)
    census = enumerate_saw(spec, 12)
    counts, distance = renewal_series(spec, 12)
    assert counts == census.counts
    assert distance == [sum(size * poly.get(n, 0) * min(poly) for size, poly in census.classes)
                        for n in range(13)]
    if spec_text == "Z5*Z5":
        assert counts[12] == 659_376


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
