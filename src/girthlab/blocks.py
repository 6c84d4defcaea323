"""Block-tree renewal sums on free products of cyclic groups.

The Cayley graph is a tree of blocks (lines, single edges, m-cycles) that a
SAW or an open path never re-enters once it has left, so a sum over x of a
product of per-syllable weights renews at every block.  With W_f the weight
summed over factor f's syllables (a ``Z`` syllable k counts as +-k), the sums
S_f over words that start in f solve S_f = W_f (1 + sum_{g!=f} S_g), and the
whole sum is 1/(1 - s), s = sum_f W_f/(1 + W_f), finite iff s < 1.  p_c, mu,
SAW chi, the bubble and the SAW speed are this rule with different weights,
in floats or Fractions as the argument is.  Each W_f is a closed form in
G_k(z) = 1 + z + ... + z^(k-1): its operation count, and its cost in floats,
does not grow with the order m; in Fractions z^m has m times z's digits.
Each sum evaluates a distinct order once and adds it per factor, in order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .groups import GroupSpec


def _geom(k: int, z):
    """G_k(z) = (1 - z^k)/(1 - z): k at z = 1; nan at z = inf, where the sums
    return inf before they call it."""
    return k * z if z == 1 else (1 - z**k) / (1 - z)


def walks(m: int | None, z):
    """T(z), the SAW arcs from a block's entry weighted z^length: 2z/(1-z)
    on Z, z on Z2 (one edge), 2z G_{m-1}(z) on Zm."""
    if m is None or z == math.inf:
        return math.inf if z >= 1 else 2 * z / (1 - z)
    return z if m == 2 else 2 * z * _geom(m - 1, z)


def bubbles(m: int | None, z):
    """A(z), the squared arc sum of each syllable: 2z^2/(1-z^2) on Z, z^2 on
    Z2, 2z^2 G_{m-1}(z^2) + 2(m-1)z^m on Zm (the two arcs' cross terms)."""
    if m is None or z == math.inf:
        return math.inf if z >= 1 else 2 * z * z / (1 - z * z)
    return z * z if m == 2 else 2 * z * z * _geom(m - 1, z * z) + 2 * (m - 1) * z**m


def distances(m: int | None, z):
    """D(z), the arcs weighted by the distance min(e, m-e) their syllable
    moves: 2z/(1-z)^2 on Z, z on Z2, 2z G_{m//2}(z) G_{m-m//2}(z) on Zm."""
    if m is None or z == math.inf:
        return math.inf if z >= 1 else 2 * z / (1 - z) ** 2
    return z if m == 2 else 2 * z * _geom(m // 2, z) * _geom(m - m // 2, z)


def lengths(m: int | None, z):
    """N(z) = z T'(z), the arcs weighted by their length: 2z/(1-z)^2 on Z, z on
    Z2, 2 sum_{e<m} e z^e = 2z (G_{m-1} - (m-1)z^(m-1))/(1-z) on Zm, m(m-1) at 1."""
    if m is None or z == math.inf:
        return math.inf if z >= 1 else 2 * z / (1 - z) ** 2
    if m == 2 or z == 1:
        return z if m == 2 else m * (m - 1) * z
    return 2 * z * (_geom(m - 1, z) - (m - 1) * z ** (m - 1)) / (1 - z)


def block_connections(m: int | None, p):
    """T(p), the expected number of other vertices of a block joined to a
    given one inside it: `walks` less (m-1) p^m on Zm, m >= 3, where a
    syllable's two arcs are both open with probability p^m."""
    return walks(m, p) - (m - 1) * p**m if m and m > 2 else walks(m, p)


def load(spec: GroupSpec, block, z):
    """s = sum_f W_f/(1 + W_f), W_f = block(m_f, z); an infinite W_f adds 1.
    The renewal sum 1/(1 - s) is finite iff s < 1."""
    terms = {}
    for m in spec.orders:
        if m not in terms:
            w = block(m, z)
            terms[m] = 1 if w == math.inf else w / (1 + w)
    return sum(map(terms.get, spec.orders))


def renewal(spec: GroupSpec, block, z):
    """The renewal sum 1/(1 - s), s = `load`: inf when s >= 1."""
    s = load(spec, block, z)
    return 1 / (1 - s) if s < 1 else math.inf


def critical_interval(spec: GroupSpec, block) -> tuple[Fraction, Fraction]:
    """Fractions lo < z* < hi, hi - lo < 1e-8, with `block`'s load below 1 at
    lo and above 1 at hi: a float bisection of the increasing load picks
    them, Fractions check them.  The bisection stops once lo*1e9 and hi*1e9
    lie strictly inside one grid step (k, k+1): rounding is monotone, so no
    later step moves floor(lo*1e9) or ceil(hi*1e9).  ValueError below degree 3."""
    if spec.degree < 3:
        raise ValueError(f"need degree >= 3, got {spec.degree} on {spec.describe()}")
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if load(spec, block, mid) < 1 else (lo, mid)
        k = math.floor(lo * 1e9)
        if k == math.floor(hi * 1e9) and lo * 1e9 > k:
            break
    lo_q, hi_q = Fraction(math.floor(lo * 1e9) - 1, 10**9), Fraction(math.ceil(hi * 1e9) + 1, 10**9)
    if not load(spec, block, lo_q) < 1 < load(spec, block, hi_q):
        raise ArithmeticError(f"critical search on {spec.describe()} left [{lo_q}, {hi_q}]")
    return lo_q, hi_q


def pc_interval(spec: GroupSpec) -> tuple[Fraction, Fraction]:
    """p_c in Fractions lo < p_c < hi, hi - lo < 1e-8.  The mean cluster size
    is the renewal sum of `block_connections`, finite iff its load is < 1;
    as p_c = p_T (Menshikov; Aizenman-Barsky), a load below 1 puts p at or
    below p_c and one above 1 at or above it."""
    return critical_interval(spec, block_connections)


def speed_interval(spec: GroupSpec, lo, hi) -> tuple:
    """The SAW speed v at the z_c of `walks`, over lo <= z_c <= hi.  Weighting
    each arc t^distance moves z_c(t), and the load's implicit derivative gives
    v = -z_c'(1)/z_c(1) = sum_f D_f/(1+T_f)^2 / sum_f N_f/(1+T_f)^2.  D, N and
    T increase in z: each end takes D or N and 1 + T at opposite ends."""
    one = hi == lo and type(hi) is type(lo)  # as a tree's z_c: evaluated once
    terms = {}  # per distinct order: (D, N) for v's lower end, then for its upper
    for m in dict.fromkeys(spec.orders):
        t_lo = 1 / (1 + walks(m, lo)) ** 2
        t_hi = t_lo if one else 1 / (1 + walks(m, hi)) ** 2
        terms[m] = (distances(m, lo) * t_hi, lengths(m, hi) * t_lo) + (
            () if one else (distances(m, hi) * t_lo, lengths(m, lo) * t_hi))
    sums = (0,) * (2 if one else 4)
    for m in spec.orders:  # factor by factor, in order
        sums = [s + t for s, t in zip(sums, terms[m])]
    return sums[0] / sums[1], sums[-2] / sums[-1]


def series(spec: GroupSpec, n_max: int) -> tuple[list[int], list[int]]:
    """(c_n, sum_x |x| c_n(x)) for n <= n_max, exact, read off the rule at
    z = 2^-b: G = `renewal` of `walks` is the SAW generating function, and
    G^2 sum_f D_f/(1+T_f)^2 its derivative in a weight t^|x|, as in
    `speed_interval`.  Their coefficients are integers in [0, (n+1) d^n] and
    2^b > 4 (n_max+1) d^(n_max+1), so the terms past z^n_max add less than 1
    to value * 2^(b n_max), and the base-2^b digits of its floor are the
    coefficients.  An order above 2 n_max reads as Z, whose arcs and their
    distances are the same up to length n_max: the cost does not grow with m."""
    b = (n_max + 1) * max(spec.degree, 2).bit_length() + (n_max + 1).bit_length() + 2
    z = Fraction(1, 1 << b)
    spec = GroupSpec(tuple(None if m and m > max(2 * n_max, 2) else m for m in spec.orders))
    g = renewal(spec, walks, z)
    drift = {m: distances(m, z) / (1 + walks(m, z)) ** 2 for m in dict.fromkeys(spec.orders)}
    tops = [(v.numerator << b * n_max) // v.denominator
            for v in (g, g * g * sum(map(drift.get, spec.orders)))]
    return tuple([top >> b * (n_max - n) & ((1 << b) - 1) for n in range(n_max + 1)]
                 for top in tops)
