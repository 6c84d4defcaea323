"""Independent oracles that only the tests call: second opinions on the
package's closed forms (the block sums summed syllable by syllable among
them), ball distances and crossing thresholds,
normal-form word arithmetic, which the package's integer-array balls do
without, the SAW census's power series, chi bracket and bubble sums, and
mean-field exponent fits on the exact tree values."""

import decimal
import heapq
import math
from fractions import Fraction

from girthlab import branching
from girthlab.branching import FIXED_POINT_TOL
from girthlab.groups import Ball, GroupSpec, Word
from girthlab.kernels import series_tail
from girthlab.saw import SawCensus, connective_constant
from girthlab.stats import ExponentFit, fit_loglog

IDENTITY: Word = ()


def branch_survival_bisection(d: int, p: float, tol: float = FIXED_POINT_TOL) -> float:
    """The fixed point of `branch_survival` located by bisection on
    f(t) = 1-(1-pt)^(d-1) - t."""

    def f(t: float) -> float:
        return 1.0 - (1.0 - p * t) ** (d - 1) - t

    # f(0) = 0 always; the survival root is the positive zero when it exists.
    # f is concave on [0,1], so f > 0 just right of 0 iff supercritical.
    lo, hi = tol, 1.0
    if f(lo) <= 0.0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reduce_exponent(spec: GroupSpec, factor: int, exp: int) -> int:
    m = spec.orders[factor]
    if m is not None:
        exp %= m
    return exp


def append_syllable(spec: GroupSpec, word: Word, factor: int, exp: int) -> Word:
    """Multiply word by a single syllable, keeping normal form."""
    if not 0 <= factor < len(spec.orders):
        raise IndexError(f"factor index {factor} out of range")
    exp = _reduce_exponent(spec, factor, exp)
    if exp == 0:
        return word
    if word and word[-1][0] == factor:
        merged = _reduce_exponent(spec, factor, word[-1][1] + exp)
        if merged == 0:
            return word[:-1]
        return word[:-1] + ((factor, merged),)
    return word + ((factor, exp),)


def normal_form(spec: GroupSpec, syllables) -> Word:
    """Reduce an arbitrary syllable sequence to the unique normal form."""
    w: Word = IDENTITY
    for factor, exp in syllables:
        w = append_syllable(spec, w, factor, exp)
    return w


def inverse(spec: GroupSpec, w: Word) -> Word:
    return normal_form(spec, ((f, -e) for f, e in reversed(w)))


def multiply(spec: GroupSpec, a: Word, b: Word) -> Word:
    w = a
    for syl in b:
        w = append_syllable(spec, w, *syl)
    return w


def word_length(spec: GroupSpec, w: Word) -> int:
    """Graph distance from the identity to w in the Cayley graph.

    Each syllable contributes its distance inside the factor's cycle/line.
    """
    total = 0
    for factor, exp in w:
        m = spec.orders[factor]
        total += abs(exp) if m is None else min(exp, m - exp)
    return total


def superharmonic_ratio(ball: Ball, rs) -> Fraction:
    """max (Pf)(x) / f(x) over the vertices x with dist(x) < R, in
    Fractions, for the witness f(x) = prod phi_f(e) over the syllables of
    x's word: (r^e + r^{m-e}) / (1 + r^m) on Zm, r^|e| on Z, r on Z2, with
    r = rs[f].  Every vertex inside the radius has all d neighbours in the
    ball, so the ratio there is exact."""
    orders = ball.spec.orders

    def phi(f: int, e: int) -> Fraction:
        r, m = rs[f], orders[f]
        if m is None or m == 2:
            return r ** abs(e)
        return (r**e + r ** (m - e)) / (1 + r**m)

    fs = [math.prod((phi(f, e) for f, e in ball.word(v)), start=Fraction(1))
          for v in range(ball.n_vertices)]
    return max(sum(fs[y] for y, _ in ball.adj[x]) / (len(ball.adj[x]) * fs[x])
               for x in range(ball.n_vertices) if ball.dist[x] < ball.radius)


def cycle_connection_sum(m: int, p: Fraction) -> Fraction:
    """sum over e != 0 of P_p(0 <-> e) on an m-cycle whose edge i joins i
    and i + 1 mod m, in Fractions: a sum over all 2^m open/closed states
    of the size of 0's cluster, less 0 itself."""
    total = Fraction(0)
    for state in range(2**m):
        is_open = [state >> i & 1 for i in range(m)]
        weight = math.prod((p if o else 1 - p for o in is_open), start=Fraction(1))
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for w, edge in (((v + 1) % m, v), ((v - 1) % m, (v - 1) % m)):
                if is_open[edge] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        total += weight * (len(seen) - 1)
    return total


def tree_sphere_size(d: int, r: int) -> int:
    """Vertices at distance r from the root of the d-regular tree."""
    return 1 if r == 0 else d * (d - 1) ** (r - 1)


def cycle_saw_arcs(m: int, z: Fraction) -> Fraction:
    """sum of z^length over the self-avoiding walks of length >= 1 from 0
    on an m-cycle, by a depth-first search over the walks."""
    total, stack = Fraction(0), [(0, frozenset([0]))]
    while stack:
        v, seen = stack.pop()
        for w in ((v + 1) % m, (v - 1) % m):
            if w not in seen:
                total += z ** len(seen)
                stack.append((w, seen | {w}))
    return total


def block_sums_by_syllable(m: int | None, z) -> dict:
    """`blocks`' per-factor sums walks, bubbles, distances and lengths, summed
    syllable by syllable: over 0 < e < m on Zm, with a = z^e and b = z^(m-e)
    the weights of syllable e's two arcs (b = 0 on Z2, one edge); the line's
    closed forms on Z, inf at z >= 1."""
    if m is None:
        if z >= 1:
            return dict.fromkeys(("walks", "bubbles", "distances", "lengths"), math.inf)
        return {"walks": 2 * z / (1 - z), "bubbles": 2 * z * z / (1 - z * z),
                "distances": 2 * z / (1 - z) ** 2, "lengths": 2 * z / (1 - z) ** 2}
    arcs = [(e, z**e, 0 if m == 2 else z ** (m - e)) for e in range(1, m)]
    return {"walks": sum(a + b for _, a, b in arcs),
            "bubbles": sum((a + b) ** 2 for _, a, b in arcs),
            "distances": sum(min(e, m - e) * (a + b) for e, a, b in arcs),
            "lengths": sum(e * a + (m - e) * b for e, a, b in arcs)}


def _series_mul(a: list[int], b: list[int]) -> list[int]:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _series_inv(a: list[int]) -> list[int]:
    """1/a for an integer power series with a[0] = 1, to len(a) terms."""
    out = [1] + [0] * (len(a) - 1)
    for k in range(1, len(a)):
        out[k] = -sum(a[i] * out[k - i] for i in range(1, k + 1))
    return out


def renewal_series(spec: GroupSpec, n_max: int) -> tuple[list[int], list[int]]:
    """(c_n, sum_x |x| c_n(x)) for n <= n_max as integer power series in
    z, from the block-tree renewal rule alone: with T_f and D_f the arcs
    of a factor-f block counted and weighted by the distance their
    syllable moves, the SAW generating function with weight t^|x| is
    G = 1/(1 - sum_f T_f/(1+T_f)), and its t-derivative at t = 1 is
    G^2 sum_f D_f/(1+T_f)^2."""
    load, drift = [0] * (n_max + 1), [0] * (n_max + 1)
    for m in spec.orders:
        arcs = ([(k, k) for k in range(1, n_max + 1)] * 2 if m is None else [(1, 1)] if m == 2
                else [(n, min(e, m - e)) for e in range(1, m) for n in (e, m - e)])
        t, dist = [0] * (n_max + 1), [0] * (n_max + 1)
        for n, x in arcs:
            if n <= n_max:
                t[n] += 1
                dist[n] += x
        inv = _series_inv([1] + t[1:])
        load = [a + b for a, b in zip(load, _series_mul(t, inv))]
        drift = [a + b for a, b in zip(drift, _series_mul(dist, _series_mul(inv, inv)))]
    g = _series_inv([1] + [-a for a in load[1:]])
    return g, _series_mul(_series_mul(g, g), drift)


def census_chi_bracket(census: SawCensus, z: float) -> tuple[float, float]:
    """chi(z) between the census's partial sum over n <= n_max and that sum
    plus a submultiplicative tail: with mu_ub = c_a^{1/a} minimal over a,
    c_n <= M mu_ub^n where M = max_{r<a} c_r / mu_ub^r, so the tail is
    geometric with base mu_ub * z, inf unless that base is < 1."""
    mu = connective_constant(census)
    a = 1 + min(range(len(mu.sequence)), key=mu.sequence.__getitem__)
    m_const = max(census.counts[r] / mu.best_upper**r for r in range(a))
    head = sum(c * z**n for n, c in enumerate(census.counts))
    return head, head + m_const * series_tail(mu.best_upper * z, census.n_max + 1)


def census_bubble(census: SawCensus, z: float, truncation: int) -> float:
    """The bubble's partial sum over walk-length pairs n, m <= truncation of
    O[n][m] z^(n+m), O[n][m] = sum_x c_n(x) c_m(x) counted exactly in
    Python ints as the sum over the census classes of size * c_n * c_m."""
    overlap = [[0] * (truncation + 1) for _ in range(truncation + 1)]
    for size, poly in census.classes:
        terms = [(n, c) for n, c in poly.items() if n <= truncation]
        for n, c_n in terms:
            for m, c_m in terms:
                overlap[n][m] += size * c_n * c_m
    return sum(overlap[n][m] * z ** (n + m)
               for n in range(truncation + 1) for m in range(truncation + 1))


def bnp_term_decimal(rho: float, big_c: float) -> decimal.Decimal:
    """C log(1 + (1-rho)^{-2}) to 50 digits, at rho's and C's exact values."""
    with decimal.localcontext(decimal.Context(prec=50)):
        gap = 1 - decimal.Decimal(rho)
        return decimal.Decimal(big_c) * (1 + 1 / (gap * gap)).ln()


def bottleneck_dijkstra(ball: Ball, uniforms) -> float:
    """min over root -> radius-R paths of the largest edge uniform on the
    path (-inf at radius 0, inf with no radius-R vertex): a Dijkstra keyed
    on the path maximum, stopping at the first radius-R vertex popped."""
    adj, dist, radius = ball.adj, ball.dist, ball.radius
    best = {0: -math.inf}  # an absent vertex stands at 2.0, above every uniform
    heap = [(-math.inf, 0)]
    while heap:
        m, x = heapq.heappop(heap)
        if m > best[x]:
            continue
        if dist[x] == radius:
            return m
        for y, a in adj[x]:
            w = max(float(uniforms[a >> 1]), m)
            if w < best.get(y, 2.0):
                best[y] = w
                heapq.heappush(heap, (w, y))
    return math.inf


def fit_gamma(spec: GroupSpec, p_grid: list[float], pc: float) -> ExponentFit:
    """log E|C| vs log(pc - p) on exact oracle values, target slope -1."""
    gaps = [pc - p for p in p_grid]
    chis = [branching.mean_cluster_size(spec.degree, p) for p in p_grid]
    return fit_loglog(gaps, chis, name="gamma_susceptibility", target=-1.0)


def fit_beta(spec: GroupSpec, p_grid: list[float], pc: float) -> ExponentFit:
    """log theta vs log(p - pc) on survival oracle values, target slope 1."""
    gaps = [p - pc for p in p_grid]
    thetas = [branching.survival_probability(spec.degree, p) for p in p_grid]
    return fit_loglog(gaps, thetas, name="beta_theta", target=1.0)
