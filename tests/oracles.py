"""Independent oracles that only the tests call: second opinions on the
package's closed forms (the block sums summed syllable by syllable among
them, the load and the speed bracket evaluated factor by factor, and the
critical bisection without its early stop), ball distances
and crossing thresholds, normal-form word arithmetic, which the package's
integer-array balls do without, the SAW census's class table and power
series, its endpoint sup, chi bracket and bubble sums, the triangle diagram (the exact
block-tree sum, the tree's tripod sum, brute-force ball sums and the
paper's three-leg envelope), and mean-field exponent fits on the exact
tree values."""

import decimal
import heapq
import math
from fractions import Fraction

from girthlab import blocks, branching
from girthlab.groups import Ball, GroupSpec, Word
from girthlab.kernels import series_tail
from girthlab.saw import SawCensus, _children, connective_constant
from girthlab.stats import ExponentFit, fit_loglog

IDENTITY: Word = ()


def branch_survival_bisection(d: int, p: float) -> float:
    """The fixed point of `branch_survival` located by bisection on
    f(t) = 1-(1-pt)^(d-1) - t in Fractions, rounded to a float.

    f(0) = 0 and f is concave on [0, 1], so f > 0 just right of 0 iff
    f'(0) = p(d-1) - 1 > 0, and then the positive root is in (t, 2t] for the
    largest dyadic t = 2^-k with f(t) > 0.  64 halvings of that window leave
    it under 2^-64 times the root."""
    q = Fraction(p)

    def f(t: Fraction) -> Fraction:
        return 1 - (1 - q * t) ** (d - 1) - t

    if q * (d - 1) <= 1:
        return 0.0
    lo = Fraction(1)
    while f(lo) <= 0:
        lo /= 2
    hi = 2 * lo
    for _ in range(64):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return float((lo + hi) / 2)


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


def load_by_factor(spec: GroupSpec, block, z):
    """`blocks.load` evaluated factor by factor, with no reuse of an equal
    order's term."""
    return sum(1 if w == math.inf else w / (1 + w) for w in (block(m, z) for m in spec.orders))


def speed_interval_by_factor(spec: GroupSpec, lo, hi) -> tuple:
    """`blocks.speed_interval` evaluated factor by factor, with no reuse of
    an equal order's D, N and T terms."""
    d_lo = d_hi = n_lo = n_hi = 0
    for m in spec.orders:
        t_lo, t_hi = 1 / (1 + blocks.walks(m, lo)) ** 2, 1 / (1 + blocks.walks(m, hi)) ** 2
        d_lo, d_hi = d_lo + blocks.distances(m, lo) * t_hi, d_hi + blocks.distances(m, hi) * t_lo
        n_lo, n_hi = n_lo + blocks.lengths(m, lo) * t_hi, n_hi + blocks.lengths(m, hi) * t_lo
    return d_lo / n_hi, d_hi / n_lo


def critical_interval_60(spec: GroupSpec, block) -> tuple[Fraction, Fraction]:
    """`blocks.critical_interval`'s grid ends from its whole 60-step float
    bisection, with no early stop and no Fraction check."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if blocks.load(spec, block, mid) < 1 else (lo, mid)
    return Fraction(math.floor(lo * 1e9) - 1, 10**9), Fraction(math.ceil(hi * 1e9) + 1, 10**9)


def triangle_blocks(m: int | None, p) -> tuple[Fraction, Fraction]:
    """(Q, C) of a factor's block at bond density p, in Fractions: Q = sum
    over e != 0 of tau_e^2 and C = sum over ordered distinct u, v != 0 of
    tau(0,u) tau(u,v) tau(v,0), with tau the connection probability inside
    the block.  On Zm, tau_e = p^e + p^(m-e) - p^m (either arc open), summed
    position by position in integers over the common denominator b^m of
    p = a/b; on Z, tau_k = p^|k|, so Q = 2q/(1-q) and C = 6q^2/(1-q)^2 with
    q = p^2 (three points of span L >= 2: 6(L-1) ordered pairs); on Z2, one
    edge: (p^2, 0)."""
    p = Fraction(p)
    if m is None:
        q = p * p
        return 2 * q / (1 - q), 6 * q * q / (1 - q) ** 2
    if m == 2:
        return p * p, Fraction(0)
    a, b = p.numerator, p.denominator
    t = [b**m] + [a**e * b ** (m - e) + a ** (m - e) * b**e - a**m for e in range(1, m)]
    return (Fraction(sum(x * x for x in t[1:]), b ** (2 * m)),
            Fraction(sum(t[u] * t[(v - u) % m] * t[v]
                         for u in range(1, m) for v in range(1, m) if u != v), b ** (3 * m)))


def block_triangle(spec: GroupSpec, p):
    """The triangle diagram sum_{x,y} tau(0,x) tau(x,y) tau(y,0) at bond
    density p, exactly in Fractions (inf where it diverges), by the median
    of each triple (0, x, y) on the block tree.

    tau factors over the blocks a path crosses, so an arm leaving a vertex
    by a factor-f block weighs R_f = Q_f (1+S)/(1+Q_f) in all, where
    S = s/(1-s) renews over the next block and s = sum_f Q_f/(1+Q_f), the
    squared load: the sum is finite iff s < 1.  A vertex median takes
    three arms in distinct factors, any of them empty: 1 + 3 e_1 + 6 e_2 +
    6 e_3 in the elementary symmetric sums e_k of the R_f.  A block median
    meets a factor-f block at three distinct vertices, each with an arm
    that avoids f: sum_f (1+S-R_f)^3 C_f, (Q_f, C_f) = `triangle_blocks`."""
    sums = [triangle_blocks(m, p) for m in spec.orders]
    s = sum(q / (1 + q) for q, _ in sums)
    if s >= 1:
        return math.inf
    big_s = s / (1 - s)
    rs = [q * (1 + big_s) / (1 + q) for q, _ in sums]
    e = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    for r in rs:
        for k in (3, 2, 1):
            e[k] += e[k - 1] * r
    return (1 + 3 * e[1] + 6 * e[2] + 6 * e[3]
            + sum((1 + big_s - r) ** 3 * c for r, (_, c) in zip(rs, sums)))


def tree_triangle_exact(d: int, p):
    """Closed-form triangle sum on the d-regular tree via the tripod
    decomposition: every pair (x, y) has a median c of the triple
    (0, x, y), and the weight is p^{2(u+v+w)} for arm lengths u, v, w.
    Exact for a Fraction p."""
    if p * p * (d - 1) >= 1:
        raise ValueError("series diverges: p^2 (d-1) >= 1")
    q = p * p

    def arm(first_count: int):
        # sum_{v >= 1} first_count * (d-1)^{v-1} * q^v
        return first_count * q / (1 - (d - 1) * q)

    # median at the root: arms (toward x, toward y) take distinct directions
    at_root = 1 + 2 * arm(d) + arm(d) * arm(d - 1)
    # median at distance u >= 1: sum of d (d-1)^{u-1} q^u center weights is
    # arm(d) again; both arms must avoid the root direction
    per_center = 1 + 2 * arm(d - 1) + arm(d - 1) * arm(d - 2)
    return at_root + arm(d) * per_center


def ball_triangle(ball: Ball, p: float) -> float:
    """The triangle sum over the pairs (x, y) of `ball`, in floats, with
    tau(x, y) the product over the syllables of x^{-1} y of the connection
    probability inside each block: p^|k| on Z, p on Z2 and
    p^e + p^(m-e) - p^m on Zm."""
    spec = ball.spec

    def block_tau(m: int | None, e: int) -> float:
        if m is None:
            return p ** abs(e)
        return p if m == 2 else p**e + p ** (m - e) - p**m

    def tau(word: Word) -> float:
        return math.prod(block_tau(spec.orders[f], e) for f, e in word)

    words = [ball.word(v) for v in range(ball.n_vertices)]
    to_root = [tau(w) for w in words]
    return sum(to_root[i] * to_root[j] * tau(multiply(spec, inverse(spec, x), y))
               for i, x in enumerate(words) for j, y in enumerate(words))


def legs_tail(base, start: int, legs: int, exact: bool = False):
    """sum_{s >= start} C(s+legs-1, legs-1) base^s, in closed form.

    The coefficient counts the ways to split s steps over `legs` chained
    legs; the sum is base^start * sum_{j<legs} C(start+legs-1, legs-1-j)
    base^j / (1-base)^{j+1}, and legs = 1 is `kernels.series_tail`, bit for
    bit.  Exact mode works in Fractions, reading a float base at its exact
    binary value.  inf when base >= 1.  Raises ValueError if base < 0 or
    legs < 1."""
    if not base >= 0 or legs < 1:
        raise ValueError("legs_tail needs base >= 0 and legs >= 1")
    if base >= 1:
        return math.inf
    if exact:
        base = Fraction(base)
    rest = (Fraction(1) if exact else 1.0) - base
    return sum(math.comb(start + legs - 1, legs - 1 - j) * base ** (start + j) / rest ** (j + 1)
               for j in range(legs))


def chained_tail(d: int, rho_ub: float, x: float, start: int, legs: int) -> float:
    """The paper's envelope: the tail over s >= start of `legs` chained
    two-point functions at weight x per step.

    The kernel bound q^n(0,y) <= rho^n / (1 - rho) and the (d-1)^n
    branching of non-backtracking paths give the two-point envelope
    d/((d-1)(1-rho)) * sum_n lam^n, lam = x(d-1)rho; chaining `legs` of
    them (the bubble is 2, the triangle 3) gives
    (d/((d-1)(1-rho)))^legs * legs_tail(lam, start, legs), finite iff
    lam < 1.  Raises ValueError if rho_ub is not in (0, 1), or x < 0."""
    if not 0 < rho_ub < 1:
        raise ValueError("need 0 < rho_ub < 1")
    pref = d / ((d - 1) * (1.0 - rho_ub))
    return pref**legs * legs_tail(x * (d - 1) * rho_ub, start, legs)


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


def census_classes(spec: GroupSpec, n_max: int) -> list[tuple[int, dict[int, int]]]:
    """The SAW census as classes of endpoint words, for n <= n_max: per
    class, its number of words and their shared {n: c_n(x)}.  A class is
    the words sharing a last factor and a walk-count polynomial truncated
    at n_max; a child class has its parent's number times that of the
    syllables taking its arc (2 for ``Z`` +-k and ``Zm`` e != m/2, 1 for
    ``Z2`` and the even-m antipode).  Classes are expanded in order of
    their lowest power (the words' length), so each is complete before it
    is expanded.  A word's length is the lowest power of its polynomial."""
    # per length: (last factor, sorted polynomial items) -> number of words
    by_lo: list[dict] = [{} for _ in range(n_max + 1)]
    by_lo[0][(-1, ((0, 1),))] = 1
    # sorted polynomial items -> number of endpoint words with that polynomial
    sizes: dict[tuple[tuple[int, int], ...], int] = {}
    for pending in by_lo:
        for (last, items), size in pending.items():
            sizes[items] = sizes.get(items, 0) + size
            for f, tails, child in _children(spec, n_max, last, dict(items)):
                key = (f, tuple(sorted(child.items())))
                bucket = by_lo[key[1][0][0]]
                bucket[key] = bucket.get(key, 0) + size * len(tails)
    return [(size, dict(items)) for items, size in sizes.items()]


def class_sums(classes, n_max: int) -> tuple[list[int], list[int]]:
    """(c_n, sum_x |x| c_n(x)) for n <= n_max summed over `census_classes`."""
    return ([sum(size * poly.get(n, 0) for size, poly in classes) for n in range(n_max + 1)],
            [sum(size * poly.get(n, 0) * min(poly) for size, poly in classes)
             for n in range(n_max + 1)])


def sup_endpoint_probability(census: SawCensus, n: int) -> float:
    """max_x c_n(x) / c_n off the census's endpoint words, which it builds;
    ValueError as the census's readers raise it, for an n outside the
    census or a length with no walk."""
    census._require_walks(n)
    return max(census.endpoint_counts[n].values()) / census.counts[n]


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


def census_bubble(classes, z: float, truncation: int) -> float:
    """The bubble's partial sum over walk-length pairs n, m <= truncation of
    O[n][m] z^(n+m), O[n][m] = sum_x c_n(x) c_m(x) counted exactly in
    Python ints as the sum over the `census_classes` of size * c_n * c_m."""
    overlap = [[0] * (truncation + 1) for _ in range(truncation + 1)]
    for size, poly in classes:
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
