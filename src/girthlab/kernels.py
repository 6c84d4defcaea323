"""Random-walk kernels on Cayley balls.

Simple random walk (SRW) and non-backtracking walk (NBW) distributions
started from the root, valid for the infinite graph up to the horizon
H = min(N, R): mass cannot feel the missing boundary edges before step
R+1.  Two arithmetic modes.  Exact mode (the ground truth) counts walks
in integers: p^n(0,x) = N_n(x) / D_n, where N_n(x) is the number of
n-step walks from the root to x inside the ball and D_n the number of
n-step walks in all, d^n for the SRW and d(d-1)^(n-1) for the NBW.
Float mode propagates float64 probabilities (drift <= 1e-12 per mass
check).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .groups import Ball, GroupSpec

FLOAT_MASS_TOL = 1e-12  # float mode's mass drift; no verdict reads it


@dataclass
class KernelTable:
    kind: str  # "srw" | "nbw"
    ball: Ball
    horizon: int  # H = min(N, R): steps exact for the infinite graph
    # per n, one entry per vertex: exact mode, the walk counts N_n (int64
    # while D_n < 2^63, Python ints in an object array beyond); float
    # mode, the probabilities p^n(0, .)
    counts: list
    denominators: list | None  # exact mode: D_n per n; float mode: None
    exact: bool

    @functools.cached_property
    def steps(self) -> list:
        """Per n: exact mode, a dict vertex -> Fraction over the support;
        float mode, the probability array.  Built once, on first use."""
        if not self.exact:
            return self.counts
        return [{v: self.prob(n, v) for v in self.support(n)} for n in range(len(self.counts))]

    def prob(self, n: int, vertex: int):
        """Probability the walk is at `vertex` after n steps."""
        c = self.counts[n][vertex]
        return Fraction(int(c), self.denominators[n]) if self.exact else c

    def mass(self, n: int):
        total = self.counts[n].sum()
        return Fraction(int(total), self.denominators[n]) if self.exact else float(total)

    def support(self, n: int):
        return np.flatnonzero(self.counts[n]).tolist()

    def to_csv_rows(self):
        from .groups import word_str

        labels: dict[int, str] = {}  # a vertex is in the support of many n
        rows = []
        for n in range(len(self.counts)):
            for v in self.support(n):
                if v not in labels:
                    labels[v] = word_str(self.ball.spec, self.ball.word(v))
                rows.append((self.kind, n, labels[v], float(self.prob(n, v))))
        return rows


def _fit(counts: np.ndarray, den: int) -> np.ndarray:
    """`counts` as is while `den` fits int64, else as Python ints."""
    return counts.astype(object) if den >= 2**63 and counts.dtype != object else counts


def _push(values: np.ndarray, heads: np.ndarray, size: int) -> np.ndarray:
    """Sum per-arc `values` into `size` vertex bins by `heads`: float64 by
    np.bincount, counts exactly in their own dtype by np.add.at."""
    if values.dtype == float:
        return np.bincount(heads, weights=values, minlength=size)
    out = np.zeros(size, dtype=values.dtype)
    np.add.at(out, heads, values)
    return out


def srw_kernel(ball: Ball, n_steps: int, exact: bool = False) -> KernelTable:
    """n-step simple random walk distributions from the root."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    d = ball.spec.degree
    dens = [d**n for n in range(n_steps + 1)] if exact else None
    cur = np.zeros(ball.n_vertices, dtype=np.int64 if exact else float)
    cur[0] = 1
    counts = [cur]
    for n in range(1, n_steps + 1):
        moved = _fit(cur, dens[n])[ball.arc_tail] if exact else cur[ball.arc_tail] / d
        cur = _push(moved, ball.arc_head, ball.n_vertices)
        counts.append(cur)
    return KernelTable("srw", ball, min(n_steps, ball.radius), counts, dens, exact)


def nbw_kernel(ball: Ball, n_steps: int, exact: bool = False) -> KernelTable:
    """n-step non-backtracking walk distributions from the root.

    First step uniform over the d root arcs, later steps uniform over the
    d-1 continuations that do not reverse the previous arc.  Exact mode
    counts the walks on each arc, with no division.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    d = ball.spec.degree
    if d < 3:
        raise ValueError("non-backtracking walk needs degree >= 3")
    head, tail, nv = ball.arc_head, ball.arc_tail, ball.n_vertices
    dens = [1] + [d * (d - 1) ** (n - 1) for n in range(1, n_steps + 1)] if exact else None
    root = np.zeros(nv, dtype=np.int64 if exact else float)
    root[0] = 1
    counts = [root]
    if n_steps >= 1:
        arc = np.zeros(len(head), dtype=root.dtype)
        arc[np.flatnonzero(tail == 0)] = 1 if exact else 1.0 / d
        counts.append(_push(arc, head, nv))
        rev = np.arange(len(head)) ^ 1
        for n in range(2, n_steps + 1):
            # push mass from arc (u,v) to all arcs out of v except (v,u);
            # counts[-1] is the mass arriving at each vertex
            if exact:
                arc = _fit(counts[-1], dens[n])[tail] - _fit(arc, dens[n])[rev]
            else:
                arc = counts[-1][tail] / (d - 1) - arc[rev] / (d - 1)
            counts.append(_push(arc, head, nv))
    return KernelTable("nbw", ball, min(n_steps, ball.radius), counts, dens, exact)


def kesten_rho(d: int) -> float:
    """Spectral radius of the d-regular tree."""
    return 2.0 * math.sqrt(d - 1) / d


def kesten_interval(d: int) -> tuple[float, float]:
    """Floats lo <= K <= hi around Kesten's K = 2 sqrt(d-1)/d: the largest
    float whose square is <= K^2 = 4(d-1)/d^2 and the smallest whose square
    is >= it, both checked in Fractions (`kesten_rho` lies on either side)."""
    k2, lo = Fraction(4 * (d - 1), d * d), kesten_rho(d)
    while Fraction(lo) ** 2 > k2:
        lo = math.nextafter(lo, -math.inf)
    while Fraction(math.nextafter(lo, math.inf)) ** 2 <= k2:
        lo = math.nextafter(lo, math.inf)
    return lo, lo if Fraction(lo) ** 2 == k2 else math.nextafter(lo, math.inf)


def rho_upper(spec: GroupSpec) -> tuple[Fraction, tuple[Fraction, ...]]:
    """A Fraction lambda >= rho and its witness rationals r_f, one per factor.

    Schur test (Woess, Random Walks on Infinite Graphs and Groups, ch. 9):
    rho = ||P|| <= lambda if some f > 0 has Pf <= lambda f everywhere.  Here
    f(x) is the product over x's syllables of phi_f(e): (r^e + r^{m-e}) /
    (1 + r^m) on Zm, r^|k| on Z and r on Z2, so that d (Pf/f)(x) is
    own_f - out_f + sum_g out_g for x of last factor f and sum_g out_g at
    the root, with own = r + 1/r (1/r on Z2) and out_g = d_g phi_g(1).  The
    r_f are limit_denominator(10**9) of a float search: a golden section
    over the first factor's r, each other order taking by bisection the r
    of equal slack own - out.  Every r_f > 0 gives a true bound; the search
    sets only how tight.  Raises ValueError below degree 3, where rho = 1.
    """
    d, orders = spec.degree, spec.orders
    if d < 3:
        raise ValueError(f"need degree >= 3 for rho < 1, got {d} on {spec.describe()}")

    def own_out(m, r):
        if m == 2:
            return 1 / r, r
        return r + 1 / r, 2 * (r if m is None else (r + r ** (m - 1)) / (1 + r**m))

    def lam(rs: dict):  # one side per distinct order: equal sides give equal terms
        sides = {m: own_out(m, r) for m, r in rs.items()}
        total = sum(sides[m][1] for m in orders)
        return max(total, *(total + own - out for own, out in sides.values())) / d

    def balanced(r0: float) -> dict:
        own, out = own_out(orders[0], r0)
        rs = {orders[0]: r0}
        for m in set(orders) - {orders[0]}:
            lo, hi = 0.0, 1.0
            for _ in range(40):
                mid = (lo + hi) / 2
                o, u = own_out(m, mid)
                lo, hi = (mid, hi) if o - u > own - out else (lo, mid)
            rs[m] = (lo + hi) / 2
        return rs

    g, lo, hi = (math.sqrt(5.0) - 1.0) / 2.0, 0.0, 1.0
    for _ in range(28):
        x, y = hi - g * (hi - lo), lo + g * (hi - lo)
        lo, hi = (lo, y) if lam(balanced(x)) <= lam(balanced(y)) else (x, hi)
    rs = {m: Fraction(r).limit_denominator(10**9) for m, r in balanced((lo + hi) / 2).items()}
    return lam(rs), tuple(rs[m] for m in orders)


def float_above(q: Fraction) -> float:
    """The least float >= q; x = a/b >= q = n/c iff a c >= n b, as b, c > 0."""
    x = float(q)
    (a, b), (n, c) = x.as_integer_ratio(), q.as_integer_ratio()
    return x if a * c >= n * b else math.nextafter(x, math.inf)


def kesten_rho_upper_fraction(d: int) -> Fraction:
    """A rational certified upper bound on the Kesten value (1e-12 slack)."""
    v = kesten_rho(d)
    return Fraction(math.ceil(v * 10**12) + 1, 10**12)


def tree_return_probabilities(d: int, n_steps: int) -> np.ndarray:
    """p^n(0,0) on the d-regular tree via the distance-from-root chain.

    The SRW projected onto distance from the root is a birth-death chain:
    from 0 it moves to 1, from r >= 1 it moves up with probability
    (d-1)/d and down with probability 1/d.  Exact, O(n^2) time.
    """
    probs = np.zeros(n_steps + 1)
    cur = np.zeros(n_steps + 2)
    cur[0] = 1.0
    probs[0] = 1.0
    up = (d - 1) / d
    down = 1.0 / d
    for n in range(1, n_steps + 1):
        nxt = np.zeros_like(cur)
        nxt[1] += cur[0]
        nxt[2:] += cur[1:-1] * up
        nxt[0] += cur[1] * down
        nxt[1:-1] += cur[2:] * down
        cur = nxt
        probs[n] = cur[0]
    return probs


@dataclass
class RhoEstimate:
    sequence: list[float]  # (p^{2n}(0,0))^{1/2n} for n = 1..len
    lower_bound: float


def estimate_spectral_radius(spec: GroupSpec, n_steps: int) -> RhoEstimate:
    """Lower-bound sequence (p^{2n}(0,0))^{1/2n} on a tree, by the radial
    birth-death reduction (n_steps up to ~10^3 is cheap); the tree's rho
    is Kesten's `kesten_rho(d)`.  Other specs take rho's upper end from
    `rho_upper`.

    Raises ValueError if n_steps is odd or spec is not a tree.
    """
    if n_steps % 2 != 0:
        raise ValueError("n_steps must be even")
    if not spec.is_tree:
        raise ValueError(f"{spec.describe()} is not a tree: use rho_upper")
    returns = tree_return_probabilities(spec.degree, n_steps)
    seq = [float(returns[2 * n]) ** (1.0 / (2 * n)) for n in range(1, n_steps // 2 + 1)]
    return RhoEstimate(sequence=seq, lower_bound=max(seq) if seq else 0.0)


class CheckEntry(NamedTuple):
    """One verified inequality: lhs <= rhs for the pair (n, x) of a check."""

    check: str
    spec: str
    n: int
    x: int
    lhs: float
    rhs: float
    passed: bool
    J: int | None = None

    @property
    def params(self) -> dict:
        """A fresh dict: spec, n, x, and J on the tail check."""
        params = {"spec": self.spec, "n": self.n, "x": self.x}
        return params if self.J is None else {**params, "J": self.J}

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_record(self) -> dict:
        return {"check": self.check, "params": self.params, "lhs": self.lhs,
                "rhs": self.rhs, "margin": self.margin, "pass": self.passed}


@dataclass(frozen=True, eq=False)
class CheckResult:
    """The verdicts of one kernel-inequality check, one column per test vertex.

    `lhs`, `rhs` and `passed` are (n_max+1, len(xs)) arrays indexed
    [n, k] for the pair (n, xs[k]); `J` is the SRW horizon of the tail
    check and None for the rho-power check.  `pairs` and `violations`
    summarise the arrays without building entries.  Iterated, the result
    yields immutable `CheckEntry` tuples, n outer and x in `xs` order, from one
    C-level iterator, a chain of one `map` per row, with `params` computed on access.
    """

    check: str
    spec: str
    xs: list[int]
    lhs: np.ndarray
    rhs: np.ndarray
    passed: np.ndarray
    J: int | None = None

    @property
    def pairs(self) -> int:
        return self.passed.size

    @property
    def violations(self) -> int:
        return self.passed.size - int(np.count_nonzero(self.passed))

    def __len__(self) -> int:
        return self.pairs

    def __iter__(self):
        return chain.from_iterable(map(tuple.__new__, repeat(CheckEntry), zip(
            repeat(self.check), repeat(self.spec), repeat(n), self.xs, self.lhs[n].tolist(),
            self.rhs[n].tolist(), self.passed[n].tolist(), repeat(self.J)))
            for n in range(len(self.lhs)))


def _test_vertex_list(ball: Ball, test_vertices) -> list[int]:
    if test_vertices is None:
        return list(range(ball.n_vertices))
    try:
        vs = [operator.index(x) for x in test_vertices]
    except TypeError as exc:
        raise ValueError(f"test vertices must be integer vertex ids: {exc}") from None
    nv = ball.n_vertices
    outside = [x for x in vs if not 0 <= x < nv]
    if outside:
        raise ValueError(f"test vertices outside [0, {nv}): {outside[:5]}")
    return vs


def _kernel_table(table, kind: str, ball: Ball, n_steps: int, exact: bool) -> KernelTable:
    """`table`, or a new n_steps `kind` table of `ball` when None.  Raises
    ValueError unless it is a `kind` table of this very ball in the
    arithmetic `exact` selects."""
    if table is None:
        return (srw_kernel if kind == "srw" else nbw_kernel)(ball, n_steps, exact=exact)
    if table.kind != kind or table.ball is not ball or table.exact != exact:
        where = "this" if table.ball is ball else "another"
        raise ValueError(f"{kind} must be an exact={exact} {kind} table of this ball, got an "
                         f"exact={table.exact} {table.kind} table of {where} ball")
    return table


def _quotients(nums: np.ndarray, den: int, scale: int = 1, offset: int = 0) -> np.ndarray:
    """(v*scale + offset) / den for each integer v of `nums`, scale > 0, rounded as
    float(Fraction) rounds: by one float64 division where den, scale, offset and every
    v*scale + offset are below 2^53, all exact; else by int division per distinct v."""
    if nums.size and nums.dtype != object:
        lo, hi = int(nums.min()) * scale + offset, int(nums.max()) * scale + offset
        if max(den, scale, abs(offset), -lo, hi) < 2**53:
            return (nums if scale == 1 and offset == 0 else nums * scale + offset) / den
    vals, inv = np.unique(nums, return_inverse=True)
    return np.array([(v * scale + offset) / den for v in vals.tolist()], dtype=float)[inv]


def _check(check: str, ball: Ball, n_max: int, rho_ub, test_vertices, exact: bool,
           nbw: KernelTable | None, srw: KernelTable | None = None) -> CheckResult:
    """The decision core of both kernel checks: q^n(0,x) <= S_n(x) + t_n
    for n <= n_max and x in `test_vertices`, where S_n(x) = sum_{j=n..J}
    p^j(0,x) over the SRW table `srw` of horizon J and t_n =
    rho_ub^{J+1}/(1-rho_ub), or, without `srw`, S_n = 0 and
    t_n = rho_ub^n/(1-rho_ub).

    Exact mode works in integers, with rho_ub at its exact value and t_n =
    a/b: q = Q/D_n and S_n(x) = A_n(x)/E, where E = d^J and A_n(x) =
    sum_{j>=n} N_j(x) d^{J-j} is built as n falls (E = 1 and A_n = 0
    without `srw`).  A pair passes where Q E - A_n D_n <= a D_n E / b.
    Float mode adds whole (n_max+1, len(xs)) arrays, one per offset j - n,
    so each S_n(x) is summed left to right from j = n, bit for bit as a
    plain `sum` over j; a pair passes where lhs <= rhs, the rule
    `verify.status` applies.
    """
    if not 0 < float(rho_ub) < 1:
        raise ValueError("need 0 < rho_ub < 1")
    nbw = _kernel_table(nbw, "nbw", ball, n_max, exact)
    J = -1 if srw is None else srw.horizon  # S_n has no term without srw
    if not 0 <= n_max <= (nbw.horizon if srw is None else min(nbw.horizon, J)):
        raise ValueError("n_max must be in [0, kernel horizon]")
    vs = _test_vertex_list(ball, test_vertices)
    idx = np.asarray(vs, dtype=np.intp)
    tails = [series_tail(rho_ub, n if srw is None else J + 1, exact=exact)
             for n in range(n_max + 1)]
    p = [srw.counts[j][idx] for j in range(J + 1)]
    q = [nbw.counts[n][idx] for n in range(n_max + 1)]
    if exact:
        d = ball.spec.degree
        E = d ** max(J, 0)
        # |Q E - A_n D_n| <= max(1, J+1) E D_n, which sets the dtype
        reach = max(J + 1, 1) * E * nbw.denominators[n_max]
        suffix = _fit(np.zeros(len(vs), dtype=np.int64), reach)
        lhs = np.empty((n_max + 1, len(vs)))
        rhs, passed = np.empty_like(lhs), np.empty(lhs.shape, dtype=bool)
        for n in range(max(J, n_max), -1, -1):
            if n <= J:
                suffix = suffix + _fit(p[n], reach) * d ** (J - n)
            if n <= n_max:
                den, a, b = nbw.denominators[n], tails[n].numerator, tails[n].denominator
                # Q <= D_n bounds the left side by D_n E: clamping the
                # threshold there keeps it in int64 and changes no verdict
                passed[n] = _fit(q[n], reach) * E - suffix * den <= min(a * den * E // b, den * E)
                lhs[n] = _quotients(q[n], den)
                # without srw every S_n(x) is 0: the row is the one a / b
                rhs[n] = a / b if srw is None else _quotients(suffix, E * b, b, a * E)
    else:
        lhs, p = np.array(q, dtype=float), np.array(p)
        rhs = np.zeros_like(lhs)
        for k in range(J + 1):
            rows_k = min(n_max + 1, J + 1 - k)  # rows n with n + k <= J
            rhs[:rows_k] += p[k:k + rows_k]
        rhs += np.array(tails, dtype=float)[:, None]
        passed = lhs <= rhs
    return CheckResult(check, ball.spec.describe(), vs, lhs, rhs, passed,
                       J=None if srw is None else J)


def check_nbw_le_srw_tail(
    ball: Ball,
    n_max: int,
    rho_ub,
    test_vertices: list[int] | None = None,
    exact: bool = False,
    srw: KernelTable | None = None,
    nbw: KernelTable | None = None,
) -> CheckResult:
    """q^n(0,x) <= sum_{j=n..J} p^j(0,x) + rho_ub^{J+1}/(1-rho_ub), J = H.

    The tail term covers the truncated part of the SRW sum with the
    geometric bound p^j(0,x) <= rho^j.  Returns a `CheckResult` with one
    column per x in `test_vertices` (default: every ball vertex) and one
    row per n <= n_max, decided by `_check`: the suffix sums
    S_n(x) = sum_{j=n..J} p^j(0,x) are built once, then each pair takes
    one comparison.

    Raises ValueError if rho_ub is not in (0, 1), n_max is negative or
    exceeds a kernel horizon, a test vertex is not an integer in
    [0, ball.n_vertices), or a given kernel table is of the wrong kind,
    of another ball or not in the arithmetic `exact` selects.
    """
    srw = _kernel_table(srw, "srw", ball, ball.radius, exact)
    return _check("nbw_le_srw_tail", ball, n_max, rho_ub, test_vertices, exact, nbw, srw)


def check_nbw_le_rho_power(
    ball: Ball,
    n_max: int,
    rho_ub,
    test_vertices: list[int] | None = None,
    exact: bool = False,
    nbw: KernelTable | None = None,
) -> CheckResult:
    """q^n(0,x) <= rho_ub^n / (1 - rho_ub) for all x and n <= n_max.

    Returns a `CheckResult` with one column per x in `test_vertices`
    (default: every ball vertex) and one row per n <= n_max, decided by
    `_check` with no SRW sum: one comparison per pair.

    Raises ValueError if rho_ub is not in (0, 1), n_max is negative or
    exceeds the kernel horizon, a test vertex is not an integer in
    [0, ball.n_vertices), or a given table is not an NBW table of this
    ball in the arithmetic `exact` selects.
    """
    return _check("nbw_le_rho_power", ball, n_max, rho_ub, test_vertices, exact, nbw)


def series_tail(base, start: int, exact: bool = False):
    """The geometric tail sum_{s >= start} base^s = base^start / (1 - base).

    Exact mode works in Fractions, reading a float base at its exact binary
    value; a Fraction base in float mode gives a float.  inf when base >= 1,
    where the series diverges.  Raises ValueError if base < 0.
    """
    if not base >= 0:
        raise ValueError("series_tail needs base >= 0")
    if base >= 1:
        return math.inf
    if exact:
        base = Fraction(base)  # a float base at its exact binary value
    rest = (Fraction(1) if exact else 1.0) - base
    return base**start / rest
