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


def estimate_spectral_radius(
    spec: GroupSpec,
    n_steps: int,
    srw: KernelTable | None = None,
) -> RhoEstimate:
    """Lower-bound sequence (p^{2n}(0,0))^{1/2n}.

    Trees use the radial birth-death reduction (n_steps up to ~10^3 is
    cheap); their rho is Kesten's `kesten_rho(d)`.  Other specs read the
    return probabilities p^n(0,0), n <= n_steps, from the SRW table `srw`,
    which must belong to `spec` and reach horizon n_steps.  `srw` is unused
    on trees.

    Raises ValueError if n_steps is odd, or if spec is not a tree and `srw`
    is missing or not such a table.
    """
    if n_steps % 2 != 0:
        raise ValueError("n_steps must be even")
    if spec.is_tree:
        returns = tree_return_probabilities(spec.degree, n_steps)
    else:
        if srw is None or srw.kind != "srw" or srw.ball.spec != spec or srw.horizon < n_steps:
            raise ValueError("srw must be an SRW table of spec with horizon >= n_steps")
        returns = [srw.prob(n, 0) for n in range(n_steps + 1)]
    seq = [float(returns[2 * n]) ** (1.0 / (2 * n)) for n in range(1, (len(returns) - 1) // 2 + 1)]
    return RhoEstimate(sequence=seq, lower_bound=max(seq) if seq else 0.0)


@dataclass
class CheckEntry:
    """One verified inequality: lhs <= rhs with recorded margin."""

    check: str
    params: dict
    lhs: float
    rhs: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_record(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
        }


@dataclass(frozen=True, eq=False)
class CheckResult:
    """The verdicts of one kernel-inequality check, one column per test vertex.

    `lhs`, `rhs` and `passed` are (n_max+1, len(xs)) arrays indexed
    [n, k] for the pair (n, xs[k]); `J` is the SRW horizon of the tail
    check and None for the rho-power check.  `pairs`, `violations` and
    `worst` summarise the arrays without building entries.  Iterated, the
    result yields its `CheckEntry` list, n outer and x in `xs` order, each
    entry built on the fly.
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

    @property
    def worst(self) -> CheckEntry:
        """The entry of smallest margin rhs - lhs, the first in entry order
        on ties.  Raises ValueError when there are no pairs."""
        n, k = divmod(int(np.argmin(self.rhs - self.lhs)), len(self.xs))
        return self._entry(n, self.xs[k], float(self.lhs[n, k]), float(self.rhs[n, k]),
                           bool(self.passed[n, k]))

    def _entry(self, n, x, lhs, rhs, passed) -> CheckEntry:
        params = {"spec": self.spec, "n": n, "x": x}
        if self.J is not None:
            params["J"] = self.J
        return CheckEntry(self.check, params, lhs, rhs, passed)

    def __len__(self) -> int:
        return self.pairs

    def __iter__(self):
        for n in range(len(self.lhs)):
            for row in zip(self.xs, self.lhs[n].tolist(), self.rhs[n].tolist(),
                           self.passed[n].tolist()):
                yield self._entry(n, *row)


def _test_vertex_list(ball: Ball, test_vertices) -> list[int]:
    if test_vertices is None:
        return list(range(ball.n_vertices))
    try:
        vs = [operator.index(x) for x in test_vertices]
    except TypeError as exc:
        raise ValueError(f"test vertices must be integer vertex ids: {exc}") from None
    outside = [x for x in vs if not 0 <= x < ball.n_vertices]
    if outside:
        raise ValueError(
            f"test vertices outside [0, {ball.n_vertices}): {outside[:5]}"
        )
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
    """(v*scale + offset) / den for each integer v of `nums`, rounded
    correctly by Python's int division, as float(Fraction) rounds; one
    division per distinct v."""
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


def series_tail(base, start: int, legs: int = 1, exact: bool = False):
    """sum_{s >= start} C(s+legs-1, legs-1) base^s, in closed form.

    The coefficient counts the ways to split s steps over `legs` chained
    legs, so legs = 1 is the geometric tail base^start / (1 - base).  In
    general the sum is base^start * sum_{j<legs} C(start+legs-1, legs-1-j)
    base^j / (1-base)^{j+1}.  Exact mode works in Fractions, reading a
    float base at its exact binary value; a Fraction base in float mode
    gives a float.  inf when base >= 1, where the
    series diverges.  Raises ValueError if base < 0 or legs < 1.
    """
    if not base >= 0 or legs < 1:
        raise ValueError("series_tail needs base >= 0 and legs >= 1")
    if base >= 1:
        return math.inf
    if exact:
        base = Fraction(base)  # a float base at its exact binary value
    rest = (Fraction(1) if exact else 1.0) - base
    return sum(math.comb(start + legs - 1, legs - 1 - j) * base ** (start + j) / rest ** (j + 1)
               for j in range(legs))


def chained_tail(d: int, rho_ub: float, x: float, start: int, legs: int) -> float:
    """Tail over s >= start of the envelope of `legs` chained two-point
    functions at weight x per step.

    The kernel bound q^n(0,y) <= rho^n / (1 - rho) and the (d-1)^n
    branching of non-backtracking paths give the two-point envelope
    d/((d-1)(1-rho)) * sum_n lam^n, lam = x(d-1)rho; chaining `legs` of
    them (the bubble is 2, the triangle 3) gives
    (d/((d-1)(1-rho)))^legs * series_tail(lam, start, legs).  inf when
    lam >= 1; NaN when rho_ub is NaN, the missing upper bound.  Raises
    ValueError if rho_ub is neither NaN nor in (0, 1), or x < 0.
    """
    if math.isnan(rho_ub):
        return math.nan
    if not 0 < rho_ub < 1:
        raise ValueError("need 0 < rho_ub < 1")
    pref = d / ((d - 1) * (1.0 - rho_ub))
    return pref**legs * series_tail(x * (d - 1) * rho_ub, start, legs)
