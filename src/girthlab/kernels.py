"""Exact random-walk kernels on Cayley balls.

Simple random walk (SRW) and non-backtracking walk (NBW) distributions
started from the root, valid for the infinite graph up to the horizon
H = min(N, R): mass cannot feel the missing boundary edges before step
R+1.  Two arithmetic modes: exact Fractions (ground truth at small scale)
and float64 (production, drift <= 1e-12 per mass check).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .groups import Ball, GroupSpec, ball as build_ball

FLOAT_MASS_TOL = 1e-12


@dataclass
class KernelTable:
    kind: str  # "srw" | "nbw"
    ball: Ball
    horizon: int  # H = min(N, R): steps exact for the infinite graph
    steps: list  # per n: dict vertex -> Fraction, or numpy float array
    exact: bool

    def prob(self, n: int, vertex: int):
        """Probability the walk is at `vertex` after n steps."""
        step = self.steps[n]
        if isinstance(step, dict):
            return step.get(vertex, Fraction(0))
        return step[vertex]

    def mass(self, n: int):
        step = self.steps[n]
        if isinstance(step, dict):
            return sum(step.values())
        return float(step.sum())

    def support(self, n: int):
        step = self.steps[n]
        if isinstance(step, dict):
            return sorted(step)
        return [int(v) for v in np.nonzero(step)[0]]

    def to_csv_rows(self):
        from .groups import word_str

        rows = []
        for n, step in enumerate(self.steps):
            for v in self.support(n):
                rows.append(
                    (self.kind, n, word_str(self.ball.spec, self.ball.words[v]),
                     float(self.prob(n, v)))
                )
        return rows


def srw_kernel(ball: Ball, n_steps: int, exact: bool = False) -> KernelTable:
    """n-step simple random walk distributions from the root."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    d = ball.spec.degree
    if exact:
        steps: list = [{0: Fraction(1)}]
        inv_d = Fraction(1, d)
        for _ in range(n_steps):
            nxt: dict[int, Fraction] = {}
            for u, mass in steps[-1].items():
                share = mass * inv_d
                for v, _ in ball.adj[u]:
                    nxt[v] = nxt.get(v, Fraction(0)) + share
            steps.append(nxt)
    else:
        nv = ball.n_vertices
        cur = np.zeros(nv)
        cur[0] = 1.0
        steps = [cur]
        for _ in range(n_steps):
            cur = np.bincount(ball.arc_head, weights=cur[ball.arc_tail] / d, minlength=nv)
            steps.append(cur)
    return KernelTable("srw", ball, min(n_steps, ball.radius), steps, exact)


def nbw_kernel(ball: Ball, n_steps: int, exact: bool = False) -> KernelTable:
    """n-step non-backtracking walk distributions from the root.

    First step uniform over the d root arcs, later steps uniform over the
    d-1 continuations that do not reverse the previous arc.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    d = ball.spec.degree
    if d < 3:
        raise ValueError("non-backtracking walk needs degree >= 3")
    # a list for the Fraction loops, the array for numpy
    head = ball.arc_head.tolist() if exact else ball.arc_head
    root_arcs = [a for _, a in ball.adj[0]]

    def vertex_marginal(arc_mass):
        if isinstance(arc_mass, dict):
            out: dict[int, Fraction] = {}
            for a, mass in arc_mass.items():
                v = head[a]
                out[v] = out.get(v, Fraction(0)) + mass
            return out
        return np.bincount(head, weights=arc_mass, minlength=ball.n_vertices)

    steps: list = []
    if exact:
        steps.append({0: Fraction(1)})
        if n_steps >= 1:
            arc: dict[int, Fraction] = {a: Fraction(1, d) for a in root_arcs}
            steps.append(vertex_marginal(arc))
            inv = Fraction(1, d - 1)
            for _ in range(2, n_steps + 1):
                nxt: dict[int, Fraction] = {}
                for a, mass in arc.items():
                    share = mass * inv
                    banned = a ^ 1
                    for _, b in ball.adj[head[a]]:
                        if b != banned:
                            nxt[b] = nxt.get(b, Fraction(0)) + share
                arc = nxt
                steps.append(vertex_marginal(arc))
    else:
        root = np.zeros(ball.n_vertices)
        root[0] = 1.0
        steps.append(root)
        if n_steps >= 1:
            arc = np.zeros(len(head))
            arc[root_arcs] = 1.0 / d
            steps.append(vertex_marginal(arc))
            rev = np.arange(len(head)) ^ 1
            for _ in range(2, n_steps + 1):
                # push mass from arc (u,v) to all arcs out of v except (v,u);
                # steps[-1] is the mass arriving at each vertex
                nxt = steps[-1][ball.arc_tail] / (d - 1)
                nxt -= arc[rev] / (d - 1)
                arc = nxt
                steps.append(vertex_marginal(arc))
    return KernelTable("nbw", ball, min(n_steps, ball.radius), steps, exact)


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
    spec: GroupSpec
    sequence: list[float]  # (p^{2n}(0,0))^{1/2n} for n = 1..len
    lower_bound: float
    rho_ub: float | None
    rho_ub_provenance: str  # "exact-formula" | "user-supplied" | "missing"

    def require_upper_bound(self) -> float:
        if self.rho_ub is None:
            raise ValueError(
                f"no certified spectral-radius upper bound for {self.spec.describe()}; "
                "supply one (non-tree free products have no exact formula here)"
            )
        return self.rho_ub


def estimate_spectral_radius(
    spec: GroupSpec,
    n_steps: int,
    rho_ub: float | None = None,
    srw: KernelTable | None = None,
) -> RhoEstimate:
    """Lower-bound sequence (p^{2n}(0,0))^{1/2n} plus a certified upper bound.

    Trees use the radial birth-death reduction (n_steps up to ~10^3 is
    cheap) and Kesten's formula 2*sqrt(d-1)/d for the upper bound.  Other
    specs read the return probabilities p^n(0,0), n <= n_steps, from the
    SRW table `srw` (built on a radius-n_steps ball when not given; a
    given table must belong to `spec` and reach horizon n_steps) and
    require a user-supplied upper bound.  `srw` is unused on trees.
    """
    if n_steps % 2 != 0:
        raise ValueError("n_steps must be even")
    d = spec.degree
    if spec.is_tree:
        returns = tree_return_probabilities(d, n_steps)
        ub = kesten_rho(d)
        provenance = "exact-formula"
        if rho_ub is not None:
            ub = rho_ub
            provenance = "user-supplied"
    else:
        if srw is None:
            srw = srw_kernel(build_ball(spec, n_steps), n_steps)
        elif srw.kind != "srw" or srw.ball.spec != spec or srw.horizon < n_steps:
            raise ValueError("srw must be an SRW table of spec with horizon >= n_steps")
        returns = [srw.prob(n, 0) for n in range(n_steps + 1)]
        ub = rho_ub
        provenance = "user-supplied" if rho_ub is not None else "missing"
    seq = [float(returns[2 * n]) ** (1.0 / (2 * n)) for n in range(1, (len(returns) - 1) // 2 + 1)]
    return RhoEstimate(
        spec=spec,
        sequence=seq,
        lower_bound=max(seq) if seq else 0.0,
        rho_ub=ub,
        rho_ub_provenance=provenance,
    )


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


_ZERO = Fraction(0)


@dataclass(frozen=True, eq=False)
class CheckResult:
    """The verdicts of one kernel-inequality check, one column per test vertex.

    `lhs`, `rhs` and `passed` are (n_max+1, len(xs)) arrays indexed
    [n, k] for the pair (n, xs[k]); `J` is the SRW horizon of the tail
    check and None for the rho-power check.  `pairs`, `violations` and
    `worst` summarise the arrays without building entries.  As a sequence
    the result is its `CheckEntry` list, n outer and x in `xs` order;
    iteration and indexing build each entry on the fly.
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
        return self[int(np.argmin(self.rhs - self.lhs))]

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

    def __getitem__(self, i) -> CheckEntry:
        n, k = divmod(range(self.pairs)[operator.index(i)], len(self.xs))
        return self._entry(n, self.xs[k], float(self.lhs[n, k]), float(self.rhs[n, k]),
                           bool(self.passed[n, k]))


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


def _require_mode(exact: bool, *tables: KernelTable) -> None:
    if any(t.exact != exact for t in tables):
        raise ValueError("kernel table arithmetic does not match exact")


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
    row per n <= n_max; its entries come n outer, x in `test_vertices`
    order, and are built only when iterated or indexed.

    Cost: the suffix sums S_n(x) = sum_{j=n..J} p^j(0,x) are built once,
    then each pair takes one comparison.  Exact mode builds them in
    Fractions in one O(H*V) pass over the SRW steps from j = J down to 0,
    and decides each pair by `lhs <= rhs` in Fractions.  Float mode
    indexes each step once with the test vertices and adds whole
    (n_max+1, len(xs)) arrays, one per offset j - n, so that each S_n(x)
    is summed left to right from j = n, bit for bit as a plain `sum` over
    j; a pair passes when lhs <= rhs + FLOAT_MASS_TOL.  Iterating the
    result costs one `CheckEntry` per pair on top.

    Raises ValueError if rho_ub is not in (0, 1), n_max is negative or
    exceeds a kernel horizon, a test vertex is not an integer in
    [0, ball.n_vertices), or a given kernel table is not in the
    arithmetic `exact` selects.
    """
    if not 0 < float(rho_ub) < 1:
        raise ValueError("need 0 < rho_ub < 1")
    srw = srw if srw is not None else srw_kernel(ball, ball.radius, exact=exact)
    nbw = nbw if nbw is not None else nbw_kernel(ball, n_max, exact=exact)
    _require_mode(exact, srw, nbw)
    horizon = srw.horizon
    if not 0 <= n_max <= min(nbw.horizon, horizon):
        raise ValueError("n_max must be in [0, kernel horizon]")
    vs = _test_vertex_list(ball, test_vertices)
    tail = series_tail(rho_ub, horizon + 1, exact=exact)
    if exact:
        rows = [None] * (n_max + 1)
        # S_n(x) at the test vertices, and (S_n(x) + tail, its float), as n falls
        suffix = dict.fromkeys(vs, _ZERO)
        bound = dict.fromkeys(vs, _with_float(_ZERO + tail))
        for n in range(horizon, -1, -1):
            for x, p in srw.steps[n].items():
                if x in suffix:
                    suffix[x] += p
                    bound[x] = _with_float(suffix[x] + tail)
            if n <= n_max:
                rows[n] = _exact_row(vs, nbw.steps[n], map(bound.get, vs))
        lhs, rhs, passed = _exact_columns(rows)
    else:
        idx = np.asarray(vs, dtype=np.intp)
        p = np.array([srw.steps[j][idx] for j in range(horizon + 1)])
        lhs = np.array([nbw.steps[n][idx] for n in range(n_max + 1)])
        rhs = p[:n_max + 1].copy()
        for k in range(1, horizon + 1):
            rows_k = min(n_max + 1, horizon + 1 - k)  # rows n with n + k <= J
            rhs[:rows_k] += p[k:k + rows_k]
        rhs += tail
        passed = lhs <= rhs + FLOAT_MASS_TOL
    return CheckResult("nbw_le_srw_tail", ball.spec.describe(), vs, lhs, rhs, passed, J=horizon)


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
    (default: every ball vertex) and one row per n <= n_max; its entries
    come n outer, x in `test_vertices` order, and are built only when
    iterated or indexed.  The right side is computed once per n, so the
    cost is one comparison per pair, plus one `CheckEntry` per pair when
    the result is iterated.  Exact mode decides each pair by `lhs <= rhs`
    in Fractions; float mode compares whole arrays, and a pair passes
    when lhs <= rhs + FLOAT_MASS_TOL.

    Raises ValueError if rho_ub is not in (0, 1), n_max is negative or
    exceeds the kernel horizon, a test vertex is not an integer in
    [0, ball.n_vertices), or a given kernel table is not in the
    arithmetic `exact` selects.
    """
    if not 0 < float(rho_ub) < 1:
        raise ValueError("need 0 < rho_ub < 1")
    nbw = nbw if nbw is not None else nbw_kernel(ball, n_max, exact=exact)
    _require_mode(exact, nbw)
    if not 0 <= n_max <= nbw.horizon:
        raise ValueError("n_max must be in [0, kernel horizon]")
    vs = _test_vertex_list(ball, test_vertices)
    bounds = [series_tail(rho_ub, n, exact=exact) for n in range(n_max + 1)]
    if exact:
        lhs, rhs, passed = _exact_columns(
            [_exact_row(vs, nbw.steps[n], itertools.repeat(_with_float(bounds[n])))
             for n in range(n_max + 1)])
    else:
        idx = np.asarray(vs, dtype=np.intp)
        lhs = np.array([nbw.steps[n][idx] for n in range(n_max + 1)])
        rhs = np.repeat(np.array(bounds, dtype=float)[:, None], len(vs), axis=1)
        passed = lhs <= rhs + FLOAT_MASS_TOL
    return CheckResult("nbw_le_rho_power", ball.spec.describe(), vs, lhs, rhs, passed)


def _with_float(value) -> tuple:
    return value, float(value)


def _exact_row(vs, step: dict, bounds) -> tuple:
    """float(lhs), float(rhs) and the exact verdict lhs <= rhs per test
    vertex, lhs = q^n(0,x) from `step` and (rhs, float(rhs)) from `bounds`."""
    lhs, rhs, passed = [], [], []
    for x, (bound, bound_float) in zip(vs, bounds):
        q = step.get(x, _ZERO)
        lhs.append(0.0 if q is _ZERO else float(q))
        rhs.append(bound_float)
        passed.append(q <= bound)
    return lhs, rhs, passed


def _exact_columns(rows) -> tuple:
    """(lhs, rhs, passed) arrays from one `_exact_row` per n."""
    lhs, rhs, passed = zip(*rows)
    return np.array(lhs, dtype=float), np.array(rhs, dtype=float), np.array(passed, dtype=bool)


def series_tail(base, start: int, legs: int = 1, exact: bool = False):
    """sum_{s >= start} C(s+legs-1, legs-1) base^s, in closed form.

    The coefficient counts the ways to split s steps over `legs` chained
    legs, so legs = 1 is the geometric tail base^start / (1 - base).  In
    general the sum is base^start * sum_{j<legs} C(start+legs-1, legs-1-j)
    base^j / (1-base)^{j+1}.  Exact mode works in Fractions; a Fraction
    base in float mode gives a float.  inf when base >= 1, where the
    series diverges.  Raises ValueError if base < 0 or legs < 1.
    """
    if not base >= 0 or legs < 1:
        raise ValueError("series_tail needs base >= 0 and legs >= 1")
    if base >= 1:
        return math.inf
    rest = (Fraction(1) if exact else 1.0) - base
    return sum(math.comb(start + legs - 1, legs - 1 - j) * base ** (start + j) / rest ** (j + 1)
               for j in range(legs))


def chained_tail(d: int, rho_ub, x: float, start: int, legs: int) -> float:
    """Tail over s >= start of the envelope of `legs` chained two-point
    functions at weight x per step.

    The kernel bound q^n(0,y) <= rho^n / (1 - rho) and the (d-1)^n
    branching of non-backtracking paths give the two-point envelope
    d/((d-1)(1-rho)) * sum_n lam^n, lam = x(d-1)rho; chaining `legs` of
    them (the bubble is 2, the triangle 3) gives
    (d/((d-1)(1-rho)))^legs * series_tail(lam, start, legs).  inf when
    rho_ub is None or lam >= 1.  Raises ValueError if rho_ub is not in
    (0, 1) or x < 0.
    """
    if rho_ub is None:
        return math.inf
    if not 0 < rho_ub < 1:
        raise ValueError("need 0 < rho_ub < 1")
    pref = d / ((d - 1) * (1.0 - rho_ub))
    return pref**legs * series_tail(x * (d - 1) * rho_ub, start, legs)
