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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .groups import Ball, GroupSpec

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
    ball_radius: int | None = None,
) -> RhoEstimate:
    """Lower-bound sequence (p^{2n}(0,0))^{1/2n} plus a certified upper bound.

    Trees use the radial birth-death reduction (n_steps up to ~10^3 is
    cheap) and Kesten's formula 2*sqrt(d-1)/d for the upper bound.  Other
    specs run the ball kernel and require a user-supplied upper bound.
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
        from .groups import ball as build_ball

        radius = ball_radius if ball_radius is not None else n_steps
        b = build_ball(spec, min(radius, n_steps))
        table = srw_kernel(b, min(n_steps, b.radius))
        returns = np.array([table.prob(n, 0) for n in range(len(table.steps))])
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


def _test_vertex_list(ball: Ball, test_vertices) -> list:
    if test_vertices is None:
        return list(range(ball.n_vertices))
    vs = list(test_vertices)
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
) -> list[CheckEntry]:
    """q^n(0,x) <= sum_{j=n..J} p^j(0,x) + rho_ub^{J+1}/(1-rho_ub), J = H.

    The tail term covers the truncated part of the SRW sum with the
    geometric bound p^j(0,x) <= rho^j.  One entry per (n, x) pair, n
    outer, x in `test_vertices` order (default: every ball vertex).

    Cost: the suffix sums S_n(x) = sum_{j=n..J} p^j(0,x) are built once,
    then each pair takes one comparison.  Exact mode builds them in
    Fractions in one O(H*V) pass over the SRW steps from j = J down to 0,
    and decides each pair by `lhs <= rhs` in Fractions.  Float mode
    indexes each step once with the test vertices and adds whole arrays,
    H(H+1)/2 additions in all, so that each S_n(x) is summed left to
    right from j = n, bit for bit as a plain `sum` over j; a pair passes
    when lhs <= rhs + FLOAT_MASS_TOL.

    Raises ValueError if rho_ub is not in (0, 1), n_max exceeds a kernel
    horizon, a test vertex is outside [0, ball.n_vertices), or a given
    kernel table is not in the arithmetic `exact` selects.
    """
    if not 0 < float(rho_ub) < 1:
        raise ValueError("need 0 < rho_ub < 1")
    srw = srw if srw is not None else srw_kernel(ball, ball.radius, exact=exact)
    nbw = nbw if nbw is not None else nbw_kernel(ball, n_max, exact=exact)
    _require_mode(exact, srw, nbw)
    horizon = srw.horizon
    if n_max > nbw.horizon or n_max > horizon:
        raise ValueError("kernel horizon too small for requested n_max")
    vs = _test_vertex_list(ball, test_vertices)
    tail = _geometric_tail(rho_ub, horizon + 1, exact)
    spec_name = ball.spec.describe()

    def block(n, rows):
        return [
            CheckEntry("nbw_le_srw_tail", {"spec": spec_name, "n": n, "x": x, "J": horizon},
                       lhs, rhs, passed)
            for x, lhs, rhs, passed in rows
        ]

    blocks = [None] * (n_max + 1)
    if exact:
        # S_n(x) at the test vertices, and (S_n(x) + tail, its float), as n falls
        suffix = dict.fromkeys(vs, _ZERO)
        bound = dict.fromkeys(vs, _with_float(_ZERO + tail))
        for n in range(horizon, -1, -1):
            for x, p in srw.steps[n].items():
                if x in suffix:
                    suffix[x] += p
                    bound[x] = _with_float(suffix[x] + tail)
            if n <= n_max:
                blocks[n] = block(n, _exact_rows(vs, nbw.steps[n], map(bound.get, vs)))
    else:
        idx = np.asarray(vs, dtype=np.intp)
        p = [srw.steps[j][idx] for j in range(horizon + 1)]
        for n in range(n_max + 1):
            lhs = nbw.steps[n][idx]
            rhs = p[n].copy()
            for j in range(n + 1, horizon + 1):
                rhs += p[j]
            rhs += tail
            blocks[n] = block(n, zip(vs, lhs.tolist(), rhs.tolist(),
                                     (lhs <= rhs + FLOAT_MASS_TOL).tolist()))
    return [e for entries in blocks for e in entries]


def check_nbw_le_rho_power(
    ball: Ball,
    n_max: int,
    rho_ub,
    test_vertices: list[int] | None = None,
    exact: bool = False,
    nbw: KernelTable | None = None,
) -> list[CheckEntry]:
    """q^n(0,x) <= rho_ub^n / (1 - rho_ub) for all x and n <= n_max.

    One entry per (n, x) pair, n outer, x in `test_vertices` order
    (default: every ball vertex).  The right side is computed once per n,
    so the cost is one comparison per pair.  Exact mode decides each pair
    by `lhs <= rhs` in Fractions; float mode compares whole arrays, and a
    pair passes when lhs <= rhs + FLOAT_MASS_TOL.

    Raises ValueError if rho_ub is not in (0, 1), n_max exceeds the kernel
    horizon, a test vertex is outside [0, ball.n_vertices), or a given
    kernel table is not in the arithmetic `exact` selects.
    """
    if not 0 < float(rho_ub) < 1:
        raise ValueError("need 0 < rho_ub < 1")
    nbw = nbw if nbw is not None else nbw_kernel(ball, n_max, exact=exact)
    _require_mode(exact, nbw)
    if n_max > nbw.horizon:
        raise ValueError("kernel horizon too small for requested n_max")
    vs = _test_vertex_list(ball, test_vertices)
    idx = None if exact else np.asarray(vs, dtype=np.intp)
    one = Fraction(1) if exact else 1.0
    entries = []
    spec_name = ball.spec.describe()
    for n in range(n_max + 1):
        bound = rho_ub**n / (one - rho_ub)
        if exact:
            rows = _exact_rows(vs, nbw.steps[n], itertools.repeat(_with_float(bound)))
        else:
            q = nbw.steps[n][idx]
            bound = float(bound)
            rows = zip(vs, q.tolist(), itertools.repeat(bound),
                       (q <= bound + FLOAT_MASS_TOL).tolist())
        entries.extend(
            CheckEntry("nbw_le_rho_power", {"spec": spec_name, "n": n, "x": x},
                       lhs, rhs, passed)
            for x, lhs, rhs, passed in rows
        )
    return entries


def _with_float(value) -> tuple:
    return value, float(value)


def _exact_rows(vs, step: dict, bounds):
    """(x, float(lhs), float(rhs), lhs <= rhs) per test vertex, lhs = q^n(0,x)
    from `step` and (rhs, float(rhs)) from `bounds`; the verdict is exact."""
    for x, (rhs, rhs_float) in zip(vs, bounds):
        lhs = step.get(x, _ZERO)
        yield x, 0.0 if lhs is _ZERO else float(lhs), rhs_float, lhs <= rhs


def _geometric_tail(rho_ub, start: int, exact: bool):
    """sum_{j >= start} rho_ub^j."""
    one = Fraction(1) if exact else 1.0
    return rho_ub**start / (one - rho_ub)
