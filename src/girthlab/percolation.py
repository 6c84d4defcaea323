"""Bond percolation on Cayley balls with exact tree oracles, and p_c.

Monte Carlo estimators (crossing probability, p_c bracket, two-point
function, cluster statistics) run on explicit balls, which one caller can
share; on tree specs every estimator has an exact branching-process
counterpart in `branching`, which the tests use as the independent oracle.
`blocks.pc_interval` brackets p_c of any free product exactly, with no ball.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import branching
from .groups import Ball, GroupSpec, ball as build_ball
from .rng import trial_streams
from .stats import Estimate, binomial_estimate, fit_loglog, mean_estimate, stderr


def _reaches(ball: Ball, p: float, gen: np.random.Generator, targets: bytes) -> bool:
    """Whether the root's cluster, with edge e open iff the e-th double of
    `gen` is < p, holds a vertex v with targets[v]: a BFS that stops at the
    first such vertex.  Before it expands x it draws the doubles up to
    `ball.edge_ends[x]`, at least doubling what it holds, so a search that
    stops early leaves the rest of the stream undrawn."""
    if targets[0]:
        return True
    adj, ends, n_edges = ball.adj, ball.edge_ends, ball.n_edges
    uniforms = np.empty(n_edges)
    u, drawn = memoryview(uniforms), 0  # Python floats, not numpy scalars
    seen = bytearray(ball.n_vertices)
    seen[0] = 1
    queue = deque([0])
    while queue:
        x = queue.popleft()
        if ends[x] > drawn:
            n = min(max(ends[x], 2 * drawn), n_edges)
            gen.random(out=uniforms[drawn:n])
            drawn = n
        for v, a in adj[x]:
            if not seen[v] and u[a >> 1] < p:
                if targets[v]:
                    return True
                seen[v] = 1
                queue.append(v)
    return False


def crossing_probability(ball: Ball, p: float, trials: int, seed: int) -> Estimate:
    """Monte Carlo P_p(root <-> radius-R sphere) with Wilson interval (trials >= 1)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if p == 0.0 and ball.radius > 0:
        return Estimate(0.0, 0.0, 0.0, trials)
    boundary = bytes(d == ball.radius for d in ball.dist)
    hits = sum(_reaches(ball, p, gen, boundary) for gen in trial_streams(seed, range(trials)))
    return binomial_estimate(hits, trials)


def crossing_threshold(ball: Ball, uniforms: np.ndarray) -> float:
    """min over root -> radius-R paths of the largest edge uniform on the
    path (-inf at radius 0, inf with no radius-R vertex), so the trial
    crosses at p iff it is < p.  Grows the root's component in Prim's
    order: at level m it floods every edge whose uniform is <= m, then
    raises m to the lightest edge out of the component, and returns m as
    soon as a radius-R vertex joins.  Only comparisons touch the floats, so
    the result is the minimax path value exactly, ties included."""
    adj, dist, radius = ball.adj, ball.dist, ball.radius
    if radius == 0:
        return -math.inf
    u = memoryview(uniforms)  # Python floats, not numpy scalars
    push, pop = heapq.heappush, heapq.heappop
    seen = bytearray(ball.n_vertices)
    seen[0] = 1
    m, stack, heap = -math.inf, [0], []
    while True:
        # flood the component at level m; heavier edges wait on the heap
        while stack:
            for y, a in adj[stack.pop()]:
                if not seen[y]:
                    w = u[a >> 1]
                    if w <= m:
                        if dist[y] == radius:
                            return m
                        seen[y] = 1
                        stack.append(y)
                    else:
                        push(heap, (w, y))
        # the lightest edge out of the component sets the next level
        while heap:
            m, y = pop(heap)
            if not seen[y]:
                break
        else:
            return math.inf
        if dist[y] == radius:
            return m
        seen[y] = 1
        stack.append(y)


@dataclass
class PcEstimate:
    lo: float
    hi: float


# bisection stops once the bracket is this narrow; widening steps by it too
_PC_TOL = 0.02


def pc_bracket(ball: Ball, trials: int, seed: int) -> PcEstimate:
    """Bisection of the empirical crossing curve on `ball` against 1/2.

    Trial t draws one uniform per edge once, whole, from its stream of
    `trial_streams`; an edge is open at p iff its uniform is < p, so the
    trial crosses at p iff its `crossing_threshold` thr_t < p (the level
    at which the root's component, grown in Prim's order, first holds a
    radius-R vertex; -inf at radius 0), and the curve #{t: thr_t < p} / trials is
    exactly non-decreasing in p.  The interval is widened so both ends are
    consistent with the observed Wilson bands.  Raises ValueError unless
    trials >= 1 (`binomial_estimate` raises it at the first bisection step).
    """
    thr = np.array([crossing_threshold(ball, gen.random(ball.n_edges))
                    for gen in trial_streams(seed, range(trials))])

    def crossing(p: float) -> Estimate:
        return binomial_estimate(int(np.count_nonzero(thr < p)), trials)

    lo, hi = 0.0, 1.0
    while hi - lo > _PC_TOL:
        mid = 0.5 * (lo + hi)
        if crossing(mid).value >= 0.5:
            hi = mid
        else:
            lo = mid
    # widen each end until its Wilson interval clears 1/2, so MC
    # noise at the bisection budget never yields a false point estimate
    for _ in range(10):
        if lo <= 0.0 or crossing(lo).ci_hi < 0.5:
            break
        lo = max(0.0, lo - _PC_TOL)
    for _ in range(10):
        if hi >= 1.0 or crossing(hi).ci_lo > 0.5:
            break
        hi = min(1.0, hi + _PC_TOL)
    return PcEstimate(lo, hi)


def estimate_pc(spec: GroupSpec, radius: int, trials: int, seed: int) -> PcEstimate:
    """`pc_bracket` on a new radius-`radius` ball of `spec`."""
    return pc_bracket(build_ball(spec, radius), trials, seed)


def two_point(
    ball: Ball, p: float, x: int, trials: int, seed: int
) -> tuple[Estimate, float | None]:
    """MC estimate of P_p(0 <-> x) for vertex index x; second value is the
    exact tree closed form p^dist(x) when the spec is a tree.  Each trial
    searches the root's cluster only until it meets x."""
    target = bytearray(ball.n_vertices)
    target[x] = 1
    hits = sum(_reaches(ball, p, gen, target) for gen in trial_streams(seed, range(trials)))
    exact = p ** ball.dist[x] if ball.spec.is_tree else None
    return binomial_estimate(hits, trials), exact


def nonuniqueness_witness(
    spec: GroupSpec,
    p: float,
    r_max: int,
    trials: int,
    seed: int,
    theta_radius: int | None = None,
):
    """Margin theta(p)^2 - P_p(0 <-> x) for x at distance R.

    Reports the smallest R at which the margin is positive with 95%
    confidence (conservative ends of both intervals), or None if no R up
    to r_max works (inconclusive, not a failure).
    """
    theta_radius = theta_radius if theta_radius is not None else r_max
    b_theta = build_ball(spec, theta_radius)
    theta_hat = crossing_probability(b_theta, p, trials, seed)
    results = []
    first_positive = None
    for R in range(1, r_max + 1):
        b = build_ball(spec, R)
        # pick a geodesic witness vertex at distance exactly R
        x = next(v for v in range(b.n_vertices) if b.dist[v] == R)
        tp, tp_exact = two_point(b, p, x, trials, seed + 1)
        margin = theta_hat.value**2 - tp.value
        margin_lo = theta_hat.ci_lo**2 - tp.ci_hi
        results.append({"R": R, "margin": margin, "margin_lo": margin_lo,
                        "theta_hat": theta_hat.value, "two_point": tp.value,
                        "two_point_exact": tp_exact})
        if first_positive is None and margin_lo > 0.0:
            first_positive = R
    return {"entries": results, "first_positive_R": first_positive,
            "conclusive": first_positive is not None,
            "note": "cluster-count trichotomy (0, 1, or infinity) cited, not re-proved"}


def oracle_witness_radius(d: int, p: float) -> int | None:
    """Smallest R with theta(p)^2 > p^R on the d-regular tree (GW oracle)."""
    theta = branching.survival_probability(d, p)
    if theta <= 0.0:
        return None
    r = 1
    while p**r >= theta * theta:
        r += 1
        if r > 10_000:
            return None
    return r


def cluster_size_tail(
    spec: GroupSpec,
    p: float,
    n_max: int,
    trials: int,
    seed: int,
):
    """P(|C(0)| >= n) curve with a log-log fit for the delta exponent.

    Tree specs sample the branching process directly (no ball, no
    truncation bias other than censoring at n_max).
    """
    if not spec.is_tree:
        raise NotImplementedError("cluster-size tails are tree-oracle only at desk scale")
    d = spec.degree
    sizes = branching.total_progeny_samples(d, p, n_max, trials, seed)
    ns = np.unique(np.round(np.geomspace(1, n_max, 60)).astype(np.int64))
    curve = branching.tail_curve(sizes, ns)
    fit = fit_loglog(ns, curve, name="delta_tail", target=-0.5,
                     window=(max(10.0, n_max ** 0.25), float(n_max)), residual_cutoff=0.25)
    return ns, curve, fit


def susceptibility(
    spec: GroupSpec,
    p_values: list[float],
    trials: int,
    seed: int,
    n_cap: int = 100_000,
):
    """Monte Carlo E_p|C(0)| per p (tree oracle path, no ball truncation)."""
    if not spec.is_tree:
        raise NotImplementedError("susceptibility sweep is tree-oracle only at desk scale")
    d = spec.degree
    out = []
    for i, p in enumerate(p_values):
        sizes = branching.total_progeny_samples(d, p, n_cap, trials, seed + i)
        if (sizes > n_cap).any():
            raise RuntimeError(f"subcritical sweep hit the size cap at p={p}")
        est = mean_estimate(sizes.astype(float))
        out.append((p, est, stderr(sizes.astype(float))))
    return out
