"""Bond percolation on Cayley balls with exact tree oracles.

Monte Carlo estimators (crossing probability, two-point function, cluster
statistics) run on explicit balls; on tree specs every estimator has an
exact branching-process counterpart in `branching`, which the tests use
as the independent oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import branching
from .groups import Ball, GroupSpec, Word, ball as build_ball, normal_form, word_length
from .kernels import chained_tail
from .rng import trial_rng
from .stats import (
    DiagramResult,
    Estimate,
    ExponentFit,
    binomial_estimate,
    fit_loglog,
    mean_estimate,
    stderr,
)


class UnionFind:
    """Disjoint sets with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]

    def component_size(self, x: int) -> int:
        return self.size[self.find(x)]

    def partition(self) -> list[int]:
        return [self.find(i) for i in range(len(self.parent))]


def edge_uniforms(ball: Ball, seed: int, trial: int) -> np.ndarray:
    """One uniform per undirected edge, keyed by (seed, trial): the shared
    coupling used to make connectivity monotone in p across a p-grid."""
    rng = trial_rng(seed, trial)
    return rng.random(ball.n_edges)


def open_mask(ball: Ball, p: float, seed: int, trial: int) -> np.ndarray:
    return edge_uniforms(ball, seed, trial) < p


def root_cluster(ball: Ball, open_edges: np.ndarray, stop_at_boundary: bool = False):
    """BFS the open cluster of the root.

    Returns (members list, touched_boundary).  With stop_at_boundary the
    search exits as soon as the radius-R sphere is reached (crossing
    queries do not need the full cluster).
    """
    adj = ball.adj
    dist = ball.dist
    radius = ball.radius
    seen = bytearray(ball.n_vertices)
    seen[0] = 1
    members = [0]
    touched = radius == 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v, a in adj[u]:
            if not seen[v] and open_edges[a >> 1]:
                seen[v] = 1
                members.append(v)
                if dist[v] == radius:
                    touched = True
                    if stop_at_boundary:
                        return members, True
                queue.append(v)
    return members, touched


def cluster_partition(ball: Ball, open_edges: np.ndarray) -> list[int]:
    """Full cluster partition by union-find (root representative per vertex)."""
    uf = UnionFind(ball.n_vertices)
    for eid, (u, v) in enumerate(ball.edges()):
        if open_edges[eid]:
            uf.union(u, v)
    return uf.partition()


def crossing_probability(ball: Ball, p: float, trials: int, seed: int) -> Estimate:
    """Monte Carlo P_p(root <-> radius-R sphere) with Wilson interval."""
    if p == 0.0 and ball.radius > 0:
        return Estimate(0.0, 0.0, 0.0, trials)
    hits = 0
    for t in range(trials):
        mask = open_mask(ball, p, seed, t)
        _, touched = root_cluster(ball, mask, stop_at_boundary=True)
        hits += touched
    return binomial_estimate(hits, trials)


@dataclass
class PcEstimate:
    lo: float
    hi: float
    radius: int
    theta_star: float


def estimate_pc(
    spec: GroupSpec,
    radius: int,
    trials: int,
    seed: int,
    theta_star: float = 0.5,
    tol: float = 0.02,
) -> PcEstimate:
    """Bisection of crossing probability against theta_star.

    MC noise makes the curve only statistically monotone; the interval is
    widened so both ends are consistent with the observed Wilson bands.
    """
    if not 0.0 < theta_star < 1.0:
        raise ValueError("theta_star must be in (0, 1)")
    b = build_ball(spec, radius)
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        est = crossing_probability(b, mid, trials, seed)
        if est.value >= theta_star:
            hi = mid
        else:
            lo = mid
    # widen each end until its Wilson interval clears theta*, so MC
    # noise at the bisection budget never yields a false point estimate
    for _ in range(10):
        if lo <= 0.0 or crossing_probability(b, lo, trials, seed).ci_hi < theta_star:
            break
        lo = max(0.0, lo - tol)
    for _ in range(10):
        if hi >= 1.0 or crossing_probability(b, hi, trials, seed).ci_lo > theta_star:
            break
        hi = min(1.0, hi + tol)
    return PcEstimate(lo, hi, radius, theta_star)


def theta_curve(
    spec: GroupSpec, p: float, radii: list[int], trials: int, seed: int
) -> list[tuple[int, Estimate]]:
    """Crossing probability to each radius: a decreasing-in-R proxy for theta(p)."""
    out = []
    for r in radii:
        b = build_ball(spec, r)
        out.append((r, crossing_probability(b, p, trials, seed)))
    return out


def two_point(
    ball: Ball, p: float, x: int | Word, trials: int, seed: int
) -> tuple[Estimate, float | None]:
    """MC estimate of P_p(0 <-> x); second value is the exact tree closed
    form p^dist(x) when the spec is a tree."""
    if not isinstance(x, int):
        x = ball.index[x]
    hits = 0
    for t in range(trials):
        mask = open_mask(ball, p, seed, t)
        members, _ = root_cluster(ball, mask)
        hits += x in members
    exact = p ** ball.dist[x] if ball.spec.is_tree else None
    return binomial_estimate(hits, trials), exact


# elements of one (rows, V, L) block in _pairwise_distance_counts: keeps
# each temporary under ~0.5 MB; 1 << 18 ran no faster and raised the
# certificate's peak RSS by ~2 MB
_PAIR_BLOCK_ELEMS = 1 << 16


def _pairwise_distance_counts(ball: Ball, max_dist: int) -> np.ndarray:
    """counts[r1, r2, r] = # pairs (x, y) with |x|=r1, |y|=r2, d(x,y)=r.

    d(x, y) = |x^{-1} y| comes from the normal forms x = s_1..s_a and
    y = t_1..t_b.  With k the length of their common syllable prefix, the
    prefix cancels in x^{-1} y.  If s_{k+1} and t_{k+1} lie in the same
    factor they merge into the single syllable s_{k+1}^{-1} t_{k+1}, which
    is not the identity because the syllables differ, so
    d = sum_{i>k+1} |s_i| + sum_{j>k+1} |t_j| + |s_{k+1}^{-1} t_{k+1}|;
    otherwise (different factors, or one word a prefix of the other)
    d = sum_{i>k} |s_i| + sum_{j>k} |t_j|.

    Cost: O(V^2 L) int64 array operations, L the largest syllable count,
    in blocks of rows of bounded size.  Exact: every length comes from
    `word_length` and `normal_form`, and no float is involved.
    """
    spec = ball.spec
    R = ball.radius
    V = ball.n_vertices
    words = ball.words
    L = max(len(w) for w in words)
    # prefix[v, j-1] = index of v's first j syllables (v itself past its end),
    # so the common prefix length is the number of equal columns (x == y
    # gets k = L, past both ends, where every table below reads 0 or -1)
    prefix = np.empty((V, L), dtype=np.int64)
    # per syllable position, padded to L+1 columns: factor (-1 past the
    # end), exponent and syllable length, then suffix sums of the lengths
    factor = np.full((V, L + 1), -1, dtype=np.int64)
    exp = np.zeros((V, L + 1), dtype=np.int64)
    syl_len = np.zeros((V, L + 1), dtype=np.int64)
    for v, w in enumerate(words):
        prefix[v] = v
        for j, (f, e) in enumerate(w):
            prefix[v, j] = ball.index[w[: j + 1]]
            factor[v, j] = f
            exp[v, j] = e
            syl_len[v, j] = word_length(spec, (w[j],))
    suffix = np.cumsum(syl_len[:, ::-1], axis=1)[:, ::-1]
    # merged[f, e + off] = |(f, e)| for every exponent difference e
    off = 2 * int(np.abs(exp).max())
    merged = np.array(
        [[word_length(spec, normal_form(spec, [(f, e)])) for e in range(-off, off + 1)]
         for f in range(len(spec.orders))],
        dtype=np.int64,
    )

    dist = np.asarray(ball.dist, dtype=np.int64)
    n_bins = (R + 1) * (R + 1) * (max_dist + 1)
    flat = np.zeros(n_bins, dtype=np.int64)
    block = max(1, _PAIR_BLOCK_ELEMS // (V * max(L, 1)))
    for start in range(0, V, block):
        xs = np.arange(start, min(start + block, V))
        k = (prefix[xs, None, :] == prefix[None, :, :]).sum(axis=2)
        # flat indices of (x, k) and (y, k) into the (V, L+1) tables
        ix = xs[:, None] * (L + 1) + k
        iy = np.arange(V) * (L + 1) + k
        d = np.take(suffix, ix) + np.take(suffix, iy)
        fx, fy = np.take(factor, ix), np.take(factor, iy)
        merge = (fx == fy) & (fx >= 0)
        ix, iy = ix[merge], iy[merge]
        d[merge] += (merged[fx[merge], np.take(exp, iy) - np.take(exp, ix) + off]
                     - np.take(syl_len, ix) - np.take(syl_len, iy))
        keep = d <= max_dist
        cell = (dist[xs, None] * (R + 1) + dist[None, :]) * (max_dist + 1) + d
        flat += np.bincount(cell[keep], minlength=n_bins)
    return flat.reshape(R + 1, R + 1, max_dist + 1)


def triangle_diagram(
    spec: GroupSpec,
    p: float,
    truncation: int,
    method: str = "exact-tree",
    rho_ub: float | None = None,
    trials: int = 0,
    seed: int = 0,
) -> DiagramResult:
    """Truncated triangle sum over pairs in the radius-R ball with
    d(x,y) <= R, plus a tail bound.

    exact-tree uses tau = p^dist (unique open paths on trees); mc uses a
    per-vertex cluster-membership frequency for tau, mapped to pairs by
    vertex transitivity.  The tail covers r1 + r2 + r3 > R with the
    three-leg envelope `kernels.chained_tail(d, rho_ub, p, R + 1, 3)`:
    finite iff p(d-1)rho_ub < 1, inf when rho_ub is None.

    Raises ValueError if p is not in [0, 1] or rho_ub is not in (0, 1).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    tail = chained_tail(spec.degree, rho_ub, p, truncation + 1, legs=3)
    b = build_ball(spec, truncation)
    if method == "exact-tree":
        if not spec.is_tree:
            raise ValueError("exact-tree method requires a tree spec")
        tau = np.array([p ** r for r in range(2 * truncation + 1)])
    elif method == "mc":
        if trials < 1:
            raise ValueError("mc method needs trials >= 1")
        freq = np.zeros(b.n_vertices)
        for t in range(trials):
            mask = open_mask(b, p, seed, t)
            members, _ = root_cluster(b, mask)
            freq[members] += 1.0
        freq /= trials
        # tau indexed by distance via transitivity: average over the sphere
        tau = (np.bincount(b.dist, weights=freq, minlength=truncation + 1)
               / np.bincount(b.dist, minlength=truncation + 1))
    else:
        raise ValueError(f"unknown method {method!r}")

    counts = _pairwise_distance_counts(b, truncation)
    value = 0.0
    for r1 in range(truncation + 1):
        for r2 in range(truncation + 1):
            for r in range(truncation + 1):
                c = counts[r1, r2, r]
                if c:
                    value += c * float(tau[r1]) * float(tau[r]) * float(tau[r2])
    return DiagramResult(value, truncation, tail, method)


def tree_triangle_exact(d: int, p: float, tol: float = 1e-14) -> float:
    """Closed-form triangle sum on the d-regular tree via the tripod
    decomposition: every pair (x, y) has a median c of the triple
    (0, x, y), and the weight is p^{2(u+v+w)} for arm lengths u, v, w."""
    if p * p * (d - 1) >= 1.0:
        raise ValueError("series diverges: p^2 (d-1) >= 1")
    q = p * p

    def arm(first_count: int) -> float:
        # sum_{v >= 1} first_count * (d-1)^{v-1} * q^v
        return first_count * q / (1.0 - (d - 1) * q)

    # median at the root: arms (toward x, toward y) take distinct directions
    at_root = 1.0 + 2 * arm(d) + arm(d) * arm(d - 1)
    # median at distance u >= 1: sum of d (d-1)^{u-1} q^u center weights is
    # arm(d) again; both arms must avoid the root direction
    per_center = 1.0 + 2 * arm(d - 1) + arm(d - 1) * arm(d - 2)
    return at_root + arm(d) * per_center


def nonuniqueness_witness(
    spec: GroupSpec,
    p: float,
    r_max: int,
    trials: int,
    seed: int,
    theta_radius: int | None = None,
    rho_ub: float | None = None,
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
    fit_window: tuple[float, float] | None = None,
    residual_cutoff: float = 0.25,
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
    if fit_window is None:
        fit_window = (max(10.0, n_max ** 0.25), float(n_max))
    fit = fit_loglog(ns, curve, name="delta_tail", target=-0.5,
                     window=fit_window, residual_cutoff=residual_cutoff)
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
