"""Exact branching-process oracle for percolation on the d-regular tree.

Bond percolation on the d-regular tree seen from the root is a
Galton-Watson process: the root has Binomial(d, p) open edges, every
other vertex Binomial(d-1, p).  Crossing probabilities, survival
probability and mean cluster size are computed here without any graph,
and critical-cluster sizes are sampled as branching-process total
progeny, which serves as the independent check for the graph-based
percolation estimators.
"""

from __future__ import annotations

import numpy as np

from .rng import trial_rng

FIXED_POINT_TOL = 1e-12


def crossing_probability_exact(d: int, p: float, radius: int) -> float:
    """P(root cluster reaches the radius-r sphere) on the d-regular tree.

    a_r = P(a child branch fails to reach r more levels) satisfies
    a_0 = 0, a_r = (1 - p + p * a_{r-1})^{d-1}.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return 1.0
    a = 0.0
    for _ in range(radius - 1):
        a = (1.0 - p + p * a) ** (d - 1)
    return 1.0 - (1.0 - p + p * a) ** d


def _branch_survival_bisection(d: int, p: float, tol: float = FIXED_POINT_TOL) -> float:
    """The fixed point of `branch_survival` located by bisection on
    f(t) = 1-(1-pt)^(d-1) - t: the tests' second opinion."""

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


def branch_survival(d: int, p: float) -> float:
    """Survival probability of the Binomial(d-1, p) branching process: the
    largest fixed point of theta = 1 - (1 - p*theta)^(d-1), by iteration."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p * (d - 1) <= 1.0:
        return 0.0
    theta = 1.0
    for _ in range(100_000):
        nxt = 1.0 - (1.0 - p * theta) ** (d - 1)
        if abs(nxt - theta) < FIXED_POINT_TOL:
            return nxt
        theta = nxt
    return theta


def survival_probability(d: int, p: float) -> float:
    """theta(p): probability the root cluster is infinite."""
    tb = branch_survival(d, p)
    if tb == 0.0:
        return 0.0
    return 1.0 - (1.0 - p * tb) ** d


def mean_cluster_size(d: int, p: float) -> float:
    """E|C(root)| below criticality; inf at/above p = 1/(d-1)."""
    if p * (d - 1) >= 1.0:
        return float("inf")
    branch_mean = 1.0 / (1.0 - (d - 1) * p)
    return 1.0 + d * p * branch_mean


def critical_probability(d: int) -> float:
    return 1.0 / (d - 1)


def estimate_pc_exact(d: int, tol: float = 1e-9) -> tuple[float, float]:
    """Bisection interval for p_c from the survival oracle (tree-exact).

    Each step is decided by p (d-1) > 1, the supercriticality test that
    `branch_survival` applies before it iterates: the oracle's own
    predicate, without running its fixed-point iteration.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid * (d - 1) > 1.0:
            hi = mid
        else:
            lo = mid
    return lo, hi


_PROGENY_BLOCK = 256
# trials per counter-based stream; it keys the streams, so changing it
# changes every sample
_PROGENY_CHUNK = 4096


def total_progeny_samples(
    d: int,
    p: float,
    n_max: int,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Root-cluster sizes on the d-regular tree, censored at n_max.

    Uses the random-walk representation of total progeny: explore
    vertices in generation order keeping a count of unexplored frontier
    members; the root contributes Binomial(d, p) children, everyone else
    Binomial(d-1, p).  Sizes that would exceed n_max are reported as
    n_max + 1 (censored), which stands in for the boundary-touch flag of
    ball-based sampling.

    Deterministic in (seed, trial index): trials are processed in fixed
    chunks, each with its own counter-based stream.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    out = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, _PROGENY_CHUNK):
        stop = min(start + _PROGENY_CHUNK, trials)
        rng = trial_rng(seed, start // _PROGENY_CHUNK)
        m = stop - start
        size = np.ones(m, dtype=np.int64)
        frontier = rng.binomial(d, p, size=m).astype(np.int64)
        alive = frontier > 0
        while alive.any():
            idx = np.nonzero(alive)[0]
            # explore up to a block of vertices per alive trial
            steps = np.minimum(frontier[idx], _PROGENY_BLOCK).astype(np.int64)
            block = int(steps.max())
            kids = rng.binomial(d - 1, p, size=(len(idx), block))
            mask = np.arange(block)[None, :] < steps[:, None]
            born = (kids * mask).sum(axis=1)
            size[idx] += steps
            frontier[idx] += born - steps
            done = frontier[idx] <= 0
            capped = size[idx] > n_max
            size[idx[capped]] = n_max + 1
            alive[idx[done | capped]] = False
        out[start:stop] = size
    return out


def tail_curve(sizes: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """Empirical P(|C| >= n) from (possibly censored) sampled sizes."""
    sizes = np.sort(sizes)
    counts = len(sizes) - np.searchsorted(sizes, ns, side="left")
    return counts / len(sizes)
