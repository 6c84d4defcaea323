"""Exact branching-process oracle for percolation on the d-regular tree.

Bond percolation on the d-regular tree seen from the root is a
Galton-Watson process: the root has Binomial(d, p) open edges, every
other vertex Binomial(d-1, p).  Crossing probabilities, survival
probability and mean cluster size are computed here without any graph.

Critical-cluster sizes are sampled as branching-process total progeny,
one whole generation per round: the k vertices of a generation have
Binomial((d-1)k, p) children between them, because a sum of k
independent Binomial(d-1, p) counts is Binomial((d-1)k, p).  So each
round costs one binomial draw per trial still alive, and a trial stops
when its generation is empty or is censored as soon as the vertices
counted so far exceed the cap.  These samples serve as the independent
check for the graph-based percolation estimators.
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
    """p_c = 1/(d-1) on the d-regular tree: the branching process is
    supercritical iff its mean offspring p(d-1) exceeds 1 (Lyons-Peres,
    *Probability on Trees and Networks*, ch. 5)."""
    return 1.0 / (d - 1)


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
    """Root-cluster sizes T on the d-regular tree, censored at n_max.

    Explores the Galton-Watson tree one generation per round: the root's
    generation has Binomial(d, p) vertices, and a generation of k
    vertices has Binomial((d-1)k, p) children, the sum of their k
    independent Binomial(d-1, p) offspring counts.  A trial adds each
    generation to its size and stops when the generation is empty (its
    size is then T), or as soon as its size exceeds n_max, when it is
    reported as n_max + 1: that already proves T > n_max, and it stands
    in for the boundary-touch flag of ball-based sampling.  So every
    sample is min(T, n_max + 1), exactly.  Cost: one binomial draw per
    alive trial per generation, O(sum over generations of alive trials).

    Deterministic in (seed, trial index): trials are processed in fixed
    chunks of `_PROGENY_CHUNK`, each with its own counter-based stream
    `trial_rng(seed, chunk)`, so a prefix of the trials does not depend
    on how many follow.  The samples differ from those of the earlier
    vertex-by-vertex exploration in blocks of Binomial(d-1, p) draws;
    their law does not.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, _PROGENY_CHUNK):
        stop = min(start + _PROGENY_CHUNK, trials)
        rng = trial_rng(seed, start // _PROGENY_CHUNK)
        # per alive trial: its index in out, its vertices before the newest
        # generation, and the newest generation's size
        idx = np.arange(start, stop)
        size = np.ones(stop - start, dtype=np.int64)
        frontier = rng.binomial(d, p, size=stop - start)
        while idx.size:
            size += frontier
            capped = size > n_max
            ended = (frontier == 0) & ~capped
            out[idx[capped]] = n_max + 1
            out[idx[ended]] = size[ended]
            alive = ~(capped | ended)
            idx, size = idx[alive], size[alive]
            frontier = rng.binomial((d - 1) * frontier[alive], p)
    return out


def tail_curve(sizes: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """Empirical P(|C| >= n) from (possibly censored) sampled sizes."""
    sizes = np.sort(sizes)
    counts = len(sizes) - np.searchsorted(sizes, ns, side="left")
    return counts / len(sizes)
