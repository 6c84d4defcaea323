"""Self-avoiding walk: exact census, Rosenbluth sampling, the
susceptibility chi(z) and the bubble diagram.

The Cayley graph of a free product of cyclic groups is a tree of blocks
(lines, single edges and m-cycles), so a SAW is fixed by its endpoint's
normal-form word plus, for each m-cycle syllable, which way round it went,
and a word's walk counts are a product of per-syllable polynomials.  The
census's c_n and sum_x |x| c_n(x) are the coefficients of two renewal sums
of `blocks`, read by `blocks.series`: exact counts, no words.  mu bounds
and speed read them; the endpoint words are built only when
`SawCensus.endpoint_counts` is first read.  chi and the bubble are renewal
sums too.  Rosenbluth sampling goes past the census's reach in words: a
growing walk's unvisited neighbours depend only on its block and the steps
taken in it, so all trials advance together as a chain of small integer
states.  Tests check it against the census and an exact law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import blocks
from .groups import GroupSpec, Word
from .rng import trial_rng
from .stats import Estimate, mean_estimate


CENSUS_N_MAX = 4000  # there a Z5*Z5 census value has 48e6 bits (6 MB) and takes 18 s, 2 vCPUs


@dataclass
class SawCensus:
    spec: GroupSpec
    n_max: int
    counts: list[int]  # c_n, exact
    distance_sums: list[int]  # sum_x |x| c_n(x), exact

    @cached_property
    def endpoint_counts(self) -> list[dict[Word, int]]:
        """Per n: endpoint word -> c_n(x), built on first read by a
        depth-first pass over classes of words that share a last factor and
        a walk-count polynomial, each extended one syllable at a time by
        `_children`.  Each child word is hashed once and copied into every
        ``endpoint_counts[n]`` by dict operations; dict order is not part
        of the result."""
        endpoint_counts: list[dict[Word, int]] = [{} for _ in range(self.n_max + 1)]
        endpoint_counts[0][()] = 1
        # pending classes: (words, their last factor, {n: c_n(word)})
        stack: list[tuple[list[Word], int, dict[int, int]]] = [([()], -1, {0: 1})]
        while stack:
            words, last, poly = stack.pop()
            for f, tails, child in _children(self.spec, self.n_max, last, poly):
                xs = [w + tail for w in words for tail in tails]
                keys = xs  # later copies reuse the stored hashes
                for n, c in child.items():
                    keys = dict.fromkeys(keys, c)
                    endpoint_counts[n].update(keys)
                stack.append((xs, f, child))
        return endpoint_counts

    def _require_walks(self, n: int) -> None:
        """Raise ValueError unless 0 <= n <= n_max and c_n > 0 (a finite
        graph, such as a single cycle ``Z5``, has no SAW past its size)."""
        if n < 0 or n > self.n_max:
            raise ValueError("n outside census range")
        if self.counts[n] == 0:
            raise ValueError(f"no self-avoiding walk of length {n} on "
                             f"{self.spec.describe()}: c_{n} = 0")


def _children(spec: GroupSpec, n_max: int, last: int, poly: dict[int, int]):
    """The one-syllable extensions of a class of words with last factor
    `last` and walk counts `poly`, as (factor f, the syllables, the child
    polynomial truncated at z^n_max): an arc of s steps in f or, on an
    m-cycle, also one of t = m - s steps the other way, so the child is
    poly * (z^s + z^t).  Only children of length <= n_max are listed."""
    room = n_max - min(poly)
    for f, m in enumerate(spec.orders):
        if f == last:
            continue
        if m is None:
            arcs = [(k, 0, (((f, k),), ((f, -k),))) for k in range(1, room + 1)]
        elif m == 2:
            arcs = [(1, 0, (((f, 1),),))] if room else []
        else:
            arcs = [(e, m - e, (((f, e),),) if 2 * e == m else (((f, e),), ((f, m - e),)))
                    for e in range(1, min(m // 2, room) + 1)]
        for s, t, tails in arcs:
            child = {n + s: c for n, c in poly.items() if n + s <= n_max}
            if t:
                for n, c in poly.items():
                    if n + t <= n_max:
                        child[n + t] = child.get(n + t, 0) + c
            yield f, tails, child


def enumerate_saw(spec: GroupSpec, n_max: int) -> SawCensus:
    """Exact census of self-avoiding walks from the identity, n <= n_max.

    A SAW never re-enters a block it has left (it would revisit the cut
    vertex), and inside a block it is a monotone arc from its entry
    vertex, so the walks renew at every block and c_n and
    sum_x |x| c_n(x) are the coefficients of `blocks.series`.  No word is
    built.  ValueError outside 0 <= n_max <= `CENSUS_N_MAX`.
    """
    if not 0 <= n_max <= CENSUS_N_MAX:
        raise ValueError(f"n_max must be in [0, {CENSUS_N_MAX}], got {n_max}")
    return SawCensus(spec, n_max, *blocks.series(spec, n_max))


@dataclass
class MuBounds:
    sequence: list[float]  # c_n^{1/n}, each an upper bound on mu
    best_upper: float


def connective_constant(census: SawCensus) -> MuBounds:
    if census.n_max < 1:
        raise ValueError("the connective-constant bound needs a census with n_max >= 1")
    if 0 in census.counts:  # a finite graph: c_n = 0 from its size on
        census._require_walks(census.counts.index(0))
    seq = [census.counts[n] ** (1.0 / n) for n in range(1, census.n_max + 1)]
    return MuBounds(seq, min(seq))


def speed_exact(census: SawCensus, n: int) -> float:
    """E[dist(0, endpoint)] / n under the uniform length-n SAW law.
    Raises ValueError unless 1 <= n <= n_max and c_n > 0."""
    if n < 1:
        raise ValueError("n outside census range")
    census._require_walks(n)
    return census.distance_sums[n] / census.counts[n] / n


@dataclass
class RosenbluthResult:
    n: int
    trials: int
    weights: np.ndarray
    endpoint_dists: np.ndarray
    dead_ends: int

    @property
    def c_n_estimate(self) -> Estimate:
        return mean_estimate(self.weights)

    @property
    def speed_estimate(self) -> float:
        w = self.weights.sum()
        if w == 0.0:
            raise ZeroDivisionError("all samples dead-ended")
        return float((self.weights * self.endpoint_dists).sum() / w) / self.n


# trials per counter-based stream; it keys the streams, so changing it
# changes every sample
_ROSENBLUTH_CHUNK = 4096


def rosenbluth_sampler(spec: GroupSpec, n: int, trials: int, seed: int) -> RosenbluthResult:
    """Sequential SAW growth with importance weights; E[weight] = c_n.

    At each step the walk picks uniformly among its k non-visited
    neighbours and multiplies its weight by k; a dead end (k = 0) carries
    weight 0 and keeps the endpoint distance where it stopped.

    No walk is stored.  A SAW never re-enters a block it has left, and
    inside a block it moves monotonically (the fact behind `enumerate_saw`),
    so a trial's state is three integers: the factor f of its current
    block, the steps e taken in it and the distance D of its completed
    syllables.  Every generator of every factor g != f opens a fresh
    block, and the current block goes on one more step always on ``Z``,
    never on ``Z2`` and on ``Zm`` while e < m - 1; so k is d, d - 1 or
    d - 2.  Going on sets e += 1; opening g's block adds the current
    syllable's length min(e, m - e) to D and sets f = g, e = 1.  The
    endpoint distance is D plus that length.  All trials of a chunk
    advance together, one numpy step per walk step: O(n * trials) in
    numpy.

    Deterministic in (seed, trial index): trials are processed in fixed
    chunks of `_ROSENBLUTH_CHUNK`, each with its own counter-based stream
    `trial_rng(seed, chunk)`, from which one row-major matrix r of
    `integers(0, L, (trials in chunk, n))` is drawn, L the lcm of the
    possible k >= 1.  A step takes move r mod k, exactly uniform because k
    divides L, and a prefix of the trials does not depend on how many
    follow.  Each weight is the exact integer product of its k's, rounded
    once to float64; past the float range this raises OverflowError.  The
    samples differ from those of the earlier per-trial sampler over tuple
    words; their law does not.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = spec.degree
    # per factor, and a last row for the start (no block yet): the
    # new-block moves and the factor each opens, the steps the block
    # allows, and its cycle length m for min(e, m - e) (2n + 2 on Z)
    rows = len(spec.orders) + 1
    fresh = np.zeros(rows, dtype=np.int64)
    opens = np.zeros((rows, d), dtype=np.int64)
    limit = np.full(rows, n + 1, dtype=np.int64)
    cycle = np.full(rows, 2 * n + 2, dtype=np.int64)
    limit[-1] = 0
    for f in range(rows):
        targets = [g for g, _ in spec.generators() if g != f]
        fresh[f] = len(targets)
        opens[f, :len(targets)] = targets
    for f, m in enumerate(spec.orders):
        if m is not None:
            limit[f], cycle[f] = m - 1, m
    # k is d at the start, d - 1 inside a block that can go on or a Z2
    # block, and d - 2 at the last step round an m-cycle
    ks = {d, d - 1} if spec.is_tree else {d, d - 1, d - 2}
    span = math.lcm(*(k for k in ks if k >= 1))
    weights = np.zeros(trials)
    dists = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, _ROSENBLUTH_CHUNK):
        size = min(_ROSENBLUTH_CHUNK, trials - start)
        draws = trial_rng(seed, start // _ROSENBLUTH_CHUNK).integers(0, span, size=(size, n))
        # per trial: the state (f, e, D) and its steps with k = d - 1 and
        # with k = d - 2; a dead trial's state stays put, so its k stays 0
        f = np.full(size, rows - 1)
        e = np.zeros(size, dtype=np.int64)
        behind = np.zeros(size, dtype=np.int64)
        below = np.zeros((2, size), dtype=np.int64)
        for step in range(n):
            can = e < limit[f]
            k = fresh[f] + can
            j = draws[:, step] % np.maximum(k, 1)
            stay = can & (j == 0)
            jump = (k > 0) & ~stay
            below[0] += k == d - 1
            below[1] += k == d - 2
            behind += np.where(jump, np.minimum(e, cycle[f] - e), 0)
            f = np.where(jump, opens[f, j - can], f)
            e = np.where(jump, 1, e + stay)
        dists[start:start + size] = behind + np.minimum(e, cycle[f] - e)
        alive = k > 0
        # each distinct (steps at k = d - 1, steps at k = d - 2) once, in
        # Python integers
        codes, inverse = np.unique(below[0][alive] * (n + 1) + below[1][alive],
                                   return_inverse=True)
        exact = [float(d ** (n - b1 - b2) * (d - 1) ** b1 * (d - 2) ** b2)
                 for b1, b2 in (divmod(c, n + 1) for c in codes.tolist())]
        weights[start:start + size][alive] = np.array(exact)[inverse]
    return RosenbluthResult(n, trials, weights, dists, int(np.count_nonzero(weights == 0)))


def susceptibility_saw(spec: GroupSpec, z_grid: list):
    """chi(z) = sum_x G_z(x) over a grid below z_c, with the ratio
    chi(z) * (z_c - z), the bounded-above-and-below witness of gamma = 1.

    chi is the renewal sum of `blocks.walks`, in floats or Fractions as z
    is: 1 + dz/(1-(d-1)z) on trees.  z_c is bracketed by
    `blocks.critical_interval(spec, blocks.walks)`, and ratio_lo and
    ratio_hi take its two ends.

    Raises ValueError for z < 0 or NaN, degree < 3 and a grid point at or
    above z_c's lower end.
    """
    if any(not z >= 0 for z in z_grid):
        raise ValueError("z must be >= 0")
    lo, hi = blocks.critical_interval(spec, blocks.walks)
    rows = []
    for z in z_grid:
        if z >= lo:
            raise ValueError(f"grid point z={z} >= z_c's lower end {float(lo)}")
        chi = blocks.renewal(spec, blocks.walks, z)
        rows.append({"z": z, "chi": chi, "ratio_lo": chi * (lo - z), "ratio_hi": chi * (hi - z)})
    return rows


def bubble_diagram(spec: GroupSpec, z):
    """B(z) = sum_x G_z(x)^2, G_z(x) the SAW generating function from the
    identity to x: a product of per-syllable arc sums, so B is the renewal
    sum 1/(1 - sum_f A_f/(1+A_f)) of `blocks.bubbles`, inf when that sum is
    >= 1.  Floats or Fractions as z is.  Raises ValueError unless z >= 0."""
    if not z >= 0:
        raise ValueError("z must be >= 0")
    return blocks.renewal(spec, blocks.bubbles, z)
