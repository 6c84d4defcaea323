"""Self-avoiding walk: exact enumeration, Rosenbluth sampling, generating
functions and the bubble diagram.

The census needs no ball: the Cayley graph of a free product of cyclic
groups is a tree of blocks (lines, single edges and m-cycles), so a SAW
is fixed by its endpoint's normal-form word plus, for each m-cycle
syllable, which way round the cycle it went.  `enumerate_saw` walks the
words once each and carries exact integer walk counts per length.
Everything downstream (connective-constant bounds, endpoint law, speed,
chi, bubble) is derived from the census where affordable; Rosenbluth
sampling covers lengths beyond the enumeration ceiling and is
cross-checked against the census in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec, Word, append_syllable, tree_sphere_size, word_length
from .kernels import chained_tail, series_tail
from .rng import trial_rng
from .stats import DiagramResult, Estimate, mean_estimate


@dataclass
class SawCensus:
    spec: GroupSpec
    n_max: int
    counts: list[int]  # c_n, exact
    endpoint_counts: list[dict[Word, int]]  # per n: endpoint word -> c_n(x)

    def endpoint_law(self, n: int) -> dict[Word, float]:
        cn = self.counts[n]
        return {x: c / cn for x, c in self.endpoint_counts[n].items()}

    def sup_endpoint_probability(self, n: int) -> float:
        return max(self.endpoint_counts[n].values()) / self.counts[n]

    def mean_endpoint_distance(self, n: int) -> float:
        spec = self.spec
        total = sum(c * word_length(spec, x) for x, c in self.endpoint_counts[n].items())
        return total / self.counts[n]


def _neighbors(spec: GroupSpec, w: Word) -> list[Word]:
    return [append_syllable(spec, w, f, e) for f, e in spec.generators()]


def enumerate_saw(spec: GroupSpec, n_max: int) -> SawCensus:
    """Exact census of self-avoiding walks from the identity, n <= n_max.

    A SAW never re-enters a block it has left (it would revisit the cut
    vertex), and inside a block it is a monotone arc from its entry
    vertex.  So the SAWs ending at a word x are the choices, per syllable
    of x, of one arc: a ``Z`` syllable (f, +-k) takes k steps, a ``Z2``
    syllable 1 step, and a ``Zm`` syllable (f, e) with m >= 3 either e
    steps one way or m - e steps the other (two distinct walks of equal
    length when 2e = m).  c_n(x) is the z^n coefficient of the product
    of these per-syllable polynomials.

    A depth-first pass over words keeps each pending word's polynomial
    truncated at n_max, so the cost is one step per (word, n) entry of
    the output rather than one per walk.  Counts are exact Python
    integers.  The order of each ``endpoint_counts[n]`` dict is not part
    of the result.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    # per factor: (s, t, syllables) whose walks are an arc of s steps or, on
    # an m-cycle, also one of t = m - s steps the other way; s ascends, s <= t
    moves = []
    for f, m in enumerate(spec.orders):
        if m is None:
            groups = [(k, None, ((f, k), (f, -k))) for k in range(1, n_max + 1)]
        elif m == 2:
            groups = [(1, None, ((f, 1),))]
        else:
            groups = [(e, m - e, ((f, e),) if 2 * e == m else ((f, e), (f, m - e)))
                      for e in range(1, m // 2 + 1)]
        moves.append((f, groups))
    endpoint_counts: list[dict[Word, int]] = [{} for _ in range(n_max + 1)]
    endpoint_counts[0][()] = 1
    # pending words: (word, its last factor, {n: c_n(word)}, lowest such n)
    stack: list[tuple[Word, int, dict[int, int], int]] = [((), -1, {0: 1}, 0)]
    while stack:
        w, last, poly, lo = stack.pop()
        for f, groups in moves:
            if f == last:
                continue
            for s, t, syllables in groups:
                child_lo = lo + s
                if child_lo > n_max:
                    break
                cut = n_max - s
                child = {n + s: c for n, c in poly.items() if n <= cut}
                if t is not None:
                    cut = n_max - t
                    for n, c in poly.items():
                        if n <= cut:
                            child[n + t] = child.get(n + t, 0) + c
                for syl in syllables:
                    x = w + (syl,)
                    for n, c in child.items():
                        endpoint_counts[n][x] = c
                    if child_lo < n_max:
                        stack.append((x, f, child, child_lo))
    counts = [sum(ec.values()) for ec in endpoint_counts]
    return SawCensus(spec, n_max, counts, endpoint_counts)


@dataclass
class MuBounds:
    sequence: list[float]  # c_n^{1/n}, each an upper bound on mu
    best_upper: float
    tree_exact: float | None  # d-1 when the spec is a tree

    @property
    def mu_hat(self) -> float:
        """Committed upper bound on the connective constant."""
        return self.tree_exact if self.tree_exact is not None else self.best_upper


def connective_constant(census: SawCensus) -> MuBounds:
    seq = [census.counts[n] ** (1.0 / n) for n in range(1, census.n_max + 1)]
    tree_exact = float(census.spec.degree - 1) if census.spec.is_tree else None
    return MuBounds(seq, min(seq), tree_exact)


@dataclass
class EndpointDecay:
    sup_probs: list[tuple[int, float]]  # (n, sup_x c_n(x)/c_n)
    fitted_rate: float  # slope of log sup-prob vs n
    bound_base: float  # lambda = (mu_hat^{-1} + eps)(d-1) rho_ub
    bound_constant: float  # max_n sup_prob / lambda^n over the range
    bound_applies: bool  # lambda < 1


def saw_endpoint_law(
    census: SawCensus,
    rho_ub: float | None = None,
    eps: float | None = None,
) -> EndpointDecay:
    """sup_x c_n(x)/c_n across n, with the exponential-envelope comparison.

    eps defaults to half the gap that would push the envelope base to 1.
    """
    d = census.spec.degree
    sup_probs = [(n, census.sup_endpoint_probability(n)) for n in range(1, census.n_max + 1)]
    ns = np.array([n for n, _ in sup_probs], dtype=float)
    ls = np.log([v for _, v in sup_probs])
    rate = float(np.polyfit(ns, ls, 1)[0])
    if rho_ub is None:
        return EndpointDecay(sup_probs, rate, math.nan, math.nan, False)
    mu_inv = 1.0 / connective_constant(census).mu_hat
    if eps is None:
        gap = 1.0 / ((d - 1) * rho_ub) - mu_inv
        eps = 0.5 * gap if gap > 0 else 0.0
    base = (mu_inv + eps) * (d - 1) * rho_ub
    if base >= 1.0:
        return EndpointDecay(sup_probs, rate, base, math.inf, False)
    const = max(v / base**n for n, v in sup_probs)
    return EndpointDecay(sup_probs, rate, base, const, True)


def speed_exact(census: SawCensus, n: int) -> float:
    """E[dist(0, endpoint)] / n under the uniform length-n SAW law."""
    if n < 1 or n > census.n_max:
        raise ValueError("n outside census range")
    return census.mean_endpoint_distance(n) / n


def low_displacement_mass(census: SawCensus, n: int, alpha: float) -> float:
    """P(dist(0, SAW(n)) <= alpha * n), exact from the census."""
    cutoff = alpha * n
    spec = census.spec
    total = sum(c for x, c in census.endpoint_counts[n].items()
                if word_length(spec, x) <= cutoff)
    return total / census.counts[n]


def speed_alpha(d: int, rho_ub: float, mu_inv: float, eps: float = 0.0) -> float:
    """alpha with (d-1)^alpha * lambda < 1, half way to the threshold."""
    lam = (mu_inv + eps) * (d - 1) * rho_ub
    if lam >= 1.0:
        raise ValueError("envelope base >= 1: no positive alpha certified")
    return -0.5 * math.log(lam) / math.log(d - 1)


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


def rosenbluth_sampler(spec: GroupSpec, n: int, trials: int, seed: int) -> RosenbluthResult:
    """Sequential SAW growth with importance weights; E[weight] = c_n.

    At each step the walk picks uniformly among non-visited neighbors and
    multiplies its weight by the number of choices; dead ends carry
    weight 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = np.zeros(trials)
    dists = np.zeros(trials, dtype=np.int64)
    dead = 0
    for t in range(trials):
        rng = trial_rng(seed, t)
        w: Word = ()
        visited = {w}
        weight = 1
        for _ in range(n):
            choices = [u for u in _neighbors(spec, w) if u not in visited]
            if not choices:
                weight = 0
                break
            weight *= len(choices)
            w = choices[rng.integers(len(choices))]
            visited.add(w)
        if weight == 0:
            dead += 1
        weights[t] = weight
        dists[t] = word_length(spec, w)
    return RosenbluthResult(n, trials, weights, dists, dead)


@dataclass
class GreenTable:
    z: float
    truncation: int
    values: dict[Word, float]  # endpoint word -> truncated G_z(x)
    chi: float  # truncated chi(z)
    vertex_tail: float  # uniform per-vertex tail bound (inf if uncertified)
    chi_tail: float
    certified: bool


def _chi_tail_tree(d: int, z: float, truncation: int) -> float:
    """Exact tail of chi on a tree: c_n = d(d-1)^{n-1}; finite iff z(d-1) < 1."""
    return (d / (d - 1)) * series_tail(z * (d - 1), truncation + 1)


def _chi_tail_census(census: SawCensus, z: float, truncation: int) -> float:
    """Certified chi tail via submultiplicativity: with mu_hat = c_a^{1/a}
    minimized over a, c_n <= M mu_hat^n where M = max_{r<a} c_r / mu_hat^r,
    so the tail is geometric with base mu_hat * z < 1."""
    mu = connective_constant(census)
    a = 1 + min(range(len(mu.sequence)), key=lambda i: mu.sequence[i])
    mu_hat = mu.best_upper
    m_const = max(census.counts[r] / mu_hat**r for r in range(a))
    return m_const * series_tail(mu_hat * z, truncation + 1)


def green_function(
    spec: GroupSpec,
    z: float,
    truncation: int,
    census: SawCensus | None = None,
    rho_ub: float | None = None,
) -> GreenTable:
    """Truncated G_z(x) = sum_{n<=N} c_n(x) z^n and chi(z) = sum c_n z^n.

    Tree specs need no census: the unique geodesic gives c_n(x) = [n = |x|].
    The per-vertex tail is the one-leg envelope
    `kernels.chained_tail(d, rho_ub, z, N + 1, 1)`, finite iff
    z(d-1)rho_ub < 1; the chi tail uses submultiplicativity of c_n.
    """
    if z < 0:
        raise ValueError("z must be >= 0")
    d = spec.degree
    if census is not None:
        if census.n_max < truncation:
            raise ValueError("census horizon below truncation")
        values: dict[Word, float] = {}
        chi = 0.0
        for n in range(truncation + 1):
            zn = z**n
            chi += census.counts[n] * zn
            for x, c in census.endpoint_counts[n].items():
                values[x] = values.get(x, 0.0) + c * zn
        chi_tail = _chi_tail_census(census, z, truncation)
    elif spec.is_tree:
        chi = sum(tree_sphere_size(d, r) * z**r for r in range(truncation + 1))
        values = {}  # per-vertex values on trees are just z^{|x|}
        chi_tail = _chi_tail_tree(d, z, truncation)
    else:
        raise ValueError("non-tree spec needs a census")
    vertex_tail = chained_tail(d, rho_ub, z, truncation + 1, legs=1)
    return GreenTable(z, truncation, values, chi, vertex_tail, chi_tail,
                      certified=chi_tail < math.inf)


def susceptibility_saw(
    spec: GroupSpec,
    z_grid: list[float],
    truncation: int,
    census: SawCensus | None = None,
    mu_hat: float | None = None,
):
    """chi(z) over a grid in [0, mu_hat^{-1}) with the ratio
    chi(z) * (mu_hat^{-1} - z), the bounded-above-and-below witness.

    Tree specs use the exact closed form chi(z) = 1 + dz/(1-(d-1)z);
    other specs sum c_n z^n over the census and add the certified
    submultiplicative tail, the `chi` and `chi_tail` of `green_function`
    without its per-endpoint table.
    """
    d = spec.degree
    if census is not None and mu_hat is None:
        mu_hat = connective_constant(census).mu_hat
    if spec.is_tree and mu_hat is None:
        mu_hat = float(d - 1)
    if mu_hat is None:
        raise ValueError("need a census or a tree spec to fix mu_hat")
    if not spec.is_tree:
        if census is None:
            raise ValueError("non-tree spec needs a census")
        if census.n_max < truncation:
            raise ValueError("census horizon below truncation")
    mu_inv = 1.0 / mu_hat
    rows = []
    for z in z_grid:
        if z >= mu_inv:
            raise ValueError(f"grid point z={z} >= mu_hat^-1={mu_inv}")
        if spec.is_tree:
            chi = 1.0 + d * z / (1.0 - (d - 1) * z)
            tail = 0.0
            certified = True
        else:
            if z < 0:
                raise ValueError("z must be >= 0")
            chi = 0.0
            for n in range(truncation + 1):
                chi += census.counts[n] * z**n
            tail = _chi_tail_census(census, z, truncation)
            certified = tail < math.inf
        rows.append(
            {"z": z, "chi": chi, "tail": tail, "certified": certified,
             "ratio_lo": chi * (mu_inv - z),
             "ratio_hi": (chi + tail) * (mu_inv - z) if certified else math.inf}
        )
    return rows


def bubble_diagram(
    spec: GroupSpec,
    z: float,
    truncation: int,
    census: SawCensus | None = None,
    rho_ub: float | None = None,
) -> DiagramResult:
    """B(z) = sum_x G_z(x)^2, truncated with a rigorous tail.

    Tree mode: B_N = 1 + sum_{r<=N} |S_r| z^{2r}, tail exactly geometric,
    finite iff (d-1)z^2 < 1.
    Census mode: sum over walk-length pairs (n, m <= N) of
    O[n][m] z^(n+m), where O[n][m] = sum_x c_n(x) c_m(x) is counted
    exactly in int64 (it is at most c_n c_m) from one pass that numbers
    the endpoint words; the two-leg envelope
    `kernels.chained_tail(d, rho_ub, z, N + 1, 2)` covers n + m > N and is
    finite iff z(d-1)rho_ub < 1.  The tail is inf where it is not finite.

    Raises ValueError if z < 0 or rho_ub is not in (0, 1).
    """
    if z < 0:
        raise ValueError("z must be >= 0")
    d = spec.degree
    if census is None and spec.is_tree:
        value = 1.0 + sum(tree_sphere_size(d, r) * z ** (2 * r)
                          for r in range(1, truncation + 1))
        tail = (d / (d - 1)) * series_tail((d - 1) * z * z, truncation + 1)
        method = "exact-tree"
    elif census is not None:
        if census.n_max < truncation:
            raise ValueError("census horizon below truncation")
        if max(census.counts[:truncation + 1]) ** 2 >= 2**63:
            raise OverflowError("walk counts too large for int64 overlaps")
        # per n: the id of each endpoint word (one id per distinct word)
        # and c_n(x)
        word_id: dict[Word, int] = {}
        n_entries = 0
        columns = []
        for n in range(truncation + 1):
            ec = census.endpoint_counts[n]
            ids = np.fromiter(map(word_id.setdefault, ec, itertools.count(n_entries)),
                              dtype=np.intp, count=len(ec))
            n_entries += len(ec)
            columns.append((ids, np.fromiter(ec.values(), dtype=np.int64, count=len(ec))))
        overlap = [[0] * (truncation + 1) for _ in range(truncation + 1)]
        by_id = np.zeros(n_entries, dtype=np.int64)
        for n, (ids_n, c_n) in enumerate(columns):
            by_id[ids_n] = c_n
            for m, (ids_m, c_m) in enumerate(columns):
                overlap[n][m] = int(np.dot(by_id[ids_m], c_m))
            by_id[ids_n] = 0
        value = 0.0
        for n in range(truncation + 1):
            for m in range(truncation + 1):
                value += overlap[n][m] * z ** (n + m)
        tail = chained_tail(d, rho_ub, z, truncation + 1, legs=2)
        method = "census"
    else:
        raise ValueError("non-tree spec needs a census")
    return DiagramResult(value, truncation, tail, method)
