"""Free products of cyclic groups: group specs, Cayley balls, girth from
the cyclic orders.

A group is specified as ``Z`` or ``Zm`` factors joined by ``*``, e.g.
``Z*Z`` (free group of rank 2), ``Z5*Z5``, ``Z2*Z2*Z2``.  Group elements
are normal-form words: sequences of (factor, exponent) syllables with
adjacent syllables from distinct factors and exponents reduced mod the
factor order.  A Cayley ball is built a sphere at a time from integer
arrays, with no word arithmetic: each vertex is stored as its prefix
vertex and its last syllable, and its word is spelled out only on demand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# syllable = (factor index, exponent); a word is a tuple of syllables
Word = tuple[tuple[int, int], ...]

_FACTOR_RE = re.compile(r"^Z(\d*)$")

_LABELS = "abcdefghijklmnopqrstuvwxyz"


class GroupSpecError(ValueError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """Free product of cyclic factors.  order None means infinite (Z)."""

    orders: tuple[int | None, ...]

    def __post_init__(self):
        if not self.orders:
            raise GroupSpecError("need at least one factor")
        for m in self.orders:
            if m is not None and m < 2:
                raise GroupSpecError(f"cyclic order must be >= 2, got {m}")

    @property
    def degree(self) -> int:
        return sum(1 if m == 2 else 2 for m in self.orders)

    @property
    def is_tree(self) -> bool:
        # Zm with m >= 3 closes an m-cycle; Z and Z2 factors do not.
        return all(m is None or m == 2 for m in self.orders)

    @property
    def known_girth(self) -> int | None:
        """Smallest cyclic order >= 3, or None for trees (infinite girth)."""
        cyc = [m for m in self.orders if m is not None and m >= 3]
        return min(cyc) if cyc else None

    def generators(self) -> list[tuple[int, int]]:
        """Cayley generator moves as (factor, +-1); order-2 factors are involutions."""
        gens = []
        for i, m in enumerate(self.orders):
            gens.append((i, 1))
            if m != 2:
                gens.append((i, -1))
        return gens

    def describe(self) -> str:
        return "*".join("Z" if m is None else f"Z{m}" for m in self.orders)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a presentation string like ``Z*Z`` or ``Z5*Z5``."""
    parts = text.strip().split("*")
    orders: list[int | None] = []
    for part in parts:
        m = _FACTOR_RE.match(part.strip())
        if m is None:
            raise GroupSpecError(f"malformed factor {part!r} in {text!r}")
        orders.append(int(m.group(1)) if m.group(1) else None)
    return GroupSpec(tuple(orders))


def word_str(spec: GroupSpec, w: Word) -> str:
    if not w:
        return "e"
    parts = []
    for factor, exp in w:
        lab = _LABELS[factor % 26]
        parts.append(lab if exp == 1 else f"{lab}^{exp}")
    return ".".join(parts)


class BallCapExceeded(ValueError):
    """A ball larger than its vertex cap: a usage error, as a too-large R is."""


@dataclass(frozen=True, eq=False)
class Ball:
    """Rooted radius-R piece of the Cayley graph, BFS-complete.

    Vertex 0 is the root (identity); vertices are numbered in BFS order.
    Vertices at distance < R have full degree d; an edge between two
    radius-R vertices is not in the ball, so boundary vertices may not.

    Vertex v > 0 is the normal-form word of vertex ``prefix[v]`` followed
    by the syllable ``(factor[v], exponent[v])``; `word` spells it out.
    The root's entries are -1, -1 and 0.

    Edge e is (u, v) with u < v; edges are ordered by u, then by the
    generator that leads from u to v.  Its arcs are 2e = u->v and
    2e+1 = v->u, so the reverse of arc a is a ^ 1.  ``arc_tail`` and
    ``arc_head`` are the only stored graph; ``adj`` is derived from them
    on first use.  Nothing changes a ball after `ball` returns it.
    """

    spec: GroupSpec
    radius: int
    dist: list[int]
    prefix: np.ndarray = field(repr=False)
    factor: np.ndarray = field(repr=False)
    exponent: np.ndarray = field(repr=False)
    arc_tail: np.ndarray = field(repr=False)
    arc_head: np.ndarray = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.dist)

    @property
    def n_edges(self) -> int:
        return len(self.arc_head) // 2

    def word(self, v: int) -> Word:
        """Normal-form word of vertex v, read back along its prefix chain."""
        syllables = []
        while v > 0:
            syllables.append((self.factor.item(v), self.exponent.item(v)))
            v = self.prefix.item(v)
        return tuple(reversed(syllables))

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.arc_tail[::2].tolist(), self.arc_head[::2].tolist()))

    @cached_property
    def adj(self) -> list[list[tuple[int, int]]]:
        """Neighbours of each vertex as (neighbour, arc to it), in arc order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for a, (u, v) in enumerate(zip(self.arc_tail.tolist(), self.arc_head.tolist())):
            adj[u].append((v, a))
        return adj

    @cached_property
    def edge_ends(self) -> list[int]:
        """edge_ends[x] = the number of edges whose tail is <= x.  Edges are
        ordered by tail, so every arc at x belongs to an edge below it."""
        tails = self.arc_tail[::2]
        return np.searchsorted(tails, np.arange(self.n_vertices), side="right").tolist()

    def export_edge_list(self) -> str:
        lines = [
            f"# R={self.radius} d={self.spec.degree} girth={self.spec.known_girth or 'inf'} "
            f"vertices={self.n_vertices}"
        ]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"


DEFAULT_VERTEX_CAP = 5_000_000


def ball(spec: GroupSpec, radius: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Ball:
    """BFS ball of given radius around the identity, built a sphere at a time.

    Generator (f, s) takes u = p.(f, e) at distance r to a new vertex at
    r + 1 when f is not u's last factor, or when it moves e away from 0
    (on Zm: away along the shorter arc).  On an even Zm the antipode
    p.(f, m/2) is reached from both sides; it belongs to the plus side
    p.(f, m/2 - 1), which precedes its mirror p.(f, m/2 + 1) in BFS order,
    so the mirror's step to it is an edge to an existing vertex.  On an odd
    Zm the middle pair p.(f, (m-1)/2), p.(f, (m+1)/2) share a sphere and
    their edge is recorded from the first.  Every other step goes back to
    an earlier vertex, which already holds the edge.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = spec.generators()
    gen_factor = np.array([f for f, _ in gens])
    gen_step = np.array([s for _, s in gens])
    gen_order = np.array([spec.orders[f] or 0 for f, _ in gens])  # 0 for Z
    plus_col = np.array([gens.index((f, 1)) for f, _ in gens])
    finite, plus, half = gen_order > 0, gen_step > 0, gen_order // 2
    first_exp = np.where(finite, gen_step % np.maximum(gen_order, 1), gen_step)
    # a same-factor step makes a new vertex iff away_lo < e < away_hi
    big = radius + 1  # beyond every Z exponent in the ball
    away_lo = np.where(plus, 0, np.where(finite, half + 1, -big))
    away_hi = np.where(plus, np.where(finite, half, big), np.where(finite, gen_order, 0))
    # the e at which a same-factor step meets the mirror's side (0 = never):
    # odd middle from the plus side, even antipode from the minus side
    odd = gen_order % 2 == 1
    mirror_exp = np.where(finite & (plus == odd), np.where(plus, half, half + 1), 0)
    factor_order = np.array([m or 0 for m in spec.orders])
    n_factors, span = len(spec.orders), factor_order.max()  # span > every Zm exponent

    prefix, factor, exponent = [np.array([-1])], [np.array([-1])], [np.array([0])]
    dist = [0]
    tails, heads = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    lo, hi = 0, 1  # ids of the current sphere
    for r in range(radius):
        p, f, e = prefix[-1], factor[-1], exponent[-1]
        same = f[:, None] == gen_factor
        ecol = e[:, None]
        new = ~same | ((away_lo < ecol) & (ecol < away_hi))
        to_mirror = same & (ecol == mirror_exp)
        count = int(np.count_nonzero(new))
        if hi + count > vertex_cap:
            raise BallCapExceeded(f"ball exceeds vertex cap {vertex_cap} at radius {radius}")

        ids = np.zeros(new.shape, dtype=np.intp)
        rows, cols = np.nonzero(new)
        ids[rows, cols] = np.arange(hi, hi + count)
        grown = same[rows, cols]
        prefix.append(np.where(grown, p[rows], lo + rows))
        factor.append(gen_factor[cols])
        exponent.append(np.where(grown, e[rows] + gen_step[cols], first_exp[cols]))

        if to_mirror.any():
            # the mirror of p.(f, e) is its sibling p.(f, m - e) in this sphere
            keys = np.where(factor_order[f] > 0, (p * n_factors + f) * span + e, -1)
            order = np.argsort(keys)
            rows, cols = np.nonzero(to_mirror)
            want = (p[rows] * n_factors + gen_factor[cols]) * span + gen_order[cols] - e[rows]
            sib = order[np.searchsorted(keys[order], want)]
            ids[rows, cols] = np.where(plus[cols], lo + sib, ids[sib, plus_col[cols]])

        rows, cols = np.nonzero(new | to_mirror)
        tails.append(lo + rows)
        heads.append(ids[rows, cols])
        dist.extend([r + 1] * count)
        lo, hi = hi, hi + count

    tail, head = np.concatenate(tails), np.concatenate(heads)
    return Ball(
        spec=spec,
        radius=radius,
        dist=dist,
        prefix=np.concatenate(prefix),
        factor=np.concatenate(factor),
        exponent=np.concatenate(exponent),
        arc_tail=np.stack([tail, head], axis=1).ravel(),
        arc_head=np.stack([head, tail], axis=1).ravel(),
    )


def tree_vertex_count(d: int, radius: int) -> int:
    """Vertices in the radius-R ball of the d-regular tree, d >= 3."""
    if radius == 0:
        return 1
    return 1 + d * ((d - 1) ** radius - 1) // (d - 2)
