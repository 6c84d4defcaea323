"""Free products of cyclic groups: normal forms, Cayley balls, girth from
the cyclic orders.

A group is specified as ``Z`` or ``Zm`` factors joined by ``*``, e.g.
``Z*Z`` (free group of rank 2), ``Z5*Z5``, ``Z2*Z2*Z2``.  Vertices of the
Cayley graph are normal-form words: sequences of (factor, exponent)
syllables with adjacent syllables from distinct factors and exponents
reduced mod the factor order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# syllable = (factor index, exponent); a word is a tuple of syllables
Word = tuple[tuple[int, int], ...]

IDENTITY: Word = ()

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


def _reduce_exponent(spec: GroupSpec, factor: int, exp: int) -> int:
    m = spec.orders[factor]
    if m is not None:
        exp %= m
    return exp


def append_syllable(spec: GroupSpec, word: Word, factor: int, exp: int) -> Word:
    """Multiply word by a single syllable, keeping normal form."""
    if not 0 <= factor < len(spec.orders):
        raise IndexError(f"factor index {factor} out of range")
    exp = _reduce_exponent(spec, factor, exp)
    if exp == 0:
        return word
    if word and word[-1][0] == factor:
        merged = _reduce_exponent(spec, factor, word[-1][1] + exp)
        if merged == 0:
            return word[:-1]
        return word[:-1] + ((factor, merged),)
    return word + ((factor, exp),)


def normal_form(spec: GroupSpec, syllables) -> Word:
    """Reduce an arbitrary syllable sequence to the unique normal form."""
    w: Word = IDENTITY
    for factor, exp in syllables:
        w = append_syllable(spec, w, factor, exp)
    return w


def multiply(spec: GroupSpec, a: Word, b: Word) -> Word:
    w = a
    for syl in b:
        w = append_syllable(spec, w, *syl)
    return w


def inverse(spec: GroupSpec, w: Word) -> Word:
    return normal_form(spec, ((f, -e) for f, e in reversed(w)))


def word_length(spec: GroupSpec, w: Word) -> int:
    """Graph distance from the identity to w in the Cayley graph.

    Each syllable contributes its distance inside the factor's cycle/line.
    """
    total = 0
    for factor, exp in w:
        m = spec.orders[factor]
        total += abs(exp) if m is None else min(exp, m - exp)
    return total


def word_str(spec: GroupSpec, w: Word) -> str:
    if not w:
        return "e"
    parts = []
    for factor, exp in w:
        lab = _LABELS[factor % 26]
        parts.append(lab if exp == 1 else f"{lab}^{exp}")
    return ".".join(parts)


class BallCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class Ball:
    """Rooted radius-R piece of the Cayley graph, BFS-complete.

    Vertex 0 is the root (identity); vertices are numbered in BFS order.
    Vertices at distance < R have full degree d; an edge between two
    radius-R vertices is not in the ball, so boundary vertices may not.

    Edge e is (u, v) with u < v; edges are ordered by u, then by the
    generator that leads from u to v.  Its arcs are 2e = u->v and
    2e+1 = v->u, so the reverse of arc a is a ^ 1.  ``arc_tail`` and
    ``arc_head`` are the only stored graph; ``adj`` is derived from them
    on first use.  Nothing changes a ball after `ball` returns it.
    """

    spec: GroupSpec
    radius: int
    words: list[Word]
    index: dict[Word, int]
    dist: list[int]
    arc_tail: np.ndarray = field(repr=False)
    arc_head: np.ndarray = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.words)

    @property
    def n_edges(self) -> int:
        return len(self.arc_head) // 2

    def sphere_sizes(self) -> list[int]:
        sizes = [0] * (self.radius + 1)
        for r in self.dist:
            sizes[r] += 1
        return sizes

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.arc_tail[::2].tolist(), self.arc_head[::2].tolist()))

    @cached_property
    def adj(self) -> list[list[tuple[int, int]]]:
        """Neighbours of each vertex as (neighbour, arc to it), in arc order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for a, (u, v) in enumerate(zip(self.arc_tail.tolist(), self.arc_head.tolist())):
            adj[u].append((v, a))
        return adj

    def export_edge_list(self) -> str:
        lines = [
            f"# R={self.radius} d={self.spec.degree} girth={self.spec.known_girth or 'inf'} "
            f"vertices={self.n_vertices}"
        ]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"


DEFAULT_VERTEX_CAP = 5_000_000


def ball(spec: GroupSpec, radius: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Ball:
    """BFS ball of given radius around the identity."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = spec.generators()
    words: list[Word] = [IDENTITY]
    index: dict[Word, int] = {IDENTITY: 0}
    dist = [0]
    arc_tail: list[int] = []
    arc_head: list[int] = []
    # vertex ids are BFS order, so scanning `words` as it grows is the
    # queue, and after the first radius-R vertex every vertex is at radius R
    for u, wu in enumerate(words):
        du = dist[u]
        if du == radius:
            break
        for factor, exp in gens:
            wv = append_syllable(spec, wu, factor, exp)
            v = index.get(wv)
            if v is None:
                if len(words) >= vertex_cap:
                    raise BallCapExceeded(
                        f"ball exceeds vertex cap {vertex_cap} at radius {radius}"
                    )
                v = len(words)
                index[wv] = v
                words.append(wv)
                dist.append(du + 1)
            elif v < u:
                # v was expanded first and already holds this edge
                continue
            arc_tail += (u, v)
            arc_head += (v, u)
    return Ball(
        spec=spec,
        radius=radius,
        words=words,
        index=index,
        dist=dist,
        arc_tail=np.array(arc_tail, dtype=np.intp),
        arc_head=np.array(arc_head, dtype=np.intp),
    )


def tree_vertex_count(d: int, radius: int) -> int:
    """Vertices in the radius-R ball of the d-regular tree, d >= 3."""
    if radius == 0:
        return 1
    return 1 + d * ((d - 1) ** radius - 1) // (d - 2)


def tree_sphere_size(d: int, r: int) -> int:
    return 1 if r == 0 else d * (d - 1) ** (r - 1)
