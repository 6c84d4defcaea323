"""girthlab: walk kernels, percolation and self-avoiding walk on
high-girth non-amenable Cayley graphs, with exact tree oracles and an
aggregate inequality certificate."""

from .groups import GroupSpec, Word, ball, parse_group_spec

__all__ = ["GroupSpec", "Word", "ball", "parse_group_spec"]

__version__ = "0.1.0"
