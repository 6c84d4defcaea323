"""Deterministic splittable random streams.

Every Monte Carlo trial draws from a counter-based Philox stream keyed by
(master seed, stream index), so results are bit-identical from run to run
and across platforms, and trials can run in any order.  A stream is fixed
by its key and counter alone, so a trial that draws its doubles in pieces
reads the same values as one that draws them at once, and may stop
drawing as soon as it has read what it needs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np


def _key(master_seed: int, stream: int) -> np.ndarray:
    # an exact uint64 array: a Python list holding a word >= 2**63 would
    # pass through float64 in numpy's key conversion
    return np.array([master_seed & (2**64 - 1), stream], dtype=np.uint64)


def trial_rng(master_seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(master_seed, stream)))


def trial_streams(master_seed: int, streams: Iterable[int]) -> Iterator[np.random.Generator]:
    """For each t in `streams` a generator that draws exactly what a fresh
    `trial_rng(master_seed, t)` draws, bit for bit.

    It is one generator, re-keyed per stream through its `state` setter
    (counter 0, empty buffer), in place of a fresh generator per trial and
    its entropy pull; so finish drawing from it before taking the next.
    """
    bits = np.random.Philox(key=_key(master_seed, 0))
    fresh = bits.state
    gen = np.random.Generator(bits)
    for t in streams:
        fresh["state"]["key"] = _key(master_seed, t)
        bits.state = fresh
        yield gen
