"""Deterministic splittable random streams.

Every Monte Carlo trial draws from a counter-based Philox stream keyed by
(master seed, stream index), so results are bit-identical from run to run
and across platforms, and trials can run in any order.
"""

from __future__ import annotations

import numpy as np


def trial_rng(master_seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[master_seed & (2**64 - 1), stream]))
