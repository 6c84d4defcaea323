"""A fixed reference computation that sets the benchmark's time unit.

The benchmark runs on shared hosts whose speed shifts between regimes
lasting seconds to minutes: the same certificate pass takes from 1.6 to
2.9 s within two minutes.  The time metrics are therefore reported in
*reference seconds*: each timed step is divided by the time of this
reference computation, run in the same process right before and right
after it, and multiplied by `NOMINAL_S`.  A step that takes 25 times as
long as the reference reads 25 * NOMINAL_S = 2.5 s on any machine speed.

The reference mixes the kinds of work girthlab does (tuple words in a
dict, Fraction sums, small numpy array arithmetic) so that a host slowdown
stretches it about as much as it stretches girthlab.  It calls nothing in
girthlab, so a change to girthlab moves the ratio by exactly its own
effect.  It must not change between two commits that are compared.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

# The reference computation defines one reference second as 1/NOMINAL_S
# reference computations.  On a 2-vCPU Xeon KVM guest (Python 3.11.7,
# numpy 2.4.6) it takes 0.07 to 0.14 s, depending on the host's load.
NOMINAL_S = 0.1
ROUNDS = 2


def reference_work() -> tuple:
    n_words = 0
    total = Fraction(0)
    for _ in range(ROUNDS):
        # reduced words of the free group on two generators, by length
        frontier: list[tuple] = [()]
        seen = {(): 0}
        for depth in range(1, 10):
            nxt = []
            for w in frontier:
                for g in (1, -1, 2, -2):
                    if w and w[-1] == -g:
                        continue
                    v = w + (g,)
                    seen[v] = depth
                    nxt.append(v)
            frontier = nxt
        n_words += len(seen)
        for i in range(1, 200):
            total += Fraction(1, i * i)
        a = np.arange(50_000, dtype=np.float64)
        for _ in range(60):
            a = np.sqrt(a * a + 1.0)
    return n_words, total, float(a[-1])


EXPECTED_WORDS = ROUNDS * (1 + sum(4 * 3 ** (n - 1) for n in range(1, 10)))


def timed_reference() -> tuple[float, float]:
    """Wall and CPU seconds of one reference computation, with the
    collector off so that what the program left on the heap does not
    change it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        n_words, _, _ = reference_work()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    finally:
        if was_enabled:
            gc.enable()
    if n_words != EXPECTED_WORDS:
        raise RuntimeError(f"reference computation is wrong: {n_words} words")
    return wall, cpu
