"""Spans around the calls into each girthlab layer, installed from the
benchmark's side only.

`Tracer.install()` replaces each traced function with a timing wrapper
under every name that binds it in any girthlab module (so
`percolation.build_ball`, `verify.build_ball` and `groups.ball` all record
as the span `groups.ball`), and returns a function that puts the originals
back.  Spans stay in memory as `[name, start, end, parent]` lists and are
turned into per-layer metrics, or written out, after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Span time spent by the tracer itself on counting results; it sits under
# the caller's span, so it is taken out of that span's self time.
BOOKKEEPING = "trace.bookkeeping"


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_ball(counts, fn, args, kwargs, result):
    counts["groups.ball.vertices"] += result.n_vertices


def _count_check(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    vertices = a["test_vertices"]
    n_vertices = a["ball"].n_vertices if vertices is None else len(vertices)
    counts["kernels.pairs_checked"] += (a["n_max"] + 1) * n_vertices
    counts["kernels.entries_returned"] += len(result)
    counts["kernels.violations"] += sum(not e.passed for e in result)


def _count_crossing(counts, fn, args, kwargs, result):
    trials = _bound(fn, args, kwargs)["trials"]
    counts["percolation.crossing_trials"] += trials
    counts["percolation.crossing_hits"] += round(result.value * trials)


def _count_two_point(counts, fn, args, kwargs, result):
    counts["percolation.two_point_trials"] += _bound(fn, args, kwargs)["trials"]


def _count_progeny(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counts["branching.progeny_trials"] += a["trials"]
    counts["branching.progeny_censored"] += int(np.count_nonzero(result > a["n_max"]))


def _count_census(counts, fn, args, kwargs, result):
    counts["saw.walks_enumerated"] += sum(result.counts)


def _count_rosenbluth(counts, fn, args, kwargs, result):
    counts["saw.rosenbluth_trials"] += result.trials
    counts["saw.rosenbluth_dead_ends"] += result.dead_ends


# (module, function) -> result counter or None.  These are the layer
# boundaries the per-layer metrics are defined on; each gets a self time.
TRACED = {
    ("groups", "ball"): _count_ball,
    ("groups", "girth"): None,
    ("kernels", "srw_kernel"): None,
    ("kernels", "nbw_kernel"): None,
    ("kernels", "check_nbw_le_srw_tail"): _count_check,
    ("kernels", "check_nbw_le_rho_power"): _count_check,
    ("kernels", "estimate_spectral_radius"): None,
    ("percolation", "crossing_probability"): _count_crossing,
    ("percolation", "estimate_pc"): None,
    ("percolation", "triangle_diagram"): None,
    ("percolation", "two_point"): _count_two_point,
    ("percolation", "nonuniqueness_witness"): None,
    ("branching", "estimate_pc_exact"): None,
    ("branching", "total_progeny_samples"): _count_progeny,
    ("saw", "enumerate_saw"): _count_census,
    ("saw", "rosenbluth_sampler"): _count_rosenbluth,
    ("saw", "bubble_diagram"): None,
    ("rng", "trial_rng"): None,
    ("verify", "run_certificate"): None,
}

def girthlab_modules():
    import girthlab

    mods = [girthlab]
    for info in pkgutil.iter_modules(girthlab.__path__):
        mods.append(importlib.import_module(f"girthlab.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                book = [BOOKKEEPING, clock(), 0.0, parent]
                spans.append(book)
                counter(counts, fn, args, kwargs, result)
                book[2] = clock()
            return result

        return wrapper

    def install(self):
        """Wrap every traced function under every name that binds it.

        Returns a function that restores the originals.  A traced function
        the program no longer has is skipped with a note on stderr; its
        metrics then read 0."""
        modules = girthlab_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        patched = []
        for (mod_name, fn_name), counter in TRACED.items():
            original = getattr(by_name.get(mod_name), fn_name, None)
            if original is None:
                print(f"perfbench: girthlab.{mod_name}.{fn_name} not found, not traced",
                      file=sys.stderr)
                continue
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        patched.append((m, attr, original))

        def restore():
            for m, attr, original in patched:
                setattr(m, attr, original)

        return restore

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: summed self time (duration minus the time its
        child spans cover) and number of calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def calls_under(self, child: str, ancestor: str) -> int:
        """Number of `child` spans that have an `ancestor` span above them."""
        spans = self.spans
        n = 0
        for name, _, _, parent in spans:
            if name != child:
                continue
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            n += parent >= 0
        return n


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, by BENCHMARK.json name."""
    self_s, calls = tracer.self_times()
    c = tracer.counts
    m = {f"{mod}.{fn}.self_s": self_s.get(f"{mod}.{fn}", 0.0) for mod, fn in TRACED}
    pcs = calls.get("percolation.estimate_pc", 0)
    m.update({
        "groups.ball.calls": calls.get("groups.ball", 0),
        "groups.ball.vertices": c["groups.ball.vertices"],
        "kernels.pairs_checked": c["kernels.pairs_checked"],
        "kernels.entries_returned": c["kernels.entries_returned"],
        "kernels.violations": c["kernels.violations"],
        "percolation.crossing_trials": c["percolation.crossing_trials"],
        "percolation.crossing_hit_frac": _frac(c["percolation.crossing_hits"],
                                               c["percolation.crossing_trials"]),
        "percolation.crossing_calls_per_pc": _frac(
            tracer.calls_under("percolation.crossing_probability",
                               "percolation.estimate_pc"), pcs),
        "percolation.two_point_trials": c["percolation.two_point_trials"],
        "branching.progeny_trials": c["branching.progeny_trials"],
        "branching.progeny_censored_frac": _frac(c["branching.progeny_censored"],
                                                 c["branching.progeny_trials"]),
        "saw.walks_enumerated": c["saw.walks_enumerated"],
        "saw.rosenbluth_trials": c["saw.rosenbluth_trials"],
        "saw.rosenbluth_dead_end_frac": _frac(c["saw.rosenbluth_dead_ends"],
                                              c["saw.rosenbluth_trials"]),
        "rng.trial_rng.calls": calls.get("rng.trial_rng", 0),
    })
    return m


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0
