"""One workload in one fresh process: set-up, timed passes, checks.

Started by run.py, never by hand.  argv: workload, seed, seconds, trace
(0|1), scale, and the CLOCK_MONOTONIC time (ns) at which run.py started
this process, so that set-up time counts interpreter start too.  With
--setup-only it stops once the inputs are ready.  It prints one JSON
object on its last line of standard output.

Untraced passes run the reference computation (reference.py) before every
timed step and once after the last, and report each step's time in
reference seconds: its wall (CPU) time over the mean wall (CPU) time of
the two reference runs around it, times NOMINAL_S.  Set-up time is put in
the same unit by a reference run right after set-up (the second of two:
the first warms up the reference's own code).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import defaultdict

from reference import NOMINAL_S, timed_reference

MIN_PASSES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    return ap.parse_args(argv)


class Timeline:
    """Timed steps, each between two runs of the reference computation:
    step j ran after refs[j] and before refs[j + 1]."""

    def __init__(self):
        self.refs: list[tuple[float, float]] = []  # (wall, cpu) seconds
        self.steps: list[tuple[str, float, float]] = []  # (name, wall, cpu)

    def reference(self) -> None:
        self.refs.append(timed_reference())

    def seconds(self, clock: int, normalized: bool) -> float:
        """A typical pass: the sum over step names of the median time of
        that step, wall (clock 0) or CPU (clock 1), in reference seconds
        or, not normalized, in seconds.  A step is scaled by the reference
        runs right before and after it, which saw the host's speed of that
        moment."""
        by_name = defaultdict(list)
        for j, step in enumerate(self.steps):
            t = step[1 + clock]
            if normalized:
                t *= NOMINAL_S / ((self.refs[j][clock] + self.refs[j + 1][clock]) / 2)
            by_name[step[0]].append(t)
        return sum(statistics.median(v) for v in by_name.values())


class Passes:
    """Runs passes of one workload, cycling through its input sets, and
    checks every pass's outputs."""

    def __init__(self, wl, digest):
        self.wl = wl
        self.digest_fn = digest
        self.attempted = 0
        self.failed_checks: list[str] = []
        self.digests: list[str | None] = [None] * wl.n_inputs

    def run_one(self, k: int, timeline: Timeline | None = None) -> tuple[float, float]:
        """One timed pass on input set k; returns its wall and CPU seconds.
        With a timeline, each step is preceded by a reference run and
        recorded; the caller runs the reference once after the last pass."""
        gc.collect()
        outputs = {}
        wall = cpu = 0.0
        for name, call in self.wl.steps(k):
            if timeline is not None:
                timeline.reference()
            c0 = time.process_time()
            t0 = time.perf_counter()
            outputs[name] = call()
            step_wall = time.perf_counter() - t0
            step_cpu = time.process_time() - c0
            if timeline is not None:
                timeline.steps.append((name, step_wall, step_cpu))
            wall += step_wall
            cpu += step_cpu
        res = self.wl.result(outputs)
        del outputs
        checks = self.wl.check(res)
        digest = self.digest_fn(res)
        if self.digests[k] is None:
            self.digests[k] = digest
        # passes on the same input set must give the same output bytes
        checks.append(("outputs_identical_across_passes", digest == self.digests[k]))
        self.attempted += len(checks)
        self.failed_checks += [name for name, ok in checks if not ok]
        return wall, cpu


def main(argv=None) -> int:
    args = parse_args(argv)

    import workloads  # girthlab and numpy load here: part of set-up

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    timed_reference()  # the first run also warms up the reference's own code
    setup_ref_s = timed_reference()[0]
    setup = {"setup_s": setup_s, "setup_ref_s": setup_ref_s,
             "setup_norm_s": setup_s * NOMINAL_S / setup_ref_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import girthlab
    import numpy

    passes = Passes(wl, workloads.canonical_sha256)
    deadline = time.perf_counter() + args.seconds
    out = {**setup, "girthlab_file": girthlab.__file__, "numpy": numpy.__version__}

    walls, traced_walls = [], []
    if not args.trace:
        # at least MIN_PASSES passes and every input set twice; then only
        # while another pass of median length still ends inside the budget
        timeline = Timeline()
        cpus, lengths = [], []
        while True:
            t0 = time.perf_counter()
            wall, cpu = passes.run_one(len(walls) % wl.n_inputs, timeline)
            walls.append(wall)
            cpus.append(cpu)
            lengths.append(time.perf_counter() - t0)
            left = deadline - time.perf_counter()
            if (len(walls) >= max(MIN_PASSES, 2 * wl.n_inputs)
                    and left < statistics.median(lengths)):
                break
        timeline.reference()
        out.update(wall_s=timeline.seconds(0, normalized=True),
                   cpu_s=timeline.seconds(1, normalized=True),
                   raw_wall_s=timeline.seconds(0, normalized=False),
                   raw_cpu_s=timeline.seconds(1, normalized=False),
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   walls=walls, cpus=cpus, steps=timeline.steps,
                   reference_walls=[r[0] for r in timeline.refs])
    else:
        from tracing import Tracer, layer_metrics

        # an untraced then a traced pass on each input set in turn; the
        # median ratio of the two walls in a pair is the tracing overhead
        per_pass, self_sums = [], []
        while True:
            k = len(walls) % wl.n_inputs
            walls.append(passes.run_one(k)[0])
            tracer = Tracer()
            restore = tracer.install()
            try:
                traced_walls.append(passes.run_one(k)[0])
            finally:
                restore()
            per_pass.append(layer_metrics(tracer))
            self_sums.append(sum(tracer.self_times()[0].values()))
            left = deadline - time.perf_counter()
            if left < statistics.median(walls) + statistics.median(traced_walls):
                break
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_frac"] = statistics.median(
            t / u for t, u in zip(traced_walls, walls)) - 1.0
        out.update(metrics=metrics, untraced_walls=walls, traced_walls=traced_walls,
                   span_self_sums=self_sums, span_count=len(tracer.spans))
        if args.spans_out:
            with open(args.spans_out, "w") as f:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, f)

    out.update(attempted=passes.attempted, failed=len(passes.failed_checks),
               failed_checks=passes.failed_checks[:20], passes=len(walls) + len(traced_walls),
               output_sha256=workloads.canonical_sha256(passes.digests))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
