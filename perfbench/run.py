"""girthlab benchmark: one workload per invocation, in fresh processes.

Run from the root of a girthlab checkout:

    python3 perfbench/run.py --workload certificate --seed 1 --seconds 30 --trace 0

Workloads are `certificate`, `kernel-suite` and `sampling` (see
perfbench/README.md).  The program under test is the checkout's own
`src/girthlab`; the run fails if it is missing.  The workload runs in one
fresh single-threaded process for about --seconds; set-up time is measured
in it and in fresh processes started before and after it.  Times are in
reference seconds (see perfbench/reference.py), which a host's changing
speed moves far less than plain seconds.  With --trace 0 the result holds
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones from a traced run.  The last line of standard output is
the result as one JSON object; the run record (machine, versions, output
digest, every pass time) goes to the line before it and to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certificate", "kernel-suite", "sampling")
SETUP_PROBES = 4  # processes that only set up, before and again after the run
RUN_LIMIT_S = 170  # every child is killed if the run gets this old
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for perfbench/smoke.py")
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must be in [1, 120]")
    return args


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    return env


def run_worker(root: Path, args, started: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, *extra]
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("run time limit reached")
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--spawned-ns", str(spawned)], cwd=root,
                              env=child_env(root), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run time limit: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in an exported tree that has no .git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(root: Path, args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "git_commit": git_commit(root),
        "thread_env": {v: "1" for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        if not (root / "src" / "girthlab" / "__init__.py").is_file():
            raise BenchError(f"no girthlab package under {root / 'src'}; "
                             "run from the root of a girthlab checkout")
        # setup_s is an end-to-end metric, so a traced run does not probe;
        # probing on both sides of the run samples the CPU speed at two
        # times, not one
        probes = 0 if args.trace else SETUP_PROBES
        setups = [run_worker(root, args, started, "--setup-only")
                  for _ in range(probes)]
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        extra = ["--spans-out", str(out_dir / f"{stem}-spans.json")] if args.trace else []
        work = run_worker(root, args, started, *extra)
        setups += [run_worker(root, args, started, "--setup-only")
                   for _ in range(probes)]
        where = Path(work.pop("girthlab_file")).resolve()
        if root.resolve() / "src" not in where.parents:
            raise BenchError(f"imported girthlab from {where}, not from this checkout")
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    setups.append(work)
    measured = {"setup_s": statistics.median(s["setup_norm_s"] for s in setups)}
    if args.trace:
        measured.update(work["metrics"])
        wanted = spec["per_layer"]
    else:
        measured.update({k: work[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")})
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2

    record = run_record(root, args)
    record.update({k: v for k, v in work.items() if k != "metrics"},
                  setup_runs_s=[s["setup_s"] for s in setups],
                  setup_runs_ref_s=[s["setup_ref_s"] for s in setups])
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print("perfbench record: " + json.dumps(record))
    result = {
        "correct": work["failed"] == 0,
        "attempted": work["attempted"],
        "failed": work["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
