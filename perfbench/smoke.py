"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the root of a girthlab checkout:

    python3 perfbench/smoke.py

For every workload it runs run.py once untraced and once traced, and
checks that the result line has the contract's keys, that the metric
names are exactly those of BENCHMARK.json, that every output check
passed, and that the traced pass's span self times add up to its wall
time, short of it by no more than the reported tracing overhead (or 10%,
since at tiny sizes the overhead estimate is mostly noise).  Last, it
checks that run.py fails, printing no result, in a directory that holds
only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = [sys.executable, "perfbench/run.py"]
MIN_SLACK = 0.10


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace), "--scale", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(w, trace)
            tag = f"{w} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if list(result["metrics"]) != names[trace]:
                problems.append(f"{tag}: metric names differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: output checks failed: {result}")
            if trace:
                record = json.loads((ROOT / ".perfbench_out" /
                                     f"{w}-seed7-trace1.json").read_text())
                overhead = result["metrics"]["trace.overhead_frac"]["value"]
                slack = max(abs(overhead), MIN_SLACK)
                for wall, self_sum in zip(record["traced_walls"], record["span_self_sums"]):
                    gap = (wall - self_sum) / wall
                    if not 0.0 <= gap <= slack:
                        problems.append(f"{tag}: span self times {self_sum:.4f}s vs "
                                        f"traced wall {wall:.4f}s (gap {gap:.1%}, "
                                        f"allowed {slack:.1%})")
            print(f"{tag}: ran, {result['attempted']} output checks", flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("certificate", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py did not fail in a directory without src/girthlab")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
