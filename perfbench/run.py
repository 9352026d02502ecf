"""veroproj's fixed benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload {lift,search,grow,tables} --seed N --seconds S --trace {0,1}

Runs the workload's fixed job again and again, each time in a fresh
python process (worker.py), and starts no new repetition that would end
past --seconds; the first always runs.  Every repetition's outputs are
checked against golden digests.  With --trace 0 the end-to-end metrics
are the medians over repetitions, and set-up is also sampled by
SETUP_PROBES extra processes that stop after set-up.  wall_s and cpu_s
are the job's seconds at a reference CPU speed (worker.SpeedSampler);
the raw readings are in the second-last line.  With --trace 1
each round runs an untraced and a traced repetition, and the per-layer
metrics are medians over the traced ones.  Metric names and units come
from BENCHMARK.json.

The second-last line of output records the environment, the seed and
each repetition; the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

from workloads import SCALES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 7
HARD_LIMIT_S = 170  # the whole command must end within 180 s


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def spawn(args, trace: int, setup_only: bool, hard_end: float) -> dict:
    """One worker process; its JSON record plus setup_s from spawn to ready."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(trace), "--scale", args.scale,
    ] + (["--setup-only"] if setup_only else [])
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, hard_end - spawned),
        )
    except subprocess.TimeoutExpired:
        fail(f"worker passed the {HARD_LIMIT_S} s limit: {' '.join(cmd[1:])}")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, so the two processes' readings compare
    record["setup_s"] = record["ready"] - spawned
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="small is the reduced size the self-test runs")
    args = parser.parse_args()
    if not (ROOT / "src" / "veroproj" / "__init__.py").is_file():
        fail(f"no veroproj package under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    start = time.perf_counter()
    budget_end = start + args.seconds
    hard_end = start + HARD_LIMIT_S
    modes = (0, 1) if args.trace else (0,)
    reps: dict[int, list[dict]] = {0: [], 1: []}
    while True:
        round_start = time.perf_counter()
        for mode in modes:
            reps[mode].append(spawn(args, mode, False, hard_end))
        now = time.perf_counter()
        if now + (now - round_start) > min(budget_end, hard_end - 10):
            break
    probes = [] if args.trace else [spawn(args, 0, True, hard_end) for _ in range(SETUP_PROBES)]

    untraced, traced = reps[0], reps[1]
    every = untraced + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        values["survey.resume_s"] = statistics.median(r["marks"].get("survey.resume_s", 0.0) for r in traced)
        # raw times: traced jobs run without the speed sampler, whose bursts are taken out
        values["bench.trace_overhead_frac"] = (
            statistics.median(r["raw_wall_s"] for r in traced)
            / statistics.median(r["raw_wall_s"] - r["burst_s"] for r in untraced) - 1
        )
        values["bench.ops_failed_frac"] = failed / attempted
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced + probes),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    mismatched = sorted({k for r in every for k in r["mismatched"]})
    errors = sorted({e for r in every for e in r["errors"]})
    if mismatched or errors:
        print(f"perfbench: mismatched ops {mismatched[:5]}; errors {errors[:5]}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "untraced_wall_s": [r["wall_s"] for r in untraced],
        "untraced_raw_wall_s": [r["raw_wall_s"] for r in untraced],
        "untraced_raw_cpu_s": [r["raw_cpu_s"] for r in untraced],
        "traced_raw_wall_s": [r["raw_wall_s"] for r in traced],
        "setup_s": [r["setup_s"] for r in untraced + probes],
        "missing_spans": traced[0]["missing"] if traced else [],
        "mismatched": mismatched,
        "errors": errors,
    }
    print(json.dumps({"perfbench": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
