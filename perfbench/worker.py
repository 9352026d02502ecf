"""Run one benchmark workload once in this process and print one JSON line.

    python3 perfbench/worker.py --workload lift --seed 0 --trace 0 [--scale small] [--setup-only]
    python3 perfbench/worker.py --record

run.py starts this once per repetition, each time in a fresh process.
The line holds `ready`, the monotonic clock reading at the end of set-up
(``import veroproj`` and spec parsing), the job's wall and CPU seconds,
the process's peak resident memory, the ops attempted and failed, and
with --trace 1 the per-layer metrics.  --setup-only stops after `ready`.

An untraced job runs under a SpeedSampler, and its wall and CPU seconds
are reported at the reference speed: see SpeedSampler for why and how.
The raw readings are in `raw_wall_s` and `raw_cpu_s`.

An op fails when its output digest differs from the golden one recorded
in golden.json, or when its step raised.  --record rewrites golden.json
from the code as it stands at seed 0; run it only at a commit whose
outputs are known to be right.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from workloads import SCALES, WORKLOADS, steps_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"


def import_veroproj():
    """Import the checkout's own veroproj from src/, never an installed one."""
    package = ROOT / "src" / "veroproj"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no veroproj package at {package}")
    sys.path.insert(0, str(package.parent))
    import veroproj

    if Path(veroproj.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported veroproj from {veroproj.__file__}, not {package}")
    return veroproj


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _burst() -> int:
    """A fixed slice of pure-Python work, independent of veroproj, shaped
    like its inner loops: small int tuples, dict lookups, a sort."""
    table: dict = {}
    keys = []
    acc = 0
    for i in range(1000):
        t = (i, i * 7 % 13, i ^ 5)
        u = tuple(a - b for a, b in zip(t, (1, 2, 3)))
        table[t] = table.get(u, 0) + t[0]
        if i % 8 == 0:
            keys.append(u)
        acc += max(t) & 255
    keys.sort()
    return acc + len(table) + len(keys)


def pin_to_one_cpu() -> None:
    """Keep this process and every thread it starts on one CPU.

    The survey builds its rows in a pool thread while the main thread,
    which runs the SpeedSampler's bursts, waits; on one CPU both see the
    same speed.  Threads started later inherit the mask.  A forked child,
    such as a process pool's worker, gets every CPU back, so work spread
    over processes still runs in parallel."""
    if not hasattr(os, "sched_setaffinity"):
        return
    every = os.sched_getaffinity(0)
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, every))
    os.sched_setaffinity(0, {min(every)})


class SpeedSampler:
    """Samples the speed of the CPU the job runs on, while it runs.

    The hosts this benchmark runs on share their cores: the speed of a
    fixed pure-Python loop swings by a factor of up to two, for periods of
    seconds, and both wall and CPU time of a job swing with it.  So every
    SAMPLE_PERIOD_S of wall time a timer signal runs `_burst` in the main
    thread, between the job's own bytecodes, and times it by the thread's
    CPU clock, which leaves out any wait for the GIL.  Sampling is uniform
    in wall time, so the mean of REF_BURST_S / burst time is the job's
    mean speed relative to a machine on which a burst takes REF_BURST_S;
    `scaled` turns the job's seconds, less those spent in bursts, into
    seconds at that reference speed.  The burst is the same at every
    commit, so a change to veroproj moves the scaled time as much as the
    raw time.
    """

    SAMPLE_PERIOD_S = 0.05
    # a burst's time between the job's bytecodes on a 2-vCPU x86-64 virtual
    # machine with Python 3.11 in a quiet period; it only sets the unit of
    # the scaled seconds, which then read close to that machine's wall time
    REF_BURST_S = 2.0e-3

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.thread_time()
        _burst()
        self.samples.append(time.thread_time() - t0)

    def __enter__(self) -> SpeedSampler:
        for _ in range(20):  # warm the burst's code and objects
            _burst()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_PERIOD_S, self.SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    @property
    def burst_s(self) -> float:
        """CPU seconds the bursts took, which the job's wall and CPU time include."""
        return sum(self.samples)

    def scaled(self, wall: float, cpu: float) -> tuple[float, float]:
        """The job's wall and CPU seconds, less the bursts, at the reference speed."""
        if not self.samples:  # a job shorter than one period
            return wall, cpu
        scale = statistics.fmean(self.REF_BURST_S / b for b in self.samples)
        return (wall - self.burst_s) * scale, (cpu - self.burst_s) * scale


def run_job(steps) -> tuple[float, float, dict[str, str], list[str]]:
    """Run the steps; wall and CPU seconds, {op_key: digest}, step errors."""
    results = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for step in steps:
        try:
            results.append((step, step.run(), None))
        except Exception as exc:  # a raising step fails its ops; the job goes on
            results.append((step, None, exc))
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    digests: dict[str, str] = {}
    errors: list[str] = []
    for step, raw, exc in results:
        if exc is None:
            try:
                digests.update({key: digest(out) for key, out in step.canon(raw).items()})
                continue
            except Exception as canon_exc:
                exc = canon_exc
        errors.append(f"{type(exc).__name__}: {exc}")
    return wall, cpu, digests, errors


def record() -> None:
    vp = import_veroproj()
    golden: dict = {}
    for scale in SCALES:
        for workload in WORKLOADS:
            _, _, digests, errors = run_job(steps_for(vp, workload, 0, scale, ROOT, {}))
            if errors:
                raise SystemExit(f"perfbench: {scale} {workload} raised: {errors}")
            golden.setdefault(scale, {})[workload] = digests
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.record:
        record()
        return
    if args.workload is None:
        parser.error("--workload is required")

    pin_to_one_cpu()
    vp = import_veroproj()
    marks: dict[str, float] = {}
    steps = steps_for(vp, args.workload, args.seed, args.scale, ROOT, marks)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(vp)
        raw_wall, raw_cpu, digests, errors = run_job(steps)
        wall, cpu, burst = raw_wall, raw_cpu, 0.0
    else:
        with SpeedSampler() as sampler:
            raw_wall, raw_cpu, digests, errors = run_job(steps)
        wall, cpu = sampler.scaled(raw_wall, raw_cpu)
        burst = sampler.burst_s
    golden = json.loads(GOLDEN.read_text())[args.scale][args.workload]
    keys = set(golden) | set(digests)
    mismatched = sorted(k for k in keys if digests.get(k) != golden.get(k))
    peak_kb = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "burst_s": burst,
        "peak_rss_mb": peak_kb / 1024,
        "attempted": len(keys),
        "failed": len(mismatched),
        "mismatched": mismatched[:5],
        "errors": errors[:5],
        "marks": marks,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(raw_wall)
        out["missing"] = tracer.missing
    print(json.dumps(out))


if __name__ == "__main__":
    main()
