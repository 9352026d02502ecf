"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at scale "small" once untraced and once traced, and
checks that the result line has exactly the contract's keys, that every
metric BENCHMARK.json names is emitted with its unit, that no op failed,
and that `tables` makes no Buchberger call.  Then checks that the
benchmark refuses to run, printing no result, in a directory holding only
BENCHMARK.json and perfbench/.  Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "0", "--seconds", "1", "--scale", "small"]


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest: FAILED: {what}")


def result(cwd: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = result(ROOT, workload, trace)
            what = f"{workload} trace {trace}"
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {sorted(res)}")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{what}: {res}")
            units = {m["name"]: m["unit"] for m in declared}
            emitted = {name: m["unit"] for name, m in res["metrics"].items()}
            check(emitted == units, f"{what}: emitted {emitted}, declared {units}")
            check(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()), what)
            if trace:
                check(res["metrics"]["bench.ops_failed_frac"]["value"] == 0, f"{what}: ops failed")
            else:
                check(all(m["value"] > 0 for m in res["metrics"].values()), f"{what}: a zero metric")
            if trace and workload == "tables":
                check(res["metrics"]["groebner.buchberger.calls"]["value"] == 0, "tables ran buchberger")
        print(f"selftest: {workload} ok")

    with tempfile.TemporaryDirectory(prefix=".perfbench-store-selftest-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *RUN, "--workload", "lift", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without the program")
    print("selftest: refuses to run without src/ ok")


if __name__ == "__main__":
    main()
