"""The benchmark's golden digests, replayed in process.

Each perfbench workload runs its full-scale steps once at seed 0, through
the benchmark's own `workloads.steps_for` and `worker.run_job`, and every
op's digest must equal the one in perfbench/golden.json.  A change that
would make the benchmark refuse a run for wrong outputs fails here first.
Nothing is written under perfbench/: the survey store goes to tmp_path.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import veroproj

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
sys.dont_write_bytecode, _writes_bytecode = True, sys.dont_write_bytecode  # no __pycache__ there

from worker import GOLDEN, run_job  # noqa: E402
from workloads import WORKLOADS, steps_for  # noqa: E402

sys.dont_write_bytecode = _writes_bytecode


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_its_golden_digests(tmp_path, workload):
    golden = json.loads(GOLDEN.read_text())["full"][workload]
    _, _, digests, errors = run_job(steps_for(veroproj, workload, 0, "full", tmp_path, {}))
    assert errors == []
    mismatched = sorted(key for key in set(golden) | set(digests) if digests.get(key) != golden.get(key))
    assert mismatched == []
    assert list(tmp_path.iterdir()) == []  # the survey store was removed
