"""The benchmark's traced run ends with a well-formed result line on every workload.

A run that exits 0 but whose last line is not a strict-JSON result, or whose
metrics hold a null where a number belongs (a per-layer derivation that
failed), cannot be compared with another run.  Each workload is run for one
second with tracing on, as ``perfbench/run.py`` documents it.
"""
from __future__ import annotations

import json
import numbers
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sparse_ensemble", "sweep")


def _refuse_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_ends_with_a_strict_json_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True
    bad = {
        name: metric
        for name, metric in result["metrics"].items()
        if "absent" in metric
        or not isinstance(metric.get("value"), numbers.Real)
        or isinstance(metric["value"], bool)
    }
    assert not bad
