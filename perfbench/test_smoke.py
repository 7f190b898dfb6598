"""Self-test of the benchmark at smoke size, so the harness cannot rot.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
Each workload runs at a tiny size, untraced and traced; every metric named in
BENCHMARK.json must be printed with its unit, and every correctness check
must run.  Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        ok_frac = result["metrics"]["ok_frac"]["value"]
        assert ok_frac == (result["attempted"] - result["failed"]) / result["attempted"]


def test_smoke_exercises_known_limit_and_counters():
    # the smoke probe sweep includes a point above the n_max clamp: it must be
    # counted as failed without making the run incorrect
    proc = _run(ROOT, "probe_sweep", 1)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] >= 1
    metrics = result["metrics"]
    assert metrics["fockspace.truncation_warnings"]["value"] > 0
    assert abs(metrics["bench.self_time_residual_s"]["value"]) < 1e-3

    proc = _run(ROOT, "headline_ramp", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    rhs = metrics["dynamics.rhs_evals"]["value"]
    assert rhs > 0 and metrics["dynamics.matvecs_computed"]["value"] == 2 * rhs
    assert metrics["ramp.eta_at_calls"]["value"] == rhs + 201  # one per record too
    assert metrics["dynamics.fidelity_calls"]["value"] == 201


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0, smoke=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
