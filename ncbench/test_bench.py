"""Smoke tests of the benchmark itself.

Run from the root of the checkout with ``python3 -m pytest ncbench``.
Each workload runs once untraced and once traced, with one op at a
shallow depth; the tests check the output contract against
BENCHMARK.json and the tracing self-checks.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.cache
def smoke(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    lines, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines)


def test_traced_verify_op_builds_the_intertwiner_eight_times():
    metrics = smoke("verify-deep", 1)[1]["metrics"]
    assert metrics["intertwiner.intertwiner_matrix.calls"]["value"] == 8
    checks = sum(v["value"] for k, v in metrics.items() if k.startswith("verify.check."))
    total = metrics["verify.run_all_checks.s"]["value"]
    assert 0.9 * total <= checks <= total


def test_runs_fail_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "ncbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "ncbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
