"""Smoke runs of the scripts under ``scripts/`` at small sizes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ncscatter

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(ncscatter.__file__).resolve().parents[1]


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script,args",
    [
        ("seed_sweep.py", ["--seeds", "2", "--depth", "2"]),
        ("coefficient_decay.py", ["--max-depth", "2"]),
    ],
)
def test_script_exits_zero(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_seed_sweep_prints_worst_headroom():
    proc = run_script("seed_sweep.py", ["--seeds", "2", "--depth", "2"])
    pattern = r"^worst headroom: \d+\.\d{3} decades \([a-z_]+, seed [01]\)$"
    assert re.search(pattern, proc.stdout, re.MULTILINE), proc.stdout
