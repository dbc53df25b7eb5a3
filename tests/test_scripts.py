"""Smoke runs of the scripts under ``scripts/`` at small sizes."""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import SWEEP_SHAPES
from test_verify import load_bench

import ncscatter

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(ncscatter.__file__).resolve().parents[1]


def load_script(name, monkeypatch):
    """A script under ``scripts/``, loaded from its file with its directory on
    the path, as running it puts it there (``seed_sweep`` imports its pin from
    ``compare_checks``)."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


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


def test_seed_sweep_prints_the_rank_band_distance():
    proc = run_script("seed_sweep.py", ["--seeds", "2", "--depth", "2"])
    pattern = (
        r"^closest defect eigenvalue to the rank band \(1e-10, 1e-08\]: "
        r"\d+\.\d{3} decades \(I - [CE]\* [CE], seed [01]\)$"
    )
    assert re.search(pattern, proc.stdout, re.MULTILINE), proc.stdout


@pytest.mark.parametrize("a_scale", ["0.9", "1"])
def test_seed_sweep_prints_the_star_cut_distance(a_scale):
    # at a_scale 0.9 every eigenvalue of I - A A* is at least 1 - 0.81, over
    # 9 decades above the cut; at 1 one is rounding noise of size ~1e-16
    proc = run_script("seed_sweep.py", ["--seeds", "2", "--depth", "2", "--a-scale", a_scale])
    pattern = (
        r"^closest star defect eigenvalue to the rank cut 1e-10: "
        r"(\d+\.\d{3}) decades \(seed [01]\)$"
    )
    found = re.search(pattern, proc.stdout, re.MULTILINE)
    assert found, proc.stdout
    gap = float(found.group(1))
    assert gap > 9.2 if a_scale == "0.9" else 4 < gap < 7.5, proc.stdout


def test_seed_sweep_band_distance_reads_the_gate_spectra(monkeypatch):
    # the distance of an eigenvalue below the band is counted to TOL_RANK,
    # one above it to TOL_EQ; the nearest wins
    script = load_script("seed_sweep", monkeypatch)

    class Defect:
        def __init__(self, *spectrum):
            self.spectrum = script.np.array(spectrum)

    class Tuple:
        def __init__(self, *spectrum):
            self.defect = Defect(*spectrum)

    class Inst:
        c = Tuple(-1e-3, 1e-14, 1.0)
        e = Tuple(0.0, 1e-6, 1.0)

    gap, name = script.band_distance(Inst)
    assert name == "I - E* E" and abs(gap - 2.0) < 1e-12
    Inst.e = Tuple(-1e-15, 0.0)
    Inst.c = Tuple(-1e-15)
    assert script.band_distance(Inst) is None


def test_seed_sweep_keeps_the_worst_row(monkeypatch, capsys):
    # a failing row outranks a passing one, a larger violation a smaller
    # one of the same verdict; an error (violation inf) keeps its text
    script = load_script("seed_sweep", monkeypatch)
    row, error = script.CheckResult.measure, script.CheckResult.failure
    by_seed = [
        [error("crash", 0.5, "exploded at seed 0"), row("shrinking", 2.0, 0.5),
         row("passing", 0.1, 0.5), row("late", 0.1, 0.5)],
        [row("crash", 1.0, 0.5), row("shrinking", 1.0, 0.5),
         row("passing", 0.3, 0.5), row("late", 0.7, 0.5)],
        [row("crash", 0.1, 0.5), row("shrinking", 0.1, 0.5),
         row("passing", 0.2, 0.5), row("late", 0.4, 0.5)],
    ]  # fmt: skip
    monkeypatch.setattr(script, "generate", lambda *args, **kwargs: None)
    monkeypatch.setattr(script, "band_distance", lambda inst: None)
    monkeypatch.setattr(script, "star_cut_distance", lambda inst: None)
    monkeypatch.setattr(script, "run_all_checks", lambda inst, depth, seed: by_seed[seed])
    monkeypatch.setattr(sys, "argv", ["seed_sweep.py", "--seeds", "3"])
    assert script.main() == 1
    want = [by_seed[0][0], by_seed[0][1], by_seed[1][2], by_seed[1][3]]
    assert capsys.readouterr().out.splitlines()[:4] == [r.line() for r in want]


def test_compare_checks_same_tree():
    proc = run_script(
        "compare_checks.py", ["--base", str(SRC), "--change", str(SRC), "--grid", "smoke"]
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "39 rows: same verdicts, errors, names and thresholds"
    assert any(line.startswith("intertwining: 2 rows, 0 verdict changes; ") for line in lines)


def test_compare_checks_prints_peak_rss():
    proc = run_script(
        "compare_checks.py", ["--base", str(SRC), "--change", str(SRC), "--grid", "smoke"]
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    pattern = r"peak RSS of the grid process: base \d+\.\d MB, change \d+\.\d MB"
    assert re.fullmatch(pattern, proc.stdout.splitlines()[0]), proc.stdout


def test_compare_checks_prints_wall_time():
    proc = run_script(
        "compare_checks.py", ["--base", str(SRC), "--change", str(SRC), "--grid", "smoke"]
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    pattern = (
        r"wall time of the grid process, one unpaired run each: "
        r"base \d+\.\d s, change \d+\.\d s"
    )
    assert re.fullmatch(pattern, proc.stdout.splitlines()[1]), proc.stdout


def test_compare_checks_prints_blas_threads():
    proc = run_script(
        "compare_checks.py", ["--base", str(SRC), "--change", str(SRC), "--grid", "smoke"]
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[2] == (
        "BLAS threads of the grid process: 2 (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, "
        "MKL_NUM_THREADS)"
    )


def test_blas_thread_count_keeps_every_verdict():
    # the gate scripts pin 2 threads; a run at 1 thread moves values by
    # rounding only (at most 1.8e-15 seen), never a verdict
    runs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "compare_checks.py"), "--rows", "smoke"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout)["rows"])
    one, two = runs
    assert len(one) == len(two) == 39
    for a, b in zip(one, two):
        assert (a["instance"], a["check"], a["passed"], a["error"]) == (
            b["instance"], b["check"], b["passed"], b["error"]
        )
        assert a["value"] == b["value"] or abs(a["value"] - b["value"]) <= 1e-14, (a, b)


def test_compare_checks_deep_grid(monkeypatch):
    script = load_script("compare_checks", monkeypatch)
    assert [(shape, list(seeds), depth, a) for shape, seeds, depth, a in script.GRIDS["deep"]] == [
        ((2, 2, 2), [1, 2, 3], 9, 0.9)
    ]


def test_compare_checks_edge_grid():
    proc = run_script(
        "compare_checks.py", ["--base", str(SRC), "--change", str(SRC), "--grid", "edge"]
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # 8 shapes x 2 a_scale values x 3 seeds, 19 rows each, and the norm-one
    # row of the 6 (2,2,0) instances; (1,2,0) has no base defect
    assert lines[-1] == "918 rows: same verdicts, errors, names and thresholds"
    assert any(line.startswith("intertwining: 48 rows, 0 verdict changes; ") for line in lines)


def test_compare_checks_flags_a_changed_threshold(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "ncscatter", changed / "ncscatter")
    verify = changed / "ncscatter" / "verify.py"
    text = verify.read_text()
    row = '("intertwining", 1e-10,'
    assert text.count(row) == 1
    verify.write_text(text.replace(row, '("intertwining", 1e-9,'))
    proc = run_script(
        "compare_checks.py", ["--base", str(SRC), "--change", str(changed), "--grid", "smoke"]
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "  threshold at (2, 2, 1) seed 0 depth 1: 1e-10 -> 1e-09" in proc.stdout.splitlines()
    assert proc.stdout.splitlines()[-1] == "39 rows: DIFFERENT"


def test_compare_checks_fails_a_larger_worst_value(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "ncscatter", changed / "ncscatter")
    verify = changed / "ncscatter" / "verify.py"
    text = verify.read_text()
    row = "lambda i, n, s, c: colligation_violation(c)),"
    assert text.count(row) == 1
    # every value up by 1e-13, far under the threshold: no verdict moves
    verify.write_text(text.replace(row, "lambda i, n, s, c: colligation_violation(c) + 1e-13),"))
    proc = run_script(
        "compare_checks.py", ["--base", str(SRC), "--change", str(changed), "--grid", "smoke"]
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    grown = [line for line in lines if line.endswith(" LARGER")]
    assert len(grown) == 1 and grown[0].startswith("colligation_structure: 2 rows, 0 verdict ")
    assert lines[-1] == "39 rows: same verdicts, errors, names and thresholds"


def test_compare_exports_same_tree():
    proc = run_script(
        "compare_checks.py",
        ["--base", str(SRC), "--change", str(SRC), "--grid", "smoke", "--exports"],
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # the header of the rows mode: peak RSS, wall time and BLAS threads
    header = [
        r"peak RSS of the grid process: base \d+\.\d MB, change \d+\.\d MB",
        r"wall time of the grid process, one unpaired run each: base \d+\.\d s, change \d+\.\d s",
        r"BLAS threads of the grid process: 2 \(OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, "
        r"MKL_NUM_THREADS\)",
    ]
    assert all(re.fullmatch(p, line) for p, line in zip(header, lines[:3])), proc.stdout
    assert lines[3:] == [
        "8 files: same bytes",
        "8 near-miss runs: same exit codes and text",
        "8 inside-band runs: same exit codes and text",
        "8 inside-band-down runs: same exit codes and text",
    ]


def test_compare_exports_flags_one_changed_byte(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "ncscatter", changed / "ncscatter")
    serialize = changed / "ncscatter" / "serialize.py"
    text = serialize.read_text()
    assert text.count("'\"word\": '") == 1
    serialize.write_text(text.replace("'\"word\": '", "'\"wore\": '"))
    proc = run_script(
        "compare_checks.py",
        ["--base", str(SRC), "--change", str(changed), "--grid", "smoke", "--exports"],
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # the instance file holds no series; every export does
    assert "differs: (2, 2, 1) seed 0 depth 1 transfer" in lines
    assert not any(line.endswith(" generate") for line in lines)
    assert lines[9] == "8 files: DIFFERENT"
    # a refused export writes no series, so the refusals stay the same
    assert lines[10] == "8 near-miss runs: same exit codes and text"
    # an accepted copy prints its series, whose bytes changed alike, and
    # the first line that differs is the first word key, shown per side
    run = lines.index("differs: (2, 2, 1) seed 0 depth 1 inside-band transfer (exit 0 -> 0)")
    assert lines[run + 1 : run + 3] == ['  base:         "word": []', '  change:       "wore": []']
    assert not any(line.endswith(" inside-band verify (exit 1 -> 1)") for line in lines)
    assert lines[29] == "8 inside-band runs: DIFFERENT"
    # the copy scaled by 1 - 2e-9 is refused (its defect ranks are
    # decided in the band), so it writes no series either
    assert lines[-1] == "8 inside-band-down runs: same exit codes and text"
    assert len(lines) == 31


def test_compare_exports_flags_an_accepted_near_miss(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "ncscatter", changed / "ncscatter")
    cli = changed / "ncscatter" / "cli.py"
    text = cli.read_text()
    strict = "inst = _load_instance(args, strict=True)\n    series = transfer_series("
    assert text.count(strict) == 1
    # transfer loads like verify, so it exports the near-miss instance and
    # the one whose defect ranks are decided in the band
    cli.write_text(text.replace(strict, strict.replace("True", "False")))
    proc = run_script(
        "compare_checks.py",
        ["--base", str(SRC), "--change", str(changed), "--grid", "smoke", "--exports"],
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    # each refusal's one error line against the first line of the series
    near = "  base:   error: sum C_j C_j* - I has norm 2.000e-06"
    band = (
        "  base:   error: I - C* C has eigenvalue 4.000e-09 in the rank band "
        "(1e-10, 1e-08], so its defect rank is not decided"
    )
    assert proc.stdout.splitlines()[3:] == [
        "8 files: same bytes",
        "differs: (2, 2, 0) seed 1 depth 2 near-miss transfer (exit 2 -> 0)",
        near,
        "  change: {",
        "differs: (2, 2, 1) seed 0 depth 1 near-miss transfer (exit 2 -> 0)",
        near,
        "  change: {",
        "8 near-miss runs: DIFFERENT",
        "8 inside-band runs: same exit codes and text",
        "differs: (2, 2, 0) seed 1 depth 2 inside-band-down transfer (exit 2 -> 0)",
        band,
        "  change: {",
        "differs: (2, 2, 1) seed 0 depth 1 inside-band-down transfer (exit 2 -> 0)",
        band,
        "  change: {",
        "8 inside-band-down runs: DIFFERENT",
    ]


def test_tooling_constants_have_one_value(monkeypatch):
    # the sweep shapes and the BLAS thread pin are copied into ncbench/,
    # which the scripts and tests do not import from; the copies must agree
    compare_checks = load_script("compare_checks", monkeypatch)
    seed_sweep = load_script("seed_sweep", monkeypatch)
    run, workloads = load_bench("run"), load_bench("workloads")
    assert SWEEP_SHAPES == compare_checks.SWEEP_SHAPES == workloads.SWEEP_SHAPES
    assert seed_sweep.BLAS_THREADS == compare_checks.BLAS_THREADS == run.BLAS_THREADS
    assert seed_sweep.THREAD_VARS == compare_checks.THREAD_VARS
    assert set(compare_checks.THREAD_VARS) <= set(run.THREAD_VARS)


def test_compare_exports_names_both_exit_codes(monkeypatch):
    script = load_script("compare_checks", monkeypatch)
    empty = {copy: {} for copy in script.COPIES}
    base = {"rows": {"f": "a"}, **empty, "near-miss": {"r": [2, "x"], "gone": [1, "y"]}}
    change = {"rows": {"f": "b"}, **empty, "near-miss": {"r": [0, "z"]}}
    lines, differs = script.compare_exports(base, change)
    assert differs
    assert lines[:7] == [
        "differs: f",
        "1 files: DIFFERENT",
        "differs: gone (exit 1 -> missing)",
        "differs: r (exit 2 -> 0)",
        "  base:   x",
        "  change: z",
        "2 near-miss runs: DIFFERENT",
    ]


def test_compare_exports_first_differing_line(monkeypatch):
    # a run whose text only grows names the line the other side lacks;
    # one whose exit code alone moved prints no text lines
    script = load_script("compare_checks", monkeypatch)
    assert script._first_difference("a\nb\n", "a\nb\nc\n") == [
        "  base:   (no more lines)",
        "  change: c",
    ]
    assert script._first_difference("a\nb\n", "a\nB\n") == ["  base:   b", "  change: B"]
    assert script._first_difference("same\n", "same\n") == []


def test_compare_exports_shows_an_edited_threshold(tmp_path):
    # verify prints its report on every scaled copy, so a changed
    # threshold shows as the first report line that carries it
    changed = tmp_path / "src"
    shutil.copytree(SRC / "ncscatter", changed / "ncscatter")
    verify = changed / "ncscatter" / "verify.py"
    text = verify.read_text()
    row = '("intertwining", 1e-10,'
    assert text.count(row) == 1
    verify.write_text(text.replace(row, '("intertwining", 1e-9,'))
    proc = run_script(
        "compare_checks.py",
        ["--base", str(SRC), "--change", str(changed), "--grid", "smoke", "--exports"],
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    run = lines.index("differs: (2, 2, 1) seed 0 depth 1 near-miss verify (exit 1 -> 1)")
    base, change = lines[run + 1 : run + 3]
    assert base.startswith("  base:   ") and change.startswith("  change: ")
    # the same verdict, row and value, under the two thresholds
    assert base.split()[1:-1] == change.split()[1:-1]
    assert base.split()[2] == "intertwining"
    assert (base.split()[-1], change.split()[-1]) == ("1.0e-10", "1.0e-09")
    # only verify reads the thresholds: the files and every export run agree
    assert lines[3] == "8 files: same bytes"
    differing = [line for line in lines if line.startswith("differs: ")]
    assert len(differing) == 6 and all(line.endswith(" verify (exit 1 -> 1)") for line in differing)
