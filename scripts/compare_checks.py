#!/usr/bin/env python3
"""Compare the verify rows of two source trees over a fixed instance grid.

Each tree runs the whole grid in its own subprocess, importing
``ncscatter`` from the ``src`` directory given for it:

    python3 scripts/compare_checks.py --base ../parent/src --change src

The full grid has 1416 rows: d = 2 dims (2,2) seeds 1-3 at depth 7, the
seven sweep shapes x seeds 0-9 at depth 3, and (3,2,2) seed 1 at depth
4.  ``--grid deep`` runs d = 2 dims (2,2) seeds 1-3 at depth 9 (about
355 MB of peak RSS and 40 s per tree on 2 cores).  ``--grid edge`` runs
the seven sweep shapes and (2,1,1) x seeds 0-2 at depth 3 with
``a_scale`` 0 (``A = 0``) and 1 (an isometric corner), 918 rows.  At
``a_scale`` 0 the lifted dilation's ``dimA`` base columns are exact unit
columns, and the base letters of (2,1,1) have one column, whose products
numpy computes in gemv instead of gemm, so this is the grid where rows
may move by rounding when a change alters the shape of a product.
Every other grid draws its instances at
``generate``'s default ``a_scale`` of 0.9, and only a row drawn at
another value names it.  For each check the script
prints the rows whose verdict changed, the largest upward and downward
move of the violation, and the worst value on each side.  Before that,
with or without ``--exports`` (below), it prints each tree's peak RSS,
the ``ru_maxrss`` of its grid subprocess, that subprocess's wall time
and the BLAS thread count it ran at.  The two grids run once each, base first and then change, so
each wall time is one unpaired sample: load from any other process
lands on one side only (under such load two identical trees read
44.7 and 257.8 s on the deep grid), and the line says so.  The peak
RSS is the high-water mark of the whole grid process, so it reads the
largest run of the grid on top of what the heap kept from the runs
before it, and it moves with the order in which the runs allocate.  On
the exports grids the largest runs are ``verify`` on the near-miss
copies, whose ~2e-6 defect eigenvalues survive the rank cut: at d = 2
dims (2,2) ``rank_c`` goes from 2 to 4 and ``rank_e`` from 4 to 6.  In
one process at depth 8, ``verify`` on ``generate(2, 2, 2, seed=1)`` and
then on its near-miss copy read 117.4 and then 302.4 MB; in the other
order both read 294.5 MB.  It exits 1
on any change of verdict, error, check name or threshold, and when the
worst value of a check grows (its line then ends in ``LARGER``), and 0
otherwise.

Each grid subprocess runs with ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 2, as the
benchmark sets them: some rows move by rounding with the thread count,
so both trees must run at the same one.

With ``--exports`` it compares bytes instead: for each instance of the
grid, each tree writes the ``generate``, ``transfer``, ``charfn`` and
``simulate`` files through ``cli.main`` (simulate seeded with the
instance seed), and the script prints every file whose sha256 differs.
Each tree also runs ``transfer``, ``charfn``, ``simulate`` and
``verify`` on three scaled copies of every instance.  The near-miss copy
has its ``C`` entries scaled by 1 - 1e-6, so that ``sum C_j C_j* - I``
has norm about 2e-6, outside the acceptance band ``TOL_EQ`` = 1e-8:
the exports refuse it (exit 2) and ``verify`` fails it (exit 1).  The
inside-band copy has them scaled by 1 + 2e-9, a norm of about 4e-9,
which ``lifting_identities`` passes and so the exports accept.  The
downward inside-band copy scales them by 1 - 2e-9, the same norm of
the other sign: the zero eigenvalues of the defects move up past
``TOL_RANK`` instead of below zero, into the band ``(TOL_RANK,
TOL_EQ]`` where a defect rank would change, so the exports refuse it
(exit 2) and ``verify`` fails it (exit 1).  The
exit code and the stdout and stderr text of each such run are compared,
and every run that differs is printed, with its exit code on each side
(``exit 2 -> 0``) and, where the texts differ, their first differing
line, one line per side; then a count for each copy.  It exits 1 on
any difference, and 0 otherwise.  On 2 cores one tree took about 18 s
and 120 MB of peak RSS on the full grid, 4 s and 48 MB on the edge
grid, and 600-650 s and 1.1 GB on the deep grid, so ``--grid deep
--exports`` takes about 21 minutes for the pair.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the benchmark's pin (ncbench/run.py), set in each grid subprocess before numpy
# loads; seed_sweep.py imports it from here, so this top level loads only the
# standard library
BLAS_THREADS = "2"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SWEEP_SHAPES = ((2, 2, 1), (2, 2, 2), (2, 3, 2), (2, 4, 4), (2, 2, 0), (3, 2, 1), (1, 2, 0))
A_SCALE = 0.9  # generate's default
# (shape (d, dimC, dimA), seeds, depth, a_scale)
GRIDS = {
    "full": [
        ((2, 2, 2), range(1, 4), 7, A_SCALE),
        *((shape, range(10), 3, A_SCALE) for shape in SWEEP_SHAPES),
        ((3, 2, 2), [1], 4, A_SCALE),
    ],
    "deep": [((2, 2, 2), range(1, 4), 9, A_SCALE)],
    "edge": [(shape, range(3), 3, a) for shape in SWEEP_SHAPES + ((2, 1, 1),) for a in (0.0, 1.0)],
    "smoke": [((2, 2, 1), [0], 1, A_SCALE), ((2, 2, 0), [1], 2, A_SCALE)],
}


def label(shape, seed: int, depth: int, a_scale: float) -> str:
    """How the rows and files of one grid instance are named."""
    scale = "" if a_scale == A_SCALE else f" a_scale {a_scale}"
    return f"{shape} seed {seed} depth {depth}{scale}"


def emit_rows(grid: str) -> None:
    """Print the imported tree's location and one JSON row per verify row of the grid."""
    import ncscatter
    from ncscatter.lifting import generate
    from ncscatter.verify import run_all_checks

    rows = []
    for shape, seeds, depth, a_scale in GRIDS[grid]:
        for seed in seeds:
            inst = generate(*shape, seed=seed, a_scale=a_scale)
            for res in run_all_checks(inst, depth):
                rows.append({
                    "instance": label(shape, seed, depth, a_scale),
                    "check": res.name,
                    "value": res.max_violation,
                    "threshold": res.threshold,
                    "passed": res.passed,
                    "error": res.error,
                })  # fmt: skip
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump({"source": ncscatter.__file__, "rows": rows, "peak_mb": peak_mb}, sys.stdout)


EXPORTS = ("transfer", "charfn", "simulate")
# scale of the C entries of each copy every command is run on, by copy name
COPIES = {"near-miss": 1 - 1e-6, "inside-band": 1 + 2e-9, "inside-band-down": 1 - 2e-9}


def scaled_copy(inst: Path, path: Path, factor: float) -> None:
    """Write the instance file ``inst`` to ``path`` with every C entry scaled by ``factor``."""
    obj = json.loads(inst.read_text())
    for m in obj["C"]:
        m["data"] = [[re * factor, im * factor] for re, im in m["data"]]
    path.write_text(json.dumps(obj))


def emit_hashes(grid: str) -> None:
    """Print the imported tree's location, the sha256 of every file the
    command line writes for the grid, by file label, by copy name the
    exit code and the stdout and stderr text of every command run on
    each scaled copy, and the process's peak RSS."""
    import ncscatter
    from ncscatter.cli import main

    hashes, runs = {}, {copy: {} for copy in COPIES}
    with tempfile.TemporaryDirectory() as tmp:
        inst, out, copy_path = (Path(tmp) / f for f in ("inst.json", "out.json", "copy.json"))

        def write(name: str, path: Path, argv: list[str]) -> None:
            if main([*argv, "-o", str(path)]) != 0:
                raise SystemExit(f"{name}: {argv[0]} failed")
            hashes[f"{name} {argv[0]}"] = hashlib.sha256(path.read_bytes()).hexdigest()

        def run(name: str, copy: str, argv: list[str]) -> None:
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                code = main(argv)
            runs[copy][f"{name} {copy} {argv[0]}"] = [code, text.getvalue()]

        for (d, dim_c, dim_a), seeds, depth, a_scale in GRIDS[grid]:
            shape = ["--d", str(d), "--dim-c", str(dim_c), "--dim-a", str(dim_a)]
            shape += ["--a-scale", repr(a_scale)]
            for seed in seeds:
                name = label((d, dim_c, dim_a), seed, depth, a_scale)
                write(name, inst, ["generate", *shape, "--seed", str(seed)])
                seeded = {"simulate": ["--seed", str(seed)]}  # simulate's signal seed
                exports = [[cmd, "--depth", str(depth), *seeded.get(cmd, [])] for cmd in EXPORTS]
                for argv in exports:
                    write(name, out, [*argv, "--input", str(inst)])
                for copy, factor in COPIES.items():
                    scaled_copy(inst, copy_path, factor)
                    for argv in [*exports, ["verify", "--depth", str(depth)]]:
                        run(name, copy, [*argv, "--input", str(copy_path)])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"source": ncscatter.__file__, "rows": hashes, **runs, "peak_mb": peak_mb}
    json.dump(out, sys.stdout)


def run_tree(src: str, mode: str, grid: str) -> dict:
    """What ``--<mode> <grid>`` prints for the tree under ``src``, from a fresh
    process, with the process's wall time in seconds under ``wall_s``."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    env.update(dict.fromkeys(THREAD_VARS, BLAS_THREADS))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), f"--{mode}", grid],
        env=env,
        capture_output=True,
        text=True,
    )
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{src}: grid run failed\n{proc.stderr}")
    out = json.loads(proc.stdout)
    if Path(src).resolve() not in Path(out["source"]).resolve().parents:
        raise SystemExit(f"{src}: ncscatter was imported from {out['source']}")
    return {**out, "wall_s": wall_s}


def _exit_code(run) -> str:
    return "missing" if run is None else str(run[0])


def _first_difference(old: str, new: str) -> list[str]:
    """The first line at which two run texts differ, one report line per
    side, or no lines when the texts are the same."""
    if old == new:
        return []
    a, b = old.splitlines(), new.splitlines()
    k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [
        f"  {side} {lines[k] if k < len(lines) else '(no more lines)'}"
        for side, lines in (("base:  ", a), ("change:", b))
    ]


def compare_exports(base: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines and whether any file or run on a scaled copy is missing
    on one side or differs; a differing run names its two exit codes and
    the first line at which its texts differ."""
    lines, differs = [], False
    runs = [(copy, f"{copy} runs", "same exit codes and text") for copy in COPIES]
    for key, what, same in [("rows", "files", "same bytes"), *runs]:
        old, new = base[key], change[key]
        changed = []
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) != new.get(name):
                codes = "" if key == "rows" else (
                    f" (exit {_exit_code(old.get(name))} -> {_exit_code(new.get(name))})"
                )
                changed.append(f"differs: {name}{codes}")
                if key != "rows" and name in old and name in new:
                    changed += _first_difference(old[name][1], new[name][1])
        lines += changed + [f"{len(old)} {what}: {'DIFFERENT' if changed else same}"]
        differs = differs or bool(changed)
    return lines, differs


def _rank(value: float) -> float:
    """A violation's place in the order of sizes: NaN ranks with inf."""
    return math.inf if math.isnan(value) else value


def compare(base: list[dict], change: list[dict]) -> tuple[list[str], bool]:
    """Report lines and whether the two row lists differ in anything but
    values, or some check's worst value grew."""
    def keys(rows):
        return [(r["instance"], r["check"]) for r in rows]

    if keys(base) != keys(change):
        names = sorted({r["check"] for r in base} ^ {r["check"] for r in change})
        return [f"check rows differ: {len(base)} vs {len(change)} rows, names {names}"], True
    checks: dict[str, dict] = {}
    for b, c in zip(base, change):
        row = checks.setdefault(b["check"], {"rows": 0, "verdicts": [], "other": [], "up": None,
                                             "down": None, "base": [], "change": []})  # fmt: skip
        row["rows"] += 1
        row["base"].append(b["value"])
        row["change"].append(c["value"])
        if b["passed"] != c["passed"]:
            row["verdicts"].append(b["instance"])
        for key in ("error", "threshold"):
            if b[key] != c[key]:
                row["other"].append(f"{key} at {b['instance']}: {b[key]!r} -> {c[key]!r}")
        move = c["value"] - b["value"]
        if math.isfinite(move):
            if move > 0 and (row["up"] is None or move > row["up"][0]):
                row["up"] = (move, b["instance"])
            if move < 0 and (row["down"] is None or move < row["down"][0]):
                row["down"] = (move, b["instance"])

    def moved(pair):
        return "0" if pair is None else f"{pair[0]:+.2e} ({pair[1]})"

    lines = []
    differs = larger = False
    for name, row in checks.items():
        worst_base, worst_change = max(row["base"], key=_rank), max(row["change"], key=_rank)
        grew = _rank(worst_change) > _rank(worst_base)
        lines.append(
            f"{name}: {row['rows']} rows, {len(row['verdicts'])} verdict changes; "
            f"up {moved(row['up'])}; down {moved(row['down'])}; "
            f"worst {worst_base:.3e} -> {worst_change:.3e}{' LARGER' if grew else ''}"
        )
        lines += [f"  verdict changed at {inst}" for inst in row["verdicts"]]
        lines += [f"  {text}" for text in row["other"]]
        differs = differs or bool(row["verdicts"] or row["other"])
        larger = larger or grew
    same = "same verdicts, errors, names and thresholds"
    lines.append(f"{len(base)} rows: {'DIFFERENT' if differs else same}")
    return lines, differs or larger


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="src directory of the base tree")
    parser.add_argument("--change", help="src directory of the changed tree")
    parser.add_argument("--grid", choices=sorted(GRIDS), default="full")
    parser.add_argument(
        "--exports", action="store_true", help="compare the bytes of the exported files"
    )
    parser.add_argument("--rows", choices=sorted(GRIDS), help=argparse.SUPPRESS)
    parser.add_argument("--hashes", choices=sorted(GRIDS), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rows:
        emit_rows(args.rows)
        return 0
    if args.hashes:
        emit_hashes(args.hashes)
        return 0
    if not (args.base and args.change):
        parser.error("--base and --change are required")
    mode = "hashes" if args.exports else "rows"
    base, change = run_tree(args.base, mode, args.grid), run_tree(args.change, mode, args.grid)
    if args.exports:
        lines, differs = compare_exports(base, change)
    else:
        lines, differs = compare(base["rows"], change["rows"])
    peaks = f"base {base['peak_mb']:.1f} MB, change {change['peak_mb']:.1f} MB"
    walls = f"base {base['wall_s']:.1f} s, change {change['wall_s']:.1f} s"
    lines[:0] = [
        f"peak RSS of the grid process: {peaks}",
        f"wall time of the grid process, one unpaired run each: {walls}",
        f"BLAS threads of the grid process: {BLAS_THREADS} ({', '.join(THREAD_VARS)})",
    ]
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
