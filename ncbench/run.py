"""Benchmark of the ncscatter command line program.

Run from the root of a source checkout:

    python3 ncbench/run.py --workload verify-deep --seed 1 --seconds 15 --trace 0

Workloads are ``verify-deep``, ``verify-sweep`` and ``export-deep`` (see
``workloads.py`` and ``README.md``).  The op count is fixed from
``--seconds`` and the workload's nominal op cost, so a faster program
runs the same ops in less time.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs the same ops untraced and
then traced and reports the per-layer metrics.  ``--smoke`` runs one op
at a shallow depth.  The last line of standard output is one JSON
object; a result file with the environment, per-op rows and failures
goes to ``ncbench/out/``.

The program is imported from ``src/`` of the checkout and nowhere
else; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "ncbench" / "out"
# BLAS threads are pinned before numpy loads.  Two threads (the core
# count of the reference machine) speed up the depth-7 SVDs and slow
# the small sweep matrices, so the setting is fixed and recorded.
BLAS_THREADS = "2"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NCSCATTER_THREADS")
SETUP_PROBES = 7
WORKLOAD_NAMES = ("verify-deep", "verify-sweep", "export-deep")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "passed_ops": "ratio",
    "min_headroom_decades": "decades",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one op at a shallow depth")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import ncscatter from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import ncscatter

    origin = Path(ncscatter.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"ncscatter imported from {origin}, not from {ROOT / 'src'}")


def probe_setups(args) -> list[float]:
    """Seconds from spawning a fresh workload process to its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]  # fmt: skip
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        ready = [line for line in proc.stdout.splitlines() if line.startswith("READY ")]
        if proc.returncode != 0 or not ready:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(float(ready[-1].split()[1]) - start)
    return samples


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )  # fmt: skip
        commit = git.stdout.strip() if git.returncode == 0 else None
    except FileNotFoundError:  # no git on the machine
        commit = None
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threadVars": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpuCount": os.cpu_count(),
        "affinityCount": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "gitCommit": commit,
    }


def op_rows(runs, outcomes) -> list[dict]:
    return [
        {"op": r.op.index, "label": r.op.label, "seconds": r.seconds, "codes": r.codes,
         "passed": o.passed, "knownDefect": o.known, "failures": o.failures}
        for r, o in zip(runs, outcomes)
    ]  # fmt: skip


def traced_pass(args, ops, runs):
    """Run the ops again under the tracer; per-layer metrics and problems."""
    from tracing import Tracer
    from workloads import run_pass

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    problems = [
        f"op {a.op.index}: traced output differs from untraced"
        for a, b in zip(runs, traced)
        if (a.codes, a.digest) != (b.codes, b.digest)
    ]
    problems += [f"layer {name} recorded no call" for name in tracer.unmapped(args.workload)]
    problems += [f"check {name} is not a known plan entry" for name in tracer.unknown_checks()]
    overhead = sum(r.seconds for r in traced) - sum(r.seconds for r in runs)
    (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(tracer.dump()))
    return traced, tracer.metrics(len(ops), overhead), problems


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracing import metric_units

    count, depth = workloads.plan(args.workload, args.seconds, args.smoke)
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        if args.probe:
            workloads.setup(args.workload, args.seed, count, depth, work)
            print(f"READY {time.monotonic()!r}", flush=True)
            return 0
        setups = [] if args.trace else probe_setups(args)
        ops = workloads.setup(args.workload, args.seed, count, depth, work)
        runs = workloads.run_pass(ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes = workloads.check_pass(runs, args.seed)
        problems = []
        if args.trace:
            traced, metrics, problems = traced_pass(args, ops, runs)
            units = metric_units()
            # A traced op whose exit codes and output bytes match its
            # untraced run (a problem otherwise) has the same outcome.
            runs, outcomes = runs + traced, outcomes + outcomes
        else:
            headroom = [h for o in outcomes for h in o.headroom]
            if not headroom:
                problems.append("no check reported a non-zero violation")
            metrics = {
                "setup_s": statistics.median(setups),
                "op_s": statistics.median(r.seconds for r in runs),
                "run_s": sum(r.seconds for r in runs),
                "peak_rss_mb": peak_rss_mb,
                "passed_ops": sum(o.passed for o in outcomes) / len(outcomes),
                "min_headroom_decades": min(headroom, default=0.0),
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [(r, o) for r, o in zip(runs, outcomes) if not o.passed]
    known = [f"op {r.op.index} {r.op.label}: {'; '.join(o.failures)}" for r, o in failed if o.known]
    problems += [f"op {r.op.index} {r.op.label}: {'; '.join(o.failures)}" for r, o in failed if not o.known]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "depth": depth,
        "environment": environment(), "setupSamples": setups,
        "problems": problems, "knownDefects": known,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "ops": op_rows(runs, outcomes),
    }  # fmt: skip
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1)
    )

    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    defects = Counter((r.op.label.split(" seed")[0], "; ".join(o.failures)) for r, o in failed if o.known)
    for (shape, failure), n in defects.items():
        print(f"known defect: {n} ops of shape {shape} fail {failure}")
    for line in problems:
        print(f"PROBLEM: {line}")
    print(f"failed_ops = {len(failed) / len(runs)!r} ratio ({len(failed)} of {len(runs)} ops)")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": result["metrics"],
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
