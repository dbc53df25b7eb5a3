"""Workloads of the ncscatter benchmark: seeded CLI inputs, ops and output checks.

Every op drives the program in-process through ``ncscatter.cli.main``
with the argument lists a user would type, so the program only sees
CLI inputs derived from the workload seed.

* ``verify-deep``: ``verify --depth 7 --report`` on seeded d=2, dims
  (2,2) instances.  Dense regime: the flat lifted space is
  1024-dimensional and large SVDs and intertwiner builds dominate.
* ``verify-sweep``: ``generate`` then ``verify --depth 3 --report``,
  cycling through seven shapes (d, dimC, dimA), including ``dimA = 0``
  and d = 1.  Every matrix is small, so per-call overhead dominates.
* ``export-deep``: ``transfer``, ``charfn`` and ``simulate`` at depth 12
  on one seeded d=2, dims (2,2) instance per op.  JSON rendering and
  word-dict series code dominate; almost no dense linear algebra runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ncscatter import cli, serialize
from ncscatter.transfer import build_colligation, transfer_coefficient
from ncscatter.words import reverse, splits

SWEEP_SHAPES = ((2, 2, 1), (2, 2, 2), (2, 3, 2), (2, 4, 4), (2, 2, 0), (3, 2, 1), (1, 2, 0))

# generate(1, 2, 0) has base defect rank 0, so its transfer series is
# 0x0 with norm 0, and verify reports transfer_norm_one at violation 1
# on every seed.  The defect is the program's (see ROADMAP.md); the op
# stays in the sweep and counts as failed, but does not make the run
# incorrect as long as this is its only failure.
KNOWN_DEFECTS = {(1, 2, 0): frozenset({"transfer_norm_one"})}

# Thresholds of the verify checks that hold the exported series to the
# same identities: transfer and charfn coefficients against
# transfer_coefficient (charfn_coincidence), simulate outputs against
# the convolution by the transfer series (io_recursion).
SPOT_THRESHOLDS = {"transfer": 1e-10, "charfn": 1e-10, "simulate": 1e-10}
EXPORT_COMMANDS = tuple(SPOT_THRESHOLDS)

DEPTH = {"verify-deep": 7, "verify-sweep": 3, "export-deep": 12}
SMOKE_DEPTH = 2
WARMUP_DEPTH = 2
# Wall seconds of one op and its output check (one round of the shape
# cycle for the sweep) on 2 cores at the commit that introduced the
# benchmark.  They turn --seconds into a fixed op count, so every commit
# runs the same ops.  Reloading the export JSON costs about 1.3 s per op.
NOMINAL_S = {"verify-deep": 3.1, "verify-sweep": 0.3, "export-deep": 4.0}


class SetupError(RuntimeError):
    """The workload inputs could not be prepared."""


@dataclass
class Op:
    index: int
    kind: str  # "verify" or "export"
    label: str
    d: int
    depth: int
    argvs: list[list[str]]
    outputs: list[Path]
    instance: Path | None = None
    known: frozenset = frozenset()


@dataclass
class OpRun:
    op: Op
    seconds: float
    codes: list[int]
    output: list[str]
    error: str | None
    digest: str = ""


@dataclass
class Outcome:
    """Output check of one op run."""

    failures: list[str] = field(default_factory=list)
    failed_checks: set[str] = field(default_factory=set)
    headroom: list[float] = field(default_factory=list)
    known: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, label: str, violation: float, threshold: float) -> None:
        if not violation <= threshold:
            self.failures.append(f"{label}: {violation:.3e} > {threshold:.1e}")
        elif violation > 0:
            self.headroom.append(math.log10(threshold / violation))


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue() + err.getvalue()


def plan(workload: str, seconds: float, smoke: bool) -> tuple[int, int]:
    """Op count and depth of a run."""
    if smoke:
        return 1, SMOKE_DEPTH
    count = max(1, round(seconds / NOMINAL_S[workload]))
    if workload == "verify-sweep":
        count *= len(SWEEP_SHAPES)
    return count, DEPTH[workload]


def _generate(d: int, dim_c: int, dim_a: int, seed: int, path: Path) -> list[str]:
    return [
        "generate", "--d", str(d), "--dim-c", str(dim_c), "--dim-a", str(dim_a),
        "--seed", str(seed), "-o", str(path),
    ]  # fmt: skip


def make_ops(workload: str, seeds, depth: int, inputs: Path, out: Path) -> list[Op]:
    """The op list of a workload; ``seeds`` gives one instance seed per op."""
    ops = []
    for k, seed in enumerate(seeds):
        seed = int(seed)
        inst = inputs / f"inst-{k}.json"
        if workload == "verify-sweep":
            d, dim_c, dim_a = SWEEP_SHAPES[k % len(SWEEP_SHAPES)]
            inst = out / f"inst-{k}.json"
            report = out / f"report-{k}.json"
            argvs = [
                _generate(d, dim_c, dim_a, seed, inst),
                ["verify", "--input", str(inst), "--depth", str(depth), "--report", str(report)],
            ]
            ops.append(Op(k, "verify", f"{(d, dim_c, dim_a)} seed {seed}", d, depth,
                          argvs, [inst, report], inst, KNOWN_DEFECTS.get((d, dim_c, dim_a), frozenset())))  # fmt: skip
        elif workload == "verify-deep":
            report = out / f"report-{k}.json"
            argv = ["verify", "--input", str(inst), "--depth", str(depth), "--report", str(report)]
            ops.append(Op(k, "verify", f"(2, 2, 2) seed {seed}", 2, depth, [argv], [report], inst))
        else:
            files = [out / f"{cmd}-{k}.json" for cmd in EXPORT_COMMANDS]
            argvs = [
                [cmd, "--input", str(inst), "--depth", str(depth), "-o", str(path)]
                + (["--seed", str(seed)] if cmd == "simulate" else [])
                for cmd, path in zip(EXPORT_COMMANDS, files)
            ]
            ops.append(Op(k, "export", f"(2, 2, 2) seed {seed}", 2, depth, argvs, files, inst))
    return ops


def setup(workload: str, seed: int, count: int, depth: int, work: Path) -> list[Op]:
    """Generate the inputs, warm up on a shallow op and return the ops.

    This is everything a run does before its first timed op, and what a
    set-up probe times.
    """
    inputs, out = work / "inputs", work / "pass"
    inputs.mkdir(parents=True, exist_ok=True)
    out.mkdir(exist_ok=True)
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)
    if workload != "verify-sweep":
        for k, inst_seed in enumerate(seeds):
            code, text = run_cli(_generate(2, 2, 2, int(inst_seed), inputs / f"inst-{k}.json"))
            if code != 0:
                raise SetupError(f"generate exited {code}: {text.strip()}")
    warm = make_ops(workload, seeds[:1], WARMUP_DEPTH, inputs, work)[0]
    run = run_op(warm)
    if run.error is not None or any(code not in (0, 1) for code in run.codes):
        raise SetupError(f"warm-up op failed: {run.error or run.output}")
    return make_ops(workload, seeds, depth, inputs, out)


def run_op(op: Op, tracer=None) -> OpRun:
    """Run one op; only its CLI calls are timed and traced."""
    codes, texts, error = [], [], None
    for path in op.outputs:
        path.unlink(missing_ok=True)
    scope = tracer.op(op.index) if tracer is not None else contextlib.nullcontext()
    start = perf_counter()
    try:
        with scope:
            for argv in op.argvs:
                code, text = run_cli(argv)
                codes.append(code)
                texts.append(text)
                if code != 0:
                    break
    except Exception:  # an op that raises is a failed op, not a crashed run
        error = traceback.format_exc()
    seconds = perf_counter() - start
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    for path in op.outputs:
        if path.exists():
            digest.update(path.read_bytes())
    return OpRun(op, seconds, codes, texts, error, digest.hexdigest())


def run_pass(ops: list[Op], tracer=None) -> list[OpRun]:
    return [run_op(op, tracer) for op in ops]


def check_pass(runs: list[OpRun], seed: int) -> list[Outcome]:
    return [check(run, seed * 100_003 + run.op.index) for run in runs]


def check(run: OpRun, sample_seed: int) -> Outcome:
    """Check one op's exit codes and outputs."""
    outcome = Outcome()
    op = run.op
    if run.error is not None:
        outcome.failures.append(f"raised: {run.error.strip().splitlines()[-1]}")
        return outcome
    if op.kind == "verify":
        _check_verify(run, outcome)
    elif run.codes != [0] * len(op.argvs):
        outcome.failures.append(f"exit codes {run.codes}: {' | '.join(run.output).strip()}")
    else:
        _check_export(op, sample_seed, outcome)
    outcome.known = (
        bool(outcome.failures)
        and outcome.failed_checks == op.known
        and len(outcome.failures) == len(op.known)
    )
    return outcome


def _check_verify(run: OpRun, outcome: Outcome) -> None:
    """Exit 0 and every report row passing; exit 1 exactly when a row fails."""
    report = run.op.outputs[-1]
    if run.codes[:-1] != [0] * (len(run.op.argvs) - 1) or run.codes[-1] not in (0, 1):
        outcome.failures.append(f"exit codes {run.codes}: {run.output[-1].strip()}")
        return
    if not report.exists():
        outcome.failures.append("verify wrote no report")
        return
    rows = json.loads(report.read_text())["checks"]
    for row in rows:
        violation = row["maxViolation"]
        if row["pass"]:
            outcome.record(row["check"], violation, row["threshold"])
        else:
            outcome.failed_checks.add(row["check"])
            outcome.failures.append(
                f"{row['check']}: {violation} > {row['threshold']}"
                + (f" ({row['error']})" if "error" in row else "")
            )
    if run.codes[-1] != (1 if outcome.failed_checks else 0):
        outcome.failures.append(f"verify exited {run.codes[-1]} with {len(outcome.failed_checks)} failing rows")


def _check_export(op: Op, sample_seed: int, outcome: Outcome) -> None:
    """Reload each export and spot-check a seeded sample of words."""
    inst = serialize.instance_from_json(serialize.load(op.instance), strict=True)
    coll = build_colligation(inst)
    d, depth = op.d, op.depth
    rng = np.random.default_rng(sample_seed)
    words = [tuple(int(x) for x in rng.integers(1, d + 1, size=m)) for m in range(depth + 1)]
    n_words = sum(d**m for m in range(depth + 1))
    coeff = {w: transfer_coefficient(coll, w) for w in {a for w in words for a, _ in splits(w)}}
    exports = dict(zip(EXPORT_COMMANDS, op.outputs))

    def norm(m) -> float:
        return float(np.linalg.norm(m, 2)) if np.size(m) else 0.0

    theta = serialize.series_from_json(serialize.load(exports["transfer"]), d)
    charfn = serialize.series_from_json(serialize.load(exports["charfn"]), d)
    traj = serialize.trajectory_from_json(serialize.load(exports["simulate"]), d)
    for name, size in (("transfer", len(theta.coeffs)), ("charfn", len(charfn.coeffs)), ("simulate", len(traj.y))):
        if size != n_words:
            outcome.failures.append(f"{name}: {size} words exported, expected {n_words}")
    for w in words:
        outcome.record(f"transfer {w}", norm(theta.coeff(w) - coeff[w]), SPOT_THRESHOLDS["transfer"])
        outcome.record(f"charfn {w}", norm(charfn.coeff(w) - transfer_coefficient(coll, reverse(w))),
                     SPOT_THRESHOLDS["charfn"])  # fmt: skip
        want = sum(coeff[a] @ traj.u[b] for a, b in splits(w))
        outcome.record(f"simulate {w}", norm(traj.y[w] - want), SPOT_THRESHOLDS["simulate"])
