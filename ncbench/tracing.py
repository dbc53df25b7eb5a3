"""Span tracing of ncscatter's layers, installed from outside the package.

The tracer wraps a fixed list of package functions and rebinds every
module attribute that holds one of them, so a name imported with
``from .x import f`` is traced at each of its import sites.  Spans are
kept in memory as ``(label, op, parent, start, end)`` and only recorded
while an op is active, so set-up and output checks leave no trace.

Per-check times come from the instants at which ``CheckResult.measure``
and ``CheckResult.failure`` are entered: the plan in
``verify.run_all_checks`` builds one of them right after each check
runs, and the first check is timed from entry into ``run_all_checks``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

DEEP, SWEEP, EXPORT = WORKLOADS = ("verify-deep", "verify-sweep", "export-deep")

# (module, attribute, calls other traced layers, workloads whose ops must call it)
LAYERS = (
    ("verify", "run_all_checks", True, (DEEP, SWEEP)),
    ("intertwiner", "intertwiner_matrix", True, (DEEP,)),
    ("intertwiner", "apply_intertwiner_adjoint", True, (DEEP,)),
    ("intertwiner", "stage_forward", False, (DEEP, SWEEP)),
    ("intertwiner", "stage_backward", False, (DEEP, SWEEP)),
    ("dilation", "Dilation.matrix", True, (DEEP,)),
    ("dilation", "Dilation.apply", False, (DEEP,)),
    ("linalg", "operator_norm", False, (DEEP, SWEEP)),
    ("linalg", "hermitian_sqrt", True, (SWEEP,)),
    ("linalg", "range_onb", False, (SWEEP,)),
    ("scattering", "complement_frame", True, (DEEP,)),
    ("scattering", "shifted_star_frames", True, (DEEP,)),
    ("scattering", "wandering_violation", True, (DEEP,)),
    ("scattering", "star_wandering_frame", True, (DEEP,)),
    ("transfer", "build_colligation", False, (DEEP, EXPORT)),
    ("transfer", "transfer_series", False, (DEEP, EXPORT)),
    ("transfer", "toeplitz_matrix", True, (DEEP,)),
    ("transfer", "series_multiply", False, (DEEP,)),
    ("ncsystem", "simulate", False, (EXPORT,)),
    ("charfn", "charfn_series", True, (DEEP, EXPORT)),
    ("charfn", "symbol_blocks", True, (DEEP, EXPORT)),
    ("serialize", "dump_text", False, (EXPORT,)),
    ("serialize", "series_to_json", False, (EXPORT,)),
    ("serialize", "trajectory_to_json", False, (EXPORT,)),
    ("serialize", "load", False, (SWEEP,)),
    ("serialize", "instance_from_json", True, (SWEEP,)),
    ("lifting", "generate", True, (SWEEP,)),
    ("lifting", "assemble", True, (SWEEP,)),
    ("rowtuple", "defect", True, (SWEEP,)),
    ("words", "enumerate_words", False, (SWEEP,)),
    ("cli", "main", True, WORKLOADS),
)

# Names of the plan entries of verify.run_all_checks, in plan order.
CHECK_NAMES = (
    "lifting_identities",
    "dilation_isometry",
    "dilation_orthogonal_ranges",
    "dilation_row_unitary",
    "dilation_compression",
    "intertwining",
    "intertwiner_coisometry",
    "base_subspace_fixed",
    "intertwiner_stabilization",
    "star_frame_base_leak",
    "wandering_orthogonality",
    "complement_dimension_angles",
    "shift_decomposition",
    "colligation_structure",
    "transfer_contraction",
    "transfer_norm_one",
    "multi_analyticity",
    "io_recursion",
    "charfn_coincidence",
    "charfn_restriction",
)

# Work counters computed from a call's arguments or result.  dump_text
# renders with json's default ensure_ascii, so characters are bytes.
COUNTERS = {
    "linalg.operator_norm": ("entries", lambda args, out: np.size(args[0])),
    "serialize.dump_text": ("bytes", lambda args, out: len(out)),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, attr, nested, _ in LAYERS:
        label = f"{module}.{attr}"
        units[f"{label}.calls"] = "calls/op"
        units[f"{label}.s"] = "s/op"
        if nested:
            units[f"{label}.self_s"] = "s/op"
        if label in COUNTERS:
            units[f"{label}.{COUNTERS[label][0]}"] = f"{COUNTERS[label][0]}/op"
    for name in CHECK_NAMES:
        units[f"verify.check.{name}.s"] = "s/op"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records spans of the wrapped layers while an op is active."""

    def __init__(self):
        self.spans: list = []
        self.checks: list[tuple[int, str, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._check_mark: float | None = None
        self._undo: list = []

    @contextmanager
    def op(self, op_id: int):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    def _span(self, label, fn):
        counter = COUNTERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (label, self._op, parent, start, end)
            if counter is not None:
                self.counts[f"{label}.{counter[0]}"] += counter[1](args, out)
            return out

        return traced

    def _start_checks(self, fn):
        @functools.wraps(fn)
        def started(*args, **kwargs):
            self._check_mark = perf_counter()
            return fn(*args, **kwargs)

        return started

    def _end_check(self, fn):
        @functools.wraps(fn)
        def ended(name, *args, **kwargs):
            if self._op is not None and self._check_mark is not None:
                now = perf_counter()
                self.checks.append((self._op, name, now - self._check_mark))
                self._check_mark = now
            return fn(name, *args, **kwargs)

        return ended

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer and rebind it at each module that holds it."""
        verify = importlib.import_module("ncscatter.verify")
        for module, _, _, _ in LAYERS:
            importlib.import_module(f"ncscatter.{module}")
        package = [
            m
            for name, m in sys.modules.items()
            if name == "ncscatter" or name.startswith("ncscatter.")
        ]
        for module, attr, _, _ in LAYERS:
            label = f"{module}.{attr}"
            owner = sys.modules[f"ncscatter.{module}"]
            *classes, name = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, name)
            inner = self._start_checks(original) if label == "verify.run_all_checks" else original
            wrapped = self._span(label, inner)
            if classes:
                self._set(owner, name, wrapped)
                self.sites[label] = [f"{owner.__module__}.{owner.__name__}"]
                continue
            self.sites[label] = []
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
                        self.sites[label].append(mod.__name__)
        for name in ("measure", "failure"):
            original = getattr(verify.CheckResult, name)
            self._set(verify.CheckResult, name, staticmethod(self._end_check(original)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for label, *_ in self.spans:
            out[label] += 1
        return out

    def unmapped(self, workload: str) -> list[str]:
        """Layers mapped to ``workload`` that recorded no call."""
        calls = self.calls()
        return [
            f"{module}.{attr}"
            for module, attr, _, workloads in LAYERS
            if workload in workloads and calls.get(f"{module}.{attr}", 0) == 0
        ]

    def unknown_checks(self) -> list[str]:
        return sorted({name for _, name, _ in self.checks} - set(CHECK_NAMES))

    def metrics(self, n_ops: int, overhead_s: float) -> dict[str, float]:
        """Per-op averages of every per-layer metric."""
        total: dict[str, float] = defaultdict(float)
        inside: dict[str, float] = defaultdict(float)
        for label, _, parent, start, end in self.spans:
            total[label] += end - start
            if parent is not None:
                inside[self.spans[parent][0]] += end - start
        calls = self.calls()
        check_s: dict[str, float] = defaultdict(float)
        for _, name, seconds in self.checks:
            check_s[name] += seconds
        values = {}
        for name in metric_units():
            head, _, field = name.rpartition(".")
            if name == "trace.overhead_s":
                values[name] = overhead_s
                continue
            if head.startswith("verify.check."):
                per_run = check_s[head[len("verify.check.") :]]
            elif field == "calls":
                per_run = calls.get(head, 0)
            elif field == "s":
                per_run = total[head]
            elif field == "self_s":
                per_run = total[head] - inside[head]
            else:
                per_run = self.counts[name]
            values[name] = per_run / n_ops
        return values

    def dump(self) -> dict:
        """Spans and check intervals as plain data for the trace file."""
        return {
            "spanFields": ["label", "op", "parent", "start", "end"],
            "spans": self.spans,
            "checkFields": ["op", "check", "seconds"],
            "checks": self.checks,
            "sites": self.sites,
        }
