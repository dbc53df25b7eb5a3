"""JSON schemas for matrices, instances, series, trajectories, reports.

Complex entries travel as ``[re, im]`` pairs in row-major order.
Floats rely on the shortest-roundtrip repr, so dump, load and dump
again is byte-stable; non-finite values are rejected both ways.
Loaders validate shape and type and raise :class:`SchemaError` with
the offending key, never a bare KeyError.  A series or trajectory
file may omit words, which load as exact zeros: the declared depth
sizes one dense array, and a depth whose array cannot be allocated is
refused.

:func:`dump_text` renders exactly the bytes of ``json.dumps(obj,
indent=2, sort_keys=True, allow_nan=False) + "\n"`` (keys must be
strings).  It writes the lists this module builds from templates:
``[re, im]`` pairs, words, and ``{"word", "matrix"}`` entries whose
matrices share one shape.  Each list is type-checked in full first;
anything else goes through one generic recursive writer.

An instance file stores only the three defining blocks (and the
generator seed when there is one); defect operators, bases and the
coupling isometry are recomputed on load so a file cannot smuggle in
inconsistent derived data.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

import numpy as np

from . import linalg
from .lifting import LiftingInstance, assemble
from .ncsystem import Trajectory
from .rowtuple import OperatorTuple
from .transfer import NCSeries
from .words import Word, enumerate_words, level_start, position

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Malformed or out-of-contract JSON content."""


def _require(obj, key: str, kind, where: str):
    """``obj[key]`` of type ``kind``; every integer of the schemas is a
    size or a count, so a negative one is refused too."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    val = obj[key]
    if kind is int and (isinstance(val, bool) or isinstance(val, int) and val < 0):
        raise SchemaError(f"{where}: key {key!r} must be a nonnegative integer")
    if not isinstance(val, kind):
        raise SchemaError(f"{where}: key {key!r} has type {type(val).__name__}")
    return val


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise linalg.DimensionError(f"expected a 2-d array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    data = np.ascontiguousarray(m).reshape(-1).view(np.float64).reshape(-1, 2).tolist()
    return {"rows": m.shape[0], "cols": m.shape[1], "data": data}


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    rows = _require(obj, "rows", int, where)
    cols = _require(obj, "cols", int, where)
    data = _require(obj, "data", list, where)
    if len(data) != rows * cols:
        raise SchemaError(
            f"{where}: expected {rows * cols} entries, found {len(data)}"
        )
    flat = _float_pairs(data)
    if flat is None:
        flat = _checked_pairs(data, where)
    return flat.reshape((rows, cols))


def _float_pairs(data: list) -> np.ndarray | None:
    """All entries as one complex array when each is a list of two finite
    floats, by exact type; else None (ints too, which the files never hold)."""
    flat = _is_pairs(data)
    if flat is None:
        return None
    values = np.array(flat, dtype=np.float64)
    return values.view(np.complex128) if np.isfinite(values).all() else None


def _checked_pairs(data: list, where: str) -> np.ndarray:
    """Entry by entry, raising :class:`SchemaError` at the first bad one."""
    flat = np.zeros(len(data), dtype=np.complex128)
    for k, entry in enumerate(data):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in entry)
        ):
            raise SchemaError(f"{where}: entry {k} is not an [re, im] pair")
        if not all(np.isfinite(p) for p in entry):
            raise SchemaError(f"{where}: entry {k} is not finite")
        flat[k] = complex(entry[0], entry[1])
    return flat


def word_from_json(obj, d: int, where: str = "word") -> Word:
    if not isinstance(obj, list) or not set(map(type, obj)) <= {int}:
        raise SchemaError(f"{where}: a word is a list of integers")
    w = tuple(obj)
    if w and (min(w) < 1 or max(w) > d):
        raise SchemaError(f"{where}: letters of {w} outside 1..{d}")
    return w


def instance_to_json(instance: LiftingInstance) -> dict:
    out = {
        "schemaVersion": SCHEMA_VERSION,
        "d": instance.d,
        "dimC": instance.dim_c,
        "dimA": instance.dim_a,
        "C": [matrix_to_json(m) for m in instance.c.ops],
        "A": [matrix_to_json(m) for m in instance.a.ops],
        "B": [matrix_to_json(m) for m in instance.b],
        "seed": instance.seed,
    }
    return out


def instance_from_json(
    obj, tol: float = linalg.TOL_EQ, strict: bool = True
) -> LiftingInstance:
    d = _require(obj, "d", int, "instance")
    nc = _require(obj, "dimC", int, "instance")
    na = _require(obj, "dimA", int, "instance")
    if d < 1:
        raise SchemaError("instance: key 'd' must be at least 1")
    seed = obj.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise SchemaError("instance: seed must be an integer or null")
    mats = {}
    for key, shape in (("C", (nc, nc)), ("A", (na, na)), ("B", (na, nc))):
        entries = _require(obj, key, list, "instance")
        if len(entries) != d:
            raise SchemaError(f"instance: expected {d} blocks under {key!r}")
        got = [matrix_from_json(m, f"instance.{key}[{j}]") for j, m in enumerate(entries)]
        for j, m in enumerate(got):
            if m.shape != shape:
                raise SchemaError(
                    f"instance.{key}[{j}]: shape {m.shape}, expected {shape}"
                )
        mats[key] = got
    return assemble(
        OperatorTuple(tuple(mats["C"])),
        OperatorTuple(tuple(mats["A"])),
        tuple(mats["B"]),
        tol=tol,
        seed=seed,
        strict=strict,
    )


def _entries_to_json(series: NCSeries) -> list:
    """``{"word", "matrix"}`` entries of every word, in graded-lex order.

    The coefficients are checked and converted as one stack, with the
    errors of :func:`matrix_to_json`.
    """
    stack = np.asarray(series.coeffs, dtype=np.complex128)
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")
    words, rows, cols = stack.shape
    flat = np.ascontiguousarray(stack).reshape(words, rows * cols).view(np.float64)
    datas = flat.reshape(words, rows * cols, 2).tolist()
    return [
        {"word": list(w), "matrix": {"rows": rows, "cols": cols, "data": data}}
        for w, data in zip(enumerate_words(series.d, series.depth), datas)
    ]


def _entries_from_json(
    obj, key: str, d: int, depth: int, shape: tuple[int, int] | None, where: str
) -> NCSeries:
    """A dense series from the ``{"word", "matrix"}`` entry list under ``key``.

    Words the list omits get exact zeros.  Each matrix must have
    ``shape``, or the shape of the first entry when ``shape`` is None.
    """
    values = {}
    for k, entry in enumerate(_require(obj, key, list, where)):
        spot = f"{where}.{key}[{k}]"
        w = word_from_json(_require(entry, "word", list, spot), d, spot)
        if len(w) > depth:
            raise SchemaError(f"{spot}: word {w} exceeds depth {depth}")
        if w in values:
            raise SchemaError(f"{spot}: duplicate word {w}")
        m = matrix_from_json(_require(entry, "matrix", dict, spot), spot)
        shape = m.shape if shape is None else shape
        if m.shape != shape:
            raise SchemaError(f"{spot}: shape {m.shape}, expected {shape}")
        values[w] = m
    if shape is None:
        raise SchemaError(f"{where}.{key}: no entry to take the matrix shape from")
    count = level_start(d, depth + 1)
    try:
        stack = np.zeros((count,) + shape, dtype=np.complex128)
    except (MemoryError, ValueError):
        raise SchemaError(
            f"{where}: key 'depth' {depth} asks for {count} matrices, more than can be allocated"
        ) from None
    if values:
        stack[[position(d, depth, w) for w in values]] = list(values.values())
    return NCSeries(d, depth, stack)


def series_to_json(series: NCSeries) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "outDim": series.out_dim,
        "inDim": series.in_dim,
        "depth": series.depth,
        "coeffs": _entries_to_json(series),
    }


def series_from_json(obj, d: int) -> NCSeries:
    shape = (_require(obj, "outDim", int, "series"), _require(obj, "inDim", int, "series"))
    depth = _require(obj, "depth", int, "series")
    return _entries_from_json(obj, "coeffs", d, depth, shape, "series")


def trajectory_to_json(traj: Trajectory) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "depth": traj.depth,
        "input": _entries_to_json(traj.u),
        "state": _entries_to_json(traj.x),
        "output": _entries_to_json(traj.y),
    }


def trajectory_from_json(obj, d: int) -> Trajectory:
    depth = _require(obj, "depth", int, "trajectory")
    return Trajectory(
        *(
            _entries_from_json(obj, key, d, depth, None, "trajectory")
            for key in ("input", "state", "output")
        )
    )


def report_to_json(checks) -> dict:
    """Checks carry name, max_violation, threshold and passed.

    A check that died carries an error message and no finite
    violation; it is stored with ``maxViolation: null``.
    """
    rows = []
    for c in checks:
        v = float(c.max_violation)
        row = {
            "check": c.name,
            "maxViolation": v if np.isfinite(v) else None,
            "threshold": float(c.threshold),
            "pass": bool(c.passed),
        }
        err = getattr(c, "error", None)
        if err is not None:
            row["error"] = str(err)
        rows.append(row)
    return {"schemaVersion": SCHEMA_VERSION, "checks": rows}


def _reject_constant(name: str):
    raise SchemaError(f"non-finite number {name} is not allowed")


class _NonFinite(Exception):
    """A non-finite float met while rendering; located afterwards."""


_ENTRY_KEYS = {"word", "matrix"}
_MATRIX_KEYS = {"rows", "cols", "data"}


def _nl(level: int) -> str:
    return "\n" + "  " * level


def _floats(flat: list) -> list[str]:
    if not all(map(isfinite, flat)):
        raise _NonFinite
    return list(map(float.__repr__, flat))


def _pair_template(level: int, count: int) -> str:
    """A ``count``-pair list at ``level`` with one ``%s`` per float."""
    if not count:
        return "[]"
    pair = _nl(level + 1) + "[" + _nl(level + 2) + "%s," + _nl(level + 2) + "%s"
    return "[" + ",".join([pair + _nl(level + 1) + "]"] * count) + _nl(level) + "]"


def _is_pairs(rows: list) -> list | None:
    """The flat floats of a list of ``[float, float]`` lists, else None."""
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {2}:
        return None
    flat = list(chain.from_iterable(rows))
    return flat if set(map(type, flat)) == {float} else None


def _is_ints(seq: list) -> bool:
    return set(map(type, seq)) <= {int}


def _render_ints(seq: list, level: int) -> str:
    if not seq:
        return "[]"
    sep = "," + _nl(level + 1)
    return "[" + _nl(level + 1) + sep.join(map(int.__repr__, seq)) + _nl(level) + "]"


def _render_entries(entries: list, level: int) -> str | None:
    """A list of same-shape ``{"word", "matrix"}`` entries, else None."""
    if set(map(type, entries)) != {dict} or any(e.keys() != _ENTRY_KEYS for e in entries):
        return None
    mats = [e["matrix"] for e in entries]
    if set(map(type, mats)) != {dict} or any(m.keys() != _MATRIX_KEYS for m in mats):
        return None
    rows = [m["rows"] for m in mats]
    cols = [m["cols"] for m in mats]
    if set(map(type, rows + cols)) != {int} or len(set(rows)) != 1 or len(set(cols)) != 1:
        return None
    datas = [m["data"] for m in mats]
    if set(map(type, datas)) != {list} or len(set(map(len, datas))) != 1:
        return None
    size = len(datas[0])
    flat = _is_pairs(list(chain.from_iterable(datas))) if size else []
    words = [e["word"] for e in entries]
    if flat is None or set(map(type, words)) != {list}:
        return None
    if not _is_ints(list(chain.from_iterable(words))):
        return None
    inner = _nl(level + 3)
    entry = (
        _nl(level + 1) + "{" + _nl(level + 2) + '"matrix": {'
        + inner + f'"cols": {cols[0]},' + inner + '"data": '
        + _pair_template(level + 3, size)
        + "," + inner + f'"rows": {rows[0]}' + _nl(level + 2) + "},"
        + _nl(level + 2) + '"word": %s' + _nl(level + 1) + "}"
    )
    reprs = _floats(flat)
    step = 2 * size
    values = []
    for k, w in enumerate(words):
        values += reprs[k * step : (k + 1) * step]
        values.append(_render_ints(w, level + 2))
    return "[" + ",".join([entry] * len(entries)) % tuple(values) + _nl(level) + "]"


def _render_list(seq, level: int) -> str:
    if not seq:
        return "[]"
    if type(seq) is list:
        head = type(seq[0])
        if head is int and _is_ints(seq):
            return _render_ints(seq, level)
        if head is list:
            flat = _is_pairs(seq)
            if flat is not None:
                return _pair_template(level, len(seq)) % tuple(_floats(flat))
        if head is dict and seq[0].keys() == _ENTRY_KEYS:
            text = _render_entries(seq, level)
            if text is not None:
                return text
    sep = "," + _nl(level + 1)
    body = sep.join([_render(v, level + 1) for v in seq])
    return "[" + _nl(level + 1) + body + _nl(level) + "]"


def _render(obj, level: int) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not isfinite(obj):
            raise _NonFinite
        return float.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        return _render_list(obj, level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        sep = "," + _nl(level + 1)
        body = sep.join([_quote(k) + ": " + _render(obj[k], level + 1) for k in sorted(obj)])
        return "{" + _nl(level + 1) + body + _nl(level) + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _nonfinite_path(obj, path: str = "") -> str | None:
    """JSON path of the first non-finite float in rendering order."""
    if isinstance(obj, float):
        return None if isfinite(obj) else path
    if isinstance(obj, dict):
        items = [(f"{path}.{k}" if path else k, obj[k]) for k in sorted(obj)]
    elif isinstance(obj, (list, tuple)):
        items = [(f"{path}[{k}]", v) for k, v in enumerate(obj)]
    else:
        return None
    for spot, value in items:
        found = _nonfinite_path(value, spot)
        if found is not None:
            return found
    return None


def dump_text(obj) -> str:
    """Deterministic rendering: sorted keys, two-space indent, newline."""
    try:
        return _render(obj, 0) + "\n"
    except _NonFinite:
        path = _nonfinite_path(obj)
        raise SchemaError(
            f"non-finite number at {path or 'the top level'} is not allowed"
        ) from None


def load_text(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def save(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_text(obj))


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_text(fh.read())
