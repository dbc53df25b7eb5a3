"""JSON schemas for matrices, instances, series, trajectories, reports.

Complex entries travel as ``[re, im]`` pairs in row-major order.
Floats rely on the shortest-roundtrip repr, so dump, load and dump
again is byte-stable; non-finite values are rejected both ways.
Loaders validate shape and type and raise :class:`SchemaError` with
the offending key, never a bare KeyError.  A series or trajectory
file may omit words, which load as exact zeros: the declared depth
sizes one dense array, and a depth whose array cannot be allocated is
refused.

:func:`dump_text` writes flat documents: a series may be only a
top-level value of a mapping, as in the trees of :func:`series_to_json`
and :func:`trajectory_to_json`.  The bytes are exactly those of
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"``
with each series standing for its graded-lex list of ``{"word",
"matrix"}`` entries.  A series is written straight from its
coefficient stack: one template holds its literal text, with word
texts built level by level and a ``%s`` slot per float, and one ``%``
fills it from :func:`_float_texts` of the float view.  That helper
writes every float of the stack in one ``orjson`` pass, whose shortest
round-trip digits (Ryu) are those of ``float.__repr__``, and rewrites
the few layouts in which the two differ, so each text is byte for
byte ``repr`` of its float.

An instance file stores only the three defining blocks (and the
generator seed when there is one); defect operators, bases and the
coupling isometry are recomputed on load so a file cannot smuggle in
inconsistent derived data.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from . import linalg
from .lifting import LiftingInstance, assemble
from .ncsystem import Trajectory
from .rowtuple import OperatorTuple
from .transfer import NCSeries
from .words import Word, level_start, position

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


def _is_pairs(rows: list) -> list | None:
    """The flat floats of a list of ``[float, float]`` lists, else None."""
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {2}:
        return None
    flat = list(chain.from_iterable(rows))
    return flat if set(map(type, flat)) == {float} else None


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
        try:
            flat[k] = complex(entry[0], entry[1])
        except OverflowError:
            flat[k] = np.inf
        if not np.isfinite(flat[k]):
            raise SchemaError(f"{where}: entry {k} is not finite")
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


def instance_from_json(obj, strict: bool = True) -> LiftingInstance:
    d = _require(obj, "d", int, "instance")
    nc = _require(obj, "dimC", int, "instance")
    na = _require(obj, "dimA", int, "instance")
    for key, n in (("d", d), ("dimC", nc)):
        if n < 1:
            raise SchemaError(f"instance: key {key!r} must be at least 1")
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
        seed=seed,
        strict=strict,
    )


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
        "coeffs": series,
    }


def series_from_json(obj, d: int) -> NCSeries:
    shape = (_require(obj, "outDim", int, "series"), _require(obj, "inDim", int, "series"))
    depth = _require(obj, "depth", int, "series")
    return _entries_from_json(obj, "coeffs", d, depth, shape, "series")


def trajectory_to_json(traj: Trajectory) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "depth": traj.depth,
        "input": traj.u,
        "state": traj.x,
        "output": traj.y,
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


def _nl(level: int) -> str:
    return "\n" + "  " * level


def _word_texts(d: int, depth: int) -> list[str]:
    """Every word up to ``depth`` as written in a series entry of a
    document (indent level 3), in graded-lex order: level m+1 appends
    each letter to each word of level m."""
    letters = [str(j) for j in range(1, d + 1)]
    sep, close = "," + _nl(4), _nl(3) + "]"
    texts, heads, glue = ["[]"], ["[" + _nl(4)], ""
    for _ in range(depth):
        heads = [h + glue + j for h in heads for j in letters]
        texts += [h + close for h in heads]
        glue = sep
    return texts


def _float_texts(flat: np.ndarray) -> list[str]:
    """``float.__repr__`` of every entry of the finite float64 vector
    ``flat``, from one ``orjson`` pass.

    Ryu writes the same shortest digits as ``repr`` and the same layout,
    except in three ranges of ``|x|``, picked out by masks and rewritten:
    ``1e-9 <= |x| < 1e-5`` has a one-digit exponent (``1e-7`` for
    ``1e-07``), ``|x| >= 1e16`` an unsigned one (``1e16`` for
    ``1e+16``), and ``1e-5 <= |x| < 1e-4`` is written without one
    (``0.0000123`` for ``1.23e-05``).  Rounding is monotone, so a float
    on either side of a bound has its shortest digits on that side too.
    """
    import orjson

    if not flat.size:
        return []
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(flat)
    for k in np.flatnonzero((size >= 1e-9) & (size < 1e-5)).tolist():
        texts[k] = texts[k].replace("e-", "e-0")
    for k in np.flatnonzero(size >= 1e16).tolist():
        texts[k] = texts[k].replace("e", "e+")
    for k in np.flatnonzero((size >= 1e-5) & (size < 1e-4)).tolist():
        # "[-]0.0000" then the digits; no other "0.0000" follows it
        sign, digits = texts[k].split("0.0000")
        point = "." if len(digits) > 1 else ""
        texts[k] = f"{sign}{digits[0]}{point}{digits[1:]}e-05"
    return texts


def _write_series(series: NCSeries, key: str, words: list[str]) -> str:
    """The graded-lex ``{"word", "matrix"}`` entry list of ``series``, the
    value of the top-level ``key``, with ``words`` from :func:`_word_texts`:
    one template of literal text with a ``%s`` slot per float, filled
    once from the float texts of the stack."""
    stack = np.ascontiguousarray(series.coeffs, dtype=np.complex128)
    _, rows, cols = stack.shape
    flat = stack.reshape(-1).view(np.float64)
    if not np.isfinite(stack).all():
        k, at = divmod(int(np.flatnonzero(~np.isfinite(flat))[0]), 2 * rows * cols)
        spot = f"{key}[{k}].matrix.data[{at // 2}][{at % 2}]"
        raise SchemaError(f"non-finite number at {spot} is not allowed")
    nl2, nl3, nl4, nl5, nl6 = (_nl(level) for level in range(2, 7))
    head = nl2 + "{" + nl3 + '"matrix": {' + nl4 + f'"cols": {cols},' + nl4 + '"data": '
    pair = "[" + nl6 + "%s," + nl6 + "%s" + nl5 + "]"
    data = "[" + nl5 + ("," + nl5).join([pair] * (rows * cols)) + nl4 + "]" if rows * cols else "[]"
    mid = "," + nl4 + f'"rows": {rows}' + nl3 + "}," + nl3 + '"word": '
    entry, close = head + data + mid, nl2 + "}"
    template = "[" + entry + (close + "," + entry).join(words) + close + _nl(1) + "]"
    return template % tuple(_float_texts(flat))


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def dump_text(obj) -> str:
    """Deterministic rendering: sorted keys, two-space indent, newline.

    A mapping with series values is written key by key, each series by
    :func:`_write_series` and every other value by ``json.dumps``
    indented one level; the word texts of each ``(d, depth)`` are built
    once per call.  Any other tree is ``json.dumps`` whole.
    """
    if not (isinstance(obj, dict) and any(isinstance(v, NCSeries) for v in obj.values())):
        return _dumps(obj) + "\n"
    words: dict[tuple[int, int], list[str]] = {}
    out, sep = ["{"], _nl(1)
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, NCSeries):
            grading = (value.d, value.depth)
            if grading not in words:
                words[grading] = _word_texts(*grading)
            text = _write_series(value, key, words[grading])
        else:
            text = _dumps(value).replace("\n", _nl(1))
        out += [sep, _dumps(key), ": ", text]
        sep = "," + _nl(1)
    del words  # not held through the join, the peak of a series document
    out.append("\n}\n")
    return "".join(out)


def load_text(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def save(path, obj) -> None:
    """Write ``dump_text(obj)`` to ``path``, opened once the text is whole."""
    text = dump_text(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_text(fh.read())
