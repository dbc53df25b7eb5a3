"""One-shot verification of every structural identity of an instance.

Each check measures the numerical size of one defining property at a
chosen Fock truncation depth and compares it against a fixed
threshold.  Thresholds are absolute: the identities hold exactly in
the truncated model, so violations are rounding noise and scale only
mildly with dimension.  A check that raises is reported as failed
with the error message attached instead of aborting the run.  Each
check runs with numpy's overflow, invalid and divide warnings off: an
overflow shows in its row as a large or non-finite value, which fails.
A row's maximum is :func:`.linalg.worst`, so a NaN among its values
fails it wherever it comes.

:func:`run_all_checks` runs the rows of :data:`ROWS` in order on the
builds of :data:`BUILDS`.  A build is made once, on its first read; one
that raises is kept as its exception, without its traceback, and every
row that reads it fails with that text.  A build is dropped after its
last reader, counting the readers of each build that reads it.
``transfer_norm_one`` appears only when ``dimA = 0`` and ``rank_c > 0``.
The signal ``s`` is drawn and convolved by ``theta`` once: ``io_recursion``
and the Fock half of ``charfn_restriction`` read ``theta * s``,
``multi_analyticity`` the depth - 1 prefixes of ``s`` and ``theta * s``.

Each letter ``V_j`` is column block ``U_j`` of the stage block
``U = [[T_1 ... T_d], [(D)_1 ... (D)_d]]`` (:attr:`.dilation.Dilation.stage`)
on ``H`` and a level shift on the Fock part, whose columns are unit
vectors alone in their rows.  So the dilation rows are identities of
``U`` alone, at every depth: ``U_j* U_j - I``, ``U_i* U_j`` and
``I - U U*``, read off :attr:`.dilation.Dilation.letters` and
:attr:`.dilation.Dilation.stage_adjoint`; the colligation's state and
input rows are the ``U_j*``, so ``colligation_structure`` reads its
output rows alone.  The intertwining row applies
``V_j`` through :meth:`.dilation.Dilation.apply`, and forms ``W V_j``
from ``U_j`` and the row table of :meth:`.dilation.Dilation.matrix`,
built once per dilation: a product with the ``n + r`` base and vacuum
lines of ``W`` on the base columns, and a gather of the lines the table
names on the others.

Norms are exact to rounding: besides the support and orientation cuts
of :func:`.linalg.operator_norm` and the Frobenius cut of
:func:`.linalg.stack_norm`, ``W W* - I`` goes through
:func:`.linalg.hermitian_norm`, which reads its lower triangle, and the
star direction of the intertwining check through :func:`.linalg.fold_rows`.

The ``W``-sized residuals, ``W W* - I`` and both directions of the
intertwining check, are formed one run of :func:`.intertwiner.blocks`
output columns at a time, and ``W*`` is read as row slabs of ``W`` on
the same runs, so no conjugate copy of ``W`` is made; ``W W* - I`` is
formed only on and below its diagonal blocks, Hermitian by construction.
The :mod:`.intertwiner` docstring says when that tiling gives the whole
products bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations

import numpy as np

from . import charfn, scattering, transfer
from .intertwiner import blocks, intertwiner_matrix, stabilization_violation
from .lifting import LiftingInstance, lifting_violations
from .linalg import TOL_EQ, fold_rows, hermitian_norm, operator_norm, stack_norm, worst
from .ncsystem import io_violation
from .transfer import build_colligation, colligation_violation
from .words import enumerate_words


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_violation: float
    threshold: float
    passed: bool = field(default=False)
    error: str | None = None

    @staticmethod
    def measure(name: str, violation: float, threshold: float) -> "CheckResult":
        v = float(violation)
        return CheckResult(name, v, threshold, math.isfinite(v) and v <= threshold)

    @staticmethod
    def failure(name: str, threshold: float, error: str) -> "CheckResult":
        return CheckResult(name, math.inf, threshold, False, error)

    def line(self) -> str:
        state, relation = ("pass", "<=") if self.passed else ("FAIL", ">")
        detail = (
            f"error: {self.error}"
            if self.error is not None
            else f"{self.max_violation:.3e} {relation} {self.threshold:.1e}"
        )
        return f"{state}  {self.name:32s} {detail}"


def _dilation_isometry(instance: LiftingInstance) -> float:
    return worst(
        operator_norm(u.conj().T @ u - np.eye(u.shape[1]))
        for dil in (instance.dilation_c, instance.dilation_e)
        for u in dil.letters
    )


def _dilation_orthogonal_ranges(instance: LiftingInstance) -> float:
    return worst(
        operator_norm(ui.conj().T @ uj)
        for dil in (instance.dilation_c, instance.dilation_e)
        for ui, uj in combinations(dil.letters, 2)
    )


def _dilation_row_unitary(instance: LiftingInstance) -> float:
    return worst(
        operator_norm(np.eye(dil.stage.shape[0]) - dil.stage @ dil.stage_adjoint)
        for dil in (instance.dilation_c, instance.dilation_e)
    )


def _dilation_compression(instance: LiftingInstance, depth: int) -> float:
    """P_H V_w restricted to H equals the word product of the tuple."""
    norms, length = [], min(3, depth)
    for dil in (instance.dilation_c, instance.dilation_e):
        n = dil.t.dim
        root = np.eye(dil.space(0).dim, n, dtype=np.complex128)
        words = enumerate_words(dil.d, length)
        heads = np.hstack([v[:n] for v in dil.translates(root, 0, length)])
        got = heads.reshape(n, len(words), n).transpose(1, 0, 2)
        want = np.array([dil.t.word_product(w) for w in words])
        norms.append(stack_norm(got - want))
    return worst(norms)


def _intertwining_norms(instance: LiftingInstance, depth: int, w_deep, w_flat):
    """Per letter, both directions: W against V on the lift, W* against V on the base.

    Each ``V_j`` from depth - 1 to depth is its stage block ``U_j`` and its row table.
    """
    base, lift = instance.dilation_c, instance.dilation_e
    pairs = zip(
        zip(base.letters, base.matrix(depth - 1)), zip(lift.letters, lift.matrix(depth - 1))
    )
    for j, (v_base, v_lift) in enumerate(pairs, start=1):
        yield (
            _forward_norm(w_deep, w_flat, partial(base.apply, j, depth=depth - 1), *v_lift),
            _star_norm(w_deep, w_flat, *v_base, partial(lift.apply, j, depth=depth - 1)),
        )


def _fock_span(lo: int, hi: int, n: int) -> slice:
    """The entries of a row table for the letter columns ``[lo, hi)`` past the first n."""
    return slice(max(lo, n) - n, max(hi, n) - n)


def _forward_norm(w_deep, w_flat, v_base, u, units) -> float:
    """``||W_N V^E_j - V^C_j W_{N-1}||``, formed one run of output columns at a time.

    ``v_base`` applies ``V^C_j`` to a batch; ``V^E_j`` is its stage block
    ``u`` and row table ``units``.  Its base columns come from one product
    with the ``n + r`` base and vacuum columns of ``W_N``, and every other
    column copies the column of ``W_N`` the table names.  Each block keeps
    only its nonzero columns (most cancel exactly), so the norm decomposes
    the same support block as for the whole residual.
    """
    n, base = u.shape[1], w_deep[:, : u.shape[0]] @ u
    kept = []
    for lo, hi in blocks(n + units.size):
        head = base[:, lo:hi]
        out = np.empty((w_deep.shape[0], hi - lo), dtype=np.complex128)
        out[:, : head.shape[1]] = head
        out[:, head.shape[1] :] = w_deep[:, units[_fock_span(lo, hi, n)]]
        out -= v_base(w_flat[:, lo:hi])
        kept.append(out[:, (out != 0).any(axis=0)])
    return operator_norm(np.hstack(kept))


def _star_norm(w_deep, w_flat, u, units, v_lift) -> float:
    """``||V^E_j W_{N-1}* - W_N* V^C_j||``, filled one run of columns at a time.

    ``v_lift`` applies ``V^E_j`` to a batch; ``V^C_j`` is its stage block
    ``u`` and row table ``units``, so ``W_N* V^C_j`` is a product with the
    ``n + r`` base and vacuum rows of ``W_N`` on the base columns and a
    row gather on the others.  The adjoints are read as row slabs of
    ``W``, so no conjugate copy of either matrix is made.  The residual is
    tall and almost all of its rows lie on the same few columns, so its
    norm is taken after :func:`.linalg.fold_rows`, which needs all of it.
    """
    n = u.shape[1]
    base = np.vstack(
        [w_deep[: u.shape[0], lo:hi].conj().T @ u for lo, hi in blocks(w_deep.shape[1])]
    )
    star = np.empty((w_deep.shape[1], n + units.size), dtype=np.complex128)
    for lo, hi in blocks(star.shape[1]):
        out, head = star[:, lo:hi], base[:, lo:hi]
        out[...] = v_lift(w_flat[lo:hi].conj().T)
        out[:, : head.shape[1]] -= head
        out[:, head.shape[1] :] -= w_deep[units[_fock_span(lo, hi, n)]].conj().T
    return operator_norm(fold_rows(star))


def _intertwiner_coisometry(w: np.ndarray) -> float:
    """Lower block triangle of ``W W* - I``, zeros above, 1 taken off the diagonal in place."""
    gram = np.empty((w.shape[0], w.shape[0]), dtype=np.complex128)
    for lo, hi in blocks(w.shape[0]):
        gram[lo:, lo:hi] = w[lo:] @ w[lo:hi].conj().T
        gram[lo:hi, hi:] = 0
    gram[np.diag_indices_from(gram)] -= 1
    return hermitian_norm(gram)


def _base_subspace_fixed(w: np.ndarray, dim_c: int) -> float:
    cols = w[:, :dim_c]
    target = np.zeros_like(cols)
    target[:dim_c] = np.eye(dim_c)
    return operator_norm(cols - target)


def _multi_analyticity(theta, signal, out) -> float:
    """Every letter, on the depth - 1 prefixes of ``signal`` and ``out = theta * signal``."""
    signal, out = signal.prefix(signal.depth - 1), out.prefix(out.depth - 1)
    letters = range(1, theta.d + 1)
    return worst(transfer.multi_analyticity_violation(theta, signal, out, j) for j in letters)


# A build names the builds it reads and its maker; a report row its name, threshold,
# the builds it reads and its violation, and last, where one applies, the condition
# on the instance for it to appear.  Each is called as ``f(instance, depth, seed, *reads)``.
BUILDS = {
    "w_deep": ((), lambda i, n, s: intertwiner_matrix(i, n)),
    "w_flat": ((), lambda i, n, s: intertwiner_matrix(i, n - 1)),
    "frame": ((), lambda i, n, s: scattering.star_wandering_frame(i, n)),
    "coll": ((), lambda i, n, s: build_colligation(i)),
    "theta": (("coll",), lambda i, n, s, coll: transfer.transfer_series(coll, n)),
    "norm": (("theta",), lambda i, n, s, theta: transfer.transfer_norm(theta)),
    "signal": ((), lambda i, n, s: transfer.random_series(i.rank_e, 1, i.d, n, s)),
    "out": (("theta", "signal"), lambda i, n, s, *ts: transfer.series_multiply(*ts)),
    "series": ((), lambda i, n, s: charfn.charfn_series(i, n)),
}

ROWS = (
    ("lifting_identities", TOL_EQ, (), lambda i, n, s: worst(lifting_violations(i).values())),
    ("dilation_isometry", 1e-12, (), lambda i, n, s: _dilation_isometry(i)),
    ("dilation_orthogonal_ranges", 1e-12, (), lambda i, n, s: _dilation_orthogonal_ranges(i)),
    ("dilation_row_unitary", 1e-10, (), lambda i, n, s: _dilation_row_unitary(i)),
    ("dilation_compression", 1e-10, (), lambda i, n, s: _dilation_compression(i, n)),
    ("intertwining", 1e-10, ("w_deep", "w_flat"),
     lambda i, n, s, *ws: worst(chain.from_iterable(_intertwining_norms(i, n, *ws)))),
    ("intertwiner_coisometry", 1e-10, ("w_deep",), lambda i, n, s, w: _intertwiner_coisometry(w)),
    ("base_subspace_fixed", 1e-12, ("w_deep",),
     lambda i, n, s, w: _base_subspace_fixed(w, i.dim_c)),
    ("intertwiner_stabilization", 1e-12, ("w_deep", "w_flat"),
     lambda i, n, s, *ws: stabilization_violation(*ws)),
    ("star_frame_base_leak", 1e-12, ("frame",), lambda i, n, s, f: scattering.base_leak(i, f)),
    ("wandering_orthogonality", 1e-10, (), lambda i, n, s: scattering.wandering_violation(
        scattering.shifted_star_frames(i, n), i.rank_c)),
    ("complement_dimension_angles", 1e-8, ("frame",),
     lambda i, n, s, f: scattering.verify_complement(i, n, f)),
    ("shift_decomposition", 1e-12, (), lambda i, n, s: scattering.verify_shift_decomposition(i, n)),
    ("colligation_structure", 1e-10, ("coll",), lambda i, n, s, c: colligation_violation(c)),
    ("transfer_contraction", 1e-8, ("norm",), lambda i, n, s, t: max(t - 1.0, 0.0)),
    ("transfer_norm_one", 1e-10, ("norm",), lambda i, n, s, t: abs(t - 1.0),
     lambda i: i.dim_a == 0 and i.rank_c > 0),
    ("multi_analyticity", 1e-12, ("theta", "signal", "out"),
     lambda i, n, s, *b: _multi_analyticity(*b)),
    ("io_recursion", 1e-10, ("coll", "signal", "out"), lambda i, n, s, *b: io_violation(*b)),
    ("charfn_coincidence", 1e-10, ("series", "theta"),
     lambda i, n, s, *b: charfn.coincidence_violation(*b)),
    ("charfn_restriction", 1e-10, ("series", "signal", "out"),
     lambda i, n, s, *b: charfn.restriction_violation(i, *b)),
)


def _needs(reads) -> set[str]:
    """The builds ``reads`` and every build they read, through any chain."""
    return set(reads).union(*(_needs(BUILDS[b][0]) for b in reads))


# the index of the last row that needs each build
_LAST = {b: max(k for k, row in enumerate(ROWS) if b in _needs(row[2])) for b in BUILDS}


def _make(built: dict, reads, make, args: tuple):
    """``make(*args, *reads)``, each build made into ``built`` on its first read, or the
    exception raised, traceback dropped; a build stored as one is returned in its place."""
    inputs = []
    for name in reads:
        if name not in built:
            built[name] = _make(built, *BUILDS[name], args)
        if isinstance(built[name], Exception):
            return built[name]
        inputs.append(built[name])
    try:
        return make(*args, *inputs)
    except Exception as exc:
        return exc.with_traceback(None)


def run_all_checks(instance: LiftingInstance, depth: int, seed: int = 0) -> list[CheckResult]:
    """Measure every identity at truncation ``depth`` (at least 1), drawing
    the random signals from ``seed`` (at least 0): one :class:`CheckResult`
    per row of :data:`ROWS` that appears for ``instance``, in table order.
    """
    if depth < 1:
        raise ValueError("verification needs depth >= 1")
    if seed < 0:
        raise ValueError("verification needs seed >= 0")
    results, built = [], {}
    for k, (name, threshold, reads, run, *present) in enumerate(ROWS):
        if all(p(instance) for p in present):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value = _make(built, reads, run, (instance, depth, seed))
            if isinstance(value, Exception):
                results.append(CheckResult.failure(name, threshold, str(value)))
            else:
                results.append(CheckResult.measure(name, value, threshold))
        for b in [b for b in built if _LAST[b] == k]:
            built.pop(b)
    return results


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def render_report(results) -> str:
    lines = [r.line() for r in results]
    verdict = "ALL CHECKS PASS" if all_passed(results) else "CHECKS FAILED"
    lines.append(verdict)
    return "\n".join(lines) + "\n"
