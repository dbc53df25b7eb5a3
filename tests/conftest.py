import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ncscatter import linalg
from ncscatter.lifting import Infeasible, assemble, generate
from ncscatter.rowtuple import OperatorTuple

RT2 = 1.0 / np.sqrt(2.0)


def _compare_checks():
    """``scripts/compare_checks.py``, whose top level loads only the standard library."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "compare_checks.py"
    spec = importlib.util.spec_from_file_location("compare_checks", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


# the shapes (d, dimC, dimA) of the benchmark's verify sweep
SWEEP_SHAPES = _compare_checks().SWEEP_SHAPES


def balanced_pair_tuple():
    """Coisometric pair (1/sqrt2, 1/sqrt2) on a one-dimensional space."""
    return OperatorTuple((np.array([[RT2]]), np.array([[RT2]])))


def defect_block(t, j):
    """``(D)_j``: the defect of ``t`` on slot j, in the coordinates of its basis."""
    dd, n = t.defect, t.dim
    return dd.basis.conj().T @ dd.operator[:, (j - 1) * n : j * n]


def dense_letter(dil, j, depth):
    """The flat matrix of V_j from ``depth`` to ``depth + 1``: V_j on the identity."""
    return dil.apply(j, np.eye(dil.space(depth).dim, dtype=np.complex128), depth)


def table_letter(dil, j, depth):
    """V_j from ``depth`` to ``depth + 1`` rebuilt dense from the stage block
    on its base columns and 1.0 at the row the row table names elsewhere."""
    n, units = dil.t.dim, dil.matrix(depth)[j - 1]
    out = np.zeros((dil.space(depth + 1).dim, n + units.size), dtype=np.complex128)
    out[: dil.stage.shape[0], :n] = dil.letters[j - 1]
    out[units, np.arange(n, out.shape[1])] = 1.0
    return out


def letter_product(a, u, units):
    """``a @ V_j`` whole, for the letter with stage block ``u`` and row table
    ``units``: ``u`` times the first n + r columns of ``a`` on the base
    columns, a copy of the column of ``a`` the table names on the others."""
    return np.hstack([a[:, : u.shape[0]] @ u, a[:, units]])


def lift(base, dim_a, rng, a_scale=0.9):
    """A lifting of the coisometric tuple ``base`` by ``generate``'s backward
    construction, drawn from ``rng``: a corner A of row norm ``a_scale``,
    an isometry gamma between the defect frames, and B = (gamma D*)*."""
    d, n = base.d, base.dim
    raw = rng.standard_normal((dim_a, d * dim_a)) + 1j * rng.standard_normal((dim_a, d * dim_a))
    norm = np.linalg.norm(raw, 2)
    a_row = raw * (a_scale / norm) if a_scale > 0 and norm > 0 else np.zeros_like(raw)
    a = OperatorTuple(tuple(a_row[:, j * dim_a : (j + 1) * dim_a] for j in range(d)))
    star = a.star_defect
    if star.rank > base.defect.rank:
        raise Infeasible(f"star defect rank {star.rank} exceeds {base.defect.rank}")
    gamma = linalg.random_isometry(base.defect.rank, star.rank, rng)
    bstar = base.defect.basis @ gamma @ star.coords
    return assemble(base, a, tuple(bstar[j * n : (j + 1) * n].conj().T for j in range(d)))


def compose(step1, step2):
    """The lifting of ``step1``'s base C by ``step2``'s lifted tuple, where
    ``step2`` lifts ``step1.e``: corner ``[[A1, 0], [B2_A, A2]]`` and coupling
    ``[[B1], [B2_C]]``, with ``B2 = [B2_C, B2_A]`` split by the columns of
    ``H_C`` and ``H_A1``, through strict ``assemble``."""
    assert step2.c is step1.e
    n = step1.dim_c
    corner = tuple(
        np.block([[a1, np.zeros((a1.shape[0], a2.shape[1]))], [b2[:, n:], a2]])
        for a1, a2, b2 in zip(step1.a.ops, step2.a.ops, step2.b)
    )
    coupling = tuple(np.vstack([b1, b2[:, :n]]) for b1, b2 in zip(step1.b, step2.b))
    return assemble(step1.c, OperatorTuple(corner), coupling)


def contraction_tuple(d, n, seed, norm=0.9):
    """Random d-tuple on an n-dimensional space with given row norm."""
    rng = np.random.default_rng(seed)
    row = rng.standard_normal((n, d * n)) + 1j * rng.standard_normal((n, d * n))
    row *= norm / np.linalg.norm(row, 2)
    return OperatorTuple(tuple(row[:, j * n : (j + 1) * n] for j in range(d)))


@pytest.fixture
def coiso_pair():
    return balanced_pair_tuple()


@pytest.fixture
def hand_instance():
    """d=2, dimC=dimA=1, A=0, B=(1/sqrt2, -1/sqrt2): every derived object
    is small enough to check by hand."""
    c = balanced_pair_tuple()
    a = OperatorTuple((np.zeros((1, 1)), np.zeros((1, 1))))
    b = (np.array([[RT2]]), np.array([[-RT2]]))
    return assemble(c, a, b)


@pytest.fixture
def plain_instance():
    """Generic instance with a nontrivial corner."""
    return generate(2, 2, 2, seed=42)


@pytest.fixture
def no_corner_instance():
    """dimA = 0, so the lifting is the base tuple itself."""
    return generate(2, 2, 0, seed=7)


@pytest.fixture
def zero_a_instance():
    """dimA > 0 but A = 0."""
    return generate(2, 2, 2, seed=11, a_scale=0.0)
