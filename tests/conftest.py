import numpy as np
import pytest

from ncscatter.lifting import assemble, generate
from ncscatter.rowtuple import OperatorTuple

RT2 = 1.0 / np.sqrt(2.0)

# the shapes (d, dimC, dimA) of the benchmark's verify sweep
SWEEP_SHAPES = ((2, 2, 1), (2, 2, 2), (2, 3, 2), (2, 4, 4), (2, 2, 0), (3, 2, 1), (1, 2, 0))


def balanced_pair_tuple():
    """Coisometric pair (1/sqrt2, 1/sqrt2) on a one-dimensional space."""
    return OperatorTuple((np.array([[RT2]]), np.array([[RT2]])))


def dense_letter(dil, j, depth):
    """The flat matrix of V_j from ``depth`` to ``depth + 1``: V_j on the identity."""
    return dil.apply(j, np.eye(dil.space(depth).dim, dtype=np.complex128), depth)


def dense_split(split):
    """The matrix a ``UnitSplit`` holds: its block on the rest columns,
    1.0 at each unit column's row."""
    out = np.zeros((split.n_rows, split.n_cols), dtype=split.block.dtype)
    out[:, split.rest] = split.block
    out[split.rows, split.unit] = 1.0
    return out


def unit_rmatmul(split, a):
    """``a @ m`` for the matrix ``m`` that ``split`` holds: a unit column
    copies one column of ``a``, the rest are multiplied."""
    out = np.empty((a.shape[0], split.n_cols), dtype=np.result_type(a, split.block))
    out[:, split.unit] = a[:, split.rows]
    out[:, split.rest] = a @ split.block
    return out


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
