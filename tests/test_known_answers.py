"""Known-answer liftings outside ``generate``'s family: corners whose
transfer Toeplitz spectrum is known in closed form, lifted over one base
by ``draw_coupling``."""

from functools import cache

import numpy as np
import pytest

from ncscatter import lifting, transfer
from ncscatter.rowtuple import OperatorTuple
from ncscatter.verify import all_passed, render_report, run_all_checks

DEPTHS = (1, 3, 5)


def cuntz_corner():
    """A A* = I: the star defect is zero, so B = 0 and E = C (+) A."""
    return OperatorTuple((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))


def nilpotent_corner():
    """Strictly upper triangular letters, so A_w = 0 for |w| >= dim_a = 2."""
    drawn = lifting.draw_corner(2, 2, np.random.default_rng(1), 0.9)
    return OperatorTuple(tuple(np.triu(op, 1) for op in drawn.ops))


@cache
def lifted(corner):
    base = lifting.generate(2, 2, 0, seed=1).c
    a = {"cuntz": cuntz_corner, "nilpotent": nilpotent_corner}[corner]()
    return lifting.assemble(base, a, lifting.draw_coupling(base, a, np.random.default_rng(2)))


def toeplitz_singular_values(instance, depth):
    theta = transfer.transfer_series(transfer.build_colligation(instance), depth)
    return np.linalg.svd(transfer.toeplitz_matrix(theta), compute_uv=False)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("corner", ["cuntz", "nilpotent"])
def test_every_row_passes(corner, depth):
    results = run_all_checks(lifted(corner), depth)
    assert len(results) == 19 and all_passed(results), render_report(results)


def test_cuntz_corner_has_no_coupling():
    inst = lifted("cuntz")
    assert inst.a.star_defect.rank == 0
    assert all(not b.any() for b in inst.b)


@pytest.mark.parametrize("depth", DEPTHS)
def test_cuntz_corner_toeplitz_is_a_coisometry(depth):
    s = toeplitz_singular_values(lifted("cuntz"), depth)
    assert np.abs(s - 1).max() <= 1e-14


@pytest.mark.parametrize("depth", DEPTHS)
def test_nilpotent_corner_toeplitz_loses_dim_a_directions(depth):
    inst = lifted("nilpotent")
    assert not any(inst.a.word_product(w).any() for w in ((1, 1), (1, 2), (2, 1), (2, 2)))
    s = toeplitz_singular_values(inst, depth)
    zero = s < 1e-12
    assert np.count_nonzero(zero) == inst.dim_a
    assert np.abs(s[~zero] - 1).max() <= 1e-14
