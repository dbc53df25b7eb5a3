"""Towers of liftings: a lifting E2 of a lifting E1 of C is a lifting of C,
and the intertwiner and the transfer series factor through E1."""

from functools import cache

import numpy as np
import pytest
from conftest import compose, lift

from ncscatter import lifting, linalg, transfer
from ncscatter.intertwiner import intertwiner_matrix
from ncscatter.rowtuple import OperatorTuple
from ncscatter.verify import all_passed, render_report, run_all_checks

# (d, dimC, dimA1, dimA2)
SHAPES = [(2, 2, 1, 1), (2, 1, 1, 1), (2, 2, 2, 1), (3, 2, 1, 2), (2, 3, 2, 2)]
SEEDS = range(3)
TOWERS = [(shape, seed) for shape in SHAPES for seed in SEEDS]


@cache
def tower(shape, seed, draw=1):
    """The lower step from ``generate``, an upper step lifting its E (drawn
    from stream ``draw``), and their composite lifting of C."""
    d, dim_c, dim_a1, dim_a2 = shape
    step1 = lifting.generate(d, dim_c, dim_a1, seed=seed)
    step2 = lift(step1.e, dim_a2, np.random.default_rng([seed, draw]))
    return step1, step2, compose(step1, step2)


def theta(instance, depth):
    return transfer.transfer_series(transfer.build_colligation(instance), depth)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 1), (2, 2, 0)])
def test_lift_is_the_backward_construction_of_generate(shape):
    # generate draws C first, then lifts it from the same stream
    d, dim_c, dim_a = shape
    rng = np.random.default_rng(4)
    cstar = linalg.random_isometry(d * dim_c, dim_c, rng)
    c = OperatorTuple(tuple(cstar[j * dim_c : (j + 1) * dim_c].conj().T for j in range(d)))
    got, want = lift(c, dim_a, rng), lifting.generate(*shape, seed=4)
    for name in ("c", "a", "e"):
        assert np.array_equal(np.hstack(getattr(got, name).ops), np.hstack(getattr(want, name).ops))
    assert np.array_equal(np.hstack(got.b), np.hstack(want.b))
    assert np.array_equal(got.gamma, want.gamma)


@pytest.mark.parametrize("shape,seed", TOWERS)
def test_composite_lifts_the_upper_tuple(shape, seed):
    step1, step2, composite = tower(shape, seed)
    assert composite.c is step1.c
    assert composite.dim_a == step1.dim_a + step2.dim_a
    assert np.array_equal(np.hstack(composite.e.ops), np.hstack(step2.e.ops))


@pytest.mark.parametrize("shape,seed", TOWERS)
def test_intertwiner_factors_through_the_middle_lifting(shape, seed):
    # W_{C<-E1} W_{E1<-E2} = W_{C<-E2}: the two bases of E1's side are
    # the same defect frame, as both steps read the one tuple E1
    step1, step2, composite = tower(shape, seed)
    for depth in range(1, 5):
        product = intertwiner_matrix(step1, depth) @ intertwiner_matrix(step2, depth)
        gap = linalg.operator_norm(product - intertwiner_matrix(composite, depth))
        assert gap <= 1e-12, (depth, gap)


@pytest.mark.parametrize("shape,seed", TOWERS)
def test_transfer_series_factors_through_the_middle_lifting(shape, seed):
    step1, step2, composite = tower(shape, seed)
    product = transfer.series_multiply(theta(step1, 4), theta(step2, 4))
    want = theta(composite, 4)
    assert product.depth == want.depth == 4
    assert linalg.stack_norm(product.coeffs - want.coeffs) <= 1e-12


@pytest.mark.parametrize("shape,seed", TOWERS)
def test_another_upper_step_breaks_the_factorization(shape, seed):
    # a second draw of the upper step gives a valid lifting of C that
    # verify passes, yet the product through the first draw misses it
    step1, step2, _ = tower(shape, seed)
    _, _, other = tower(shape, seed, draw=2)
    results = run_all_checks(other, 3)
    assert all_passed(results), render_report(results)
    product = intertwiner_matrix(step1, 4) @ intertwiner_matrix(step2, 4)
    assert linalg.operator_norm(product - intertwiner_matrix(other, 4)) > 0.1
