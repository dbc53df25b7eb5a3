import numpy as np
import pytest

from ncscatter.lifting import generate
from ncscatter.ncsystem import Trajectory, io_violation, simulate
from ncscatter.transfer import (
    DimMismatch,
    NCSeries,
    build_colligation,
    random_series,
    series_multiply,
    transfer_coefficient,
    transfer_series,
)
from ncscatter.words import level_start

SWEEP = [
    generate(2, 2, 2, seed=42),
    generate(2, 1, 1, seed=3),
    generate(3, 2, 1, seed=8),
    generate(2, 2, 0, seed=7),
]


def impulse(coll, word, coord, depth):
    coeffs = np.zeros((level_start(coll.d, depth + 1), coll.in_dim, 1), dtype=np.complex128)
    signal = NCSeries(coll.d, depth, coeffs)
    signal.coeff(word)[coord, 0] = 1.0
    return signal


class TestSimulate:
    def test_initial_state_is_zero(self, plain_instance):
        coll = build_colligation(plain_instance)
        traj = simulate(coll, random_series(coll.in_dim, 1, coll.d, 2, seed=0))
        assert not traj.x[()].any()

    def test_state_recursion_level_one(self, plain_instance):
        coll = build_colligation(plain_instance)
        sig = random_series(coll.in_dim, 1, coll.d, 1, seed=1)
        traj = simulate(coll, sig)
        for j in (1, 2):
            want = coll.input_ops[j - 1] @ sig.coeff(())
            assert np.allclose(traj.x[(j,)], want, atol=1e-14)

    def test_output_rows(self, plain_instance):
        coll = build_colligation(plain_instance)
        sig = random_series(coll.in_dim, 1, coll.d, 1, seed=2)
        traj = simulate(coll, sig)
        for w in traj.y:
            want = coll.output_map @ traj.x[w] + coll.feedthrough @ sig.coeff(w)
            assert np.allclose(traj.y[w], want, atol=1e-14)

    def test_signal_width_checked(self, plain_instance):
        coll = build_colligation(plain_instance)
        with pytest.raises(DimMismatch):
            simulate(coll, random_series(coll.in_dim, 2, coll.d, 1, seed=3))

    def test_signal_dim_checked(self, plain_instance):
        coll = build_colligation(plain_instance)
        with pytest.raises(DimMismatch):
            simulate(coll, random_series(coll.in_dim + 1, 1, coll.d, 1, seed=4))
        with pytest.raises(DimMismatch):
            simulate(coll, random_series(coll.in_dim, 1, coll.d + 1, 1, seed=4))

    def test_depth_bound(self, plain_instance):
        coll = build_colligation(plain_instance)
        sig = random_series(coll.in_dim, 1, coll.d, 1, seed=5)
        with pytest.raises(DimMismatch):
            simulate(coll, sig, depth=2)

    def test_negative_depth_is_refused_before_slicing(self, plain_instance):
        # level_start(2, -1) is -1.0, a float, which no slice takes
        coll = build_colligation(plain_instance)
        sig = random_series(coll.in_dim, 1, coll.d, 1, seed=5)
        with pytest.raises(DimMismatch, match="no words over 2 letters up to depth -2"):
            simulate(coll, sig, depth=-2)


class TestImpulseResponse:
    def test_matches_transfer_coefficients(self, plain_instance):
        # an impulse at word b makes y(a.b) read off the coefficient
        # at a, with every other word silent
        coll = build_colligation(plain_instance)
        b = (2, 1)
        for coord in range(coll.in_dim):
            traj = simulate(coll, impulse(coll, b, coord, 3))
            for g, val in traj.y.items():
                k = len(g) - len(b)
                if k >= 0 and g[k:] == b:
                    want = transfer_coefficient(coll, g[:k])[:, [coord]]
                else:
                    want = np.zeros((coll.out_dim, 1))
                assert np.allclose(val, want, atol=1e-12)

    def test_vacuum_impulse_gives_whole_series(self, plain_instance):
        coll = build_colligation(plain_instance)
        for coord in range(coll.in_dim):
            traj = simulate(coll, impulse(coll, (), coord, 2))
            for g, val in traj.y.items():
                want = transfer_coefficient(coll, g)[:, [coord]]
                assert np.allclose(val, want, atol=1e-12)


class TestLinearity:
    def test_superposition(self, plain_instance):
        coll = build_colligation(plain_instance)
        s1 = random_series(coll.in_dim, 1, coll.d, 2, seed=7)
        s2 = random_series(coll.in_dim, 1, coll.d, 2, seed=8)
        lam = 0.5 - 2.0j
        mixed = NCSeries(coll.d, 2, s1.coeffs + lam * s2.coeffs)
        ya = simulate(coll, s1).y
        yb = simulate(coll, s2).y
        ym = simulate(coll, mixed).y
        for w in ym:
            assert np.allclose(ym[w], ya[w] + lam * yb[w], atol=1e-12)


def convolved(coll, sig, depth):
    """``sig`` convolved by the transfer series of depth ``depth``."""
    return series_multiply(transfer_series(coll, depth), sig)


class TestIOAgainstConvolution:
    def test_across_sweep(self):
        for k, inst in enumerate(SWEEP):
            coll = build_colligation(inst)
            sig = random_series(coll.in_dim, 1, coll.d, 2, seed=20 + k)
            assert io_violation(coll, sig, convolved(coll, sig, 2)) < 1e-10

    def test_deeper(self, plain_instance):
        coll = build_colligation(plain_instance)
        sig = random_series(coll.in_dim, 1, coll.d, 4, seed=30)
        assert io_violation(coll, sig, convolved(coll, sig, 4)) < 1e-10

    def test_refuses_a_shallower_transfer_series(self, plain_instance):
        # the convolution stops at the shallower depth, that of the series
        coll = build_colligation(plain_instance)
        sig = random_series(coll.in_dim, 1, coll.d, 3, seed=32)
        with pytest.raises(DimMismatch, match="depth 2 for a signal of depth 3"):
            io_violation(coll, sig, convolved(coll, sig, 2))
        assert io_violation(coll, sig, convolved(coll, sig, 4)) < 1e-10
        deeper = random_series(coll.in_dim, 1, coll.d, 4, seed=32)
        with pytest.raises(DimMismatch, match="depth 4 for a signal of depth 3"):
            io_violation(coll, sig, convolved(coll, deeper, 4))

    def test_trajectory_type(self, plain_instance):
        coll = build_colligation(plain_instance)
        sig = random_series(coll.in_dim, 1, coll.d, 1, seed=31)
        assert isinstance(simulate(coll, sig), Trajectory)
