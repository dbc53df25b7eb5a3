import math
import sys
import warnings

import numpy as np
import pytest
from conftest import SWEEP_SHAPES

from ncscatter import lifting, linalg, rowtuple, serialize, verify
from ncscatter.lifting import (
    GammaUndefined,
    Infeasible,
    NotCoisometricC,
    NotCoisometricE,
    RankBand,
    RankClampBand,
    assemble,
    draw_corner,
    draw_coupling,
    generate,
    lifting_violations,
)
from ncscatter.linalg import operator_norm, random_isometry
from ncscatter.rowtuple import GramOverflow, OperatorTuple
from ncscatter.verify import all_passed, run_all_checks

RT2 = 1.0 / np.sqrt(2.0)

SWEEP = [
    (2, 1, 0, 0),
    (2, 1, 1, 1),
    (2, 2, 1, 2),
    (2, 2, 2, 3),
    (2, 3, 2, 4),
    (3, 1, 2, 5),
    (3, 2, 2, 6),
    (3, 2, 4, 7),
    (2, 3, 3, 8),
    (3, 3, 3, 9),
]


def recover_gamma(inst):
    """Solve gamma D* = B* again from the stored blocks, written out: B*
    against the two defect bases, times the inverse of D* on its range."""
    star, qc = inst.a.star_defect, inst.c.defect.basis
    restricted = star.basis.conj().T @ star.operator @ star.basis
    return qc.conj().T @ np.hstack(inst.b).conj().T @ star.basis @ linalg.pseudo_inverse(restricted)


def scaled_blocks(inst, block, f):
    """Fresh copies of the three blocks, ``block`` ("C", "A" or "B") scaled
    by ``f``: new tuples, so each ``assemble`` roots its own defects."""

    def copy(key, mats):
        return tuple(m * (f if key == block else 1.0) for m in mats)

    return OperatorTuple(copy("C", inst.c.ops)), OperatorTuple(copy("A", inst.a.ops)), copy("B", inst.b)


def upper_right_violation(ops, dim_c):
    """Largest norm of the H_A -> H_C corner, which a lifting must zero."""
    return max(operator_norm(op[:dim_c, dim_c:]) for op in ops)


class TestAssemble:
    def test_hand_instance_valid(self, hand_instance):
        inst = hand_instance
        assert inst.dim_e == 2
        assert inst.rank_c == 1
        assert inst.rank_e == 2
        assert inst.a.star_defect.rank == 1
        assert np.allclose(inst.gamma, [[1.0]], atol=1e-12)
        viols = lifting_violations(inst)
        assert max(viols.values()) < 1e-12

    def test_hand_instance_block_layout(self, hand_instance):
        e1 = hand_instance.e.ops[0]
        assert np.allclose(e1, [[RT2, 0.0], [RT2, 0.0]], atol=1e-15)
        e2 = hand_instance.e.ops[1]
        assert np.allclose(e2, [[RT2, 0.0], [-RT2, 0.0]], atol=1e-15)

    def test_no_corner_collapses_to_base(self, coiso_pair):
        a = OperatorTuple((np.zeros((0, 0)), np.zeros((0, 0))))
        b = (np.zeros((0, 1)), np.zeros((0, 1)))
        inst = assemble(coiso_pair, a, b)
        assert inst.dim_a == 0
        assert np.allclose(inst.e.row(), coiso_pair.row())
        assert inst.gamma.shape == (inst.rank_c, 0)

    def test_bad_coupling_rejected(self, coiso_pair):
        a = OperatorTuple((np.zeros((1, 1)), np.zeros((1, 1))))
        b = (np.array([[RT2]]), np.array([[RT2]]))  # sum C_j B_j* = 1, not 0
        with pytest.raises(NotCoisometricE) as exc:
            assemble(coiso_pair, a, b)
        assert str(exc.value) == "sum C_j B_j* has norm 1.000e+00, should vanish"

    def test_non_coisometric_base_rejected(self):
        c = OperatorTuple((np.array([[0.5]]), np.array([[0.5]])))
        a = OperatorTuple((np.zeros((0, 0)), np.zeros((0, 0))))
        b = (np.zeros((0, 1)), np.zeros((0, 1)))
        with pytest.raises(NotCoisometricC) as exc:
            assemble(c, a, b)
        assert str(exc.value) == "sum C_j C_j* - I has norm 5.000e-01"

    def test_base_identity_refused_before_the_lifted_one(self):
        # C x (1 + 1e-6) misses c_coisometry and, through its C block,
        # e_coisometry; the base identity is named
        inst = generate(2, 2, 1, seed=1)
        c = OperatorTuple(tuple(m * (1 + 1e-6) for m in inst.c.ops))
        failing = assemble(c, inst.a, inst.b, strict=False)
        viols = lifting_violations(failing)
        assert {k for k, v in viols.items() if v > linalg.TOL_EQ} == {
            "c_coisometry",
            "e_coisometry",
        }
        with pytest.raises(NotCoisometricC) as exc:
            assemble(c, inst.a, inst.b)
        assert str(exc.value) == "sum C_j C_j* - I has norm 2.000e-06"

    @pytest.mark.parametrize("block", ["C", "B", "A"])
    def test_overflow_refused_alike_in_both_modes(self, block):
        # entries large enough for a defect Gram to overflow (C* C or
        # E* E, or A A*) are refused by name before any decomposition,
        # strict or not, and without a numpy warning
        inst = generate(2, 2, 1, seed=1)
        gram = "I - T T*" if block == "A" else "I - T* T"
        want = (
            GramOverflow,
            f"{gram} has a non-finite entry: the entries are too large for double precision",
        )
        for strict in (True, False):
            blocks = scaled_blocks(inst, block, 1e200)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(GramOverflow) as exc:
                    assemble(*blocks, strict=strict)
            assert (type(exc.value), str(exc.value)) == want

    def test_lenient_mode_builds_invalid_instance(self, coiso_pair):
        a = OperatorTuple((np.zeros((1, 1)), np.zeros((1, 1))))
        b = (np.array([[RT2]]), np.array([[RT2]]))
        inst = assemble(coiso_pair, a, b, strict=False)
        viols = lifting_violations(inst)
        assert viols["cross_block"] > 0.9

    def test_shape_validation(self, coiso_pair):
        a = OperatorTuple((np.zeros((1, 1)), np.zeros((1, 1))))
        with pytest.raises(ValueError):
            assemble(coiso_pair, a, (np.zeros((2, 1)), np.zeros((2, 1))))
        with pytest.raises(ValueError):
            assemble(coiso_pair, a, (np.zeros((1, 1)),))


class TestGamma:
    def test_hand_extraction(self, hand_instance):
        g = recover_gamma(hand_instance)
        assert np.allclose(g, [[1.0]], atol=1e-12)

    def test_no_corner_empty(self, no_corner_instance):
        g = recover_gamma(no_corner_instance)
        assert g.shape == (no_corner_instance.rank_c, 0)

    def test_undefined_when_bstar_hits_kernel(self, coiso_pair):
        # 1 - A A* = 5e-11 lies below the rank cut, so D* = 0, while B with
        # B B* = 5e-11 keeps every block identity: all of B* leaks
        eps = 5e-11
        a = OperatorTuple((np.array([[np.sqrt((1 - eps) / 2)]]),) * 2)
        b = (np.array([[np.sqrt(eps / 2)]]), np.array([[-np.sqrt(eps / 2)]]))
        inst = assemble(coiso_pair, a, b, strict=False)
        assert inst.a.star_defect.rank == 0
        viols = lifting_violations(inst)
        assert viols["gamma_kernel"] == pytest.approx(np.sqrt(eps), rel=1e-6)
        assert max(viols[k] for k in ("c_coisometry", "cross_block", "complement_block")) < 1e-15
        leak = f"{viols['gamma_kernel']:.3e}"
        with pytest.raises(GammaUndefined) as exc:
            assemble(coiso_pair, a, b)
        assert str(exc.value) == f"B* does not vanish on ker D* (leak {leak} > 1.0e-08)"

    def test_roundtrip_matches_generating_draw(self):
        # draw_coupling draws gamma first from its stream; assemble and the
        # written-out solve both recover it from B alone
        base = generate(2, 2, 0, seed=13).c
        corner = draw_corner(2, 2, np.random.default_rng(13), 0.9)
        inst = assemble(base, corner, draw_coupling(base, corner, np.random.default_rng(14)))
        planted = random_isometry(inst.rank_c, inst.a.star_defect.rank, np.random.default_rng(14))
        assert operator_norm(inst.gamma - planted) < 1e-8
        assert operator_norm(recover_gamma(inst) - planted) < 1e-8


def in_rank_band(inst) -> bool:
    """Whether an eigenvalue of I - C* C or I - E* E lies in (TOL_RANK, TOL_EQ]."""
    spectra = np.concatenate([inst.c.defect.spectrum, inst.e.defect.spectrum])
    return bool(((spectra > linalg.TOL_RANK) & (spectra <= linalg.TOL_EQ)).any())


class TestStrictGate:
    """Strict ``assemble`` refuses exactly the blocks whose
    ``lifting_identities`` verdict fails or whose defect rank of C or E
    is decided inside the band, and builds what it accepts bit for bit
    as lenient mode does."""

    # 1 +- 2e-9, 1 - 2e-10 and 1 + 2e-11 keep C within TOL_EQ of
    # coisometry, 1 +- 1e-6 does not
    SCALES = (1 + 2e-9, 1 - 2e-9, 1 - 2e-10, 1 + 2e-11, 1 + 1e-6, 1 - 1e-6)

    @pytest.mark.parametrize("a_scale", [0.0, 0.9, 1.0])
    @pytest.mark.parametrize("shape", SWEEP_SHAPES)
    def test_accepts_exactly_what_the_identities_pass(self, shape, a_scale):
        accepted = 0
        for seed in range(3):
            inst = generate(*shape, seed=seed, a_scale=a_scale)
            cases = [("B", 1.0)] + [(k, f) for k in "CAB" for f in self.SCALES]
            for block, f in cases:
                lenient = assemble(*scaled_blocks(inst, block, f), strict=False)
                passes = max(lifting_violations(lenient).values()) <= linalg.TOL_EQ
                passes = passes and not in_rank_band(lenient)
                try:
                    strict = assemble(*scaled_blocks(inst, block, f))
                except ValueError as exc:
                    assert not passes, (seed, block, f, exc)
                    continue
                assert passes, (seed, block, f)
                accepted += 1
                # an accepted copy keeps the defect ranks of its exact draw
                assert (strict.rank_c, strict.rank_e) == (inst.rank_c, inst.rank_e)
                for x, y in (
                    (strict.c.defect.operator, lenient.c.defect.operator),
                    (strict.c.defect.basis, lenient.c.defect.basis),
                    (strict.e.defect.operator, lenient.e.defect.operator),
                    (strict.e.defect.basis, lenient.e.defect.basis),
                    (strict.a.star_defect.operator, lenient.a.star_defect.operator),
                    (strict.a.star_defect.basis, lenient.a.star_defect.basis),
                    (strict.gamma, lenient.gamma),
                ):
                    assert np.array_equal(x, y), (seed, block, f)
        # the unscaled draw and the 1 + 2e-11 copies always pass
        assert accepted >= 3 * 4

    def test_band_error_names_the_defect(self):
        inst = generate(2, 2, 1, seed=1)
        c = OperatorTuple(tuple(m * (1 - 2e-9) for m in inst.c.ops))
        with pytest.raises(RankBand) as got:
            assemble(c, inst.a, inst.b)
        assert str(got.value) == (
            "I - C* C has eigenvalue 4.000e-09 in the rank band (1e-10, 1e-08], "
            "so its defect rank is not decided"
        )
        # lenient mode builds it with the flipped ranks, for verify to report
        assert (assemble(c, inst.a, inst.b, strict=False).rank_c, inst.rank_c) == (4, 2)

    @pytest.mark.parametrize("a_scale", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("shape", SWEEP_SHAPES)
    def test_no_generated_instance_in_the_band(self, shape, a_scale):
        for seed in range(3):
            try:
                inst = generate(*shape, seed=seed, a_scale=a_scale)
            except Infeasible:
                continue
            assert not in_rank_band(inst)

    @pytest.mark.parametrize(
        "key,error",
        [("c_coisometry", NotCoisometricC), ("gamma_kernel", GammaUndefined),
         ("gamma_isometry", NotCoisometricE)],
    )
    def test_a_nan_identity_is_refused_and_fails_its_row(self, monkeypatch, key, error):
        # a NaN is the worst value: ``>`` skips it, and so does Python's
        # ``max`` unless it comes first
        inst = generate(2, 2, 1, seed=1)
        measured = lifting.lifting_violations

        def with_nan(instance):
            return {**measured(instance), key: math.nan}

        monkeypatch.setattr(lifting, "lifting_violations", with_nan)
        monkeypatch.setattr(verify, "lifting_violations", with_nan)
        with pytest.raises(error, match="nan"):
            assemble(inst.c, inst.a, inst.b)
        row = run_all_checks(inst, 1)[0]
        assert row.name == "lifting_identities" and not row.passed
        assert math.isnan(row.max_violation)


class TestGenerate:
    def test_no_corner_gives_base(self):
        inst = generate(2, 1, 0, seed=3)
        assert inst.dim_e == 1
        assert np.allclose(inst.e.row(), inst.c.row())

    def test_infeasible_dims(self):
        with pytest.raises(Infeasible):
            generate(2, 1, 3, seed=0, a_scale=0.0)

    def test_infeasible_d1(self):
        with pytest.raises(Infeasible):
            generate(1, 2, 1, seed=0)

    def test_deterministic(self):
        x = generate(2, 2, 2, seed=5)
        y = generate(2, 2, 2, seed=5)
        for j in range(2):
            assert np.array_equal(x.e.ops[j], y.e.ops[j])
        assert not np.allclose(x.c.ops[0], generate(2, 2, 2, seed=6).c.ops[0])

    def test_a_scale_respected(self):
        inst = generate(2, 2, 2, seed=9, a_scale=0.7)
        assert operator_norm(inst.a.row()) == pytest.approx(0.7, abs=1e-10)

    def test_zero_a_scale(self, zero_a_instance):
        assert operator_norm(zero_a_instance.a.row()) == 0.0
        assert zero_a_instance.a.star_defect.rank == zero_a_instance.dim_a

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate(2, 2, 2, seed=0, a_scale=1.5)
        with pytest.raises(ValueError):
            generate(2, 0, 0, seed=0)

    @pytest.mark.parametrize("d,dim_c,dim_a,seed", SWEEP)
    def test_sweep_all_invariants(self, d, dim_c, dim_a, seed):
        inst = generate(d, dim_c, dim_a, seed)
        assert max(lifting_violations(inst).values()) < 1e-8
        assert inst.rank_c == (d - 1) * dim_c
        assert inst.rank_e == (d - 1) * (dim_c + dim_a)


class TestRankClampBand:
    # 0 < 1 - a_scale**2 <= 1e-9: the star defect's rank cut would
    # discard true spectrum and the instance would fail verification
    @pytest.mark.parametrize("delta", [5e-11, 3e-11, 1e-11, 1e-12])
    def test_band_refused(self, delta):
        for seed in range(3):
            with pytest.raises(RankClampBand):
                generate(2, 2, 2, seed=seed, a_scale=1 - delta)
        with pytest.raises(RankClampBand):
            generate(3, 2, 1, seed=0, a_scale=1 - delta)

    @pytest.mark.parametrize("a_scale", [1 - 1e-9, 1.0])
    def test_band_edges_generate_and_verify(self, a_scale):
        for seed in range(3):
            inst = generate(2, 2, 2, seed=seed, a_scale=a_scale)
            assert all_passed(run_all_checks(inst, 3))

    def test_no_corner_has_no_band(self):
        inst = generate(2, 2, 0, seed=0, a_scale=1 - 1e-11)
        assert inst.dim_a == 0


class TestStarDefect:
    def test_projection_iff_coisometric_corner(self, plain_instance):
        # generic strict contraction: strictly between 0 and 1, not a projection
        ds = plain_instance.a.star_defect.operator
        assert operator_norm(ds @ ds - ds) > 1e-3

    def test_coisometric_corner_zero_star_defect(self, coiso_pair):
        # A coisometric forces B = 0 and D* = 0 (a projection)
        a = OperatorTuple((np.array([[RT2]]), np.array([[RT2]])))
        b = (np.zeros((1, 1)), np.zeros((1, 1)))
        inst = assemble(coiso_pair, a, b)
        ds = inst.a.star_defect.operator
        assert operator_norm(ds) == 0.0
        assert inst.a.star_defect.rank == 0
        assert operator_norm(ds @ ds - ds) == 0.0


class TestLiftingProperty:
    def test_assembled_instance_passes(self, plain_instance):
        inst, nc = plain_instance, plain_instance.dim_c
        worst = upper_right_violation(inst.e.ops, nc)
        for j, op in enumerate(inst.e.ops):
            worst = max(
                worst,
                operator_norm(op[:nc, :nc] - inst.c.ops[j]),
                operator_norm(op[nc:, :nc] - inst.b[j]),
                operator_norm(op[nc:, nc:] - inst.a.ops[j]),
            )
        assert worst < 1e-14

    def test_perturbed_block_fails(self, plain_instance):
        ops = []
        for op in plain_instance.e.ops:
            m = op.copy()
            m[0, -1] += 1e-3
            ops.append(m)
        bad = OperatorTuple(tuple(ops))
        assert upper_right_violation(bad.ops, plain_instance.dim_c) > 1e-4


class TestOneRootPerTuple:
    """Each tuple is rooted once: ``generate`` hands its own C and A to
    ``assemble``, so a draw roots C, A and E once each, as a load does."""

    @staticmethod
    def count_roots(monkeypatch) -> dict[str, int]:
        """Count ``rowtuple.defect`` and ``linalg.hermitian_sqrt`` calls made
        through any binding of them in the package."""
        counts = {}
        for module, name in ((rowtuple, "defect"), (linalg, "hermitian_sqrt")):
            original, counts[name] = getattr(module, name), 0

            def counted(*args, _original=original, _name=name):
                counts[_name] += 1
                return _original(*args)

            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("ncscatter") and vars(mod).get(name) is original:
                    monkeypatch.setattr(mod, name, counted)
        return counts

    def test_generate_then_load(self, monkeypatch):
        counts = self.count_roots(monkeypatch)
        inst = generate(2, 2, 1, seed=1)
        assert counts == {"defect": 2, "hermitian_sqrt": 3}
        obj = serialize.instance_to_json(inst)
        counts.update(defect=0, hermitian_sqrt=0)
        serialize.instance_from_json(obj)
        assert counts == {"defect": 2, "hermitian_sqrt": 3}
