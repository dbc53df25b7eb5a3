"""Full verification runs and their failure reporting."""

import dataclasses
import importlib
import importlib.util
import math
import sys
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from conftest import dense_letter, letter_product
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ncscatter import charfn, lifting, linalg, ncsystem, scattering, serialize, transfer, verify
from ncscatter.dilation import Dilation
from ncscatter.transfer import NCSeries
from ncscatter.words import level_start
from ncscatter.verify import CheckResult, all_passed, render_report, run_all_checks

EXPECTED_ORDER = [
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
    "multi_analyticity",
    "io_recursion",
    "charfn_coincidence",
    "charfn_restriction",
]
# the rows that read the transfer series, on an instance with a corner
THETA_ROWS = [
    "transfer_contraction",
    "multi_analyticity",
    "io_recursion",
    "charfn_coincidence",
    "charfn_restriction",
]


class TestRunAllChecks:
    def test_plain_instance_all_pass(self, plain_instance):
        results = run_all_checks(plain_instance, 3)
        assert all_passed(results)
        assert [r.name for r in results] == EXPECTED_ORDER

    def test_hand_instance_all_pass(self, hand_instance):
        assert all_passed(run_all_checks(hand_instance, 3))

    def test_three_letters(self):
        inst = lifting.generate(3, 2, 1, seed=8)
        assert all_passed(run_all_checks(inst, 2))

    def test_no_corner_gains_norm_check(self, no_corner_instance):
        results = run_all_checks(no_corner_instance, 3)
        names = [r.name for r in results]
        assert "transfer_norm_one" in names
        assert names.index("transfer_norm_one") == names.index("transfer_contraction") + 1
        assert all_passed(results)

    def test_one_letter_without_corner_or_defect(self):
        # d = 1 makes C unitary, so the base defect and the transfer
        # series are zero and no norm-one claim applies
        for seed in range(3):
            inst = lifting.generate(1, 2, 0, seed=seed)
            assert inst.rank_c == 0
            results = run_all_checks(inst, 3)
            assert "transfer_norm_one" not in [r.name for r in results]
            assert all_passed(results)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 3),
        st.sampled_from([0.0, 0.5, 0.9, 1 - 1e-6, 1 - 1e-8, 1.0]),
        st.integers(0, 2**16),
        st.integers(1, 4),
    )
    def test_every_generated_instance_passes(self, d, dim_c, dim_a, a_scale, seed, depth):
        # what generate accepts, verify passes; the instances it refuses
        # with a named error are out of scope here
        try:
            inst = lifting.generate(d, dim_c, dim_a, seed=seed, a_scale=a_scale)
        except (lifting.Infeasible, lifting.RankClampBand):
            reject()
        results = run_all_checks(inst, min(depth, 3) if d == 3 else depth)
        assert all_passed(results), render_report(results)

    def test_a_nan_in_a_later_letter_pair_fails(self, monkeypatch):
        # the last cross Gram of the lifted letters reads NaN, after finite ones
        inst = lifting.generate(3, 2, 1, seed=1)
        ui, uj = inst.dilation_e.letters[1:]
        target, norm = ui.conj().T @ uj, verify.operator_norm

        def with_nan(m):
            return math.nan if m.shape == target.shape and np.array_equal(m, target) else norm(m)

        monkeypatch.setattr(verify, "operator_norm", with_nan)
        row = {r.name: r for r in run_all_checks(inst, 1)}["dilation_orthogonal_ranges"]
        assert math.isnan(row.max_violation) and not row.passed

    def test_depth_must_be_positive(self, plain_instance):
        with pytest.raises(ValueError):
            run_all_checks(plain_instance, 0)

    def test_doctored_instance_fails_and_reports(self, plain_instance):
        g = plain_instance.gamma + 0.3 * np.ones_like(plain_instance.gamma)
        broken = dataclasses.replace(plain_instance, gamma=g)
        results = run_all_checks(broken, 2)
        assert not all_passed(results)
        by_name = {r.name: r for r in results}
        assert not by_name["lifting_identities"].passed
        # the characteristic function refuses to factor; that surfaces
        # as an error, not a crash of the whole run
        assert by_name["charfn_coincidence"].error is not None
        assert math.isinf(by_name["charfn_coincidence"].max_violation)
        # the shared series build that raised is kept as its error, so the
        # restriction check reports the same factorisation error
        restriction = by_name["charfn_restriction"]
        assert restriction.error == by_name["charfn_coincidence"].error
        assert "symbol leaks" in restriction.error
        # identities not involving gamma still hold
        assert by_name["dilation_isometry"].passed
        assert by_name["io_recursion"].passed


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 1), (1, 2, 0)])
@pytest.mark.parametrize("a_scale", [0.0, 0.9])
def test_dilation_rows_are_the_dense_residuals_at_every_depth(shape, a_scale):
    # the rows read the stage block alone; the dense letters at each
    # depth give the same residual norms, as their other lines are zero
    inst = lifting.generate(*shape, seed=1, a_scale=a_scale)
    for depth in range(4):
        iso, ortho, row = [], [0.0], []
        for dil in (inst.dilation_c, inst.dilation_e):
            letters = [dense_letter(dil, j, depth) for j in range(1, dil.d + 1)]
            iso += [linalg.operator_norm(v.conj().T @ v - np.eye(v.shape[1])) for v in letters]
            ortho += [linalg.operator_norm(a.conj().T @ b) for a, b in combinations(letters, 2)]
            v = np.hstack(letters)
            row.append(linalg.operator_norm(np.eye(v.shape[0]) - v @ v.conj().T))
        assert verify._dilation_isometry(inst) == pytest.approx(max(iso), abs=1e-15)
        assert verify._dilation_orthogonal_ranges(inst) == pytest.approx(max(ortho), abs=1e-15)
        assert verify._dilation_row_unitary(inst) == pytest.approx(max(row), abs=1e-15)


def count_calls(monkeypatch, targets):
    counts = {}
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        counts[name] = 0
        monkeypatch.setattr(module, name, counted)
    return counts


class TestSharedBuilds:
    def test_each_object_built_once(self, monkeypatch, plain_instance):
        counts = count_calls(
            monkeypatch,
            [
                (verify, "intertwiner_matrix"),
                (verify, "build_colligation"),
                (transfer, "transfer_series"),
                (charfn, "charfn_series"),
                (charfn, "restriction_probes"),
                (scattering, "star_wandering_frame"),
                (transfer, "random_series"),
                (transfer, "series_multiply"),
            ],
        )
        assert all_passed(run_all_checks(plain_instance, 3))
        # W at depth and at depth - 1, shared by the intertwining and
        # stabilization rows; charfn_restriction runs its probe columns
        # through the stage pipeline instead of a third build; the second
        # star frame is the shallower one behind the translates; one
        # signal and one theta * s, shared by the io, restriction and
        # multi-analyticity rows, and one theta * (shifted s) per letter
        assert plain_instance.d == 2
        assert counts == {
            "intertwiner_matrix": 2,
            "build_colligation": 1,
            "transfer_series": 1,
            "charfn_series": 1,
            "restriction_probes": 1,
            "star_wandering_frame": 2,
            "random_series": 1,
            "series_multiply": 3,
        }

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 1)])
    def test_each_dilation_letter_built_once(self, monkeypatch, shape):
        # the row [V_1 ... V_d] of the base and of the lifted dilation, one
        # split each, whose letters the intertwining row reads; the
        # dilation rows read the stage block and the complement the
        # corner block instead of a third build
        counts = count_calls(monkeypatch, [(Dilation, "matrix")])
        inst = lifting.generate(*shape, seed=1)
        assert all_passed(run_all_checks(inst, 3))
        assert counts == {"matrix": 2}

    def test_both_norm_rows_share_one_toeplitz_norm(
        self, monkeypatch, no_corner_instance
    ):
        counts = count_calls(monkeypatch, [(transfer, "transfer_norm")])
        results = run_all_checks(no_corner_instance, 3)
        assert {"transfer_contraction", "transfer_norm_one"} <= {r.name for r in results}
        assert all_passed(results)
        assert counts == {"transfer_norm": 1}

    @pytest.mark.parametrize(
        "module,name,calls,rows",
        [
            (verify, "intertwiner_matrix", 1, ["intertwining", "intertwiner_coisometry",
                                               "base_subspace_fixed", "intertwiner_stabilization"]),
            (verify, "build_colligation", 1, ["colligation_structure", *THETA_ROWS]),
            (transfer, "transfer_series", 1, THETA_ROWS),
            (charfn, "charfn_series", 1, ["charfn_coincidence", "charfn_restriction"]),
            # the second call is the shallower frame behind the translates
            (scattering, "star_wandering_frame", 2, ["star_frame_base_leak",
                                                     "wandering_orthogonality",
                                                     "complement_dimension_angles"]),
        ],
    )
    def test_a_build_that_raises_is_made_once(self, monkeypatch, module, name, calls, rows):
        # a build that raises is kept as its error: every row that reads it,
        # or reads a build made from it, fails with its text, and none retries it
        counts = {name: 0}

        def raising(*args):
            counts[name] += 1
            raise MemoryError(f"Unable to allocate in {name}")

        monkeypatch.setattr(module, name, raising)
        results = run_all_checks(lifting.generate(2, 2, 2, seed=1), 3)
        assert counts == {name: calls}
        failed = [(r.name, r.error) for r in results if not r.passed]
        assert failed == [(row, f"Unable to allocate in {name}") for row in rows]

    def test_intertwiners_freed_before_the_star_frame(self, monkeypatch, plain_instance):
        # W_N and W_{N-1} are dropped after intertwiner_stabilization, their
        # last reader, so neither is held while a star frame is built
        refs, held = [], []
        build, frame = verify.intertwiner_matrix, scattering.star_wandering_frame

        def tracked(*args):
            w = build(*args)
            refs.append(weakref.ref(w))
            return w

        def counted_frame(*args):
            held.append(sum(ref() is not None for ref in refs))
            return frame(*args)

        monkeypatch.setattr(verify, "intertwiner_matrix", tracked)
        monkeypatch.setattr(scattering, "star_wandering_frame", counted_frame)
        assert all_passed(run_all_checks(plain_instance, 3))
        assert len(refs) == 2 and held == [0, 0]


class TestMutations:
    """A seeded defect in what a check measures, 1e-6 where it is a
    number, must show; every row of the report has one here or in
    ``test_doctored_instance_fails_and_reports``."""

    def failing(self, instance, depth=3):
        results = run_all_checks(instance, depth)
        # a mutation that makes a row raise shows nothing about the check
        assert [r.name for r in results if r.error is not None] == []
        return {r.name for r in results if not r.passed}

    @staticmethod
    def patch_rows(monkeypatch, edit):
        """Every dilation row table, edited in place by ``edit(table)``."""
        original = Dilation.matrix

        def perturbed(self, depth):
            table = original(self, depth)
            edit(table)
            return table

        monkeypatch.setattr(Dilation, "matrix", perturbed)

    def test_fock_entry_of_dilation_matrix(self, plain_instance):
        # V_1's first base column on the first vacuum row, of (D)_1, in the
        # stage block of both dilations.  The letters are views of the stage
        # block, but the cached adjoint is a copy: the edit comes before the
        # first read of ``stage_adjoint``, so every row sees it.  The stage
        # block is the one store of (D_C)_1, so the characteristic function
        # reads the edit too: its symbol then leaks onto ker D_E, and both
        # of its rows report that refusal
        for dil in (plain_instance.dilation_c, plain_instance.dilation_e):
            dil.stage[dil.t.dim, 0] += 1e-6
        results = run_all_checks(plain_instance, 3)
        assert {
            "dilation_isometry",
            "dilation_orthogonal_ranges",
            "dilation_row_unitary",
        } <= {r.name for r in results if not r.passed}
        errors = {r.name: r.error for r in results if r.error is not None}
        assert errors.keys() == {"charfn_coincidence", "charfn_restriction"}
        assert all(e.startswith("symbol leaks onto ker of the lifted defect") for e in errors.values())
        for dil in (plain_instance.dilation_c, plain_instance.dilation_e):
            assert np.array_equal(dil.stage_adjoint, dil.stage.conj().T)

    def test_traded_unit_rows_of_two_letters(self, monkeypatch, plain_instance):
        def edit(table):
            # the first unit columns of V_1 and V_2 trade rows: the row
            # stays a row isometry, and only the intertwining sees it
            table[:2, 0] = table[1::-1, 0]

        self.patch_rows(monkeypatch, edit)
        assert self.failing(plain_instance) == {"intertwining"}

    def test_shared_row_of_one_dilation_matrix(self, monkeypatch, plain_instance):
        def edit(table):
            # the first unit column of V_1 lands in the row of V_2's first
            table[0, 0] = table[1, 0]

        # the stage block is untouched, so the dilation rows rightly pass
        self.patch_rows(monkeypatch, edit)
        assert self.failing(plain_instance) == {"intertwining"}

    def test_one_entry_of_the_shallow_intertwiner(self, monkeypatch, plain_instance):
        original = verify.intertwiner_matrix

        def perturbed(instance, depth):
            w = original(instance, depth)
            if depth == 2:
                # W at depth - 1 is read by the intertwining and
                # stabilization rows only
                w[-1, -1] += 1e-6
            return w

        monkeypatch.setattr(verify, "intertwiner_matrix", perturbed)
        assert self.failing(plain_instance) == {"intertwining", "intertwiner_stabilization"}

    def test_deep_intertwiner_inside_the_shallow_block(self, monkeypatch, plain_instance):
        original = verify.intertwiner_matrix

        def perturbed(instance, depth):
            w = original(instance, depth)
            if depth == 3:
                # the last entry of the block that the depth-2 truncation shares
                rows, cols = instance.dilation_c.space(2).dim, instance.dilation_e.space(2).dim
                w[rows - 1, cols - 1] += 1e-6
            return w

        monkeypatch.setattr(verify, "intertwiner_matrix", perturbed)
        assert "intertwiner_stabilization" in self.failing(plain_instance)

    def test_one_entry_of_the_deep_intertwiner(self, monkeypatch, plain_instance):
        original = verify.intertwiner_matrix

        def perturbed(instance, depth):
            w = original(instance, depth)
            if depth == 3:
                # outside the base columns and the depth-2 block
                w[-1, -1] += 1e-6
            return w

        monkeypatch.setattr(verify, "intertwiner_matrix", perturbed)
        assert self.failing(plain_instance) == {"intertwining", "intertwiner_coisometry"}

    def test_deep_intertwiner_entry_in_a_folded_row(self, monkeypatch, plain_instance):
        # the star residual W_N* V_1 - V_1 W_{N-1}* has most of its rows on
        # the two base columns, and those rows are folded; W_N[i, col]
        # adds to row ``col`` of the residual outside those columns
        depth = 3
        dil = plain_instance.dilation_c
        u, units = dil.letters[0], dil.matrix(depth - 1)[0]
        flat = verify.intertwiner_matrix(plain_instance, depth - 1)
        w = verify.intertwiner_matrix(plain_instance, depth)
        i, col = units[-1], w.shape[1] - 1
        lifted = plain_instance.dilation_e.apply(1, flat.conj().T, depth - 1)
        support = (lifted - letter_product(w.conj().T, u, units)) != 0
        shared = (support == support[col]).all(axis=1)
        assert shared.sum() > support[col].sum() == plain_instance.dim_c
        assert not support[col, -1]
        w[i, col] += 1e-6
        # the star direction on its own sees the entry through the fold
        (_, star), _ = verify._intertwining_norms(plain_instance, depth, w, flat)
        assert star > 5e-7

        original = verify.intertwiner_matrix

        def perturbed(instance, n):
            m = original(instance, n)
            if n == depth:
                m[i, col] += 1e-6
            return m

        monkeypatch.setattr(verify, "intertwiner_matrix", perturbed)
        assert "intertwining" in self.failing(plain_instance, depth)

    def test_scaled_transfer_series(self, monkeypatch, no_corner_instance):
        # without a corner the Toeplitz norm is 1, so the scale shows
        original = transfer.transfer_series

        def scaled(*args):
            theta = original(*args)
            return NCSeries(theta.d, theta.depth, theta.coeffs * (1 + 1e-6))

        monkeypatch.setattr(transfer, "transfer_series", scaled)
        assert "transfer_contraction" in self.failing(no_corner_instance)

    @staticmethod
    def bump_translates(monkeypatch, instance, side, entry):
        """The instance's cached dilation of ``side`` ("c" or "e"), with 1e-6
        added to ``entry`` of the last level of every translates call."""

        class Bumped(Dilation):
            def translates(self, x, depth, length):
                levels = super().translates(x, depth, length)
                levels[-1][entry] += 1e-6
                return levels

        bumped = Bumped(getattr(instance, side))
        monkeypatch.setitem(instance.__dict__, f"dilation_{side}", bumped)

    def test_one_translate_entry(self, monkeypatch, plain_instance):
        self.bump_translates(monkeypatch, plain_instance, "e", (-1, -1))
        assert "shift_decomposition" in self.failing(plain_instance)

    def test_corner_row_of_the_star_frame(self, monkeypatch, plain_instance):
        # the complement holds the corner rows; the translates read the
        # shallower frame, and the base leak only the base rows
        original = scattering.star_wandering_frame

        def perturbed(instance, depth):
            frame = original(instance, depth)
            if depth == 3:
                frame[instance.dim_c] += 1e-6
            return frame

        monkeypatch.setattr(scattering, "star_wandering_frame", perturbed)
        assert self.failing(plain_instance) == {"complement_dimension_angles"}

    def test_equal_columns_of_the_corner_block(self, monkeypatch, plain_instance):
        # only the complement reads the corner block c of the letters:
        # with two equal columns its range loses a dimension
        class Doubled:
            def __getattr__(self, name):
                return getattr(linalg, name)

            @staticmethod
            def complement_onb(c):
                c = c.copy()
                c[:, -1] = c[:, 0]
                return linalg.complement_onb(c)

        monkeypatch.setattr(scattering, "linalg", Doubled())
        assert self.failing(plain_instance) == {"complement_dimension_angles"}

    @pytest.mark.parametrize("column", [0, -1])
    def test_one_restriction_probe(self, monkeypatch, plain_instance, column):
        # column 0 is a vacuum column, the last one the loaded signal
        original = charfn.apply_intertwiner

        def perturbed(*args):
            out = original(*args)
            out[-1, column] += 1e-6
            return out

        monkeypatch.setattr(charfn, "apply_intertwiner", perturbed)
        assert self.failing(plain_instance) == {"charfn_restriction"}

    def test_one_translate_frame(self, monkeypatch, plain_instance):
        original = scattering.shifted_star_frames

        def perturbed(*args):
            frames = original(*args)
            # the frame of word (2, 1), at graded-lex position 5
            r = plain_instance.rank_c
            frame = frames[:, 5 * r : 6 * r]
            frame[np.unravel_index(np.argmax(np.abs(frame)), frame.shape)] += 1e-6
            return frames

        monkeypatch.setattr(scattering, "shifted_star_frames", perturbed)
        assert "wandering_orthogonality" in self.failing(plain_instance)

    def test_one_head_entry_of_a_translate(self, monkeypatch, plain_instance):
        # the compression reads the base-space rows of the translates,
        # and only it translates through the base dilation
        self.bump_translates(monkeypatch, plain_instance, "c", (0, -1))
        assert self.failing(plain_instance) == {"dilation_compression"}

    def test_first_entry_of_the_deep_intertwiner(self, monkeypatch, plain_instance):
        original = verify.intertwiner_matrix

        def perturbed(instance, depth):
            w = original(instance, depth)
            if depth == 3:
                w[0, 0] += 1e-6
            return w

        monkeypatch.setattr(verify, "intertwiner_matrix", perturbed)
        assert "base_subspace_fixed" in self.failing(plain_instance)

    def test_base_row_of_the_star_frame(self, monkeypatch, plain_instance):
        original = scattering.star_wandering_frame

        def perturbed(instance, depth):
            frame = original(instance, depth)
            frame[0] += 1e-6
            return frame

        monkeypatch.setattr(scattering, "star_wandering_frame", perturbed)
        assert "star_frame_base_leak" in self.failing(plain_instance)

    def test_scaled_feedthrough(self, monkeypatch, plain_instance):
        original = verify.build_colligation

        def perturbed(instance):
            coll = original(instance)
            return dataclasses.replace(coll, feedthrough=coll.feedthrough * (1 + 1e-6))

        monkeypatch.setattr(verify, "build_colligation", perturbed)
        assert "colligation_structure" in self.failing(plain_instance)

    def test_transfer_series_scaled_down(self, monkeypatch, no_corner_instance):
        # without a corner the Toeplitz norm is exactly 1, so a shrink shows
        original = transfer.transfer_series

        def scaled(*args):
            theta = original(*args)
            return NCSeries(theta.d, theta.depth, theta.coeffs * (1 - 1e-6))

        monkeypatch.setattr(transfer, "transfer_series", scaled)
        assert "transfer_norm_one" in self.failing(no_corner_instance)

    def test_right_translate_prepends(self, monkeypatch, plain_instance):
        # convolution commutes with appending a letter, not with prepending it
        def prepended(series, letter):
            d, depth = series.d, series.depth + 1
            out = np.zeros((level_start(d, depth + 1),) + series.coeffs.shape[1:], complex)
            for m in range(depth):
                start = level_start(d, m + 1) + (letter - 1) * d**m
                out[start : start + d**m] = series.level(m)
            return NCSeries(d, depth, out)

        monkeypatch.setattr(transfer, "right_translate", prepended)
        assert self.failing(plain_instance) == {"multi_analyticity"}

    def test_one_output_of_the_recursion(self, monkeypatch, plain_instance):
        original = ncsystem.simulate

        def perturbed(*args):
            traj = original(*args)
            traj.y.coeffs[-1, 0, 0] += 1e-6
            return traj

        monkeypatch.setattr(ncsystem, "simulate", perturbed)
        assert self.failing(plain_instance) == {"io_recursion"}


class TestRendering:
    def test_report_lines(self, hand_instance):
        results = run_all_checks(hand_instance, 2)
        text = render_report(results)
        lines = text.strip().split("\n")
        assert len(lines) == len(results) + 1
        assert lines[-1] == "ALL CHECKS PASS"
        assert all(line.startswith("pass") for line in lines[:-1])

    def test_failure_line(self):
        bad = CheckResult.failure("thing", 1e-8, "boom")
        assert "FAIL" in bad.line() and "boom" in bad.line()
        good = CheckResult.measure("thing", 1e-12, 1e-8)
        assert good.line().startswith("pass")

    def test_measured_line_states_the_comparison(self):
        # a failing row reads "violation > threshold", a passing one "<="
        bad = CheckResult.measure("thing", 3.355e-9, 1e-12)
        assert bad.line().split() == ["FAIL", "thing", "3.355e-09", ">", "1.0e-12"]
        good = CheckResult.measure("thing", 1e-12, 1e-12)
        assert good.line().split() == ["pass", "thing", "1.000e-12", "<=", "1.0e-12"]

    def test_report_json_with_error(self):
        rows = serialize.report_to_json(
            [
                CheckResult.measure("fine", 0.0, 1e-8),
                CheckResult.failure("broken", 1e-8, "exploded"),
            ]
        )["checks"]
        assert rows[0] == {
            "check": "fine",
            "maxViolation": 0.0,
            "threshold": 1e-8,
            "pass": True,
        }
        assert rows[1]["maxViolation"] is None
        assert rows[1]["error"] == "exploded"
        assert rows[1]["pass"] is False
        serialize.dump_text(serialize.report_to_json([CheckResult.failure("x", 1, "y")]))


def load_bench(name):
    """A module of the benchmark, loaded from its file without installing it."""
    path = Path(__file__).resolve().parents[1] / "ncbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"ncbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # registered first: its dataclasses look their module up while being built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestBenchmarkNames:
    # the benchmark traces package functions and check rows by name, so
    # a rename here would only show up in its own smoke runs

    def test_traced_layers_resolve(self):
        for module, attr, _, _ in load_bench("tracing").LAYERS:
            owner = importlib.import_module(f"ncscatter.{module}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{module}.{attr}"

    @staticmethod
    def traced_op(tmp_path, workload):
        """The tracer of one op of ``workload`` at depth 2, on a (2,2,2) seed-5
        input (the verify-sweep op generates its own, of shape (2,2,1))."""
        tracing, workloads = load_bench("tracing"), load_bench("workloads")
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        code, text = workloads.run_cli(workloads._generate(2, 2, 2, 5, inputs / "inst-0.json"))
        assert code == 0, text
        (op,) = workloads.make_ops(workload, [5], 2, inputs, tmp_path)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = workloads.run_op(op, tracer)
        finally:
            tracer.uninstall()
        assert run.error is None and set(run.codes) == {0}, run.output
        return tracer

    def test_traced_verify_op_calls_every_deep_layer(self, tmp_path):
        # the tracer wraps the layers by name, whatever their signatures;
        # a traced verify-deep op must call each layer mapped to it, and
        # build each dilation's row once
        tracer = self.traced_op(tmp_path, "verify-deep")
        assert tracer.unmapped("verify-deep") == []
        assert tracer.calls()["dilation.Dilation.matrix"] == 2

    @pytest.mark.parametrize("workload", ["verify-sweep", "export-deep"])
    def test_traced_op_calls_every_mapped_layer(self, tmp_path, workload):
        # a layer of the map that an op never calls makes its run report
        # correct: false, as a renamed or bypassed stage would
        assert self.traced_op(tmp_path, workload).unmapped(workload) == []

    def test_check_names_in_order(self, no_corner_instance):
        names = [r.name for r in run_all_checks(no_corner_instance, 2)]
        assert names == list(load_bench("tracing").CHECK_NAMES)

    def test_export_op_passes_its_check(self, tmp_path):
        # the export check reloads the files and reads series.coeffs,
        # series.coeff(w), traj.u[w] and traj.y[w]
        workloads = load_bench("workloads")
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        code, text = workloads.run_cli(workloads._generate(2, 2, 2, 5, inputs / "inst-0.json"))
        assert code == 0, text
        (op,) = workloads.make_ops("export-deep", [5], 2, inputs, tmp_path)
        run = workloads.run_op(op)
        outcome = workloads.check(run, 7)
        assert run.codes == [0, 0, 0]
        assert outcome.passed, outcome.failures
