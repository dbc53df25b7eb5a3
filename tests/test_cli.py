"""Command line behavior: subcommands, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

import ncscatter
from ncscatter import serialize
from ncscatter.cli import build_parser, main
from conftest import SWEEP_SHAPES
from test_serialize import json_oracle, oracle_entries, oracle_matrix


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


@pytest.fixture()
def inst_file(tmp_path):
    path = tmp_path / "inst.json"
    assert main(["generate", "--d", "2", "--dim-c", "2", "--dim-a", "1",
                 "--seed", "5", "-o", str(path)]) == 0
    return path


class TestGenerate:
    def test_writes_valid_instance(self, inst_file):
        inst = serialize.instance_from_json(serialize.load(inst_file))
        assert inst.d == 2 and inst.dim_c == 2 and inst.dim_a == 1
        assert inst.seed == 5

    def test_stdout_and_determinism(self, capsys, tmp_path):
        argv = ["generate", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert first.endswith("\n")
        json.loads(first)

    def test_rank_clamp_band_is_usage_error(self, capsys):
        argv = ["generate", "--dim-a", "2", "--a-scale", "0.99999999999"]
        assert main(argv) == 2
        assert "rank-clamp band" in capsys.readouterr().err

    def test_different_seeds_differ(self, capsys):
        main(["generate", "--seed", "1"])
        one = capsys.readouterr().out
        main(["generate", "--seed", "2"])
        assert capsys.readouterr().out != one


class TestVerify:
    def test_passes_on_generated(self, inst_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["verify", "--input", str(inst_file), "--depth", "2",
                     "--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ALL CHECKS PASS" in out
        assert out.count("\n") >= 18
        obj = serialize.load(report)
        assert obj["schemaVersion"] == 1
        assert all(row["pass"] for row in obj["checks"])
        names = [row["check"] for row in obj["checks"]]
        assert names[0] == "lifting_identities"

    def test_fails_on_doctored_instance(self, inst_file, tmp_path, capsys):
        obj = serialize.load(inst_file)
        obj["C"][0]["data"][0][0] *= 1.7
        bad = tmp_path / "bad.json"
        serialize.save(bad, obj)
        code = main(["verify", "--input", str(bad), "--depth", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "CHECKS FAILED" in out
        assert "FAIL" in out

    @pytest.mark.parametrize("depth", [3, 4])
    def test_overflow_fails_rows_without_warnings(self, tmp_path, capsys, depth):
        # 2**64 in C keeps C C* finite (3.4e38), so the instance loads and
        # W W* - I overflows; the rows fail and nothing reaches stderr
        path = tmp_path / "big.json"
        assert main(["generate", "--d", "2", "--dim-c", "2", "--dim-a", "1",
                     "--seed", "1", "-o", str(path)]) == 0
        obj = serialize.load(path)
        obj["C"][0]["data"][0] = [2**64, 0]
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify", "--input", str(path), "--depth", str(depth)])
        captured = capsys.readouterr()
        assert code == 1 and caught == [] and captured.err == ""
        lines = captured.out.splitlines()
        assert sum(line.startswith("FAIL") for line in lines) == 17
        assert lines[-1] == "CHECKS FAILED"

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["verify", "--input", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["verify", "--input", str(path)]) == 2

    def test_negative_seed_is_usage_error(self, inst_file, tmp_path, capsys):
        # generate and simulate refuse the seed alike; no check runs
        report = tmp_path / "report.json"
        code = main(["verify", "--input", str(inst_file), "--seed", "-1",
                     "--report", str(report)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: verification needs seed >= 0\n"
        assert not report.exists()


class TestUnreadableFiles:
    # a number no float holds and a nesting json cannot descend are usage
    # errors, with one error line, wherever a command reads them

    @pytest.mark.parametrize("kind", ["huge integer", "deep nesting"])
    @pytest.mark.parametrize("cmd", ["verify", "transfer", "charfn", "simulate", "signal"])
    def test_exit_two_with_one_error_line(self, inst_file, tmp_path, capsys, kind, cmd):
        from ncscatter.transfer import random_series

        bad = tmp_path / "bad.json"
        if cmd == "signal":
            inst = serialize.instance_from_json(serialize.load(inst_file))
            tree = serialize.series_to_json(random_series(inst.rank_e, 1, 2, 2, seed=1))
            obj, where = serialize.load_text(serialize.dump_text(tree)), "series.coeffs[0]"
            entries = obj["coeffs"][0]["matrix"]["data"]
            argv = ["simulate", "--input", str(inst_file), "--signal", str(bad)]
        else:
            obj, where = serialize.load(inst_file), "instance.C[0]"
            entries = obj["C"][0]["data"]
            argv = [cmd, "--input", str(bad)]
        entries[0] = [10**400, 0.0]
        bad.write_text(json.dumps(obj) if kind == "huge integer" else "[" * 100000 + "]" * 100000)
        assert main(argv + ["--depth", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        if kind == "huge integer":
            assert lines == [f"error: {where}: entry 0 is not finite"]
        else:
            assert len(lines) == 1 and lines[0].startswith("error: invalid JSON: ")

    def test_integer_that_fits_loads(self, inst_file, tmp_path, capsys):
        # 2**64 loads as 1.8446744073709552e19, so strict assembly sees it
        obj = serialize.load(inst_file)
        obj["C"][0]["data"][0] = [2**64, 0]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj))
        assert main(["transfer", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: sum C_j C_j* - I has norm 3.403e+38")


class TestExports:
    def test_transfer_series(self, inst_file, tmp_path):
        out = tmp_path / "theta.json"
        assert main(["transfer", "--input", str(inst_file), "--depth", "2",
                     "-o", str(out)]) == 0
        series = serialize.series_from_json(serialize.load(out), 2)
        assert series.depth == 2

    def test_charfn_series_matches_reversed_transfer(self, inst_file, tmp_path):
        import numpy as np

        t_path, c_path = tmp_path / "t.json", tmp_path / "c.json"
        main(["transfer", "--input", str(inst_file), "--depth", "2", "-o", str(t_path)])
        main(["charfn", "--input", str(inst_file), "--depth", "2", "-o", str(c_path)])
        theta = serialize.series_from_json(serialize.load(t_path), 2)
        phi = serialize.series_from_json(serialize.load(c_path), 2)
        for w in phi:
            assert np.allclose(phi.coeff(w), theta.coeff(tuple(reversed(w))), atol=1e-10)

    def test_simulate_random_signal(self, inst_file, tmp_path):
        out = tmp_path / "traj.json"
        assert main(["simulate", "--input", str(inst_file), "--depth", "2",
                     "--seed", "3", "-o", str(out)]) == 0
        traj = serialize.trajectory_from_json(serialize.load(out), 2)
        assert traj.depth == 2
        assert set(traj.u) == set(traj.y)
        assert len(traj.x) == 1 + 2 + 4

    def test_simulate_with_signal_file(self, inst_file, tmp_path):
        from ncscatter.transfer import random_series

        inst = serialize.instance_from_json(serialize.load(inst_file))
        sig_path = tmp_path / "sig.json"
        serialize.save(
            sig_path,
            serialize.series_to_json(random_series(inst.rank_e, 1, 2, 2, seed=1)),
        )
        out = tmp_path / "traj.json"
        assert main(["simulate", "--input", str(inst_file), "--signal", str(sig_path),
                     "-o", str(out)]) == 0
        traj = serialize.trajectory_from_json(serialize.load(out), 2)
        assert traj.depth == 2

    def test_simulate_wrong_width_signal(self, inst_file, tmp_path, capsys):
        from ncscatter.transfer import random_series

        sig_path = tmp_path / "sig.json"
        serialize.save(
            sig_path, serialize.series_to_json(random_series(1, 1, 2, 2, seed=1))
        )
        code = main(["simulate", "--input", str(inst_file), "--signal", str(sig_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_simulate_out_of_memory_is_usage_error(
        self, inst_file, capsys, monkeypatch
    ):
        # a deep seeded signal that cannot be allocated, without allocating it
        def exhausted(*args):
            raise MemoryError("Unable to allocate the signal")

        monkeypatch.setattr("ncscatter.transfer.random_series", exhausted)
        assert main(["simulate", "--input", str(inst_file), "--depth", "40"]) == 2
        assert "error: Unable to allocate the signal" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["transfer", "charfn", "simulate"])
    def test_negative_depth_is_usage_error(self, inst_file, capsys, cmd):
        assert main([cmd, "--input", str(inst_file), "--depth", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no words over 2 letters up to depth -1\n"

    @pytest.mark.parametrize("depth", ["-2", "-5"])
    @pytest.mark.parametrize("with_signal", [False, True])
    def test_simulate_depth_below_minus_one_is_usage_error(
        self, inst_file, tmp_path, capsys, with_signal, depth
    ):
        # level_start(2, depth + 1) is a negative float here, so the depth
        # must be refused before the signal is drawn or sliced
        from ncscatter.transfer import random_series

        argv = ["simulate", "--input", str(inst_file), "--depth", depth]
        if with_signal:
            inst = serialize.instance_from_json(serialize.load(inst_file))
            sig_path = tmp_path / "sig.json"
            serialize.save(
                sig_path,
                serialize.series_to_json(random_series(inst.rank_e, 1, 2, 2, seed=1)),
            )
            argv += ["--signal", str(sig_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no words over 2 letters up to depth {depth}\n"

    @pytest.mark.parametrize("cmd", ["verify", "transfer", "charfn", "simulate"])
    def test_empty_base_space_is_usage_error(self, tmp_path, capsys, cmd):
        # generate refuses dimC = 0, and the loader refuses it alike
        empty = [{"rows": 0, "cols": 0, "data": []}] * 2
        path = tmp_path / "empty.json"
        serialize.save(path, {"d": 2, "dimC": 0, "dimA": 0, "seed": None,
                              "C": empty, "A": empty, "B": empty})
        out = tmp_path / "out.json"
        flag = "--report" if cmd == "verify" else "-o"
        assert main([cmd, "--input", str(path), "--depth", "2", flag, str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: instance: key 'dimC' must be at least 1\n"
        assert not out.exists()


class TestOneTolerance:
    """The exports accept exactly the instances whose lifting identities
    pass verify's ``lifting_identities`` row and whose defect ranks are
    decided outside the band ``(TOL_RANK, TOL_EQ]``, and take no tolerance."""

    @staticmethod
    def scaled_c(path, dim_a, factor, block="C"):
        """(2, 2, dim_a) seed 1 written to ``path`` with every entry of
        ``block`` (C by default) scaled by ``factor``."""
        assert main(["generate", "--d", "2", "--dim-c", "2", "--dim-a", str(dim_a),
                     "--seed", "1", "-o", str(path)]) == 0
        obj = serialize.load(path)
        for m in obj[block]:
            m["data"] = [[re * factor, im * factor] for re, im in m["data"]]
        serialize.save(path, obj)
        return path

    @pytest.fixture()
    def near_miss(self, tmp_path):
        # every C entry of (2,2,2) seed 1 scaled by 1 - 1e-6:
        # sum C_j C_j* - I has norm 2e-6 > TOL_EQ
        return self.scaled_c(tmp_path / "near.json", 2, 1 - 1e-6)

    @pytest.mark.parametrize("cmd", ["transfer", "charfn", "simulate"])
    def test_export_refuses_near_miss(self, near_miss, tmp_path, capsys, cmd):
        out = tmp_path / "out.json"
        assert main([cmd, "--input", str(near_miss), "--depth", "2", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: sum C_j C_j* - I has norm 2.000e-06\n"
        assert not out.exists()

    def test_verify_fails_near_miss(self, near_miss, capsys):
        assert main(["verify", "--input", str(near_miss), "--depth", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["FAIL", "lifting_identities"]

    @pytest.fixture()
    def inside_band(self, tmp_path):
        # every C entry of (2,2,1) seed 1 scaled by 1 + 2e-9: sum C_j C_j* - I
        # has norm 4e-9 <= TOL_EQ, and I - E* E an eigenvalue near -4e-9
        return self.scaled_c(tmp_path / "inside.json", 1, 1 + 2e-9)

    @pytest.fixture()
    def inside_band_down(self, tmp_path):
        # scaled by 1 - 2e-9 instead: the zero eigenvalues of I - C* C move
        # up to 4e-9, past the rank cut, and the defect ranks (2, 3) read (4, 5)
        return self.scaled_c(tmp_path / "down.json", 1, 1 - 2e-9)

    @pytest.mark.parametrize("cmd", ["transfer", "charfn", "simulate"])
    def test_export_accepts_inside_band(self, inside_band, tmp_path, capsys, cmd):
        out = tmp_path / "out.json"
        assert main([cmd, "--input", str(inside_band), "--depth", "2", "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.exists()

    def test_verify_passes_lifting_identities_inside_band(self, inside_band, capsys):
        main(["verify", "--input", str(inside_band), "--depth", "2"])
        row = capsys.readouterr().out.splitlines()[0].split()
        assert row[:2] == ["pass", "lifting_identities"]
        assert 1e-9 < float(row[2]) <= 1e-8

    @pytest.mark.parametrize("cmd", ["transfer", "charfn", "simulate"])
    def test_export_refuses_a_rank_decided_in_the_band(self, inside_band_down, tmp_path,
                                                       capsys, cmd):
        out = tmp_path / "out.json"
        assert main([cmd, "--input", str(inside_band_down), "--depth", "2", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: I - C* C has eigenvalue 4.000e-09 in the rank band (1e-10, 1e-08], "
            "so its defect rank is not decided\n"
        )
        assert not out.exists()

    def test_verify_fails_a_rank_decided_in_the_band(self, inside_band_down, capsys):
        # verify loads leniently, so it still builds the copy and fails it
        assert main(["verify", "--input", str(inside_band_down), "--depth", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["pass", "lifting_identities"]

    @pytest.mark.parametrize("cmd", ["transfer", "verify"])
    @pytest.mark.parametrize("block", ["C", "B"])
    def test_overflowing_gram_is_usage_error(self, tmp_path, capsys, block, cmd):
        # entries of (2,2,1) seed 1 times 1e200: C* C (or E* E) overflows,
        # and both the strict and the lenient load refuse it by name
        path = self.scaled_c(tmp_path / "huge.json", 1, 1e200, block)
        assert main([cmd, "--input", str(path), "--depth", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: I - T* T has a non-finite entry: "
            "the entries are too large for double precision\n"
        )

    @pytest.mark.parametrize("cmd", ["verify", "transfer", "charfn", "simulate"])
    def test_one_overflowing_coupling_entry_warns_nothing(self, tmp_path, capsys, cmd):
        # one B[0] entry of (2,2,1) seed 1 at 1e308 overflows E* E, and also
        # the product that forms gamma from B*; the load refuses the first
        # before it forms the second, so no numpy warning precedes the error
        path = self.scaled_c(tmp_path / "big.json", 1, 1.0)
        obj = serialize.load(path)
        obj["B"][0]["data"][0] = [1e308, 0.0]
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([cmd, "--input", str(path), "--depth", "1"])
        captured = capsys.readouterr()
        assert code == 2 and caught == [] and captured.out == ""
        assert captured.err == (
            "error: I - T* T has a non-finite entry: "
            "the entries are too large for double precision\n"
        )

    @pytest.mark.parametrize("cmd", ["transfer", "charfn", "simulate"])
    def test_tol_flag_is_usage_error(self, inst_file, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--input", str(inst_file), "--tol", "1e-4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-4" in capsys.readouterr().err


def oracle_texts(inst_path, depth, verify) -> dict:
    """Each CLI output at ``depth``, rebuilt and rendered by ``json.dumps``."""
    from ncscatter.charfn import charfn_series
    from ncscatter.ncsystem import simulate
    from ncscatter.transfer import build_colligation, random_series, transfer_series
    from ncscatter.verify import run_all_checks

    raw = serialize.load(inst_path)
    inst = serialize.instance_from_json(raw)
    coll = build_colligation(inst)
    traj = simulate(coll, random_series(coll.in_dim, 1, inst.d, depth, 0), depth)

    def series(s):
        return {"schemaVersion": 1, "outDim": s.out_dim, "inDim": s.in_dim,
                "depth": s.depth, "coeffs": oracle_entries(s)}

    texts = {
        "generate": {
            "schemaVersion": 1, "d": inst.d, "dimC": inst.dim_c, "dimA": inst.dim_a,
            "C": [oracle_matrix(m) for m in inst.c.ops],
            "A": [oracle_matrix(m) for m in inst.a.ops],
            "B": [oracle_matrix(m) for m in inst.b], "seed": inst.seed,
        },
        "transfer": series(transfer_series(coll, depth)),
        "charfn": series(charfn_series(inst, depth)),
        "simulate": {
            "schemaVersion": 1, "depth": depth, "input": oracle_entries(traj.u),
            "state": oracle_entries(traj.x), "output": oracle_entries(traj.y),
        },
    }
    if verify and depth >= 1:
        checks = run_all_checks(serialize.instance_from_json(raw, strict=False), depth)
        texts["verify"] = serialize.report_to_json(checks)
    return {cmd: json_oracle(obj) for cmd, obj in texts.items()}


class TestByteIdentity:
    """Every CLI output file equals ``json.dumps`` of the same object."""

    def run_all(self, tmp_path, shape, seed, depths, verify=True):
        d, dim_c, dim_a = shape
        inst = tmp_path / "inst.json"
        assert main(["generate", "--d", str(d), "--dim-c", str(dim_c), "--dim-a",
                     str(dim_a), "--seed", str(seed), "-o", str(inst)]) == 0
        for depth in depths:
            want = oracle_texts(inst, depth, verify)
            assert inst.read_text() == want.pop("generate")
            for cmd, text in want.items():
                out = tmp_path / f"{cmd}.json"
                if cmd == "verify":
                    argv = ["verify", "--depth", str(depth), "--report", str(out)]
                else:
                    argv = [cmd, "--depth", str(depth), "-o", str(out)]
                assert main(argv + ["--input", str(inst)]) == 0
                assert out.read_text() == text, (cmd, shape, seed, depth)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("shape", SWEEP_SHAPES)
    def test_sweep_grid(self, tmp_path, capsys, shape, seed):
        self.run_all(tmp_path, shape, seed, range(4))

    def test_exports_at_depth_eight(self, tmp_path, capsys):
        self.run_all(tmp_path, (2, 2, 2), 0, [8], verify=False)


# sha256 of the generate file of each sweep shape and seed, recorded before
# the row norm of A was pinned to np.linalg.norm: the byte-identity oracle
# above starts from the generated file, so it cannot see the instance move
GENERATE_SHA256 = {
    ((2, 2, 1), 0): "a6d3fc35f4348e9ca83a22d26bf347d5135f3888772975e8b48ef9e8b47ae38f",
    ((2, 2, 1), 1): "45a2bbbde606dd3d17181b50395bdc6f347aeb9d15b2a929fe260d719531ca2b",
    ((2, 2, 2), 0): "6fdd9d1887697abc6a9709bd882230a9e32b07a1c606baf16c3160efbbd6653b",
    ((2, 2, 2), 1): "e80b3df85b1c9acbb1fd9a4c4cfec5f11d9eb5a97b12066a32e1adc692e52b32",
    ((2, 3, 2), 0): "09b1a37adcf42d2b8669fc338825329ec5b1fb48319b05775b0bfe96ee4e6423",
    ((2, 3, 2), 1): "79ef08f868e651abcc35511ccdad5dfed5725932623fb4d7af1cdad00612911d",
    ((2, 4, 4), 0): "0d700691d660204f63852ddb48497ab739f816f22a7eb6cc74a6911e33fc39ad",
    ((2, 4, 4), 1): "e4aea577ca12bcd444d21dcc713f7cb69caf685321995c469a3fe624816575cb",
    ((2, 2, 0), 0): "e0a86083ff63fd9a0b7db07b21ae146619501bd559a6b3c09cd9f25f6e728dd8",
    ((2, 2, 0), 1): "8b433b2ac8a06f71f71a7e9d0cbe95d38df5fe7078d085053665b377932e90c4",
    ((3, 2, 1), 0): "ddb425cdfbc7a02ecd5ec0c143e65de98c86fb79aaaecf911353dd5fabdcc081",
    ((3, 2, 1), 1): "689195dfc6cff8fd15bf9185baef7c7bf86a3c267c373a20dea163298a3e8738",
    ((1, 2, 0), 0): "0484587783a9e1a8c7e2c2fa13df1d547614205e16812e04a86ab1cf2b06ac72",
    ((1, 2, 0), 1): "7ab67133db885037d774a1fb2a3b914481c42e5125f38826624c7c8d9895b834",
}


@pytest.mark.parametrize("shape,seed", list(GENERATE_SHA256))
def test_generate_golden_bytes(tmp_path, shape, seed):
    d, dim_c, dim_a = shape
    out = tmp_path / "inst.json"
    assert main(["generate", "--d", str(d), "--dim-c", str(dim_c), "--dim-a", str(dim_a),
                 "--seed", str(seed), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATE_SHA256[shape, seed]


# sha256 of the transfer, charfn and simulate --seed 0 exports of the seed 0
# instance of each shape, recorded before the JSON tree went through json.dumps
EXPORT_SHA256 = {
    ((2, 2, 2), 3, "transfer"): "195757eef533aad5848d1dabbb541df2c6ec28d75dad5287441e17a0150cdcde",
    ((2, 2, 2), 3, "charfn"): "8f1764834e94c7f4299f45edaabfb70e2fedcd62fc641fbb7eed5a1d27240276",
    ((2, 2, 2), 3, "simulate"): "d2e886d1fd1b2cab6b92c73f1d68d9b1a6a79319a93a5826144f1edf59edae67",
    ((2, 2, 2), 8, "transfer"): "1ea00506546301e1b967dda86598e36e63f1172dc4a5192a94fe9317269ed205",
    ((2, 2, 2), 8, "charfn"): "51d5eb0570b1d081fecf66dcd95b03a0a6cec112f0d87416d274696429bf4519",
    ((2, 2, 2), 8, "simulate"): "3c2fc38669d2aa8cda739e4f7478dfd0c83afcfca057064684748cb6b14a3322",
    ((3, 2, 1), 3, "transfer"): "bd46331abff1611b42392fc93544f6fb9512bb41df396905c0868ec641cb5513",
    ((3, 2, 1), 3, "charfn"): "1c38c4bd0bcf4187a328a7fc65b629dc0568a7b93bca16b232e970225962d2c4",
    ((3, 2, 1), 3, "simulate"): "a51967a1671cb9828e75ab28b73f075d22adc87876a6118c005d9440aa098120",
    ((1, 2, 0), 3, "transfer"): "b755f5db446a2d5d5e63acbafa9a6b71fa56b38dc292edd983a23c3da3525a9c",
    ((1, 2, 0), 3, "charfn"): "b755f5db446a2d5d5e63acbafa9a6b71fa56b38dc292edd983a23c3da3525a9c",
    ((1, 2, 0), 3, "simulate"): "c6ebee67e717d2fb2f3dde2ef31881b069cabf9489d64f9976f1cf1942369de3",
}


@pytest.mark.parametrize("shape,depth", sorted({key[:2] for key in EXPORT_SHA256}))
def test_export_golden_bytes(tmp_path, shape, depth):
    d, dim_c, dim_a = shape
    inst = tmp_path / "inst.json"
    assert main(["generate", "--d", str(d), "--dim-c", str(dim_c), "--dim-a", str(dim_a),
                 "--seed", "0", "-o", str(inst)]) == 0
    for cmd in ("transfer", "charfn", "simulate"):
        out = tmp_path / f"{cmd}.json"
        seed = ["--seed", "0"] if cmd == "simulate" else []
        assert main([cmd, "--input", str(inst), "--depth", str(depth), "-o", str(out)] + seed) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_SHA256[shape, depth, cmd]


def package_env(**extra):
    """The environment with the package's parent directory on PYTHONPATH."""
    env = dict(os.environ, **extra)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncscatter.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ncscatter", "generate", "--seed", "4"],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["d"] == 2

    @pytest.mark.parametrize("argv", [["--help"], ["no-such-command"]])
    def test_usage_paths_load_no_numpy(self, argv):
        code = (
            "import sys\n"
            "from ncscatter.cli import main\n"
            "try:\n"
            f"    main({argv!r})\n"
            "except SystemExit:\n"
            "    pass\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=package_env()
        )
        assert proc.stdout.splitlines()[-1] == "False", proc.stdout + proc.stderr

    def test_commands_in_one_process_print_what_single_runs_print(self, tmp_path, capsys):
        # the parser is built once per process and reused by every call
        inst = tmp_path / "inst.json"
        assert main(["generate", "--seed", "4", "-o", str(inst)]) == 0
        runs = [
            ["verify", "--input", str(inst), "--depth", "2"],
            ["transfer", "--input", str(inst), "--depth", "2"],
            ["generate", "--seed", "4", "--dim-a", "2"],
            ["simulate", "--input", str(inst), "--depth", "1"],
        ]
        for argv in runs:
            single = subprocess.run(
                [sys.executable, "-m", "ncscatter", *argv],
                capture_output=True, text=True, env=package_env(),
            )
            code = main(argv)
            out = capsys.readouterr()
            assert (code, out.out, out.err) == (single.returncode, single.stdout, single.stderr)
        assert build_parser() is build_parser()

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ncscatter", "no-such-command"],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == 2
