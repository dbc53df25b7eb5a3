"""Command line behavior: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import ncscatter
from ncscatter import serialize
from ncscatter.cli import _configure_threads, main


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

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["verify", "--input", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["verify", "--input", str(path)]) == 2


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
        for w in phi.coeffs:
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


class TestThreads:
    def test_env_propagation(self):
        env = {"NCSCATTER_THREADS": "2"}
        _configure_threads(env)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            assert env[var] == "2"

    def test_absent_is_noop(self):
        env = {}
        _configure_threads(env)
        assert env == {}

    @pytest.mark.parametrize("raw", ["0", "-3", "lots"])
    def test_invalid_value_rejected(self, raw):
        with pytest.raises(ValueError):
            _configure_threads({"NCSCATTER_THREADS": raw})

    def test_invalid_value_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NCSCATTER_THREADS", "zero")
        assert main(["generate"]) == 2
        assert "NCSCATTER_THREADS" in capsys.readouterr().err


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
            capture_output=True, text=True, env=package_env(NCSCATTER_THREADS="1"),
        )
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["d"] == 2

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ncscatter", "no-such-command"],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == 2
