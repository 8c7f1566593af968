import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import igamf
from igamf import cli
from igamf.cli import (CSV_HEADER, ConfigError, RunConfig, main, run_profile,
                       run_solve)
from igamf.problems import relative_errors
from igamf.solvers import bicgstab


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestRunConfig:
    def test_solver_derived_from_method(self):
        assert RunConfig(2, 3, method="sgq").solver == "cg"
        assert RunConfig(2, 3, method="mfwq").solver == "bicgstab"
        assert RunConfig(2, 3, method="wq").solver == "bicgstab"

    def test_mesh_ceiling(self):
        with pytest.raises(ConfigError):
            RunConfig(2, 7, method="mfwq")
        RunConfig(2, 7, method="mfwq", allow_large=True)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            RunConfig(2, 3, method="fem")


class TestSolveCommand:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(["solve", "--degree", "2", "--mesh-exp", "2",
                   "--geometry", "cube", "--method", "sgq",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == CSV_HEADER
        assert len(rows) == 2
        rec = dict(zip(rows[0], rows[1]))
        assert rec["method"] == "sgq"
        assert float(rec["error_h1"]) > float(rec["error_l2"]) > 0
        assert int(rec["nnz"]) > 0
        assert float(rec["error_s"]) > 0

    def test_error_s_counts_every_error_pass(self, monkeypatch):
        # the cube case has no reference table, so run_solve makes one error
        # pass to estimate the discretization error and one for the record
        pause = 0.05
        calls = []

        def slow_errors(*args, **kwargs):
            calls.append(1)
            time.sleep(pause)
            return relative_errors(*args, **kwargs)

        def slow_krylov(*args, **kwargs):
            solves.append(1)
            time.sleep(pause)
            return bicgstab(*args, **kwargs)

        solves = []
        monkeypatch.setattr(cli, "relative_errors", slow_errors)
        monkeypatch.setattr(cli, "bicgstab", slow_krylov)
        rec = run_solve(RunConfig(2, 2, geometry="cube", method="mfwq"))
        assert len(calls) == 2
        assert rec.error_s >= 2 * pause
        # the tight estimate solve and the re-solve both count in solve_s
        assert len(solves) == 2
        assert rec.solve_s >= 2 * pause
        assert rec.total_s == pytest.approx(rec.setup_s + rec.solve_s)

    def test_cross_method_consistency(self):
        a = run_solve(RunConfig(1, 3, geometry="ring", method="sgq"))
        b = run_solve(RunConfig(1, 3, geometry="ring", method="mfwq"))
        # same discretization, different quadrature/solver: errors agree
        # within the solve tolerance
        assert a.error_h1 == pytest.approx(b.error_h1, rel=0.05)

    def test_determinism(self):
        r1 = run_solve(RunConfig(2, 3, geometry="ring", method="mfwq"))
        r2 = run_solve(RunConfig(2, 3, geometry="ring", method="mfwq"))
        assert r1.iters == r2.iters
        assert r1.error_h1 == r2.error_h1

    def test_total_is_setup_plus_solve(self):
        rec = run_solve(RunConfig(2, 2, geometry="cube", method="mfwq"))
        assert rec.total_s == pytest.approx(rec.setup_s + rec.solve_s)

    @pytest.mark.parametrize("method", ["wq", "sgq"])
    def test_guard_exit_code(self, capsys, method):
        rc = main(["solve", "--degree", "3", "--mesh-exp", "5",
                   "--method", method, "--nnz-guard", "1000"])
        assert rc == 2
        assert "stored entries" in capsys.readouterr().err


class TestConvergenceCommand:
    def test_sweep_and_companion_file(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["convergence", "--degree", "1,2", "--mesh-exp", "2,3",
                   "--geometry", "cube", "--method", "mfwq",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 5
        errs = {(r[1], r[2]): float(r[4]) for r in rows[1:]}
        assert errs[("2", "3")] < errs[("2", "2")]
        companion = read_csv(str(out) + ".time_error.csv")
        assert companion[0] == ["method", "p", "k", "total_s", "error_h1"]
        assert len(companion) == 5

    def test_empty_degree_list(self, tmp_path):
        out = tmp_path / "empty.csv"
        rc = main(["convergence", "--degree", "", "--mesh-exp", "3",
                   "--geometry", "cube", "--out", str(out)])
        assert rc == 0
        assert read_csv(out) == [CSV_HEADER]

    def test_failed_row_does_not_stop_sweep(self, tmp_path, capsys):
        out = tmp_path / "mixed.csv"
        rc = main(["convergence", "--degree", "2", "--mesh-exp", "2,4",
                   "--geometry", "cube", "--method", "sgq",
                   "--nnz-guard", "40000", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 3  # header + both rows, one of them empty-failed
        assert "failed" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_schema(self, tmp_path):
        out = tmp_path / "prof.csv"
        rc = main(["profile", "--degree", "1,2", "--mesh-exp", "3",
                   "--geometry", "cube", "--method", "mfwq",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == CSV_HEADER
        recs = [dict(zip(rows[0], r)) for r in rows[1:]]
        assert all(int(r["matvec_flops"]) > 0 for r in recs)
        assert all(r["iters"] == "" for r in recs)
        assert int(recs[1]["matvec_flops"]) > int(recs[0]["matvec_flops"])

    def test_profile_record_fields(self):
        rec = run_profile(RunConfig(2, 3, geometry="cube", method="mfwq"))
        assert rec.coeff_scalars > 0
        assert rec.solve_s > 0


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("geometry = cube\nmethod = sgq\n# comment\neta = 0.2\n")
        out = tmp_path / "out.csv"
        rc = main(["solve", "--degree", "1", "--mesh-exp", "2",
                   "--config", str(cfg), "--method", "mfwq",
                   "--out", str(out)])
        assert rc == 0
        rec = dict(zip(*read_csv(out)))
        assert rec["method"] == "mfwq"  # flag beats file
        assert rec["nnz"] == ""  # matrix-free: no stored matrix

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("geometry cube\n")
        rc = main(["solve", "--degree", "1", "--mesh-exp", "2",
                   "--config", str(cfg)])
        assert rc == 2
        assert "bad.cfg:1: expected key = value" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "stale.cfg"
        cfg.write_text("geometry = cube\non-the-fly = true\n")
        rc = main(["solve", "--degree", "1", "--mesh-exp", "2",
                   "--config", str(cfg)])
        assert rc == 2
        assert "stale.cfg:2: unknown key 'on_the_fly'" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "value.cfg"
        cfg.write_text("eta = small\n")
        rc = main(["solve", "--degree", "1", "--mesh-exp", "2",
                   "--config", str(cfg)])
        assert rc == 2
        assert "bad value 'small' for eta" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["convergence", "profile"])
    @pytest.mark.parametrize("file_text, flags, message", [
        ("eta = small\n", [], "bad value 'small' for eta"),
        ("method = foo\n", [], "unknown method 'foo'"),
        ("geometry = sphere\n", [], "unknown geometry 'sphere'"),
    ])
    def test_bad_config_value_stops_sweep(self, tmp_path, capsys, command,
                                          file_text, flags, message):
        # a bad flag or file value is a command error, not a failed row
        cfg = tmp_path / "value.cfg"
        cfg.write_text(file_text)
        out = tmp_path / "sweep.csv"
        rc = main([command, "--degree", "1", "--mesh-exp", "2", "--config",
                   str(cfg), "--out", str(out)] + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "failed" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "convergence", "profile"])
    @pytest.mark.parametrize("file_text, flags, message", [
        ("allow_large = ture\n", [], "bad value 'ture' for allow_large"),
        ("eta = -1\n", [], "eta must be > 0"),
        ("", ["--eta", "0"], "eta must be > 0"),
        ("maxit = 0\n", [], "maxit must be >= 1"),
        ("", ["--maxit", "-3"], "maxit must be >= 1"),
    ])
    def test_value_no_run_can_honour(self, tmp_path, capsys, command,
                                     file_text, flags, message):
        cfg = tmp_path / "value.cfg"
        cfg.write_text(file_text)
        out = tmp_path / "run.csv"
        rc = main([command, "--degree", "1", "--mesh-exp", "2", "--config",
                   str(cfg), "--out", str(out)] + flags)
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "convergence", "profile"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_nnz_guard_that_disables_the_guard(self, tmp_path, capsys, command,
                                               value, source):
        # est > nan is always False, so a NaN guard would let any size through
        cfg = tmp_path / "guard.cfg"
        cfg.write_text(f"nnz_guard = {value}\n" if source == "file" else "")
        flags = ["--nnz-guard", value] if source == "flag" else []
        out = tmp_path / "run.csv"
        rc = main([command, "--degree", "1", "--mesh-exp", "2", "--method",
                   "sgq", "--geometry", "cube", "--config", str(cfg),
                   "--out", str(out)] + flags)
        assert rc == 2
        assert "error: nnz_guard must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["solve", "--degree", "1", "--mesh-exp", "2",
                   "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2
        assert "cannot read config file" in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "igamf.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "solve" in proc.stdout and "convergence" in proc.stdout

    def test_import_loads_no_symbolic_package(self):
        # the closed forms are plain numpy: a fresh process importing the
        # command line pulls in neither sympy nor its mpmath dependency
        src = str(Path(igamf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys, igamf.cli; "
                "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
