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
        assert rec["converged"] == "True"

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
    def test_guard_exit_code(self, tmp_path, capsys, method):
        out = tmp_path / "guard.csv"
        rc = main(["solve", "--degree", "3", "--mesh-exp", "5",
                   "--method", method, "--nnz-guard", "1000",
                   "--out", str(out)])
        assert rc == 2
        assert "stored entries" in capsys.readouterr().err
        rows = read_csv(out)
        assert rows[0] == CSV_HEADER
        rec = dict(zip(*rows))
        assert (rec["method"], rec["p"], rec["k"]) == (method, "3", "5")
        assert (rec["N"], rec["converged"]) == ("0", "False")
        assert rec["error_h1"] == rec["iters"] == ""

    def test_unconverged_exit_code(self, tmp_path):
        # ring (2, 3) has no tabulated error, so a one-iteration estimate
        # solve sets the re-solve's tolerance
        out = tmp_path / "run.csv"
        rc = main(["solve", "--degree", "2", "--mesh-exp", "3", "--maxit", "1",
                   "--out", str(out)])
        assert rc == 1
        rec = dict(zip(*read_csv(out)))
        assert rec["converged"] == "False"
        assert rec["iters"] == "1"

    def test_unconverged_estimate_solve(self, monkeypatch):
        # ring (2, 3) has no tabulated error: the tight estimate solve fails
        # in one iteration, the re-solve at its loose tolerance converges
        reports = []

        def recording_krylov(*args, **kwargs):
            x, report = bicgstab(*args, **kwargs)
            reports.append(report.converged)
            return x, report

        monkeypatch.setattr(cli, "bicgstab", recording_krylov)
        rec = run_solve(RunConfig(2, 3, geometry="ring", maxit=1))
        assert reports == [False, True]
        assert rec.converged is False


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

    def test_failed_row_does_not_stop_sweep(self, tmp_path, capsys):
        out = tmp_path / "mixed.csv"
        rc = main(["convergence", "--degree", "2", "--mesh-exp", "2,4",
                   "--geometry", "cube", "--method", "sgq",
                   "--nnz-guard", "40000", "--out", str(out)])
        assert rc == 2  # the sweep finishes, but a failed row fails it
        rows = read_csv(out)
        assert len(rows) == 3  # header + both rows, one of them empty-failed
        recs = [dict(zip(rows[0], r)) for r in rows[1:]]
        assert [r["converged"] for r in recs] == ["True", "False"]
        assert recs[1]["N"] == "0"
        assert "run p=2 k=4 failed" in capsys.readouterr().err

    def test_unconverged_row_exit_code(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["convergence", "--degree", "3", "--mesh-exp", "3",
                   "--maxit", "1", "--out", str(out)])
        assert rc == 1
        assert dict(zip(*read_csv(out)))["converged"] == "False"

    def test_interrupted_sweep_keeps_existing_file(self, tmp_path,
                                                   monkeypatch):
        out = tmp_path / "conv.csv"
        out.write_text("earlier results\n" * 100)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_sweep", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["convergence", "--degree", "1", "--mesh-exp", "2",
                  "--geometry", "cube", "--out", str(out)])
        assert out.read_text() == "earlier results\n" * 100

    def test_finished_sweep_replaces_existing_file(self, tmp_path):
        out = tmp_path / "conv.csv"
        out.write_text("earlier results\n" * 100)
        rc = main(["convergence", "--degree", "1", "--mesh-exp", "2",
                   "--geometry", "cube", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == list(CSV_HEADER) and len(rows) == 2


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
        assert all(r["converged"] == "" for r in recs)  # profile does not solve
        assert int(recs[1]["matvec_flops"]) > int(recs[0]["matvec_flops"])

    def test_profile_record_fields(self):
        rec = run_profile(RunConfig(2, 3, geometry="cube", method="mfwq"))
        assert rec.coeff_scalars > 0
        assert rec.solve_s > 0


def exit_code(argv):
    """``main``'s return code, or the code of the SystemExit of an argparse error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def no_run(*args):
    pytest.fail("a run started")


def src_env():
    """The environment with this checkout's ``igamf`` first on PYTHONPATH."""
    src = str(Path(igamf.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


class TestConfigFile:
    """Run options given in an argument file (``@FILE``) and as flags.

    A value argparse cannot parse, a malformed line, an unknown flag and a
    missing file exit through ``SystemExit(2)``; a parsed value no run can
    honour makes ``main`` return 2.
    """

    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "bench.args"
        cfg.write_text("--geometry cube\n--method sgq\n# comment\n--eta 0.2\n")
        out = tmp_path / "out.csv"
        rc = main(["solve", "--degree", "1", "--mesh-exp", "2",
                   f"@{cfg}", "--method", "mfwq", "--out", str(out)])
        assert rc == 0
        rec = dict(zip(*read_csv(out)))
        assert rec["method"] == "mfwq"  # a flag after the file beats it
        assert rec["nnz"] == ""  # matrix-free: no stored matrix

    def test_flag_before_file_loses(self, tmp_path):
        cfg = tmp_path / "bench.args"
        cfg.write_text("--method sgq --eta 0.2\n")
        args = cli.build_parser().parse_args(
            ["solve", "--degree", "1", "--method", "mfwq", "--eta", "0.5",
             f"@{cfg}", "--eta", "0.3", "--mesh-exp", "2"])
        assert args.method == "sgq"
        assert args.eta == 0.3

    def test_comments_blank_lines_and_defaults(self, tmp_path):
        cfg = tmp_path / "bench.args"
        cfg.write_text("# sweep settings\n\n--degree 1,2  # degrees\n   \n"
                       "--mesh-exp 2 --maxit 50\n")
        args = cli.build_parser().parse_args(["convergence", f"@{cfg}"])
        assert (args.degree, args.mesh_exp, args.maxit) == ([1, 2], [2], 50)
        # every option not given takes its RunConfig default
        default = RunConfig(1, 2)
        assert cli._run_options(args) == dict(
            geometry=default.geometry, method=default.method,
            eta=default.eta, maxit=50, allow_large=default.allow_large,
            nnz_guard=default.nnz_guard)

    def test_allow_large_in_file(self, tmp_path):
        cfg = tmp_path / "large.args"
        cfg.write_text("--allow-large\n")
        argv = ["solve", "--degree", "1", "--mesh-exp", "7"]
        parser = cli.build_parser()
        with pytest.raises(ConfigError, match="--allow-large"):
            RunConfig(1, 7, **cli._run_options(parser.parse_args(argv)))
        options = cli._run_options(parser.parse_args(argv + [f"@{cfg}"]))
        assert options["allow_large"] is True
        assert RunConfig(1, 7, **options).allow_large

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.args"
        cfg.write_text('--geometry "cube\n')
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--degree", "1", "--mesh-exp", "2", f"@{cfg}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: bad argument-file line" in err
        assert "No closing quotation" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "stale.args"
        cfg.write_text("--geometry cube\n--on-the-fly\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--degree", "1", "--mesh-exp", "2", f"@{cfg}"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --on-the-fly" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "value.args"
        cfg.write_text("--eta small\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--degree", "1", "--mesh-exp", "2", f"@{cfg}"])
        assert exc.value.code == 2
        assert ("argument --eta: invalid float value: 'small'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["convergence", "profile"])
    @pytest.mark.parametrize("file_text, flags, message", [
        ("--eta small\n", [], "argument --eta: invalid float value: 'small'"),
        ("--method foo\n", [], "argument --method: invalid choice: 'foo'"),
        ("--geometry sphere\n", [],
         "argument --geometry: invalid choice: 'sphere'"),
    ])
    def test_bad_config_value_stops_sweep(self, tmp_path, capsys, command,
                                          file_text, flags, message):
        # a bad flag or file value is a command error, not a failed row
        cfg = tmp_path / "value.args"
        cfg.write_text(file_text)
        out = tmp_path / "sweep.csv"
        rc = exit_code([command, "--degree", "1", "--mesh-exp", "2",
                        f"@{cfg}", "--out", str(out)] + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "failed" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "convergence", "profile"])
    @pytest.mark.parametrize("file_text, flags, message", [
        ("--allow-large=ture\n", [],
         "argument --allow-large: ignored explicit argument 'ture'"),
        ("--eta -1\n", [], "eta must be > 0"),
        ("", ["--eta", "0"], "eta must be > 0"),
        ("--maxit 0\n", [], "maxit must be >= 1"),
        ("", ["--maxit", "-3"], "maxit must be >= 1"),
        ("--eta inf\n", [], "eta must be > 0 and finite, got inf"),
        ("", ["--eta", "inf"], "eta must be > 0 and finite, got inf"),
    ])
    def test_value_no_run_can_honour(self, tmp_path, capsys, command,
                                     file_text, flags, message):
        cfg = tmp_path / "value.args"
        cfg.write_text(file_text)
        out = tmp_path / "run.csv"
        rc = exit_code([command, "--degree", "1", "--mesh-exp", "2",
                        f"@{cfg}", "--out", str(out)] + flags)
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["convergence", "profile"])
    @pytest.mark.parametrize("degrees", ["", ",", " , "])
    def test_empty_integer_list(self, tmp_path, capsys, monkeypatch, command,
                                degrees):
        # a list naming no degree is an argument error, not an empty sweep
        monkeypatch.setattr(cli, "_sweep", no_run)
        out = tmp_path / "empty.csv"
        rc = exit_code([command, "--degree", degrees, "--mesh-exp", "3",
                        "--geometry", "cube", "--out", str(out)])
        assert rc == 2
        assert "argument --degree: bad integer list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "convergence", "profile"])
    def test_unwritable_out(self, tmp_path, capsys, monkeypatch, command):
        # the path is opened before the first run: exit 2, one line, no run
        monkeypatch.setattr(cli, "_sweep", no_run)
        out = tmp_path / "absent" / "run.csv"
        rc = main([command, "--degree", "1", "--mesh-exp", "2",
                   "--geometry", "cube", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "No such file or directory" in err and str(out) in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["solve", "convergence", "profile"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_nnz_guard_that_disables_the_guard(self, tmp_path, capsys, command,
                                               value, source):
        # est > nan is always False, so a NaN guard would let any size through
        cfg = tmp_path / "guard.args"
        cfg.write_text(f"--nnz-guard {value}\n" if source == "file" else "")
        flags = ["--nnz-guard", value] if source == "flag" else []
        out = tmp_path / "run.csv"
        rc = main([command, "--degree", "1", "--mesh-exp", "2", "--method",
                   "sgq", "--geometry", "cube", f"@{cfg}",
                   "--out", str(out)] + flags)
        assert rc == 2
        assert "error: nnz_guard must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--degree", "1", "--mesh-exp", "2",
                  f"@{tmp_path / 'absent.args'}"])
        assert exc.value.code == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_module_run_with_argument_file(self, tmp_path):
        (tmp_path / "bench.args").write_text(
            "--geometry cube --method sgq  # assembled Gauss\n")
        proc = subprocess.run(
            [sys.executable, "-m", "igamf.cli", "solve", "--degree", "1",
             "--mesh-exp", "2", "@bench.args", "--out", "run.csv"],
            cwd=tmp_path, env=src_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rec = dict(zip(*read_csv(tmp_path / "run.csv")))
        assert (rec["method"], rec["p"], rec["k"]) == ("sgq", "1", "2")
        assert int(rec["nnz"]) > 0


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "igamf.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "solve" in proc.stdout and "convergence" in proc.stdout

    def test_import_loads_no_symbolic_package(self):
        # the closed forms are plain numpy: a fresh process importing the
        # command line pulls in neither sympy nor its mpmath dependency
        code = ("import sys, igamf.cli; "
                "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_only_linalg_and_sparse_of_scipy(self):
        # a benchmark's peak_rss_mb is the process's maxrss, and importing
        # the command line is over half of it: a further scipy subpackage
        # (scipy.interpolate, say) would raise it for every run
        code = ("import sys, igamf.cli; print(sorted("
                "n for n, m in sys.modules.items() if n.count('.') == 1"
                " and n.startswith('scipy.') and not n.startswith('scipy._')"
                " and hasattr(m, '__path__')))")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['scipy.linalg', 'scipy.sparse']"
