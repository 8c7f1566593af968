import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import igamf
from igamf import cli
from igamf.cli import (CSV_HEADER, ConfigError, RunConfig, RunRecord, main,
                       run_solve)
from igamf.geometry import DegenerateGeometryError
from igamf.problems import relative_errors
from igamf.solvers import (EigenSolveError, IndefiniteOperatorError,
                           KrylovReport, bicgstab)
from igamf.wq import WQConstructionError


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
        # a library caller's unknown method would otherwise run as wq
        with pytest.raises(ConfigError, match="unknown method 'fem'"):
            RunConfig(2, 3, method="fem")

    def test_unknown_geometry(self):
        with pytest.raises(ConfigError, match="unknown geometry 'sphere'"):
            RunConfig(2, 3, geometry="sphere")


class TestSolveCommand:
    @pytest.mark.parametrize("command", ["solve", "convergence"])
    def test_csv_schema(self, tmp_path, command):
        out = tmp_path / "run.csv"
        rc = main([command, "--degree", "2", "--mesh-exp", "2",
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
        assert 0 < float(rec["apply_s"]) <= float(rec["solve_s"])
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

    @pytest.mark.parametrize("geometry", ["cube", "ring", "ring-polar"])
    @pytest.mark.parametrize("method", ["mfwq", "wq", "sgq"])
    def test_every_run_records_apply_s(self, method, geometry):
        # each method's apply (operator or matrix) under its own Krylov solver
        rec = run_solve(RunConfig(1, 2, geometry=geometry, method=method))
        assert rec.converged is True and rec.iters > 0
        assert 0 < rec.apply_s <= rec.solve_s
        assert float(rec.row()[CSV_HEADER.index("apply_s")]) == pytest.approx(
            rec.apply_s, rel=1e-6)

    def test_apply_s_follows_solve_s(self):
        i = CSV_HEADER.index("solve_s")
        assert CSV_HEADER[i + 1] == "apply_s"

    @pytest.mark.parametrize("method", ["mfwq", "wq", "sgq"])
    def test_apply_s_is_the_median_apply(self, monkeypatch, method):
        # the cube has no tabulated error, so the stub solves twice: 2
        # applies, then 3, each pausing for the next of ``pauses``
        pauses = [0.001, 0.002, 0.03, 0.2, 0.3]
        queue = iter(pauses)
        setup = cli._setup

        def slow_setup(*args):
            space, apply_A, rhs, precond, rec = setup(*args)

            def slow_apply(v):
                time.sleep(next(queue))
                return apply_A(v)
            return space, slow_apply, rhs, precond, rec

        def stub_krylov(apply_A, b, apply_P, tol, maxit):
            n = 2 if solves == [] else 3
            solves.append(n)
            for _ in range(n):
                apply_A(b)
            return np.zeros_like(b), KrylovReport(n, [1.0], True, n)

        solves = []
        monkeypatch.setattr(cli, "_setup", slow_setup)
        monkeypatch.setattr(cli, "bicgstab", stub_krylov)
        monkeypatch.setattr(cli, "cg", stub_krylov)
        rec = run_solve(RunConfig(2, 2, geometry="cube", method=method))
        assert solves == [2, 3]
        # the median, 0.03 s, and neither the mean (0.107 s) nor the sum
        assert 0.03 <= rec.apply_s < 0.08
        assert 0 < rec.apply_s <= rec.solve_s
        assert rec.solve_s >= sum(pauses)

    @pytest.mark.parametrize("method", ["mfwq", "wq", "sgq"])
    def test_run_without_applies_leaves_apply_s_empty(self, monkeypatch,
                                                      method):
        # a solve may stop before its first apply (a zero right-hand side,
        # say); the median of no times would warn, which is an error here
        def no_apply(apply_A, b, apply_P, tol, maxit):
            return np.zeros_like(b), KrylovReport(0, [1.0], True, 0)

        monkeypatch.setattr(cli, "bicgstab", no_apply)
        monkeypatch.setattr(cli, "cg", no_apply)
        rec = run_solve(RunConfig(2, 2, geometry="cube", method=method))
        assert rec.apply_s == ""
        assert rec.row()[CSV_HEADER.index("apply_s")] == ""
        assert rec.solve_s > 0

    @pytest.mark.parametrize("method, rule, grids", [
        ("mfwq", igamf.build_tensor_rule, 3),
        ("wq", igamf.build_tensor_rule, 6),
        ("sgq", igamf.gauss_tensor_rule, 6),
    ])
    def test_record_fields(self, method, rule, grids):
        # the cube's operator stores 3 of the 6 stiffness grids, over the
        # one xi_3 layer it evaluates them on (the cube is an extrusion);
        # the assembled methods evaluate all 6 at every point and free them
        # with the matrix.  Set-up is charged for evaluating all 6 where it
        # evaluates them, plus 36 flops per nonzero
        rec = run_solve(RunConfig(2, 3, geometry="cube", method=method))
        r = rule(igamf.tensor_space(2, 8))
        nq = r.n_points // (r.n_points_per_dir[-1] if method == "mfwq" else 1)
        assert rec.coeff_scalars == grids * nq
        assert rec.setup_flops == (6 * nq * cli._COEFF_EVAL_FLOPS
                                   + 9 * 4 * (rec.nnz or 0))
        assert (rec.nnz == "") == (method == "mfwq")
        assert 0 < rec.apply_s <= rec.solve_s

    @pytest.mark.parametrize("degree, mesh_exp, message", [
        ("0", "2", "run p=0 k=2 failed: degree must be >= 1"),
        ("2", "0", "run p=2 k=0 failed: mesh exponent must be >= 1"),
    ])
    def test_out_of_range_size_is_a_failed_row(self, tmp_path, capsys, degree,
                                               mesh_exp, message):
        out = tmp_path / "run.csv"
        rc = main(["solve", "--degree", degree, "--mesh-exp", mesh_exp,
                   "--geometry", "cube", "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        rec = dict(zip(*read_csv(out)))
        assert (rec["N"], rec["error_h1"], rec["converged"]) == ("0", "",
                                                                 "False")

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

    @pytest.mark.parametrize("target, error, method", [
        ("setup_stiffness", DegenerateGeometryError((0.5, 0.5, 0.5), -1.0),
         "mfwq"),
        ("FDPreconditioner", EigenSolveError("injected"), "mfwq"),
        ("build_tensor_rule", WQConstructionError(3, 1e-3), "mfwq"),
        ("cg", IndefiniteOperatorError("injected"), "sgq"),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else v)
    def test_run_time_failure_is_a_failed_row(self, tmp_path, capsys,
                                              monkeypatch, target, error,
                                              method):
        # the first call belongs to the p=1 row, which it fails; the p=2
        # row runs unhindered
        real, calls = getattr(cli, target), []

        def fail_first_call(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, target, fail_first_call)
        out = tmp_path / "conv.csv"
        rc = main(["convergence", "--degree", "1,2", "--mesh-exp", "2",
                   "--geometry", "cube", "--method", method,
                   "--out", str(out)])
        assert rc == 2
        assert f"run p=1 k=2 failed: {error}" in capsys.readouterr().err
        rows = read_csv(out)
        failed, done = (dict(zip(rows[0], r)) for r in rows[1:])
        assert (failed["p"], failed["N"], failed["converged"]) == ("1", "0",
                                                                   "False")
        assert failed["error_h1"] == failed["iters"] == ""
        assert (done["p"], done["converged"]) == ("2", "True")
        assert float(done["error_h1"]) > 0 and int(done["iters"]) > 0

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


def exit_code(argv):
    """``main``'s return code, or the code of the SystemExit of an argparse error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def no_run(*args):
    pytest.fail("a run started")


def recording_runner(seen):
    """A runner that records each row's RunConfig and returns a converged row."""
    def run(cfg):
        seen.append(cfg)
        return RunRecord(method=cfg.method, p=cfg.degree, k=cfg.mesh_exp, N=0,
                         converged=True)
    return run


def src_env():
    """The environment with this checkout's ``igamf`` first on PYTHONPATH."""
    src = str(Path(igamf.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


class TestSweepPath:
    """``solve`` takes (p, k) lists; ``convergence`` is ``solve``."""

    def test_solve_sweeps_both_lists(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_solve", recording_runner(seen := []))
        out = tmp_path / "sweep.csv"
        rc = main(["solve", "--degree", "1,2", "--mesh-exp", "2,3",
                   "--geometry", "cube", "--maxit", "50", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == CSV_HEADER
        assert [(r[1], r[2]) for r in rows[1:]] == [("1", "2"), ("1", "3"),
                                                   ("2", "2"), ("2", "3")]
        assert seen == [RunConfig(p, k, geometry="cube", maxit=50)
                        for p in (1, 2) for k in (2, 3)]

    def test_solve_sweeps_mesh_list(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["solve", "--degree", "1", "--mesh-exp", "2,3",
                   "--geometry", "cube", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        recs = [dict(zip(rows[0], r)) for r in rows[1:]]
        assert [(r["p"], r["k"]) for r in recs] == [("1", "2"), ("1", "3")]
        assert int(recs[1]["N"]) > int(recs[0]["N"]) > 0
        assert all(0 < float(r["apply_s"]) <= float(r["solve_s"])
                   for r in recs)
        assert all(r["converged"] == "True" for r in recs)

    def test_failed_row_leaves_apply_s_empty(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["solve", "--degree", "0,1", "--mesh-exp", "2",
                   "--geometry", "cube", "--out", str(out)])
        assert rc == 2
        assert "run p=0 k=2 failed" in capsys.readouterr().err
        rows = read_csv(out)
        recs = [dict(zip(rows[0], r)) for r in rows[1:]]
        assert [r["apply_s"] == "" for r in recs] == [True, False]

    def test_convergence_is_solve(self):
        flags = ["--degree", "2,3", "--mesh-exp", "4", "--method", "sgq",
                 "--eta", "0.2", "--out", "run.csv"]
        parse = cli.build_parser().parse_args
        solve = vars(parse(["solve"] + flags))
        convergence = vars(parse(["convergence"] + flags))
        assert solve.pop("command") == "solve"
        assert convergence.pop("command") == "convergence"
        assert solve == convergence


class TestConfigFile:
    """Run options given in an argument file (``@FILE``) and as flags.

    A value argparse cannot parse or that is out of range, a malformed
    line, an unknown flag and a missing file exit through ``SystemExit(2)``
    before any run.
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

    def test_comments_blank_lines_and_defaults(self, tmp_path, monkeypatch):
        cfg = tmp_path / "bench.args"
        cfg.write_text("# sweep settings\n\n--degree 1,2  # degrees\n   \n"
                       "--mesh-exp 2 --maxit 50\n")
        args = cli.build_parser().parse_args(["convergence", f"@{cfg}"])
        assert (args.degree, args.mesh_exp, args.maxit) == ([1, 2], [2], 50)
        # every option not given reaches each row as its RunConfig default
        monkeypatch.setattr(cli, "run_solve", recording_runner(seen := []))
        assert main(["convergence", f"@{cfg}"]) == 0
        assert seen == [RunConfig(1, 2, maxit=50), RunConfig(2, 2, maxit=50)]

    def test_allow_large_in_file(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "large.args"
        cfg.write_text("--allow-large\n")
        argv = ["solve", "--degree", "1", "--mesh-exp", "7"]
        monkeypatch.setattr(cli, "run_solve", recording_runner(seen := []))
        assert main(argv) == 2  # the row fails: k=7 is above the ceiling
        assert "pass --allow-large to run it" in capsys.readouterr().err
        assert main(argv + [f"@{cfg}"]) == 0
        assert seen == [RunConfig(1, 7, allow_large=True)]

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

    @pytest.mark.parametrize("command", ["solve", "convergence"])
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

    @pytest.mark.parametrize("command", ["solve", "convergence"])
    @pytest.mark.parametrize("file_text, flags, message", [
        ("--allow-large=ture\n", [],
         "argument --allow-large: ignored explicit argument 'ture'"),
        ("--eta -1\n", [], "argument --eta: must be finite and > 0, got '-1'"),
        ("", ["--eta", "0"], "argument --eta: must be finite and > 0, got '0'"),
        ("--eta nan\n", [],
         "argument --eta: must be finite and > 0, got 'nan'"),
        ("--maxit 0\n", [], "argument --maxit: must be finite and > 0, got '0'"),
        ("", ["--maxit", "-3"],
         "argument --maxit: must be finite and > 0, got '-3'"),
        ("--maxit 2.5\n", [], "argument --maxit: invalid int value: '2.5'"),
        ("--eta inf\n", [],
         "argument --eta: must be finite and > 0, got 'inf'"),
        ("", ["--eta", "inf"],
         "argument --eta: must be finite and > 0, got 'inf'"),
    ])
    def test_value_no_run_can_honour(self, tmp_path, capsys, monkeypatch,
                                     command, file_text, flags, message):
        monkeypatch.setattr(cli, "_sweep", no_run)
        cfg = tmp_path / "value.args"
        cfg.write_text(file_text)
        out = tmp_path / "run.csv"
        rc = exit_code([command, "--degree", "1", "--mesh-exp", "2",
                        f"@{cfg}", "--out", str(out)] + flags)
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "convergence"])
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

    def test_unparsable_integer_list(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_sweep", no_run)
        out = tmp_path / "bad.csv"
        rc = exit_code(["convergence", "--degree", "2,x", "--mesh-exp", "3",
                        "--geometry", "cube", "--out", str(out)])
        assert rc == 2
        assert ("argument --degree: bad integer list '2,x'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "convergence"])
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

    @pytest.mark.parametrize("command", ["solve", "convergence"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_nnz_guard_that_disables_the_guard(self, tmp_path, capsys, command,
                                               value, source):
        # est > nan is always False, so a NaN guard would let any size through
        cfg = tmp_path / "guard.args"
        cfg.write_text(f"--nnz-guard {value}\n" if source == "file" else "")
        flags = ["--nnz-guard", value] if source == "flag" else []
        out = tmp_path / "run.csv"
        rc = exit_code([command, "--degree", "1", "--mesh-exp", "2",
                        "--method", "sgq", "--geometry", "cube", f"@{cfg}",
                        "--out", str(out)] + flags)
        assert rc == 2
        assert (f"error: argument --nnz-guard: must be finite and > 0, "
                f"got '{value}'" in capsys.readouterr().err)
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
                              env=src_env(), capture_output=True, text=True)
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

    def test_import_loads_no_scipy(self):
        # a benchmark's peak_rss_mb is the process's maxrss, and scipy.sparse
        # alone adds about 22 MB to it; only the assembled oracle needs it
        code = ("import sys, igamf.cli; "
                "print([n for n in sys.modules if n.startswith('scipy')])")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
