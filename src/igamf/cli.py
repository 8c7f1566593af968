"""Benchmark command line: solve single instances, sweep convergence, profile cost.

Three subcommands share one CSV schema so the outputs concatenate cleanly:

    method,p,k,N,error_h1,error_l2,iters,setup_s,solve_s,total_s,
    matvec_flops,setup_flops,coeff_scalars,nnz

``solve`` runs one (p, k) instance, ``convergence`` a grid of them, and
``profile`` skips the linear solve and instead reports per-apply cost
(solve_s holds the average seconds over 10 operator applications; the
error and iteration columns are left empty).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import (NNZ_GUARD, MemoryGuardError, assemble_rhs, assemble_sgq,
                       assemble_wq_explicit, estimate_matrix_nnz)
from .geometry import identity_map, quarter_ring_map, quarter_ring_rational_map
from .kron import CostMeter
from .operators import COEFF_EVAL_FLOPS, setup_mass, setup_stiffness
from .problems import (cube_sine_case, h1_relative_error, l2_relative_error,
                       oscillating_case)
from .solvers import FDPreconditioner, bicgstab, cg, stopping_tolerance
from .splines import tensor_space
from .wq import build_tensor_rule

CSV_HEADER = ["method", "p", "k", "N", "error_h1", "error_l2", "iters",
              "setup_s", "solve_s", "total_s", "matvec_flops", "setup_flops",
              "coeff_scalars", "nnz"]

_METHOD_SOLVER = {"mfwq": "bicgstab", "wq": "bicgstab", "sgq": "cg"}
_DEFAULT_MAX_K = 6


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """One benchmark instance: discretization, method and solver settings."""

    degree: int
    mesh_exp: int
    geometry: str = "ring"
    method: str = "mfwq"
    solver: str | None = None
    eta: float = 0.1
    maxit: int = 1000
    allow_large: bool = False
    nnz_guard: float = NNZ_GUARD

    def __post_init__(self):
        if self.method not in _METHOD_SOLVER:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.geometry not in ("cube", "ring", "ring-polar"):
            raise ConfigError(f"unknown geometry {self.geometry!r}")
        forced = _METHOD_SOLVER[self.method]
        if self.solver is None:
            self.solver = forced
        elif self.solver != forced:
            raise ConfigError(
                f"method {self.method} requires solver {forced}, "
                f"got {self.solver}"
            )
        if self.degree < 1:
            raise ConfigError("degree must be >= 1")
        if self.mesh_exp < 1:
            raise ConfigError("mesh exponent must be >= 1")
        if self.mesh_exp > _DEFAULT_MAX_K and not self.allow_large:
            raise ConfigError(
                f"mesh exponent {self.mesh_exp} exceeds the default ceiling "
                f"{_DEFAULT_MAX_K}; pass --allow-large to run it"
            )


@dataclass
class RunRecord:
    """One CSV row; empty strings mark fields a mode does not produce."""

    method: str
    p: int
    k: int
    N: int
    error_h1: float | str = ""
    error_l2: float | str = ""
    iters: int | str = ""
    setup_s: float | str = ""
    solve_s: float | str = ""
    total_s: float | str = ""
    matvec_flops: int | str = ""
    setup_flops: int | str = ""
    coeff_scalars: int | str = ""
    nnz: int | str = ""
    converged: bool = field(default=True, compare=False)

    def row(self):
        def fmt(v):
            if isinstance(v, float):
                return f"{v:.6e}"
            return str(v)
        return [fmt(getattr(self, name)) for name in CSV_HEADER]


def _geometry(kind):
    if kind == "cube":
        return identity_map(3)
    if kind == "ring":
        return quarter_ring_rational_map()
    return quarter_ring_map()


def _case(kind):
    return cube_sine_case() if kind == "cube" else oscillating_case()


def _setup(cfg: RunConfig, geom, case):
    """Build the operator (or matrix), RHS and preconditioner for one run.

    Returns (apply_A, rhs, precond, record) with the setup-side fields of
    the record already filled in.
    """
    p, k = cfg.degree, cfg.mesh_exp
    space = tensor_space(p, 2**k)
    rec = RunRecord(method=cfg.method, p=p, k=k, N=space.n_dofs)
    t0 = time.perf_counter()

    if cfg.method in ("mfwq", "wq"):
        rule = build_tensor_rule(space)
        n_q = rule.n_points
        coeff_flops = 6 * n_q * COEFF_EVAL_FLOPS
        if cfg.method == "mfwq":
            stiff = setup_stiffness(space, rule, geom)
            apply_A = stiff.apply
            rec.coeff_scalars = stiff.coeff_scalars
            rec.setup_flops = coeff_flops
        else:
            est = estimate_matrix_nnz(space)
            if est > cfg.nnz_guard:
                raise MemoryGuardError(est, cfg.nnz_guard)
            mat = assemble_wq_explicit(space, rule, geom, kind="stiffness",
                                       nnz_guard=cfg.nnz_guard)
            apply_A = lambda v: mat.matrix @ v
            rec.nnz = mat.nnz
            rec.coeff_scalars = 6 * n_q
            rec.setup_flops = coeff_flops + 9 * 4 * mat.nnz
    else:
        est = estimate_matrix_nnz(space)
        if est > cfg.nnz_guard:
            raise MemoryGuardError(est, cfg.nnz_guard)
        mat = assemble_sgq(space, geom, kind="stiffness",
                           nnz_guard=cfg.nnz_guard)
        apply_A = lambda v: mat.matrix @ v
        n_gauss = ((p + 1) * 2**k) ** 3
        rec.nnz = mat.nnz
        rec.coeff_scalars = 6 * n_gauss
        rec.setup_flops = 6 * n_gauss * COEFF_EVAL_FLOPS + 9 * 4 * mat.nnz

    rhs = assemble_rhs(space, geom, case.f)
    precond = FDPreconditioner(space)
    rec.setup_s = time.perf_counter() - t0

    if cfg.method == "mfwq":
        meter = CostMeter()
        apply_A(np.zeros(space.n_dofs), meter)
        rec.matvec_flops = meter.flops
    else:
        rec.matvec_flops = 2 * rec.nnz
    return space, apply_A, rhs, precond, rec


def run_solve(cfg: RunConfig) -> RunRecord:
    geom = _geometry(cfg.geometry)
    case = _case(cfg.geometry)
    space, apply_A, rhs, precond, rec = _setup(cfg, geom, case)
    krylov = bicgstab if cfg.solver == "bicgstab" else cg

    ref = case.reference_h1_errors.get((cfg.degree, cfg.mesh_exp))
    t0 = time.perf_counter()
    if ref is not None:
        tol = stopping_tolerance(ref, cfg.eta)
        x, report = krylov(apply_A, rhs, precond.apply, tol=tol,
                           maxit=cfg.maxit)
    else:
        # No tabulated discretization error for this configuration: solve
        # tightly once to estimate it, then re-solve at the scaled tolerance.
        x, _ = krylov(apply_A, rhs, precond.apply, tol=1e-8, maxit=cfg.maxit)
        err = h1_relative_error(space, geom, x, case)
        t0 = time.perf_counter()
        x, report = krylov(apply_A, rhs, precond.apply,
                           tol=stopping_tolerance(err, cfg.eta),
                           maxit=cfg.maxit)
    rec.solve_s = time.perf_counter() - t0
    rec.iters = report.iterations
    rec.converged = report.converged
    rec.total_s = rec.setup_s + rec.solve_s
    rec.error_h1 = h1_relative_error(space, geom, x, case)
    rec.error_l2 = l2_relative_error(space, geom, x, case)
    return rec


def run_profile(cfg: RunConfig, n_applies: int = 10) -> RunRecord:
    geom = _geometry(cfg.geometry)
    case = _case(cfg.geometry)
    space, apply_A, _, _, rec = _setup(cfg, geom, case)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(space.n_dofs)
    apply_A(v)
    t0 = time.perf_counter()
    for _ in range(n_applies):
        apply_A(v)
    rec.solve_s = (time.perf_counter() - t0) / n_applies
    rec.total_s = rec.setup_s + rec.solve_s
    return rec


def _write_csv(rows, out):
    stream = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(stream)
        writer.writerow(CSV_HEADER)
        for rec in rows:
            writer.writerow(rec.row())
    finally:
        if out:
            stream.close()


def _write_time_error(rows, out):
    """Companion (total time, H1 error) pairs for time-error plotting."""
    path = str(out) + ".time_error.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "p", "k", "total_s", "error_h1"])
        for rec in rows:
            if rec.error_h1 != "" and rec.total_s != "":
                writer.writerow([rec.method, rec.p, rec.k,
                                 f"{rec.total_s:.6e}", f"{rec.error_h1:.6e}"])


def _sweep(p_list, k_list, make_cfg, runner):
    rows = []
    for p in p_list:
        for k in k_list:
            try:
                rows.append(runner(make_cfg(p, k)))
            except (MemoryGuardError, ConfigError, RuntimeError,
                    MemoryError) as exc:
                print(f"run p={p} k={k} failed: {exc}", file=sys.stderr)
                rows.append(RunRecord(method=make_cfg.__method__, p=p, k=k,
                                      N=0, converged=False))
    return rows


def _parse_int_list(text):
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")


def _read_config_file(path):
    """key = value lines, '#' comments; keys match the long flag names."""
    values = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val.strip()
    return values


_BOOL_KEYS = ("allow_large",)
_DEFAULTS = dict(geometry="ring", method="mfwq", solver=None, eta=0.1,
                 maxit=1000, allow_large=False, nnz_guard=NNZ_GUARD, out=None)


def _merge(args, key, cast=str):
    """Flag value if given, else config-file value, else hard default."""
    cli_val = getattr(args, key, None)
    if cli_val is not None:
        return cli_val
    cfg_file = getattr(args, "_file_values", {})
    if key in cfg_file:
        raw = cfg_file[key]
        if key in _BOOL_KEYS:
            return raw.lower() in ("1", "true", "yes", "on")
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(f"bad value {raw!r} for {key}") from None
    return _DEFAULTS.get(key)


def _add_common(sub):
    sub.add_argument("--geometry", choices=["cube", "ring", "ring-polar"])
    sub.add_argument("--method", choices=["mfwq", "wq", "sgq"])
    sub.add_argument("--solver", choices=["bicgstab", "cg"])
    sub.add_argument("--eta", type=float)
    sub.add_argument("--maxit", type=int)
    sub.add_argument("--allow-large", dest="allow_large", action="store_true",
                     default=None)
    sub.add_argument("--nnz-guard", dest="nnz_guard", type=float)
    sub.add_argument("--out", type=str)
    sub.add_argument("--config", type=str, help="key=value file; flags win")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="igamf-bench",
        description="Matrix-free isogeometric benchmark harness")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("solve", help="solve one instance")
    s.add_argument("--degree", type=int, required=True)
    s.add_argument("--mesh-exp", dest="mesh_exp", type=int, required=True)
    _add_common(s)

    c = subs.add_parser("convergence", help="sweep a (p, k) grid")
    c.add_argument("--degree", type=_parse_int_list, required=True)
    c.add_argument("--mesh-exp", dest="mesh_exp", type=_parse_int_list,
                   required=True)
    _add_common(c)

    f = subs.add_parser("profile", help="setup and per-apply cost over p")
    f.add_argument("--degree", type=_parse_int_list, required=True)
    f.add_argument("--mesh-exp", dest="mesh_exp", type=int, required=True)
    _add_common(f)
    return parser


def _config_from_args(args, p, k):
    return RunConfig(
        degree=p, mesh_exp=k,
        geometry=_merge(args, "geometry"),
        method=_merge(args, "method"),
        solver=_merge(args, "solver"),
        eta=_merge(args, "eta", float),
        maxit=_merge(args, "maxit", int),
        allow_large=bool(_merge(args, "allow_large")),
        nnz_guard=float(_merge(args, "nnz_guard", float)),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args._file_values = _read_config_file(args.config) if args.config else {}
        out = _merge(args, "out")
        if args.command == "solve":
            rec = run_solve(_config_from_args(args, args.degree,
                                              args.mesh_exp))
            _write_csv([rec], out)
            return 0 if rec.converged else 1

        make_cfg = lambda p, k: _config_from_args(args, p, k)
        make_cfg.__method__ = _merge(args, "method")
        if args.command == "convergence":
            rows = _sweep(args.degree, args.mesh_exp, make_cfg, run_solve)
            _write_csv(rows, out)
            if out:
                _write_time_error(rows, out)
        else:
            rows = _sweep(args.degree, [args.mesh_exp], make_cfg, run_profile)
            _write_csv(rows, out)
        return 0
    except (ConfigError, MemoryGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
