"""Benchmark command line: solve single instances, sweep convergence, profile cost.

Three subcommands share one run path and the CSV columns of :class:`RunRecord`.
``solve`` runs one (p, k) instance, ``convergence`` a grid of them, and
``profile`` reports per-apply cost instead of solving (solve_s holds the mean
seconds of 10 operator applications; the error, iteration and ``converged``
columns stay empty).  ``error_s``, the time spent in error norms after set-up,
is outside ``total_s``.  A failed run writes an empty row and its cause on
stderr.  Every subcommand exits 2 on an option no run can honour or an
``--out`` it cannot open (before any run, writing nothing) or on a failed
run, else 1 if a run did not converge, else 0.

An argument ``@FILE`` is replaced by the flags written in FILE, one or more
per line as on a shell line, with ``#`` comments and blank lines allowed.
Flags are read in order, so a flag after ``@FILE`` overrides the file and
one before it is overridden.  The option defaults are those of
:class:`RunConfig`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import shlex
import sys
import time
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .assembly import NNZ_GUARD, MemoryGuardError, assemble_wq_explicit
from .geometry import identity_map, quarter_ring_map, quarter_ring_rational_map
from .kron import CostMeter
from .operators import setup_stiffness, wq_load_vector
from .problems import cube_sine_case, oscillating_case, relative_errors
from .solvers import FDPreconditioner, bicgstab, cg, stopping_tolerance
from .splines import tensor_space
from .wq import build_tensor_rule, gauss_tensor_rule

_METHOD_SOLVER = {"mfwq": "bicgstab", "wq": "bicgstab", "sgq": "cg"}
#: geometry name -> (map factory, manufactured-case factory)
_GEOMETRIES = {
    "cube": (lambda: identity_map(3), cube_sine_case),
    "ring": (quarter_ring_rational_map, oscillating_case),
    "ring-polar": (quarter_ring_map, oscillating_case),
}
_DEFAULT_MAX_K = 6
#: nominal flops charged per coefficient value evaluated during set-up
#: (geometry Jacobian, cofactors and determinant), for ``setup_flops`` only
_COEFF_EVAL_FLOPS = 60
#: operator applications timed by ``profile``
_PROFILE_APPLIES = 10


class ConfigError(ValueError):
    pass


def _check_options(method, geometry, eta, maxit, nnz_guard):
    """Reject the values no run can honour (the (p, k)-independent checks)."""
    if method not in _METHOD_SOLVER:
        raise ConfigError(f"unknown method {method!r}")
    if geometry not in _GEOMETRIES:
        raise ConfigError(f"unknown geometry {geometry!r}")
    if not (math.isfinite(eta) and eta > 0):
        raise ConfigError(f"eta must be > 0 and finite, got {eta}")
    if maxit < 1:
        raise ConfigError(f"maxit must be >= 1, got {maxit}")
    # a NaN guard would switch the guard off: est > nan is always False
    if not (math.isfinite(nnz_guard) and nnz_guard > 0):
        raise ConfigError(f"nnz_guard must be finite and > 0, got {nnz_guard}")


@dataclass
class RunConfig:
    """One benchmark instance: discretization, method and solver settings."""

    degree: int
    mesh_exp: int
    geometry: str = "ring"
    method: str = "mfwq"
    eta: float = 0.1
    maxit: int = 1000
    allow_large: bool = False
    nnz_guard: float = NNZ_GUARD

    def __post_init__(self):
        _check_options(self.method, self.geometry, self.eta, self.maxit,
                       self.nnz_guard)
        if self.degree < 1:
            raise ConfigError("degree must be >= 1")
        if self.mesh_exp < 1:
            raise ConfigError("mesh exponent must be >= 1")
        if self.mesh_exp > _DEFAULT_MAX_K and not self.allow_large:
            raise ConfigError(
                f"mesh exponent {self.mesh_exp} exceeds the default ceiling "
                f"{_DEFAULT_MAX_K}; pass --allow-large to run it"
            )

    @property
    def solver(self) -> str:
        """Krylov method paired with ``method``: CG for SPD ``sgq``, else BiCGStab."""
        return _METHOD_SOLVER[self.method]


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
    error_s: float | str = ""
    matvec_flops: int | str = ""
    setup_flops: int | str = ""
    coeff_scalars: int | str = ""
    nnz: int | str = ""
    converged: bool | str = ""

    def row(self):
        def fmt(v):
            if isinstance(v, float):
                return f"{v:.6e}"
            return str(v)
        return [fmt(getattr(self, name)) for name in CSV_HEADER]


CSV_HEADER = [f.name for f in fields(RunRecord)]
#: the :class:`RunConfig` fields set by flags besides (p, k), with defaults
_OPTION_DEFAULTS = {f.name: f.default for f in fields(RunConfig)
                    if f.default is not MISSING}


def _setup(cfg: RunConfig, geom, case):
    """Build the operator (or matrix), RHS and preconditioner for one run.

    Returns (space, apply_A, rhs, precond, record) with the setup-side
    fields of the record already filled in.
    """
    p, k = cfg.degree, cfg.mesh_exp
    space = tensor_space(p, 2**k)
    rec = RunRecord(method=cfg.method, p=p, k=k, N=space.n_dofs)
    t0 = time.perf_counter()

    if cfg.method == "sgq":
        rule = gauss_tensor_rule(space)
    else:
        rule = build_tensor_rule(space)
    if cfg.method == "mfwq":
        apply_A = setup_stiffness(space, rule, geom).apply
    else:
        mat = assemble_wq_explicit(space, rule, geom, kind="stiffness",
                                   nnz_guard=cfg.nnz_guard)
        apply_A = lambda v: mat.matrix @ v
        rec.nnz = mat.nnz
    rec.coeff_scalars = 6 * rule.n_points
    rec.setup_flops = (rec.coeff_scalars * _COEFF_EVAL_FLOPS
                       + 9 * 4 * (rec.nnz or 0))
    rhs = wq_load_vector(rule, geom, case.f)

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
    geom, case = (make() for make in _GEOMETRIES[cfg.geometry])
    space, apply_A, rhs, precond, rec = _setup(cfg, geom, case)
    krylov = bicgstab if cfg.solver == "bicgstab" else cg

    ref = case.reference_h1_errors.get((cfg.degree, cfg.mesh_exp))
    error_s = 0.0
    estimate_ok = True
    t0 = time.perf_counter()
    if ref is None:
        # No tabulated discretization error for this configuration: solve
        # tightly once to estimate it, then re-solve at the scaled tolerance.
        # Both solves count in solve_s, the estimate's error pass in error_s.
        x, estimate = krylov(apply_A, rhs, precond.apply, tol=1e-8,
                             maxit=cfg.maxit)
        estimate_ok = estimate.converged
        te = time.perf_counter()
        ref, _ = relative_errors(space, geom, x, case)
        error_s = time.perf_counter() - te
    x, report = krylov(apply_A, rhs, precond.apply,
                       tol=stopping_tolerance(ref, cfg.eta), maxit=cfg.maxit)
    rec.solve_s = time.perf_counter() - t0 - error_s
    rec.iters = report.iterations
    rec.converged = estimate_ok and report.converged
    rec.total_s = rec.setup_s + rec.solve_s
    t0 = time.perf_counter()
    rec.error_h1, rec.error_l2 = relative_errors(space, geom, x, case)
    rec.error_s = error_s + time.perf_counter() - t0
    return rec


def run_profile(cfg: RunConfig) -> RunRecord:
    geom, case = (make() for make in _GEOMETRIES[cfg.geometry])
    space, apply_A, _, _, rec = _setup(cfg, geom, case)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(space.n_dofs)
    apply_A(v)
    t0 = time.perf_counter()
    for _ in range(_PROFILE_APPLIES):
        apply_A(v)
    rec.solve_s = (time.perf_counter() - t0) / _PROFILE_APPLIES
    rec.total_s = rec.setup_s + rec.solve_s
    return rec


def _sweep(p_list, k_list, options, runner):
    """One row per (p, k), and whether any failed; a failed row is kept empty."""
    rows, failed = [], False
    for p in p_list:
        for k in k_list:
            try:
                rows.append(runner(RunConfig(degree=p, mesh_exp=k, **options)))
            except (MemoryGuardError, ConfigError, RuntimeError,
                    MemoryError) as exc:
                print(f"run p={p} k={k} failed: {exc}", file=sys.stderr)
                rows.append(RunRecord(method=options["method"], p=p, k=k,
                                      N=0, converged=False))
                failed = True
    return rows, failed


def _parse_int_list(text):
    try:
        values = [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    return values


def _split_arg_line(line):
    """One argument-file line split as a shell would, '#' starting a comment."""
    try:
        return shlex.split(line, comments=True)
    except ValueError as exc:  # an unclosed quote or a trailing backslash
        raise argparse.ArgumentError(
            None, f"bad argument-file line {line!r}: {exc}") from None


def _add_common(sub):
    sub.add_argument("--geometry", choices=_GEOMETRIES)
    sub.add_argument("--method", choices=list(_METHOD_SOLVER))
    sub.add_argument("--eta", type=float)
    sub.add_argument("--maxit", type=int)
    sub.add_argument("--allow-large", action="store_true")
    sub.add_argument("--nnz-guard", type=float)
    sub.add_argument("--out")
    sub.set_defaults(**_OPTION_DEFAULTS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="igamf-bench", fromfile_prefix_chars="@",
        description="Matrix-free isogeometric benchmark harness; "
                    "@FILE reads further flags from FILE")
    parser.convert_arg_line_to_args = _split_arg_line
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("solve", help="solve one instance")
    s.add_argument("--degree", type=int, required=True)
    s.add_argument("--mesh-exp", type=int, required=True)
    _add_common(s)

    c = subs.add_parser("convergence", help="sweep a (p, k) grid")
    c.add_argument("--degree", type=_parse_int_list, required=True)
    c.add_argument("--mesh-exp", type=_parse_int_list, required=True)
    _add_common(c)

    f = subs.add_parser("profile", help="setup and per-apply cost over p")
    f.add_argument("--degree", type=_parse_int_list, required=True)
    f.add_argument("--mesh-exp", type=int, required=True)
    _add_common(f)
    return parser


def _run_options(args):
    """RunConfig fields other than (p, k), read from ``args``.

    Checked once per command, so a bad value is a command error, not a
    failed sweep row; only the (p, k) checks of :class:`RunConfig` are
    left to each row.
    """
    options = {name: getattr(args, name) for name in _OPTION_DEFAULTS}
    _check_options(options["method"], options["geometry"], options["eta"],
                   options["maxit"], options["nnz_guard"])
    return options


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        options = _run_options(args)
        # opened before the first run, emptied once the rows are ready
        out = (open(args.out, "a", newline="") if args.out
               else contextlib.nullcontext(sys.stdout))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    listed = lambda v: v if isinstance(v, list) else [v]
    runner = run_profile if args.command == "profile" else run_solve
    with out as stream:
        rows, failed = _sweep(listed(args.degree), listed(args.mesh_exp),
                              options, runner)
        if args.out:
            stream.truncate(0)
        csv.writer(stream).writerows([CSV_HEADER] + [r.row() for r in rows])
    if failed:
        return 2
    return 1 if any(rec.converged is False for rec in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
