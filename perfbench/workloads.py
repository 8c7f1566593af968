"""The igamf benchmark workloads and their correctness gates.

Every workload runs on the rational quarter ring with the matrix-free
weighted-quadrature (``mfwq``) operator.  A workload is run in *rounds*;
one round is the unit a user would run once:

* a solve round is one ``igamf-bench solve`` through ``igamf.cli.run_solve``
  (set-up, BiCGStab solve, H1 and L2 error evaluation);
* a reuse round builds the operator and FD preconditioner once through
  the README quick-start API and solves ``REUSE_LOADS`` seeded load
  vectors, checking each solution's true residual.

Rounds are closed-loop: the next solve starts only after the previous one
returned.  Functions are looked up on the ``igamf`` modules at call time,
so the traced run sees them through the tracer's rebindings.
"""

import statistics
import time

import numpy as np

#: a solve's H1 error must lie within this factor of the reference table
H1_FACTOR = 1.1
#: reuse: load vectors per round and the BiCGStab relative-residual target
REUSE_LOADS = 8
REUSE_TOL = 1e-8
#: reuse: the true residual may exceed the solver's recurrence residual by
#: rounding only (measured 4e-4 to 8e-4 relative at p=8, k=5)
RESIDUAL_DRIFT = 1e-2
#: reuse: set-ups per untraced round; setup_s is their median
SETUP_REPEATS = 3
#: reuse: the apply is checked against explicit WQ assembly on this mesh
ORACLE_N_EL = 1
ORACLE_TOL = 1e-12


class Outcome:
    """Operations attempted and failed, with one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.info = {}

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)


class SolveWorkload:
    """One-shot CLI solve at degree ``p`` on a 2**k mesh; the seed is unused."""

    seed_used = False

    def __init__(self, igamf, p, k, seed):
        self.igamf = igamf
        self.p = p
        self.k = k

    def prepare(self, outcome):
        pass

    def make_inputs(self):
        return None

    def round(self, inputs, outcome, setup_repeats=1):
        cli = self.igamf.cli
        case = self.igamf.problems.oscillating_case
        # every round pays the manufactured-case build, as a fresh CLI run does
        getattr(case, "cache_clear", lambda: None)()
        t0 = time.perf_counter()
        rec = cli.run_solve(cli.RunConfig(degree=self.p, mesh_exp=self.k,
                                          geometry="ring", method="mfwq"))
        wall = time.perf_counter() - t0
        ref = self.igamf.problems.QUARTER_RING_H1_REFERENCE[(self.p, self.k)]
        ok = rec.converged and ref / H1_FACTOR <= rec.error_h1 <= ref * H1_FACTOR
        outcome.check(ok, f"p={self.p} k={self.k}: converged={rec.converged} "
                          f"error_h1={rec.error_h1:.4e} reference={ref:.1e} "
                          f"factor={H1_FACTOR}")
        outcome.info.update(error_h1=rec.error_h1, error_l2=rec.error_l2,
                            error_h1_reference=ref, iters=rec.iters)
        return {"wall_s": wall, "setup_s": rec.setup_s, "solve_s": rec.solve_s,
                "verify_s": wall - rec.setup_s - rec.solve_s}


class ReuseWorkload:
    """Operator and FD preconditioner built once, many seeded loads solved."""

    seed_used = True

    def __init__(self, igamf, p, k, seed):
        self.igamf = igamf
        self.p = p
        self.n_el = 2**k
        self.rng = np.random.default_rng(seed)

    def prepare(self, outcome):
        """Untimed oracle check: apply against explicit WQ assembly."""
        ig = self.igamf
        space = ig.tensor_space(p=self.p, n_el=ORACLE_N_EL)
        rule = ig.build_tensor_rule(space)
        geom = ig.quarter_ring_rational_map()
        op = ig.setup_stiffness(space, rule, geom)
        mat = ig.assemble_wq_explicit(space, rule, geom, kind="stiffness")
        v = self.rng.standard_normal(space.n_dofs)
        ref = mat.matrix @ v
        rel = float(np.linalg.norm(op.apply(v) - ref) / np.linalg.norm(ref))
        outcome.check(rel <= ORACLE_TOL,
                      f"apply vs assemble_wq_explicit at p={self.p} "
                      f"n_el={ORACLE_N_EL}: relative difference {rel:.3e}")
        outcome.info["oracle_rel_diff"] = rel

    def make_inputs(self):
        n = self.igamf.tensor_space(p=self.p, n_el=self.n_el).n_dofs
        return [self.rng.standard_normal(n) for _ in range(REUSE_LOADS)]

    def _setup(self):
        ig = self.igamf
        t0 = time.perf_counter()
        space = ig.tensor_space(p=self.p, n_el=self.n_el)
        rule = ig.build_tensor_rule(space)
        geom = ig.quarter_ring_rational_map()
        A = ig.setup_stiffness(space, rule, geom)
        P = ig.FDPreconditioner(space)
        return A, P, time.perf_counter() - t0

    def round(self, loads, outcome, setup_repeats=SETUP_REPEATS):
        setup_times = []
        for _ in range(setup_repeats - 1):
            setup_times.append(self._setup()[2])
        t0 = time.perf_counter()
        A, P, t_setup = self._setup()
        setup_times.append(t_setup)
        solve_s = verify_s = 0.0
        residuals, iterations = [], []
        for i, b in enumerate(loads):
            ts = time.perf_counter()
            x, report = self.igamf.bicgstab(A.apply, b, P.apply, tol=REUSE_TOL)
            tv = time.perf_counter()
            true_res = float(np.linalg.norm(b - A.apply(x)) / np.linalg.norm(b))
            te = time.perf_counter()
            solve_s += tv - ts
            verify_s += te - tv
            residuals.append(true_res)
            iterations.append(report.iterations)
            outcome.check(report.converged
                          and true_res <= REUSE_TOL * (1 + RESIDUAL_DRIFT),
                          f"load {i}: converged={report.converged} "
                          f"iterations={report.iterations} "
                          f"true residual={true_res:.3e}")
        wall = time.perf_counter() - t0
        outcome.info["residual_max"] = max(residuals +
                                           [outcome.info.get("residual_max", 0.0)])
        outcome.info["iterations"] = iterations
        return {"wall_s": wall, "setup_s": statistics.median(setup_times),
                "solve_s": solve_s, "verify_s": verify_s}


WORKLOADS = {
    "ring-p3-k5-solve": (SolveWorkload, 3, 5),
    "ring-p5-k5-solve": (SolveWorkload, 5, 5),
    "ring-p8-k5-reuse": (ReuseWorkload, 8, 5),
}


def make_workload(name, igamf, seed):
    cls, p, k = WORKLOADS[name]
    return cls(igamf, p, k, seed)
