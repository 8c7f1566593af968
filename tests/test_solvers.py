import numpy as np
import pytest
import scipy.linalg

from conftest import fd_forward
from igamf import (CostMeter, FDPreconditioner, IndefiniteOperatorError,
                   TensorSpace,
                   assemble_rhs, assemble_sgq, bicgstab, build_tensor_rule,
                   cg, exact_grams,
                   identity_map, kron_materialize, make_uniform_knots,
                   oscillating_case, quarter_ring_map, setup_stiffness,
                   stopping_tolerance, tensor_space)
import igamf.kron
import igamf.solvers
from igamf.kron import BandedFactor, banded, kron_flops
from igamf.solvers import EigenSolveError


class TestUnivariateMatrices:
    @pytest.mark.parametrize("p,n_el", [(1, 4), (4, 8), (8, 32)])
    def test_generalized_eigendecomposition_residual(self, p, n_el):
        kv = make_uniform_knots(p, n_el)
        K = exact_grams(kv)[(1, 1)][1:-1, 1:-1]
        M = exact_grams(kv)[(0, 0)][1:-1, 1:-1]
        lam, U = igamf.solvers._eigen_pair(kv)
        assert np.abs(K @ U - M @ U @ np.diag(lam)).max() <= 1e-10
        assert np.abs(U.T @ M @ U - np.eye(len(lam))).max() <= 1e-10
        assert lam.min() > 0
        # scipy's generalized solver only as the reference for lambda
        ref = scipy.linalg.eigh(K, M, eigvals_only=True)
        assert np.abs(lam / ref - 1).max() <= 1e-10

    def test_indefinite_mass_raises_eigen_solve_error(self, monkeypatch):
        # numpy's LinAlgError is a ValueError, which a CLI sweep does not
        # catch: the FD set-up must report EigenSolveError instead
        def negative_mass(kv):
            grams = dict(exact_grams(kv))
            grams[(0, 0)] = -grams[(0, 0)]
            return grams

        monkeypatch.setattr(igamf.solvers, "exact_grams", negative_mass)
        with pytest.raises(EigenSolveError, match="degree 2") as info:
            FDPreconditioner(tensor_space(2, 4, 3))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestFDPreconditioner:
    @pytest.mark.parametrize("p,n_el", [(2, 8), (5, 8), (7, 8), (3, 16)])
    def test_self_inverse(self, p, n_el):
        # p = 8 is left out: there kappa_2 of the 3-D Kronecker sum is
        # ~9.7e9 on 8^3 (interior univariate mass kappa ~5.9e3), so the
        # forward round trip bottoms out near 1e-10 for any double-precision
        # inverse; test_criterion_5_fd_round_trip_p8 checks the residual
        space = tensor_space(p, n_el, 3)
        P = FDPreconditioner(space)
        v = np.random.default_rng(0).standard_normal(space.n_dofs)
        back = P.apply(fd_forward(space, v))
        assert np.linalg.norm(back - v) <= 1e-10 * np.linalg.norm(v)

    def test_apply_charges_both_kronecker_applies_and_the_diagonal(self):
        # the charge behind perfbench's solvers.fd_apply.flops
        space = TensorSpace((make_uniform_knots(2, 4), make_uniform_knots(3, 5),
                             make_uniform_knots(2, 6)))
        P = FDPreconditioner(space)
        meter = CostMeter()
        P.apply(np.ones(space.n_dofs), meter)
        assert meter.flops == (kron_flops(P.UT) + space.n_dofs
                               + kron_flops(P.U))
        # dense n_l x n_l factors: 2 N n_l flops per mode and apply
        assert meter.flops == space.n_dofs * (4 * sum(space.n_per_dir) + 1)

    def test_apply_converts_no_factor(self, monkeypatch):
        # U and U^T are banded once at set-up, each one block though the
        # 12 x 12 and 11 x 11 ones span more than ROWS_PER_BLOCK rows
        P = FDPreconditioner(TensorSpace((make_uniform_knots(2, 12),
                                          make_uniform_knots(3, 5),
                                          make_uniform_knots(4, 9))))
        assert all(len(f.blocks) == 1 for f in P.U + P.UT)
        seen = []

        def checking(f):
            seen.append(type(f))
            return banded(f)

        monkeypatch.setattr(igamf.kron, "banded", checking)
        P.apply(np.ones(P.n_dofs))
        assert seen and set(seen) == {BandedFactor}

    def test_one_eigensolve_per_distinct_knot_vector(self, monkeypatch):
        calls = []
        eigen_pair = igamf.solvers._eigen_pair
        monkeypatch.setattr(igamf.solvers, "_eigen_pair",
                            lambda kv: calls.append(kv) or eigen_pair(kv))
        space = tensor_space(2, 4, 3)
        FDPreconditioner(space)
        assert len(calls) == 1 and calls[0] is space.knotvectors[0]
        # an anisotropic space keeps one eigensolve, and its own
        # eigenvectors, per direction
        calls.clear()
        space = TensorSpace((make_uniform_knots(2, 4), make_uniform_knots(2, 5),
                             make_uniform_knots(3, 3)))
        P = FDPreconditioner(space)
        assert len(calls) == 3
        assert all(a is b for a, b in zip(calls, space.knotvectors))
        v = np.random.default_rng(0).standard_normal(space.n_dofs)
        back = P.apply(fd_forward(space, v))
        assert np.linalg.norm(back - v) <= 1e-10 * np.linalg.norm(v)

    def test_zero_residual(self):
        space = tensor_space(2, 4, 3)
        P = FDPreconditioner(space)
        assert np.array_equal(P.apply(np.zeros(space.n_dofs)),
                              np.zeros(space.n_dofs))

    def test_1d_exact_solve(self):
        space = tensor_space(3, 8, 1)
        P = FDPreconditioner(space)
        K = exact_grams(space.knotvectors[0])[(1, 1)][1:-1, 1:-1]
        rng = np.random.default_rng(1)
        v = rng.standard_normal(space.n_dofs)
        assert np.allclose(P.apply(K @ v), v, atol=1e-10)

    def test_near_exact_on_parametric_laplacian(self):
        # identity cube, exact assembly: CG with FD needs one iteration
        space = tensor_space(2, 8, 3)
        A = assemble_sgq(space, identity_map(3), kind="stiffness").matrix
        P = FDPreconditioner(space)
        b = np.random.default_rng(2).standard_normal(space.n_dofs)
        _, report = cg(lambda v: A @ v, b, P.apply, tol=1e-8)
        assert report.converged and report.iterations <= 3


class TestFDForwardOracle:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_materialized_kronecker_sum(self, p):
        # fd_forward (the round-trip tests' P v) against the assembled sum
        space = tensor_space(p, 3, 3)
        K = [exact_grams(kv)[(1, 1)][1:-1, 1:-1] for kv in space.knotvectors]
        M = [exact_grams(kv)[(0, 0)][1:-1, 1:-1] for kv in space.knotvectors]
        P = sum(kron_materialize([K[k] if k == l else M[k] for k in range(3)])
                for l in range(3))
        v = np.random.default_rng(p).standard_normal(space.n_dofs)
        ref = P @ v
        err = np.linalg.norm(fd_forward(space, v) - ref)
        assert err <= 1e-13 * np.linalg.norm(ref)


class TestCG:
    def test_identity_system_one_iteration(self):
        b = np.random.default_rng(0).standard_normal(50)
        x, report = cg(lambda v: v, b, tol=1e-12)
        assert report.iterations == 1
        assert np.allclose(x, b)

    def test_zero_rhs(self):
        x, report = cg(lambda v: v, np.zeros(10))
        assert report.iterations == 0
        assert np.array_equal(x, np.zeros(10))

    def test_indefinite_detected(self):
        with pytest.raises(IndefiniteOperatorError):
            cg(lambda v: -v, np.ones(5))

    def test_true_residual_matches_reported(self):
        rng = np.random.default_rng(3)
        Q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        A = Q @ np.diag(rng.uniform(1, 100, 40)) @ Q.T
        b = rng.standard_normal(40)
        x, report = cg(lambda v: A @ v, b, tol=1e-10)
        true_rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert true_rel <= 10 * report.residuals[-1]

    def test_maxit_flagged_not_raised(self):
        rng = np.random.default_rng(4)
        Q = np.linalg.qr(rng.standard_normal((60, 60)))[0]
        A = Q @ np.diag(rng.uniform(1e-3, 1e3, 60)) @ Q.T
        _, report = cg(lambda v: A @ v, rng.standard_normal(60),
                       tol=1e-14, maxit=3)
        assert not report.converged
        assert report.iterations == 3


class TestBiCGStab:
    def test_agrees_with_cg_on_spd(self):
        rng = np.random.default_rng(5)
        Q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        A = Q @ np.diag(rng.uniform(1, 50, 40)) @ Q.T
        b = rng.standard_normal(40)
        x1, _ = cg(lambda v: A @ v, b, tol=1e-12)
        x2, rep = bicgstab(lambda v: A @ v, b, tol=1e-12)
        assert rep.converged
        assert np.linalg.norm(x1 - x2) <= 1e-8 * np.linalg.norm(x1)

    def test_zero_rhs(self):
        x, report = bicgstab(lambda v: v, np.zeros(10))
        assert np.array_equal(x, np.zeros(10))
        assert report.iterations == 0

    def test_nonsymmetric_system(self):
        rng = np.random.default_rng(6)
        A = np.eye(30) + 0.3 * rng.standard_normal((30, 30))
        b = rng.standard_normal(30)
        x, report = bicgstab(lambda v: A @ v, b, tol=1e-8, maxit=200)
        assert report.converged
        assert np.linalg.norm(A @ x - b) <= 1e-6 * np.linalg.norm(b)

    def test_matvecs_count_every_apply(self):
        # the initial residual of x = 0 is b itself, so every call of
        # apply_A is one Krylov product and is counted once; on the
        # identity the first half step converges after a single product
        rng = np.random.default_rng(7)
        A = np.eye(30) + 0.3 * rng.standard_normal((30, 30))
        for M in (A, np.eye(30)):
            calls = []

            def apply_A(v, M=M):
                calls.append(len(v))
                return M @ v

            _, report = bicgstab(apply_A, rng.standard_normal(30), tol=1e-10,
                                 maxit=200)
            assert report.converged
            assert len(calls) == report.matvecs
        assert report.iterations == report.matvecs == 1  # the identity

    def test_quarter_ring_system_converges(self):
        space = tensor_space(3, 8, 3)
        rule = build_tensor_rule(space)
        geom = quarter_ring_map()
        stiff = setup_stiffness(space, rule, geom)
        rhs = assemble_rhs(space, geom, oscillating_case().f)
        P = FDPreconditioner(space)
        x, report = bicgstab(stiff.apply, rhs, P.apply, tol=1e-8)
        assert report.converged
        true = np.linalg.norm(rhs - stiff.apply(x)) / np.linalg.norm(rhs)
        assert true <= 10 * report.residuals[-1]

    def test_determinism(self):
        space = tensor_space(2, 4, 3)
        rule = build_tensor_rule(space)
        geom = quarter_ring_map()
        stiff = setup_stiffness(space, rule, geom)
        rhs = assemble_rhs(space, geom, oscillating_case().f)
        P = FDPreconditioner(space)
        x1, r1 = bicgstab(stiff.apply, rhs, P.apply, tol=1e-10)
        x2, r2 = bicgstab(stiff.apply, rhs, P.apply, tol=1e-10)
        assert r1.iterations == r2.iterations
        assert np.array_equal(x1, x2)

    def test_small_residual_is_no_breakdown(self):
        # r_shadow . r falls below eps ||b||^2 near convergence while the
        # two stay far from orthogonal; the breakdown test is relative to
        # their norms, so the solve converges and does not restart
        rng = np.random.default_rng(15)
        A = np.diag(np.linspace(1, 100, 40)) + 2 * rng.standard_normal((40, 40))
        b = rng.standard_normal(40)
        x, report = bicgstab(lambda v: A @ v, b, tol=1e-11)
        assert report.converged
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_omega_breakdown_is_scale_free(self):
        # omega = t.s / t.t scales as 1 / |A|; tested as |omega| < eps, A
        # scaled by 1e17 or 1e20 stopped unconverged after 4 iterations.
        # Binary scales change no rounding, so they take the same iterates
        A0 = np.eye(30) + 0.3 * np.random.default_rng(6).standard_normal((30, 30))
        b = np.ones(30)
        iterations = []
        for scale in (1.0, 2.0**57, 2.0**67, 1e17, 1e20):
            A = scale * A0
            x, report = bicgstab(lambda v: A @ v, b, tol=1e-10)
            assert report.converged, scale
            assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)
            iterations.append(report.iterations)
        assert iterations[:3] == [64] * 3

    def test_breakdown_restarts_once_then_reports_failure(self, monkeypatch):
        # skew-symmetric A: b.Ab = 0, so r_shadow.v breaks down on the first
        # iteration (restart seeded seed + 1); after the restart omega = 0
        # exactly, the second breakdown, and the solve stops unconverged
        seeds = []
        default_rng = np.random.default_rng

        def recording_rng(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        _, report = bicgstab(lambda v: A @ v, np.array([1.0, 2.0]))
        assert seeds == [1]
        assert not report.converged
        assert report.matvecs == 3


class TestStoppingTolerance:
    def test_table_value_p2(self):
        assert stopping_tolerance(7.1e-2, 0.1) == pytest.approx(7.1e-3)

    def test_table_value_p3(self):
        assert stopping_tolerance(3.3e-2, 0.1) == pytest.approx(3.3e-3)

    def test_unit_error(self):
        assert stopping_tolerance(1.0, 0.1) == pytest.approx(0.1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            stopping_tolerance(0.0, 0.1)
        with pytest.raises(ValueError):
            stopping_tolerance(-1e-3, 0.1)


class TestKrylovReport:
    def test_history_invariant(self):
        b = np.random.default_rng(7).standard_normal(20)
        _, report = cg(lambda v: 2 * v, b, tol=1e-12)
        assert report.residuals[0] == 1.0
        assert report.residuals[-1] <= 1e-12
