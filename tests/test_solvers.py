import numpy as np
import pytest
import scipy.linalg

from conftest import fd_forward
from igamf import (FDPreconditioner, IndefiniteOperatorError, TensorSpace,
                   assemble_rhs, assemble_sgq, bicgstab, build_tensor_rule,
                   cg, exact_grams,
                   identity_map, kron_materialize, make_uniform_knots,
                   oscillating_case, quarter_ring_map, setup_stiffness,
                   stopping_tolerance, tensor_space)


class TestUnivariateMatrices:
    @pytest.mark.parametrize("p,n_el", [(1, 4), (4, 8), (8, 32)])
    def test_generalized_eigendecomposition_residual(self, p, n_el):
        kv = make_uniform_knots(p, n_el)
        K = exact_grams(kv)[(1, 1)].toarray()[1:-1, 1:-1]
        M = exact_grams(kv)[(0, 0)].toarray()[1:-1, 1:-1]
        import scipy.linalg
        lam, U = scipy.linalg.eigh(K, M)
        assert np.abs(K @ U - M @ U @ np.diag(lam)).max() <= 1e-10
        assert np.abs(U.T @ M @ U - np.eye(len(lam))).max() <= 1e-10
        assert lam.min() > 0


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

    def test_one_eigensolve_per_distinct_knot_vector(self, monkeypatch):
        calls = []
        eigh = scipy.linalg.eigh
        monkeypatch.setattr(scipy.linalg, "eigh",
                            lambda K, M: calls.append(K.shape) or eigh(K, M))
        FDPreconditioner(tensor_space(2, 4, 3))
        assert calls == [(4, 4)]
        # an anisotropic space keeps one eigensolve, and its own
        # eigenvectors, per direction
        calls.clear()
        space = TensorSpace((make_uniform_knots(2, 4), make_uniform_knots(2, 5),
                             make_uniform_knots(3, 3)))
        P = FDPreconditioner(space)
        assert calls == [(4, 4), (5, 5), (4, 4)]
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
        K = exact_grams(space.knotvectors[0])[(1, 1)].toarray()[1:-1, 1:-1]
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
        assert stopping_tolerance(7.1e-2) == pytest.approx(7.1e-3)

    def test_table_value_p3(self):
        assert stopping_tolerance(3.3e-2) == pytest.approx(3.3e-3)

    def test_unit_error(self):
        assert stopping_tolerance(1.0, 0.1) == pytest.approx(0.1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            stopping_tolerance(0.0)
        with pytest.raises(ValueError):
            stopping_tolerance(-1e-3)


class TestKrylovReport:
    def test_history_invariant(self):
        b = np.random.default_rng(7).standard_normal(20)
        _, report = cg(lambda v: 2 * v, b, tol=1e-12)
        assert report.residuals[0] == 1.0
        assert report.residuals[-1] <= 1e-12
