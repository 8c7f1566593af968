import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from igamf import CostMeter, kron_apply, kron_materialize, tensor_grid


def dense_kron_flops(s, t, d):
    """Flop count of sum-factorization with d dense s-by-t factors."""
    return 2 * s * t * sum(s**k * t ** (d - 1 - k) for k in range(d))


def sparse_kron_flop_bound(factors):
    """Upper bound on sum-factorization flops for sparse factors."""
    d = len(factors)
    s = max(f.shape[0] for f in factors)
    t = max(f.shape[1] for f in factors)
    max_nnz = max(f.nnz for f in factors)
    return 2 * max_nnz * sum(s**k * t ** (d - 1 - k) for k in range(d))


def random_factors(rng, d, smax=6):
    return [rng.standard_normal((rng.integers(1, smax + 1),
                                 rng.integers(1, smax + 1)))
            for _ in range(d)]


class TestKronApply:
    def test_identity_factors(self):
        factors = [np.eye(3), np.eye(2), np.eye(4)]
        x = np.arange(24.0)
        assert np.array_equal(kron_apply(factors, x), x)

    def test_two_factor_example(self):
        A1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        A2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = np.array([1.0, 0.0, 0.0, 0.0])
        expected = np.kron(A2, A1) @ x
        assert np.allclose(kron_apply([A1, A2], x), expected)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kron_apply([np.eye(2), np.eye(2)], np.zeros(5))

    def test_random_rectangular_vs_materialized(self):
        rng = np.random.default_rng(7)
        factors = [rng.standard_normal((3, 4)) for _ in range(3)]
        M = kron_materialize(factors)
        for _ in range(10):
            x = rng.standard_normal(64)
            y = kron_apply(factors, x)
            ref = M @ x
            assert np.linalg.norm(y - ref) <= 1e-13 * np.linalg.norm(ref)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_oracle_equivalence_property(self, seed, d):
        rng = np.random.default_rng(seed)
        factors = random_factors(rng, d)
        t = int(np.prod([f.shape[1] for f in factors]))
        x = rng.standard_normal(t)
        ref = kron_materialize(factors) @ x
        y = kron_apply(factors, x)
        assert np.linalg.norm(y - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bilinearity_in_x(self, seed):
        rng = np.random.default_rng(seed)
        factors = random_factors(rng, 3, smax=4)
        t = int(np.prod([f.shape[1] for f in factors]))
        x1, x2 = rng.standard_normal((2, t))
        a, b = rng.standard_normal(2)
        lhs = kron_apply(factors, a * x1 + b * x2)
        rhs = a * kron_apply(factors, x1) + b * kron_apply(factors, x2)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_sparse_factors(self):
        rng = np.random.default_rng(1)
        factors = [sp.random(5, 6, density=0.4, random_state=i,
                             format="csr") for i in range(3)]
        x = rng.standard_normal(216)
        ref = kron_materialize(factors) @ x
        assert np.allclose(kron_apply(factors, x), ref, atol=1e-12)


class TestKronMaterialize:
    def test_single_factor_passthrough(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        M = kron_materialize([A])
        assert np.allclose(np.asarray(M.todense() if sp.issparse(M) else M), A)

    def test_block_layout_2x2(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        B = np.array([[5.0, 6.0], [7.0, 8.0]])
        # factors ordered direction-1 first: matrix is A2 kron A1
        M = np.asarray(kron_materialize([B, A]).todense())
        assert np.allclose(M, np.kron(A, B))

    def test_size_guard(self):
        A = np.ones((200, 200))
        with pytest.raises(MemoryError):
            kron_materialize([A, A], max_entries=10**6)

    def test_entry_identity(self):
        rng = np.random.default_rng(5)
        factors = [rng.standard_normal((3, 2)) for _ in range(2)]
        M = np.asarray(kron_materialize(factors).todense())
        for i1 in range(3):
            for i2 in range(3):
                for j1 in range(2):
                    for j2 in range(2):
                        assert M[i2 * 3 + i1, j2 * 2 + j1] == pytest.approx(
                            factors[0][i1, j1] * factors[1][i2, j2])


class TestCostAccounting:
    def test_dense_flops_formula(self):
        s, t, d = 4, 4, 3
        factors = [np.ones((s, t))] * d
        meter = CostMeter()
        kron_apply(factors, np.ones(t**d), meter)
        expected = dense_kron_flops(s, t, d)
        assert expected == 2 * s * t * (t**2 + s * t + s**2)
        assert meter.flops == expected

    def test_sparse_flop_bound(self):
        factors = [sp.random(6, 6, density=0.3, random_state=i,
                             format="csr") for i in range(3)]
        meter = CostMeter()
        kron_apply(factors, np.ones(216), meter)
        assert meter.flops <= sparse_kron_flop_bound(factors)

    def test_meter_monotone_and_resettable(self):
        meter = CostMeter()
        kron_apply([np.eye(3)] * 2, np.ones(9), meter)
        first = meter.flops
        kron_apply([np.eye(3)] * 2, np.ones(9), meter)
        assert meter.flops == 2 * first
        meter.reset()
        assert meter.flops == 0

    def test_mixed_rectangular_shapes(self):
        # n_q x n followed by n x n_q shapes compose to the right sizes
        rng = np.random.default_rng(2)
        B = [rng.standard_normal((7, 4)) for _ in range(3)]
        W = [rng.standard_normal((4, 7)) for _ in range(3)]
        mid = kron_apply(B, rng.standard_normal(64))
        assert mid.shape == (343,)
        out = kron_apply(W, mid)
        assert out.shape == (64,)


class TestTensorGrid:
    def test_ordering_first_direction_fastest(self):
        X = tensor_grid([np.array([0.0, 1.0]), np.array([10.0, 20.0])])
        pts = np.stack(X, axis=1)
        assert np.allclose(pts, [[0, 10], [1, 10], [0, 20], [1, 20]])
