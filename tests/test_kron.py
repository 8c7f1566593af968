import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NaNEmpty
import igamf.kron
from igamf import CostMeter, kron_apply, kron_materialize, tensor_grid
from igamf.kron import banded


def dense_kron_flops(s, t, d):
    """Flop count of sum-factorization with d dense s-by-t factors."""
    return 2 * s * t * sum(s**k * t ** (d - 1 - k) for k in range(d))


def sparse_kron_flop_bound(factors):
    """Upper bound on sum-factorization flops for sparse factors."""
    d = len(factors)
    s = max(f.shape[0] for f in factors)
    t = max(f.shape[1] for f in factors)
    max_nnz = max(np.count_nonzero(f) for f in factors)
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
        factors = [sp.random(5, 6, density=0.4, random_state=i).toarray()
                   for i in range(3)]
        x = rng.standard_normal(216)
        ref = kron_materialize(factors) @ x
        assert np.allclose(kron_apply(factors, x), ref, atol=1e-12)


def band_factor(rng, m, n, width=3):
    """m x n factor whose rows hold ``width`` adjacent nonzeros sliding
    across the columns, the shape of a WQ or collocation factor."""
    A = np.zeros((m, n))
    for i in range(m):
        c0 = i * (n - width) // max(m - 1, 1)
        A[i, c0:c0 + width] = rng.standard_normal(width)
    return A


def as_kind(A, kind):
    return {"dense": A, "banded": banded(A)}[kind]


def mode_flops(factors):
    """2 nnz cols summed over the modes, contracted from direction d down;
    nnz is the factor's nonzero count."""
    shape = [A.shape[1] for A in factors]
    total = 0
    for l in reversed(range(len(factors))):
        A = factors[l]
        total += 2 * np.count_nonzero(A) * int(np.prod(shape)) // shape[l]
        shape[l] = A.shape[0]
    return total


class TestBandedKernel:
    """The banded-block kernel against the materialized Kronecker matrix.

    The kernel's scratch arrays start as NaN here, so an output entry it
    fails to write (an all-zero row block, a dropped tile) shows up.
    """

    @pytest.fixture(autouse=True)
    def nan_scratch(self, monkeypatch):
        monkeypatch.setattr(igamf.kron, "np", NaNEmpty())

    @pytest.mark.parametrize("kinds", [("dense",) * 3, ("banded",) * 3,
                                       ("dense", "banded", "dense"),
                                       ("banded", "dense", "banded")])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_factor_kinds(self, d, kinds):
        rng = np.random.default_rng(d)
        shapes = [(19, 11), (7, 13), (12, 9)][:d]
        source = [band_factor(rng, m, n) for m, n in shapes]
        factors = [as_kind(A, kind) for A, kind in zip(source, kinds)]
        x = rng.standard_normal(int(np.prod([n for _, n in shapes])))
        ref = kron_materialize(source) @ x
        meter = CostMeter()
        y = kron_apply(factors, x, meter)
        assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)
        assert meter.flops == mode_flops(source)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_all_zero_row_block(self, position):
        rng = np.random.default_rng(3)
        rb = igamf.kron.ROWS_PER_BLOCK
        Z = band_factor(rng, 3 * rb + 2, 9)
        Z[rb:2 * rb, :] = 0.0
        assert any(c0 == c1 for _, _, c0, c1, _ in banded(Z).blocks)
        factors = [band_factor(rng, 6, 5), band_factor(rng, 7, 4)]
        factors.insert(position, Z)
        x = rng.standard_normal(int(np.prod([A.shape[1] for A in factors])))
        ref = kron_materialize(factors) @ x
        y = kron_apply(factors, x)
        assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_column_sliced_last_factor(self):
        # the slab-wise load vector applies W[:-1] + [W[-1][:, s]]
        rng = np.random.default_rng(5)
        W = [band_factor(rng, 9, 20, width=5) for _ in range(3)]
        total = np.zeros(9**3)
        x = rng.standard_normal(20**3)
        for s in (slice(0, 7), slice(7, 14), slice(14, 20)):
            part = x.reshape(20, -1)[s].ravel()
            total += kron_apply(W[:-1] + [W[-1][:, s]], part)
        ref = kron_materialize(W) @ x
        assert np.linalg.norm(total - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("tile", [1, 5, 64])
    def test_several_column_tiles(self, monkeypatch, tile):
        monkeypatch.setattr(igamf.kron, "TILE_COLS", tile)
        rng = np.random.default_rng(6)
        source = [band_factor(rng, 11, 7), rng.standard_normal((6, 5)),
                  band_factor(rng, 17, 9)]
        factors = source[:2] + [banded(source[2])]
        x = rng.standard_normal(7 * 5 * 9)
        meter = CostMeter()
        y = kron_apply(factors, x, meter)
        ref = kron_materialize(source) @ x
        assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)
        assert meter.flops == mode_flops(source)


class TestBandedFormat:
    """:func:`banded` takes dense factors only, and cuts them one way."""

    def test_full_factor_is_one_block(self):
        rb = igamf.kron.ROWS_PER_BLOCK
        A = np.random.default_rng(8).standard_normal((3 * rb + 5, 13))
        f = banded(A)
        assert [b[:4] for b in f.blocks] == [(0, A.shape[0], 0, 13)]
        assert np.array_equal(f.blocks[0][4], A.T)
        assert f.nnz == A.size

    def test_banded_factor_keeps_row_windows(self, monkeypatch):
        monkeypatch.setattr(igamf.kron, "ROWS_PER_BLOCK", 4)
        A = np.zeros((18, 10))
        A[:8, 1:6] = 1.0  # two blocks over one window merge
        A[12:16, 4:9] = 2.0  # after an empty block
        A[16, 9] = 3.0  # a ragged last block
        f = banded(A)
        assert [b[:4] for b in f.blocks] == [(0, 8, 1, 6), (8, 12, 0, 0),
                                             (12, 16, 4, 9), (16, 18, 9, 10)]
        for r0, r1, c0, c1, blockT in f.blocks:
            assert np.array_equal(blockT, A[r0:r1, c0:c1].T)
        assert f.nnz == 8 * 5 + 4 * 5 + 1

    def test_sparse_factor_rejected(self):
        A = band_factor(np.random.default_rng(9), 6, 5)
        with pytest.raises(TypeError, match="csr"):
            banded(sp.csr_matrix(A))
        with pytest.raises(TypeError):
            kron_apply([A, sp.csr_matrix(A)], np.ones(25))


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
        factors = [sp.random(6, 6, density=0.3, random_state=i).toarray()
                   for i in range(3)]
        meter = CostMeter()
        kron_apply(factors, np.ones(216), meter)
        assert meter.flops <= sparse_kron_flop_bound(factors)

    def test_meter_monotone_and_resettable(self):
        meter = CostMeter()
        kron_apply([np.eye(3)] * 2, np.ones(9), meter)
        first = meter.flops
        kron_apply([np.eye(3)] * 2, np.ones(9), meter)
        assert meter.flops == 2 * first
        assert CostMeter().flops == 0

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


class TestGridChunks:
    @pytest.mark.parametrize("n_per_dir, points", [
        ((50,), 16),  # d = 1: more points than `points`, one chunk
        ((7, 40), 20),  # d = 2, rows below `points`: whole layers
        ((30, 9), 20),  # d = 2, one row above `points`: one layer
        ((4, 5, 23), 64),  # plane below `points`: whole layers
        ((6, 5, 23), 12),  # anisotropic plane above `points`: 2 layers
        ((9, 9, 9), 20),  # plane parts of unequal row counts, 2 layers
        ((4, 6, 17), 16),  # a slab's 3 layers times plane parts
        ((5, 4, 10), 12),  # 2 layers, ragged last block in every slab
        ((2, 3, 4, 7), 5),  # d = 4: 2 layers times parts of a 24-point plane
    ])
    def test_covers_grid_once_in_whole_rows(self, monkeypatch, n_per_dir,
                                            points):
        # three layers per slab: 23, 40, 9, 17, 10 and 7 layers leave a
        # ragged slab
        n = int(np.prod(n_per_dir[:-1]))
        monkeypatch.setattr(igamf.kron, "SLAB_POINTS", 3 * n)
        monkeypatch.setattr(igamf.kron, "CHUNK_POINTS", points)
        q1, total = n_per_dir[0], int(np.prod(n_per_dir))
        index = np.arange(total).reshape(n_per_dir[-1], n)
        seen = np.zeros(total, dtype=int)
        slabs = []
        for s, chunks in igamf.kron.grid_chunks(n_per_dir):
            slabs.append(s)
            n_layers = s.stop - s.start
            # layers per chunk: whole layers when the plane fits, else as
            # many of the slab's layers as fit with one direction-1 row
            step = max(1, points // n if n <= points
                       else min(n_layers, points // q1))
            for layers, part in chunks:
                # the chunk is the [layers, part] block of the slab's
                # (layer, plane point) view
                seen[index[s][layers, part]] += 1
                assert 0 <= layers.start < layers.stop <= n_layers
                if len(n_per_dir) == 1:
                    continue
                assert layers.start % step == 0
                assert layers.stop - layers.start == min(
                    step, n_layers - layers.start)
                assert part.start % q1 == 0 and part.stop % q1 == 0
                assert (layers.stop - layers.start) * (part.stop - part.start) \
                    < points + (layers.stop - layers.start) * q1
                if n <= points:
                    assert part == slice(0, n)
        assert (seen == 1).all()
        assert slabs[0].start == 0 and slabs[-1].stop == n_per_dir[-1]
        if len(n_per_dir) == 1:
            assert slabs == [slice(0, total)]
            assert chunks == [(slice(0, total), slice(0, 1))]
        else:
            assert len(slabs) == -(-n_per_dir[-1] // 3)
            assert all(a.stop == b.start for a, b in zip(slabs, slabs[1:]))
