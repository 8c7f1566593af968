import numpy as np
import pytest

from conftest import affine_map, not_extruded, reparametrized_ring
from igamf import (identity_map, pullback, quarter_ring_map,
                   quarter_ring_rational_map)
from igamf import kron
from igamf.geometry import _sincos


def jacobian_fd(geom, xi, eps=1e-6):
    """Central-difference Jacobian of ``geom`` at (npts, d) points."""
    npts, d = xi.shape
    J = np.empty((npts, d, d))
    for l in range(d):
        xp = xi.copy()
        xm = xi.copy()
        xp[:, l] += eps
        xm[:, l] -= eps
        J[:, :, l] = (geom.evaluate(xp) - geom.evaluate(xm)) / (2 * eps)
    return J


def fd_defect(geom, n=100, seed=0):
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.01, 0.99, (n, geom.dim))
    return np.abs(geom.jacobian(xi) - jacobian_fd(geom, xi)).max()


class TestQuarterRing:
    def test_corner_points(self):
        g = quarter_ring_map()
        X = g.evaluate(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        assert np.allclose(X[0], [1.0, 0.0, 0.0], atol=1e-14)
        assert np.allclose(X[1], [0.0, 2.0, 1.0], atol=1e-14)

    def test_jacobian_determinant(self):
        g = quarter_ring_map()
        rng = np.random.default_rng(1)
        xi = rng.random((50, 3))
        det = np.linalg.det(g.jacobian(xi))
        assert np.allclose(det, (np.pi / 2) * (1 + xi[:, 0]), atol=1e-13)

    def test_volume_integral(self):
        # integral of det(J) over the cube = quarter-annulus volume 3 pi / 4
        g = quarter_ring_map()
        x, w = np.polynomial.legendre.leggauss(8)
        x = 0.5 * (x + 1)
        w = 0.5 * w
        X1, X2, X3 = np.meshgrid(x, x, x, indexing="ij")
        xi = np.stack([X1.ravel(), X2.ravel(), X3.ravel()], axis=1)
        W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
        vol = W @ np.linalg.det(g.jacobian(xi))
        assert vol == pytest.approx(3 * np.pi / 4, rel=1e-12)

    def test_fd_jacobian_agreement(self):
        assert fd_defect(quarter_ring_map()) <= 1e-6


class TestRationalQuarterRing:
    def test_same_point_set_as_polar(self):
        # same radii and the same arc endpoints, different arc speed
        g = quarter_ring_rational_map()
        rng = np.random.default_rng(2)
        xi = rng.random((100, 3))
        X = g.evaluate(xi)
        r = np.hypot(X[:, 0], X[:, 1])
        assert np.allclose(r, 1 + xi[:, 0], atol=1e-13)
        ends = g.evaluate(np.array([[0.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
        assert np.allclose(ends[0], [1.0, 0.0, 0.5], atol=1e-14)
        assert np.allclose(ends[1], [0.0, 1.0, 0.5], atol=1e-14)

    def test_fd_jacobian_agreement(self):
        assert fd_defect(quarter_ring_rational_map()) <= 1e-6

    def test_positive_determinant(self):
        g = quarter_ring_rational_map()
        rng = np.random.default_rng(3)
        xi = rng.random((200, 3))
        assert np.linalg.det(g.jacobian(xi)).min() > 0


class TestReparametrizedRing:
    def test_fd_jacobian_agreement(self):
        assert fd_defect(reparametrized_ring()) <= 1e-6

    def test_same_domain_as_ring(self):
        # the same (x1, x2) and the same faces xi_3 = 0, 1 as the ring, and
        # x3 rises with xi_3; not an extrusion
        g, ring = reparametrized_ring(), quarter_ring_rational_map()
        assert g.planar is None
        xi = np.random.default_rng(5).random((200, 3))
        X, R = g.evaluate(xi), ring.evaluate(xi)
        assert np.array_equal(X[:, :2], R[:, :2])
        for face in (0.0, 1.0):
            xf = xi.copy()
            xf[:, 2] = face
            assert np.array_equal(g.evaluate(xf)[:, 2], xf[:, 2])
        assert g.jacobian(xi)[:, 2, 2].min() > 0
        assert np.linalg.det(g.jacobian(xi)).min() > 0


class TestSimpleMaps:
    def test_identity(self):
        g = identity_map(3)
        xi = np.random.default_rng(0).random((10, 3))
        assert np.allclose(g.evaluate(xi), xi)
        assert np.allclose(g.jacobian(xi), np.eye(3))

    def test_affine(self):
        A = np.diag([2.0, 3.0, 1.0])
        b = np.array([1.0, -1.0, 0.0])
        g = affine_map(A, b)
        xi = np.random.default_rng(1).random((10, 3))
        assert np.allclose(g.evaluate(xi), xi @ A.T + b)
        assert np.allclose(g.jacobian(xi), A)

    def test_affine_rejects_orientation_reversal(self):
        with pytest.raises(ValueError):
            affine_map(np.diag([-1.0, 1.0, 1.0]), np.zeros(3))


EXTRUSIONS = [quarter_ring_map, quarter_ring_rational_map,
              lambda: identity_map(3)]


class TestExtrusion:
    @pytest.mark.parametrize("make", EXTRUSIONS)
    @pytest.mark.parametrize("layout", ["component-major", "c-order"])
    def test_pullback_matches_generic_cofactors(self, make, layout):
        # 2.5 chunks of points, so the planar path also runs chunk by chunk
        geom = make()
        assert geom.planar is not None and geom.planar.dim == 2
        rows = np.random.default_rng(4).random((3, 5 * kron.CHUNK_POINTS // 2))
        xi = rows.T if layout == "component-major" else np.ascontiguousarray(rows.T)
        det, cof = pullback(geom, xi)
        det_g, cof_g = pullback(not_extruded(geom), xi)
        assert np.abs(det - det_g).max() <= 1e-15 * np.abs(det_g).max()
        assert np.abs(cof - cof_g).max() <= 1e-15 * np.abs(cof_g).max()


class TestSincos:
    def test_matches_numpy(self):
        # t = 5 pi x over x in [0, 2], the oscillating case's range, with the
        # neighbours of every x = k/5: the poles of tan(t/2) (k odd) and the
        # zeros of sin
        k = np.arange(11) / 5
        x = np.concatenate([np.linspace(0, 2, 200001), k,
                            np.nextafter(k, -np.inf), np.nextafter(k, np.inf)])
        t = 5 * np.pi * x
        s, c = _sincos(t)
        assert np.abs(s - np.sin(t)).max() <= 2.3e-16
        assert np.abs(c - np.cos(t)).max() <= 2.3e-16
