# -*- coding: utf-8 -*-
"""Parametric-to-physical geometry maps with exact Jacobians.

A :class:`GeometryMap` evaluates F and J_F at batches of parametric points
given as an array of shape (npts, d).  The quarter-ring map is analytic
(polar coordinates) and parametrizes the thick quarter annulus
{1 <= x1^2 + x2^2 <= 4, x1 >= 0, x2 >= 0, 0 <= x3 <= 1} exactly.

:func:`pullback` is the one place where Jacobians are turned into the
quantities integrals need (det J_F and its cofactors), and the one place
where a degenerate map is detected.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


class DegenerateGeometryError(RuntimeError):
    def __init__(self, point, det):
        self.point = point
        self.det = det
        super().__init__(
            f"non-positive Jacobian determinant {det:.3e} at parametric point {point}"
        )


@dataclass(frozen=True)
class GeometryMap:
    dim: int
    kind: str
    _map: Callable
    _jacobian: Callable

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        """Physical coordinates of parametric points, shape (npts, d)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        return self._map(xi)

    def jacobian(self, xi: np.ndarray) -> np.ndarray:
        """Jacobian matrices at parametric points, shape (npts, d, d)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        return self._jacobian(xi)

    def jacobian_fd(self, xi: np.ndarray, eps: float = 1e-6) -> np.ndarray:
        """Central-difference Jacobian, for validation only."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        npts, d = xi.shape
        J = np.empty((npts, d, d))
        for l in range(d):
            xp = xi.copy()
            xm = xi.copy()
            xp[:, l] += eps
            xm[:, l] -= eps
            J[:, :, l] = (self.evaluate(xp) - self.evaluate(xm)) / (2 * eps)
        return J


def pullback(geom: GeometryMap, xi: np.ndarray):
    """det J_F and the cofactor matrix of J_F at parametric points (d <= 3).

    Returns ``(det, cof)`` of shapes (npts,) and (npts, d, d), in closed
    form, so that J_F^-1 = cof^T / det and J_F^-T grad = cof @ grad / det.
    J_F itself is not kept.  Raises :class:`DegenerateGeometryError` at the
    first point where det J_F <= 0.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    J = geom.jacobian(xi)
    d = J.shape[1]
    if d > 3:
        raise ValueError(f"closed-form pullback needs dimension <= 3, got {d}")
    cof = np.empty_like(J)
    if d == 1:
        cof[:, 0, 0] = 1.0
    elif d == 2:
        cof[:, 0, 0] = J[:, 1, 1]
        cof[:, 0, 1] = -J[:, 1, 0]
        cof[:, 1, 0] = -J[:, 0, 1]
        cof[:, 1, 1] = J[:, 0, 0]
    else:
        for i in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                j1, j2 = (j + 1) % 3, (j + 2) % 3
                cof[:, i, j] = J[:, i1, j1] * J[:, i2, j2] - J[:, i1, j2] * J[:, i2, j1]
    det = np.einsum("qj,qj->q", J[:, 0, :], cof[:, 0, :])
    bad = det <= 0
    if np.any(bad):
        q = int(np.argmax(bad))
        raise DegenerateGeometryError(tuple(xi[q]), float(det[q]))
    return det, cof


def identity_map(d: int = 3) -> GeometryMap:
    def _map(xi):
        return xi.copy()

    def _jac(xi):
        return np.broadcast_to(np.eye(d), (len(xi), d, d)).copy()

    return GeometryMap(dim=d, kind="identity", _map=_map, _jacobian=_jac)


def affine_map(A: np.ndarray, b: np.ndarray) -> GeometryMap:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    d = A.shape[0]
    if np.linalg.det(A) <= 0:
        raise ValueError("affine map must be orientation-preserving")

    def _map(xi):
        return xi @ A.T + b

    def _jac(xi):
        return np.broadcast_to(A, (len(xi), d, d)).copy()

    return GeometryMap(dim=d, kind="affine", _map=_map, _jacobian=_jac)


def quarter_ring_map() -> GeometryMap:
    """Thick quarter ring: F(xi) = ((1+xi1) cos(pi xi2 / 2), (1+xi1) sin(pi xi2 / 2), xi3).

    det J_F = (pi/2) (1 + xi1) > 0 on [0,1]^3.
    """

    def _map(xi):
        r = 1.0 + xi[:, 0]
        th = np.pi / 2 * xi[:, 1]
        return np.stack([r * np.cos(th), r * np.sin(th), xi[:, 2]], axis=1)

    def _jac(xi):
        r = 1.0 + xi[:, 0]
        th = np.pi / 2 * xi[:, 1]
        c, s = np.cos(th), np.sin(th)
        J = np.zeros((len(xi), 3, 3))
        J[:, 0, 0] = c
        J[:, 0, 1] = -np.pi / 2 * r * s
        J[:, 1, 0] = s
        J[:, 1, 1] = np.pi / 2 * r * c
        J[:, 2, 2] = 1.0
        return J

    return GeometryMap(dim=3, kind="analytic-quarter-ring", _map=_map, _jacobian=_jac)


def quarter_ring_rational_map() -> GeometryMap:
    """Thick quarter ring via the rational quadratic Bezier arc.

    Same point set as :func:`quarter_ring_map`, but the angular coordinate
    follows the standard rational quadratic parametrization of the quarter
    circle (control points (1,0), (1,1), (0,1), middle weight sqrt(2)/2),
    i.e. the parametric speed is nonuniform.  This is the parametrization
    conventionally used when the ring is modeled as a NURBS patch, and it
    is the one the benchmark reproduction targets.
    """
    import sympy

    a, b, c = sympy.symbols("a b c")
    w = (1 - b) ** 2 + sympy.sqrt(2) * b * (1 - b) + b**2
    cx = ((1 - b) ** 2 + sympy.sqrt(2) / 2 * 2 * b * (1 - b)) / w
    cy = (sympy.sqrt(2) / 2 * 2 * b * (1 - b) + b**2) / w
    F = [(1 + a) * cx, (1 + a) * cy, c]
    J = [[sympy.diff(F[i], s) for s in (a, b, c)] for i in range(3)]
    F_fn = sympy.lambdify((a, b, c), F, "numpy")
    J_fn = sympy.lambdify((a, b, c), J, "numpy")

    def _map(xi):
        out = F_fn(xi[:, 0], xi[:, 1], xi[:, 2])
        return np.stack(
            [np.broadcast_to(np.asarray(o, dtype=float), (len(xi),)) for o in out],
            axis=1,
        )

    def _jac(xi):
        rows = J_fn(xi[:, 0], xi[:, 1], xi[:, 2])
        Jm = np.empty((len(xi), 3, 3))
        for i in range(3):
            for j in range(3):
                Jm[:, i, j] = np.broadcast_to(
                    np.asarray(rows[i][j], dtype=float), (len(xi),)
                )
        return Jm

    return GeometryMap(
        dim=3, kind="rational-quarter-ring", _map=_map, _jacobian=_jac
    )


def spline_control_net_map(space_kvs, control_points: np.ndarray) -> GeometryMap:
    """Geometry from a B-spline control net over the full (boundary-included) basis.

    ``control_points`` has shape (m_1, ..., m_d, d) with the index of
    direction 1 first.
    """
    from .splines import collocation_matrix

    kvs = tuple(space_kvs)
    d = len(kvs)
    cp = np.asarray(control_points, dtype=float)
    if cp.shape != tuple(kv.n_funcs for kv in kvs) + (d,):
        raise ValueError("control point array shape mismatch")

    def _map(xi):
        return _contract_all(xi, None)

    def _contract_all(xi, deriv_dir):
        npts = len(xi)
        out = np.empty((npts, d))
        for q in range(npts):
            rows = [
                collocation_matrix(
                    kvs[l], [xi[q, l]], 1 if deriv_dir == l else 0
                ).toarray()[0]
                for l in range(d)
            ]
            val = cp
            for l in range(d - 1, -1, -1):
                val = np.tensordot(rows[l], val, axes=([0], [l]))
            out[q] = val
        return out

    def _jac(xi):
        J = np.empty((len(xi), d, d))
        for l in range(d):
            J[:, :, l] = _contract_all(xi, l)
        return J

    return GeometryMap(dim=d, kind="spline-control-net", _map=_map, _jacobian=_jac)
