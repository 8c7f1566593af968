# -*- coding: utf-8 -*-
"""Parametric-to-physical geometry maps with exact Jacobians.

A :class:`GeometryMap` evaluates F and J_F at batches of parametric points
given as an array of shape (npts, d).  The quarter-ring map is analytic
(polar coordinates) and parametrizes the thick quarter annulus
{1 <= x1^2 + x2^2 <= 4, x1 >= 0, x2 >= 0, 0 <= x3 <= 1} exactly.

Point arrays keep the shape (npts, d) and Jacobians (npts, d, d), but the
two ring maps and :func:`pullback` return them as views of component-major
(d, npts) and (d, d, npts) storage, so that every coordinate array
``x[:, l]`` and entry array ``J[:, i, j]`` is contiguous.  Every function
here accepts either layout.

:func:`pullback` is the one place where Jacobians are turned into the
quantities integrals need (det J_F and its cofactors), and the one place
where a degenerate map is detected.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .splines import _basis_window

#: points per batch of :func:`spline_control_net_map`; bounds its scratch
#: memory at about _NET_CHUNK * (p+1)^d * d scalars
_NET_CHUNK = 1024

#: points per call of a lambdified expression list in :func:`_eval_rows`;
#: keeps its intermediate arrays (one per common subexpression) small
_ROW_CHUNK = 2**14


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


def _eval_rows(fn, xi, n_rows):
    """Values of a lambdified list of ``n_rows`` expressions at points xi.

    Returns (n_rows, npts) storage, filled ``_ROW_CHUNK`` points at a
    time; constant entries are broadcast.
    """
    out = np.empty((n_rows, len(xi)))
    for s in range(0, len(xi), _ROW_CHUNK):
        for r, v in enumerate(fn(*xi[s:s + _ROW_CHUNK].T)):
            out[r, s:s + _ROW_CHUNK] = v
    return out


def pullback(geom: GeometryMap, xi: np.ndarray):
    """det J_F and the cofactor matrix of J_F at parametric points (d <= 3).

    Returns ``(det, cof)`` of shapes (npts,) and (npts, d, d), in closed
    form from the entries of J_F, so that J_F^-1 = cof^T / det and
    J_F^-T grad = cof @ grad / det; ``cof`` is stored component-major.
    J_F itself is not kept.  Raises :class:`DegenerateGeometryError` at the
    first point where det J_F <= 0.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    J = geom.jacobian(xi)
    n, d = J.shape[:2]
    if d > 3:
        raise ValueError(f"closed-form pullback needs dimension <= 3, got {d}")
    cof = np.empty((d, d, n)).transpose(2, 0, 1)
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
                c = cof[:, i, j]
                np.multiply(J[:, i1, j1], J[:, i2, j2], out=c)
                c -= J[:, i1, j2] * J[:, i2, j1]
    det = J[:, 0, 0] * cof[:, 0, 0]
    for j in range(1, d):
        det += J[:, 0, j] * cof[:, 0, j]
    bad = det <= 0
    if np.any(bad):
        q = int(np.argmax(bad))
        raise DegenerateGeometryError(tuple(xi[q]), float(det[q]))
    return det, cof


def identity_map(d: int = 3) -> GeometryMap:
    def _map(xi):
        return xi.copy(order="K")

    def _jac(xi):
        return np.broadcast_to(np.eye(d), (len(xi), d, d)).copy()

    return GeometryMap(dim=d, _map=_map, _jacobian=_jac)


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

    return GeometryMap(dim=d, _map=_map, _jacobian=_jac)


def quarter_ring_map() -> GeometryMap:
    """Thick quarter ring: F(xi) = ((1+xi1) cos(pi xi2 / 2), (1+xi1) sin(pi xi2 / 2), xi3).

    det J_F = (pi/2) (1 + xi1) > 0 on [0,1]^3.
    """

    def _map(xi):
        r = 1.0 + xi[:, 0]
        th = np.pi / 2 * xi[:, 1]
        x = np.empty((3, len(xi)))
        x[0] = r * np.cos(th)
        x[1] = r * np.sin(th)
        x[2] = xi[:, 2]
        return x.T

    def _jac(xi):
        r = 1.0 + xi[:, 0]
        th = np.pi / 2 * xi[:, 1]
        c, s = np.cos(th), np.sin(th)
        J = np.zeros((3, 3, len(xi)))
        J[0, 0] = c
        J[0, 1] = -np.pi / 2 * r * s
        J[1, 0] = s
        J[1, 1] = np.pi / 2 * r * c
        J[2, 2] = 1.0
        return J.transpose(2, 0, 1)

    return GeometryMap(dim=3, _map=_map, _jacobian=_jac)


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
    # a flat list, so that cse=True shares subexpressions among all entries
    J = [sympy.diff(F[i], s) for i in range(3) for s in (a, b, c)]
    F_fn = sympy.lambdify((a, b, c), F, "numpy", cse=True)
    J_fn = sympy.lambdify((a, b, c), J, "numpy", cse=True)

    def _jac(xi):
        return _eval_rows(J_fn, xi, 9).reshape(3, 3, -1).transpose(2, 0, 1)

    return GeometryMap(dim=3, _map=lambda xi: _eval_rows(F_fn, xi, 3).T, _jacobian=_jac)


def spline_control_net_map(space_kvs, control_points: np.ndarray) -> GeometryMap:
    """Geometry from a B-spline control net over the full (boundary-included) basis.

    ``control_points`` has shape (m_1, ..., m_d, d) with the index of
    direction 1 first.  Points are evaluated in chunks of at most
    ``_NET_CHUNK``: per chunk, each direction's nonzero basis values come
    from one batched evaluation, and each point's (p+1)^d block of the net
    is gathered and contracted with them.
    """
    kvs = tuple(space_kvs)
    d = len(kvs)
    cp = np.asarray(control_points, dtype=float)
    if cp.shape != tuple(kv.n_funcs for kv in kvs) + (d,):
        raise ValueError("control point array shape mismatch")

    def _net(xi, deriv_dirs):
        """Column c: the map differentiated along direction deriv_dirs[c]
        (None: not differentiated), shape (npts, d, len(deriv_dirs))."""
        out = np.empty((len(xi), d, len(deriv_dirs)))
        for s in range(0, len(xi), _NET_CHUNK):
            x = xi[s : s + _NET_CHUNK]
            index, rows = [], []
            for l, kv in enumerate(kvs):
                (first, B0), (_, B1) = (_basis_window(kv, x[:, l], b) for b in (0, 1))
                shape = [len(x)] + [1] * d
                shape[l + 1] = kv.degree + 1
                index.append((first[:, None] + np.arange(kv.degree + 1)).reshape(shape))
                rows.append((B0, B1))
            block = cp[tuple(index)]  # (n, w_1, ..., w_d, d)
            for c, dl in enumerate(deriv_dirs):
                val = block
                for l, r in enumerate(rows):
                    val = np.einsum("ni,ni...->n...", r[l == dl], val)
                out[s : s + len(x), :, c] = val
        return out

    return GeometryMap(dim=d, _map=lambda xi: _net(xi, [None])[:, :, 0],
                       _jacobian=lambda xi: _net(xi, range(d)))
