# -*- coding: utf-8 -*-
"""Parametric-to-physical geometry maps with exact Jacobians.

A :class:`GeometryMap` evaluates F and J_F at batches of parametric points
given as an array of shape (npts, d).  A map may declare itself an
extrusion in its last direction, F(xi) = (G(xi_1, ..., xi_{d-1}), xi_d)
with J_F = blockdiag(J_G, 1): :func:`extrude` builds it from the planar
map G, kept as ``planar``.  The 3D cube and both quarter rings are
extrusions.  The rings' planar maps (polar coordinates and the rational
quadratic arc) are numpy closed forms, evaluated in chunks by
:func:`_eval_rows`, and parametrize the thick quarter annulus
{1 <= x1^2 + x2^2 <= 4, x1 >= 0, x2 >= 0, 0 <= x3 <= 1} exactly.

Every sine and cosine of a closed form, here and in
:mod:`igamf.problems`, comes from :func:`_sincos`, in the half-angle
form: sin t and cos t from one tan(t/2), within 2.2e-16 absolute of
numpy's sine and cosine at a fraction of their cost.

Point arrays keep the shape (npts, d) and Jacobians (npts, d, d), but the
ring maps, extrusions and :func:`pullback` return them as views of
component-major (d, npts) and (d, d, npts) storage, so that every
coordinate array ``x[:, l]`` and entry array ``J[:, i, j]`` is contiguous.
Every function here accepts either layout.

:func:`pullback` is the one place where Jacobians are turned into the
quantities integrals need (det J_F and its cofactors), and the one place
where a degenerate map is detected.  On an extrusion it forms them from
J_G alone, and they do not depend on xi_d.  The two passes that need the
geometry at a tensor grid's points, the load vector
(:func:`~igamf.operators.wq_load_vector`) and the error pass
(:func:`~igamf.problems.relative_errors`), take it from one pair:
:func:`grid_plane` returns the grid's (xi_1, ..., xi_{d-1}) plane and
:func:`chunk_pullback` det J_F, J_F^-T and F on one chunk of layers times
plane points, as values that broadcast.  Only these two ask which map
they have: on an extrusion the plane holds det J_F, J_F^-T and G once per
plane point and a chunk slices them; any other map is pulled back and
mapped at each chunk's points.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kron


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
    #: G when the map is the extrusion F(xi) = (G(xi_1, ..., xi_{d-1}), xi_d)
    #: (see :func:`extrude`); None for any other map
    planar: "GeometryMap | None" = None

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        """Physical coordinates of parametric points, shape (npts, d)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        return self._map(xi)

    def jacobian(self, xi: np.ndarray) -> np.ndarray:
        """Jacobian matrices at parametric points, shape (npts, d, d)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        return self._jacobian(xi)


def _eval_rows(fn, xi, n_rows):
    """Values of a row function ``fn(x_1, ..., x_d)`` at points xi.

    ``fn`` takes the d coordinate arrays and returns ``n_rows`` value
    arrays (or scalars).  Returns (n_rows, npts) storage, filled
    :data:`~igamf.kron.CHUNK_POINTS` points at a time; constant entries
    are broadcast.
    """
    out = np.empty((n_rows, len(xi)))
    step = kron.CHUNK_POINTS
    for s in range(0, len(xi), step):
        for r, v in enumerate(fn(*xi[s:s + step].T)):
            out[r, s:s + step] = v
    return out


def _sincos(t):
    """sin t and cos t from one tan(t/2): with tau = tan(t/2),

        sin t = 2 tau / (1 + tau^2),  cos t = (1 - tau^2) / (1 + tau^2).

    One float64 ``np.tan`` costs about a tenth of numpy's sine or cosine,
    and both results stay within 2.2e-16 absolute of those, also next to
    the poles of tan(t/2) (t an odd multiple of pi), where tau is large
    but finite in floating point.
    """
    tau = np.tan(0.5 * t)
    tt = tau * tau
    inv = 1 / (1 + tt)
    return 2 * tau * inv, (1 - tt) * inv


def pullback(geom: GeometryMap, xi: np.ndarray):
    """det J_F and the cofactor matrix of J_F at parametric points (d <= 3).

    Returns ``(det, cof)`` of shapes (npts,) and (npts, d, d), in closed
    form from the entries of J_F, so that J_F^-1 = cof^T / det and
    J_F^-T grad = cof @ grad / det; ``cof`` is stored component-major.
    On an extrusion (:func:`extrude`) only J_G is evaluated, and
    det = det J_G, cof = blockdiag(cof_G, det J_G).  The Jacobian is
    evaluated :data:`~igamf.kron.CHUNK_POINTS` points at a time into these
    outputs and never kept.  Raises :class:`DegenerateGeometryError` at the
    first point where det J_F <= 0, reporting its full d-dimensional
    parametric point.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    n, d = xi.shape
    if d > 3:
        raise ValueError(f"closed-form pullback needs dimension <= 3, got {d}")
    det = np.empty(n)
    if geom.planar is None:
        jacobian, xj, cof = geom.jacobian, xi, np.empty((d, d, n))
    else:
        # only cof_G is written below: the off-diagonal blocks stay zero
        jacobian, xj = geom.planar.jacobian, xi[:, :-1]
        cof = np.zeros((d, d, n))
    cof = cof.transpose(2, 0, 1)
    k, step = xj.shape[1], kron.CHUNK_POINTS
    for s in range(0, n, step):
        J = jacobian(xj[s:s + step])
        dt, cf = det[s:s + step], cof[s:s + step, :k, :k]
        if k == 1:
            cf[:, 0, 0] = 1.0
        elif k == 2:
            cf[:, 0, 0] = J[:, 1, 1]
            cf[:, 0, 1] = -J[:, 1, 0]
            cf[:, 1, 0] = -J[:, 0, 1]
            cf[:, 1, 1] = J[:, 0, 0]
        else:
            for i in range(3):
                i1, i2 = (i + 1) % 3, (i + 2) % 3
                for j in range(3):
                    j1, j2 = (j + 1) % 3, (j + 2) % 3
                    c = cf[:, i, j]
                    np.multiply(J[:, i1, j1], J[:, i2, j2], out=c)
                    c -= J[:, i1, j2] * J[:, i2, j1]
        np.multiply(J[:, 0, 0], cf[:, 0, 0], out=dt)
        for j in range(1, k):
            dt += J[:, 0, j] * cf[:, 0, j]
        bad = dt <= 0
        if np.any(bad):
            q = s + int(np.argmax(bad))
            raise DegenerateGeometryError(tuple(xi[q]), float(det[q]))
    if geom.planar is not None:
        cof[:, -1, -1] = det
    return det, cof


def grid_plane(geom: GeometryMap, pts):
    """The (xi_1, ..., xi_{d-1}) plane of the tensor grid with the d
    per-direction point arrays ``pts`` (direction 1 fastest), which serves
    every xi_d layer of the grid in :func:`chunk_pullback`.

    Returns ``(det, inv, rows)``.  On an extrusion (:func:`extrude`) the
    geometry is evaluated here, once per plane point, at the grid's first
    xi_d point: det J_F (n_plane,), the planar block of J_F^-T = cof / det
    (d-1, d-1, n_plane) and the coordinate rows of G (d-1, n_plane),
    filled whole plane rows at a time, about
    :data:`~igamf.kron.CHUNK_POINTS` points per batch, so the plane's
    scratch is one batch's; a degenerate point raises
    :class:`DegenerateGeometryError` with its full parametric point.  On
    any other map det and inv are None and the rows are the plane's
    parametric coordinates (d-1, n_plane); in d = 1 the plane is one point.
    """
    *lower, last = pts
    if geom.planar is None:
        return None, None, kron.tensor_grid([*lower, last[:1]])[:-1]
    k = len(lower)
    n = int(np.prod([len(q) for q in lower]))
    det, inv, rows = np.empty(n), np.empty((k, k, n)), np.empty((k, n))
    step = n // len(lower[-1])  # points per step of the slowest direction
    for s in kron.grid_slabs([len(q) for q in lower], kron.CHUNK_POINTS):
        xi = kron.tensor_grid([*lower[:-1], lower[-1][s], last[:1]])
        b = slice(s.start * step, s.stop * step)
        det[b], cof = pullback(geom, xi.T)
        np.divide(cof.transpose(1, 2, 0)[:k, :k], det[b], out=inv[..., b])
        del cof  # else the next batch's pullback runs beside it
        rows[:, b] = geom.planar.evaluate(xi[:k].T).T
    return det, inv, rows


def chunk_pullback(geom: GeometryMap, plane, t, part):
    """det J_F, J_F^-T and F on one chunk of a tensor grid: the xi_d layers
    ``t`` (L of them) times the points ``part`` (a slice, P points) of the
    :func:`grid_plane` ``plane``.

    Returns ``(det, inv, x)``, each value broadcasting to (L, P): ``inv``
    lists the leading k x k block of J_F^-T = cof / det, whose other rows
    and columns are those of the identity, and ``x`` the d coordinate
    arrays of F.  On an extrusion these are the plane's (P,) slices, k =
    d - 1, and x_d = t as an (L, 1) column, so nothing of layer size is
    formed; on any other map the chunk's points are pulled back
    (:func:`pullback`) and mapped, k = d and every value is (L, P).
    """
    det, inv, rows = plane
    if geom.planar is not None:
        return det[part], inv[..., part], (*rows[:, part], t[:, None])
    d = len(rows) + 1
    xi = np.empty((d, len(t), part.stop - part.start))
    xi[:-1] = rows[:, None, part]
    xi[-1] = t[:, None]
    xi = xi.reshape(d, -1).T
    det, cof = pullback(geom, xi)
    inv = cof.transpose(1, 2, 0)  # the (d, d, npts) storage
    inv /= det
    shape = (len(t), -1)
    return (det.reshape(shape), inv.reshape((d, d) + shape),
            tuple(geom.evaluate(xi).T.reshape((d,) + shape)))


def extrude(planar: GeometryMap) -> GeometryMap:
    """The map F(xi) = (G(xi_1, ..., xi_{d-1}), xi_d) of the planar map G.

    J_F = blockdiag(J_G, 1), and ``planar`` is G, which :func:`pullback`
    and the error pass use directly.  F and J_F call G's own functions, so
    one evaluation of F is one evaluation of G.
    """
    d = planar.dim + 1

    def _map(xi):
        x = np.empty((d, len(xi))).T
        x[:, :-1] = planar._map(xi[:, :-1])
        x[:, -1] = xi[:, -1]
        return x

    def _jac(xi):
        J = np.zeros((d, d, len(xi))).transpose(2, 0, 1)
        J[:, :-1, :-1] = planar._jacobian(xi[:, :-1])
        J[:, -1, -1] = 1.0
        return J

    return GeometryMap(dim=d, _map=_map, _jacobian=_jac, planar=planar)


def identity_map(d: int = 3) -> GeometryMap:
    """The identity of [0, 1]^d; in 3D, the extrusion of the 2D identity."""
    if d == 3:
        return extrude(identity_map(2))

    def _map(xi):
        return xi.copy(order="K")

    def _jac(xi):
        return np.broadcast_to(np.eye(d), (len(xi), d, d)).copy()

    return GeometryMap(dim=d, _map=_map, _jacobian=_jac)


def _row_map(map_rows, jacobian_rows) -> GeometryMap:
    """A 2D map whose G and J_G are row functions of :func:`_eval_rows`
    (2 and 4 rows, J_G row-major)."""

    def _jac(xi):
        J = _eval_rows(jacobian_rows, xi, 4)
        return J.reshape(2, 2, -1).transpose(2, 0, 1)

    return GeometryMap(dim=2, _map=lambda xi: _eval_rows(map_rows, xi, 2).T,
                       _jacobian=_jac)


def _polar_map_rows(a, b):
    r = 1.0 + a
    s, co = _sincos(np.pi / 2 * b)
    return r * co, r * s


def _polar_jacobian_rows(a, b):
    r = 1.0 + a
    s, c = _sincos(np.pi / 2 * b)
    return c, -np.pi / 2 * r * s, s, np.pi / 2 * r * c


def quarter_ring_map() -> GeometryMap:
    """Thick quarter ring: F(xi) = ((1+xi1) cos(pi xi2 / 2), (1+xi1) sin(pi xi2 / 2), xi3).

    An extrusion (:func:`extrude`); det J_F = (pi/2) (1 + xi1) > 0 on [0,1]^3.
    """
    return extrude(_row_map(_polar_map_rows, _polar_jacobian_rows))


def _arc(b):
    """Rational quadratic quarter arc at b: (cos, sin) = (nx, ny) / w.

    Returns (nx, ny, w) with nx = (1-b)^2 + q, ny = b^2 + q and
    w = (1-b)^2 + q + b^2, where q = sqrt(2) b (1-b) is the weighted
    middle control point's term.
    """
    o = 1 - b
    q = np.sqrt(2) * b * o
    bb = b * b
    nx = o * o + q
    return nx, bb + q, nx + bb


def _ring_map_rows(a, b):
    nx, ny, w = _arc(b)
    r = (1 + a) / w
    return nx * r, ny * r


def _ring_jacobian_rows(a, b):
    # the arc point (cx, cy) is a unit vector turning at angular speed
    # sqrt(2) / w, so d(cx, cy)/db = sqrt(2) / w * (-cy, cx)
    nx, ny, w = _arc(b)
    inv = 1 / w
    cx, cy = nx * inv, ny * inv
    speed = np.sqrt(2) * (1 + a) * inv
    return cx, -speed * cy, cy, speed * cx


def quarter_ring_rational_map() -> GeometryMap:
    """Thick quarter ring via the rational quadratic Bezier arc.

    Same point set as :func:`quarter_ring_map`, but the angular coordinate
    follows the standard rational quadratic parametrization of the quarter
    circle (control points (1,0), (1,1), (0,1), middle weight sqrt(2)/2),
    i.e. the parametric speed is nonuniform.  This is the parametrization
    conventionally used when the ring is modeled as a NURBS patch, and it
    is the one the benchmark reproduction targets.

    F(a, b, c) = ((1+a) cx(b), (1+a) cy(b), c) with the arc (cx, cy) of
    :func:`_arc`, an extrusion (:func:`extrude`); every Jacobian entry
    depends on b alone, up to the factor (1+a).
    """
    return extrude(_row_map(_ring_map_rows, _ring_jacobian_rows))
