# -*- coding: utf-8 -*-
"""Concrete benchmark problems: manufactured solutions and error norms.

The oscillating manufactured solution on the thick quarter ring is

    u(x) = sin(5 pi x1) sin(5 pi x2) sin(5 pi x3) (x1^2 + x2^2 - 1)(x1^2 + x2^2 - 4)

which vanishes on the whole boundary.  With S = prod_l sin(5 pi x_l) and
g = (r^2 - 1)(r^2 - 4), r^2 = x1^2 + x2^2, its source (K = I, alpha = 0) is

    f = -lap u = 75 pi^2 S g - 2 (4 r^2 - 10)(x1 d1 S + x2 d2 S) - S (16 r^2 - 20).

u, grad u and f of both cases are hand-written numpy closed forms.  Each
sine and its cosine come from one tan(t/2) per point and direction
(:func:`~igamf.geometry._sincos`, within 2.2e-16 absolute of numpy's
sine and cosine).  The test suite checks the formulas against a symbolic
derivation (with a test-only dependency) and against finite differences.
The error norms (:func:`relative_errors`) walk a tensor Gauss grid in the
chunks of :func:`~igamf.kron.grid_chunks`, as coefficient set-up does, so
their pointwise work runs on about :data:`~igamf.kron.CHUNK_POINTS`
points at a time.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .geometry import _eval_rows, _sincos, pullback
from .kron import (banded, checked_vector, grid_chunks, kron_apply,
                   tensor_grid)
from .splines import collocation_matrix, map_distinct
from .wq import gauss_points_weights

#: reference relative H1 errors of the fully solved quarter-ring benchmark,
#: keyed by (degree, mesh exponent); used to derive stopping tolerances.
QUARTER_RING_H1_REFERENCE = {
    (1, 4): 5.8e-1, (1, 5): 2.8e-1, (1, 6): 1.4e-1, (1, 7): 6.8e-2, (1, 8): 3.4e-2,
    (2, 4): 5.3e-1, (2, 5): 7.1e-2, (2, 6): 1.2e-2, (2, 7): 2.6e-3, (2, 8): 6.2e-4,
    (3, 4): 4.5e-1, (3, 5): 3.3e-2, (3, 6): 2.5e-3, (3, 7): 2.7e-4, (3, 8): 3.2e-5,
    (4, 4): 5.1e-1, (4, 5): 1.4e-2, (4, 6): 3.8e-4, (4, 7): 1.8e-5, (4, 8): 1.0e-6,
    (5, 4): 4.4e-1, (5, 5): 6.8e-3, (5, 6): 7.1e-5, (5, 7): 1.5e-6, (5, 8): 4.3e-8,
    (6, 4): 4.9e-1, (6, 5): 3.3e-2, (6, 6): 1.3e-5, (6, 7): 1.2e-7, (6, 8): 1.6e-9,
    (7, 4): 4.1e-1, (7, 5): 1.7e-3, (7, 6): 2.5e-6, (7, 7): 1.1e-8, (7, 8): 6.7e-11,
    (8, 4): 4.7e-1, (8, 5): 9.2e-4, (8, 6): 5.1e-7, (8, 7): 9.3e-10, (8, 8): 2.8e-12,
    (9, 4): 3.8e-1, (9, 5): 5.2e-4, (9, 6): 1.0e-7, (9, 7): 8.4e-11, (9, 8): 1.4e-13,
    (10, 4): 4.4e-1, (10, 5): 3.0e-4, (10, 6): 2.2e-8, (10, 7): 7.8e-12, (10, 8): 2.8e-13,
}


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution with its gradient, and matching source term.

    ``u_grad(x)`` returns ``(u, grad)`` at physical points x of shape
    (npts, d): shapes (npts,) and (npts, d), grad stored component-major.
    """

    u_grad: callable = field(repr=False)
    f: callable = field(repr=False)
    reference_h1_errors: dict = field(default_factory=dict, repr=False)


def _case(u_grad_rows, f_rows, reference):
    """A case from row functions of :func:`~igamf.geometry._eval_rows`:
    ``u_grad_rows`` gives u and the d gradient components, ``f_rows`` f."""

    def u_grad(x):
        x = np.atleast_2d(x)
        out = _eval_rows(u_grad_rows, x, 1 + x.shape[1])
        return out[0], out[1:].T

    def f(x):
        return _eval_rows(f_rows, np.atleast_2d(x), 1)[0]

    return ManufacturedCase(u_grad=u_grad, f=f, reference_h1_errors=reference)


def _oscillating_parts(x1, x2, x3):
    """sin and cos of 5 pi x_l, r^2 and g of the oscillating solution."""
    s, c = zip(*(_sincos(5 * np.pi * x) for x in (x1, x2, x3)))
    r2 = x1 * x1 + x2 * x2
    return s, c, r2, (r2 - 1) * (r2 - 4)


def _oscillating_u_grad(x1, x2, x3):
    (s1, s2, s3), (c1, c2, c3), r2, g = _oscillating_parts(x1, x2, x3)
    S = s1 * s2 * s3
    kg = 5 * np.pi * g
    Sdg = S * (4 * r2 - 10)  # S dg/dx_l / x_l for l = 1, 2
    return (S * g, c1 * (s2 * s3) * kg + Sdg * x1,
            c2 * (s1 * s3) * kg + Sdg * x2, c3 * (s1 * s2) * kg)


def _oscillating_f(x1, x2, x3):
    (s1, s2, s3), (c1, c2, _), r2, g = _oscillating_parts(x1, x2, x3)
    S = s1 * s2 * s3
    x_dS = 5 * np.pi * s3 * (x1 * c1 * s2 + x2 * c2 * s1)  # x1 d1S + x2 d2S
    return (75 * np.pi**2 * S * g - 2 * (4 * r2 - 10) * x_dS - S * (16 * r2 - 20),)


def _cube_u_grad(x1, x2, x3):
    (s1, s2, s3), (c1, c2, c3) = zip(*(_sincos(np.pi * x)
                                       for x in (x1, x2, x3)))
    return (s1 * s2 * s3, np.pi * c1 * (s2 * s3), np.pi * c2 * (s1 * s3),
            np.pi * c3 * (s1 * s2))


def _cube_f(x1, x2, x3):
    s1, s2, s3 = (_sincos(np.pi * x)[0] for x in (x1, x2, x3))
    return (3 * np.pi**2 * s1 * s2 * s3,)


def oscillating_case() -> ManufacturedCase:
    """Oscillating solution on the thick quarter ring (K = I, alpha = 0)."""
    return _case(_oscillating_u_grad, _oscillating_f, dict(QUARTER_RING_H1_REFERENCE))


def cube_sine_case() -> ManufacturedCase:
    """Smooth product-of-sines solution on the unit cube (K = I, alpha = 0)."""
    return _case(_cube_u_grad, _cube_f, {})


def relative_errors(space, geom, u_coeffs, case, gauss_pts=None):
    """Relative full H1 and L2 norms of u - u_h over the physical domain.

    Returns ``(h1, l2)`` from one pass over the tensor Gauss grid with
    ``gauss_pts`` points per span and direction (default p+2); the L2 sums
    are the value part of the H1 sums.  Per slab of
    :func:`~igamf.kron.grid_chunks`, u_h and its parametric gradient are
    Kronecker contractions; the pointwise work (:func:`_chunk_sums`) runs
    per chunk of about :data:`~igamf.kron.CHUNK_POINTS` points.  On an
    extrusion (:func:`~igamf.geometry.extrude`), det J_F, cof / det and F are
    evaluated once per plane point and reused for every layer
    (:func:`_plane_values`); any other map is pulled back and evaluated
    on each chunk's points.
    """
    u_coeffs = checked_vector(u_coeffs, space.n_dofs)
    if gauss_pts is None:
        gauss_pts = max(kv.degree for kv in space.knotvectors) + 2

    d = space.dim

    def factors(kv):
        x, w = gauss_points_weights(kv, gauss_pts)
        return x, w, [collocation_matrix(kv, x, b)[:, 1:-1].tocsr()
                      for b in (0, 1)]

    # one set of Gauss factors per distinct knot vector, as in set-up
    pts, wts, B = zip(*map_distinct(factors, space.knotvectors))
    # the banded factors of all but the last direction serve every slab
    lower = map_distinct(lambda Bl: [banded(f) for f in Bl], B[:-1])
    plane = _plane_values(geom, pts, wts)
    sums = np.zeros(4)
    for s, chunks in grid_chunks([len(q) for q in pts]):
        B0_s, B1_s = ([f[b] for f in lower] + [banded(B[-1][b][s])]
                      for b in (0, 1))
        t, wt = pts[-1][s], wts[-1][s]
        uh = kron_apply(B0_s, u_coeffs).reshape(len(t), -1)
        grad_xi = [kron_apply([(B1_s if l == b else B0_s)[l] for l in range(d)],
                              u_coeffs).reshape(len(t), -1) for b in range(d)]
        # per-slab totals first; another order moves h1 by an ulp
        slab = np.zeros(4)
        for l, p, _ in chunks:
            slab += _chunk_sums(geom, plane, case, t[l], wt[l], p, uh[l, p],
                                [gx[l, p] for gx in grad_xi])
        sums += slab
    h1_err2, h1_ref2, l2_err2, l2_ref2 = sums
    return float(np.sqrt(h1_err2 / h1_ref2)), float(np.sqrt(l2_err2 / l2_ref2))


def _plane_values(geom, pts, wts):
    """The Gauss grid's (xi_1, ..., xi_{d-1}) plane, which serves every
    xi_d layer: ``(w, inv, rows)`` with the plane weights w and the
    coordinate rows (d-1, n_plane).  On an extrusion, w carries the factor
    det J_F, inv holds the entries cof_ij / det J_F of the planar block
    (i, j < d - 1) and the rows are G; on any other map, inv is None.

    An extrusion is pulled back on the grid's first layer, so a degenerate
    point is reported, with its full parametric point, where the grid meets
    it first.
    """
    xi = tensor_grid(pts[:-1] + (pts[-1][:1],)).T
    k = len(pts) - 1
    w = functools.reduce(lambda acc, q: np.multiply.outer(q, acc), wts[:-1],
                         np.ones(1)).ravel()
    if geom.planar is None:
        return w, None, xi[:, :k].T
    det, cof = pullback(geom, xi)
    inv = cof.transpose(1, 2, 0)[:k, :k] / det
    return w * det, inv, geom.evaluate(xi)[:, :k].T


def _chunk_sums(geom, plane, case, t, wt, p, uh, grad_xi):
    """The (H1 error, H1 reference, L2 error, L2 reference) sums over the
    chunk of layers t (weights wt) and points p of the
    :func:`_plane_values` ``plane``, from u_h and its parametric gradient
    there as (layer, plane point) arrays: measure = wt (w det J_F),
    grad u_h = cof / det J_F grad_xi u_h and x = F(xi).  On an extrusion
    these take the plane's values: cof / det = blockdiag(inv, 1) and
    x = (G, t); any other map is pulled back and evaluated at the chunk's
    points xi = (plane point, t).
    """
    w, inv, rows = plane
    d, shape = len(rows) + 1, uh.shape
    x = np.empty((d,) + shape)
    x[:-1] = rows[:, None, p]
    x[-1] = t[:, None]
    x = x.reshape(d, -1).T
    measure = np.multiply.outer(wt, w[p]).ravel()
    if inv is None:
        det, cof = pullback(geom, x)
        measure *= det
        inv = cof.transpose(1, 2, 0).reshape((d, d) + shape)
        inv /= det.reshape(shape)
        x = geom.evaluate(x)
    else:
        inv = inv[..., p]
    grad_h = np.empty((d,) + shape)
    for i, row in enumerate(inv):
        np.multiply(row[0], grad_xi[0], out=grad_h[i])
        for j in range(1, len(row)):
            grad_h[i] += row[j] * grad_xi[j]
    for i in range(len(inv), d):
        grad_h[i] = grad_xi[i]
    grad_h = grad_h.reshape(d, -1)
    ue, ge = case.u_grad(x)
    l2_err2 = measure @ (ue - uh.ravel())**2
    l2_ref2 = measure @ (ue * ue)
    return (l2_err2 + measure @ ((grad_h.T - ge)**2).sum(axis=1),
            l2_ref2 + measure @ (ge * ge).sum(axis=1), l2_err2, l2_ref2)


def h1_relative_error(space, geom, u_coeffs, case, gauss_pts=None) -> float:
    """Relative full H1 norm of u - u_h (see :func:`relative_errors`)."""
    return relative_errors(space, geom, u_coeffs, case, gauss_pts)[0]


def l2_relative_error(space, geom, u_coeffs, case, gauss_pts=None) -> float:
    """Relative L2 norm of u - u_h (see :func:`relative_errors`)."""
    return relative_errors(space, geom, u_coeffs, case, gauss_pts)[1]
