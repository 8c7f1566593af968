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
points at a time.  The pass is fused like the operators' apply: per slab
the Kronecker modes of directions d..2 of u_h and its parametric gradient
run once per distinct derivative pattern, and per chunk the direction-1
mode writes the chunk's u_h and gradient, which its sums use at once, so
no slab-sized field is formed.  Each chunk's det J_F, J_F^-T and F come
from :func:`~igamf.geometry.chunk_pullback`, as in the load vector
(:func:`~igamf.operators.wq_load_vector`), as values that broadcast.  A
case's ``u_grad`` and ``f`` broadcast too, so on an extrusion, where the
geometry is the plane's, their factors of (x1, x2) alone serve every xi_3
layer of a chunk.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .geometry import _sincos, chunk_pullback, grid_plane
from .kron import (banded, block_matmul, checked_vector, contract_modes,
                   grid_chunks)
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

    Both are row functions of physical coordinates that broadcast (a row
    may be a constant): ``u_grad(x1, ..., xd)`` returns
    ``(u, d1 u, ..., dd u)`` and ``f(x1, ..., xd)`` the source values, so
    on an extrusion each takes plane rows and a column of xi_d layers
    (:func:`relative_errors`, :func:`~igamf.operators.wq_load_vector`).
    """

    u_grad: callable = field(repr=False)
    f: callable = field(repr=False)
    reference_h1_errors: dict = field(default_factory=dict, repr=False)


def _oscillating_parts(x1, x2, x3):
    """sin and cos of 5 pi x_l, r^2 and g of the oscillating solution."""
    s, c = zip(*(_sincos(5 * np.pi * x) for x in (x1, x2, x3)))
    r2 = x1 * x1 + x2 * x2
    return s, c, r2, (r2 - 1) * (r2 - 4)


def _oscillating_u_grad(x1, x2, x3):
    # factors of (x1, x2) alone are multiplied first, so that on broadcast
    # coordinates only the last product of each row is full-size
    (s1, s2, s3), (c1, c2, c3), r2, g = _oscillating_parts(x1, x2, x3)
    s12 = s1 * s2
    kg = 5 * np.pi * g
    sdg = s12 * (4 * r2 - 10)  # (S dg/dx_l / x_l) / s3 for l = 1, 2
    return ((s12 * g) * s3, (c1 * s2 * kg + sdg * x1) * s3,
            (c2 * s1 * kg + sdg * x2) * s3, (s12 * kg) * c3)


def _oscillating_f(x1, x2, x3):
    (s1, s2, s3), (c1, c2, _), r2, g = _oscillating_parts(x1, x2, x3)
    S = s1 * s2 * s3
    x_dS = 5 * np.pi * s3 * (x1 * c1 * s2 + x2 * c2 * s1)  # x1 d1S + x2 d2S
    return 75 * np.pi**2 * S * g - 2 * (4 * r2 - 10) * x_dS - S * (16 * r2 - 20)


def _cube_u_grad(x1, x2, x3):
    (s1, s2, s3), (c1, c2, c3) = zip(*(_sincos(np.pi * x)
                                       for x in (x1, x2, x3)))
    return ((s1 * s2) * s3, (np.pi * c1 * s2) * s3, (np.pi * c2 * s1) * s3,
            (np.pi * s1 * s2) * c3)


def _cube_f(x1, x2, x3):
    s1, s2, s3 = (_sincos(np.pi * x)[0] for x in (x1, x2, x3))
    return 3 * np.pi**2 * s1 * s2 * s3


def oscillating_case() -> ManufacturedCase:
    """Oscillating solution on the thick quarter ring (K = I, alpha = 0)."""
    return ManufacturedCase(_oscillating_u_grad, _oscillating_f,
                            dict(QUARTER_RING_H1_REFERENCE))


def cube_sine_case() -> ManufacturedCase:
    """Smooth product-of-sines solution on the unit cube (K = I, alpha = 0)."""
    return ManufacturedCase(_cube_u_grad, _cube_f, {})


def relative_errors(space, geom, u_coeffs, case, gauss_pts=None):
    """Relative full H1 and L2 norms of u - u_h over the physical domain.

    Returns ``(h1, l2)`` from one pass over the tensor Gauss grid with
    ``gauss_pts`` points per span and direction (default p+2); the L2 sums
    are the value part of the H1 sums.  The pass has the shape of the
    operators' fused apply: per slab of :func:`~igamf.kron.grid_chunks`,
    the modes of directions d..2 of u_h and its parametric gradient run
    once per distinct derivative pattern (:func:`_lead_modes`); per chunk
    of about :data:`~igamf.kron.CHUNK_POINTS` points, the direction-1 mode
    of each field (:func:`_first_mode`) and the pointwise work
    (:func:`_chunk_sums`) run while the chunk is in cache, so no
    slab-sized u_h or gradient is formed.  The geometry comes from
    :func:`~igamf.geometry.chunk_pullback` on the Gauss grid's
    :func:`~igamf.geometry.grid_plane`: on an extrusion
    (:func:`~igamf.geometry.extrude`) det J_F, J_F^-T and F are evaluated
    once per plane point and reused for every layer, and ``case.u_grad``
    broadcasts over them; any other map is pulled back and evaluated on
    each chunk's points.
    """
    u_coeffs = checked_vector(u_coeffs, space.n_dofs)
    if gauss_pts is None:
        gauss_pts = max(kv.degree for kv in space.knotvectors) + 2

    def factors(kv):
        x, w = gauss_points_weights(kv, gauss_pts)
        return x, w, [collocation_matrix(kv, x, b)[:, 1:-1] for b in (0, 1)]

    # one set of Gauss factors per distinct knot vector, as in set-up
    pts, wts, B = zip(*map_distinct(factors, space.knotvectors))
    # the banded factors of all but the last direction serve every slab
    lower = map_distinct(lambda Bl: [banded(f) for f in Bl], B[:-1])
    plane = grid_plane(geom, pts)
    # plane weights; in d = 1 the plane is one point
    w = functools.reduce(lambda acc, q: np.multiply.outer(q, acc), wts[:-1],
                         np.ones(1)).ravel()
    # plane rows of q1 points per layer
    n_rows = int(np.prod([len(q) for q in pts[1:-1]]))
    q1 = len(w) // n_rows
    sums = np.zeros(4)
    for s, chunks in grid_chunks([len(q) for q in pts]):
        B0_s, B1_s = ([f[b] for f in lower] + [banded(B[-1][b][s])]
                      for b in (0, 1))
        heads = _lead_modes(B0_s[1:], B1_s[1:], u_coeffs)
        t, wt = pts[-1][s], wts[-1][s]
        # per-slab totals first; another order moves h1 by an ulp
        slab = np.zeros(4)
        for l, p in chunks:
            uh, *grad_xi = (f.reshape(len(t[l]), -1) for f in _first_mode(
                B0_s[0], B1_s[0], heads, l, slice(p.start // q1, p.stop // q1),
                n_rows))
            slab += _chunk_sums(chunk_pullback(geom, plane, t[l], p), case,
                                wt[l], w[p], uh, grad_xi)
        sums += slab
    h1_err2, h1_ref2, l2_err2, l2_ref2 = sums
    return float(np.sqrt(h1_err2 / h1_ref2)), float(np.sqrt(l2_err2 / l2_ref2))


def _lead_modes(B0, B1, v):
    """The modes of directions d..2 of u_h and its parametric gradient, run
    as a tree from the coefficients ``v`` with the value and first
    derivative factors ``B0``, ``B1`` of directions 2..d.

    Fields share every mode up to their derivative's direction: u_h and
    d_1 u_h share all of them, and d_l u_h branches off at direction l
    (2 + 3 one-mode contractions in d = 3, not 8).  Returns the flat grids
    ``[H, G_2, ..., G_d]`` of :func:`~igamf.kron.contract_modes`, each
    (N_1, slab points / Q_1) in its order: H is shared by u_h and d_1 u_h,
    G_l is d_l u_h before its direction-1 mode.
    """
    heads = [v]
    for A0, A1 in zip(reversed(B0), reversed(B1)):
        heads = ([contract_modes([A0], heads[0]), contract_modes([A1], heads[0])]
                 + [contract_modes([A0], G) for G in heads[1:]])
    return heads


def _first_mode(A0, A1, heads, layers, rows, n_rows):
    """u_h and its parametric gradient on one chunk: the direction-1 mode
    (values ``A0``, first derivatives ``A1``) of the :func:`_lead_modes`
    ``heads`` on the chunk's columns, the block ``layers`` of the slab's
    layers times the plane rows ``rows`` (of ``n_rows`` per layer).  The
    heads' columns are gathered into one array, so ``A0`` runs once for
    u_h, d_2 u_h, ..., d_d u_h.  Returns ``[u_h, d_1 u_h, ..., d_d u_h]``
    as (columns, Q_1) arrays in grid order.  In d = 1 a head is one
    column, which every chunk takes.
    """
    n1 = A0.shape[1]
    XT = np.concatenate([Y.reshape(n1, -1, n_rows)[:, layers, rows]
                         .reshape(n1, -1) for Y in heads], axis=1).T
    uh, *grad = block_matmul(A0, XT).reshape(len(heads), -1, A0.shape[0])
    return [uh, block_matmul(A1, XT[:len(uh)])] + grad


def _chunk_sums(pulled, case, wt, w, uh, grad_xi):
    """The (H1 error, H1 reference, L2 error, L2 reference) sums over one
    chunk of layers (weights wt) times plane points (weights w), from u_h
    and its parametric gradient there as (layer, plane point) arrays and
    the chunk's :func:`~igamf.geometry.chunk_pullback` ``(det, inv, x)``:
    the measure is wt (w det J_F), grad u_h = J_F^-T grad_xi u_h and
    ``case.u_grad`` gets x.  Each value broadcasts to the chunk, so on an
    extrusion det, inv and the rows of x are (P,) plane rows and x_d an
    (L, 1) column: w det is one plane row, each layer's row of a field is
    dotted with it, and nothing of the chunk's size is formed for the
    geometry.  The sums are taken one gradient component at a time.
    """
    det, inv, x = pulled
    shape = uh.shape
    measure = w * det

    def wsum(a):
        # a dot product per layer, against a measure row that broadcasts
        return wt @ np.matmul(a[:, None], measure[..., None]).ravel()
    ue, *ge = (np.broadcast_to(v, shape) for v in case.u_grad(*x))
    l2_err2 = wsum((ue - uh)**2)
    l2_ref2 = wsum(ue * ue)
    h1_err2, h1_ref2 = l2_err2, l2_ref2
    for i, gi in enumerate(ge):
        gh = grad_xi[i] if i >= len(inv) else functools.reduce(
            np.add, (inv[i][j] * grad_xi[j] for j in range(len(inv))))
        h1_err2 += wsum((gh - gi)**2)
        h1_ref2 += wsum(gi * gi)
    return h1_err2, h1_ref2, l2_err2, l2_ref2


def h1_relative_error(space, geom, u_coeffs, case, gauss_pts=None) -> float:
    """Relative full H1 norm of u - u_h (see :func:`relative_errors`)."""
    return relative_errors(space, geom, u_coeffs, case, gauss_pts)[0]


def l2_relative_error(space, geom, u_coeffs, case, gauss_pts=None) -> float:
    """Relative L2 norm of u - u_h (see :func:`relative_errors`)."""
    return relative_errors(space, geom, u_coeffs, case, gauss_pts)[1]
