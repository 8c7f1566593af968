# -*- coding: utf-8 -*-
"""Explicit sparse assembly oracles and load-vector assembly.

Two assembly routes: standard element-wise Gaussian quadrature (SGQ,
symmetric) and explicit materialization of the weighted-quadrature
factorization (generally nonsymmetric on curved geometries).  Both exist
for correctness checks and baseline comparisons, not performance.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import pullback
from .kron import kron_apply, kron_materialize, tensor_grid
from .operators import coefficient_grids, wq_terms
from .splines import collocation_matrix
from .wq import gauss_points_weights

#: conservative default guard on assembled nonzeros
NNZ_GUARD = 5 * 10**7

#: quadrature points per slab of :func:`tensor_gauss_sum`; bounds the
#: scratch memory of right-hand-side assembly and error evaluation
SLAB_POINTS = 2 * 10**6


class MemoryGuardError(MemoryError):
    def __init__(self, estimate, guard):
        self.estimate = estimate
        self.guard = guard
        super().__init__(
            f"assembly would need about {estimate:.2e} stored entries "
            f"(guard {guard:.2e}); pass a larger guard to override"
        )


@dataclass(frozen=True)
class AssembledMatrix:
    matrix: sp.csr_matrix = field(repr=False)
    provenance: str

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def nnz(self):
        return self.matrix.nnz


def estimate_matrix_nnz(space) -> int:
    """Exact nonzero count of the Galerkin matrix from the 1D overlap pattern."""
    nnz = 1
    for kv in space.knotvectors:
        p = kv.degree
        n = kv.n_interior
        per_dir = 0
        for i in range(n):
            per_dir += min(i + p, n - 1) - max(i - p, 0) + 1
        nnz *= per_dir
    return nnz


def _gauss_factors(space, pts_per_span):
    """Per-direction Gauss points/weights and interior collocation factors."""
    pts, wts, B0, B1 = [], [], [], []
    for kv in space.knotvectors:
        x, w = gauss_points_weights(kv, pts_per_span)
        pts.append(x)
        wts.append(w)
        B0.append(collocation_matrix(kv, x, 0)[:, 1:-1].tocsr())
        B1.append(collocation_matrix(kv, x, 1)[:, 1:-1].tocsr())
    return pts, wts, B0, B1


def _gauss_grid(pts, wts):
    """Tensor Gauss points as an (npts, d) array and their product weights."""
    return tensor_grid(pts).T, functools.reduce(np.multiply, tensor_grid(wts))


def tensor_gauss_sum(space, geom, pts_per_span, integrand):
    """Sum ``integrand`` over slabs of the tensor Gauss grid of ``space``.

    The grid (``pts_per_span`` points per knot span and direction) is split
    along the last direction into slabs of at most about
    :data:`SLAB_POINTS` points.  Per slab the call is
    ``integrand(x, measure, det, cof, B0, B1)``: physical points, Gauss
    weight times det J_F, the :func:`~igamf.geometry.pullback` of the slab,
    and the per-direction interior value and derivative collocation
    factors, the last direction's restricted to the slab's rows.
    """
    pts, wts, B0, B1 = _gauss_factors(space, pts_per_span)
    n_last = len(pts[-1])
    lower = int(np.prod([len(q) for q in pts[:-1]]))
    block = max(1, min(n_last, SLAB_POINTS // max(lower, 1)))
    total = 0.0
    for start in range(0, n_last, block):
        s = slice(start, start + block)
        xi, w = _gauss_grid(pts[:-1] + [pts[-1][s]], wts[:-1] + [wts[-1][s]])
        det, cof = pullback(geom, xi)
        x = geom.evaluate(xi)
        del xi  # not needed by the integrand; free it before that runs
        total = total + integrand(x, w * det, det, cof, B0[:-1] + [B0[-1][s]],
                                  B1[:-1] + [B1[-1][s]])
    return total


def assemble_sgq(space, geom, coeff=None, kind="mass", gauss_pts_per_span=None,
                 nnz_guard=NNZ_GUARD) -> AssembledMatrix:
    """Element-wise Gauss assembly of the mass or stiffness matrix.

    Default p+1 points per span per direction, exact for integrands of
    degree <= 2p+1 per direction.
    """
    if kind not in ("mass", "stiffness"):
        raise ValueError(f"unknown kind {kind!r}")
    p = max(kv.degree for kv in space.knotvectors)
    if gauss_pts_per_span is None:
        gauss_pts_per_span = p + 1
    est = estimate_matrix_nnz(space)
    pts, wts, B0, B1 = _gauss_factors(space, gauss_pts_per_span)
    bk_nnz = int(np.prod([b.nnz for b in B0]))
    if est > nnz_guard or bk_nnz > nnz_guard:
        raise MemoryGuardError(max(est, bk_nnz), nnz_guard)
    xi, w = _gauss_grid(pts, wts)
    coeffs = {key: w * c for key, c in
              coefficient_grids(kind, geom, xi, coeff).items()}
    if kind == "mass":
        Bk = kron_materialize(B0, max_entries=np.inf)
        A = (Bk.T @ sp.diags(coeffs[None]) @ Bk).tocsr()
    else:
        d = space.dim
        A = None
        Bkron = [kron_materialize([B1[l] if l == b else B0[l] for l in range(d)],
                                  max_entries=np.inf)
                 for b in range(d)]
        for a in range(d):
            for b in range(d):
                c = coeffs[(min(a, b), max(a, b))]
                term = Bkron[a].T @ sp.diags(c) @ Bkron[b]
                A = term if A is None else A + term
        A = A.tocsr()
    A.eliminate_zeros()
    return AssembledMatrix(matrix=A, provenance="SGQ")


def assemble_wq_explicit(space, rule, geom, coeff=None, kind="mass",
                         nnz_guard=NNZ_GUARD) -> AssembledMatrix:
    """Materialize the weighted-quadrature matrix from its sparse factors."""
    terms = wq_terms(rule, kind)
    est = estimate_matrix_nnz(space)
    if est > nnz_guard:
        raise MemoryGuardError(est, nnz_guard)
    coeffs = coefficient_grids(kind, geom, rule.point_arrays().T, coeff)
    A = None
    for W, key, B in terms:
        term = (kron_materialize(W, max_entries=np.inf) @ sp.diags(coeffs[key])
                @ kron_materialize(B, max_entries=np.inf))
        A = term if A is None else A + term
    A = A.tocsr()
    A.eliminate_zeros()
    return AssembledMatrix(matrix=A, provenance="WQ-explicit")


def assemble_rhs(space, geom, f, gauss_pts_per_span=None) -> np.ndarray:
    """Load vector f_i = int det(J_F) b_i (f o F) dxi by tensor Gauss quadrature.

    ``f`` is a physical-space field taking an (npts, d) coordinate array.
    """
    if gauss_pts_per_span is None:
        gauss_pts_per_span = max(kv.degree for kv in space.knotvectors) + 1

    def integrand(x, measure, det, cof, B0, B1):
        vals = measure * np.asarray(f(x), dtype=float)
        return kron_apply([b.T.tocsr() for b in B0], vals)

    return tensor_gauss_sum(space, geom, gauss_pts_per_span, integrand)
