# -*- coding: utf-8 -*-
"""Explicit sparse assembly oracles, the Gauss load vector and Gauss slab sums.

Standard Gauss quadrature (SGQ, symmetric) and explicit weighted
quadrature (generally nonsymmetric on curved geometries) are one term
materializer over :func:`~igamf.operators.wq_terms`, fed the Gauss rule
of :func:`~igamf.wq.gauss_tensor_rule` or a WQ rule; they are oracles and
baselines, not fast paths.  The Gauss load vector is
:func:`~igamf.operators.wq_load_vector` on the Gauss rule.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import _ROW_CHUNK, pullback
from .kron import (banded, grid_slabs, kron_apply, kron_materialize,
                   slab_grid)
from .operators import _rule_grids, wq_load_vector, wq_terms
from .splines import collocation_matrix, map_distinct
from .wq import gauss_points_weights, gauss_tensor_rule

#: conservative default guard on assembled nonzeros
NNZ_GUARD = 5 * 10**7


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
    def nnz(self):
        return self.matrix.nnz


def estimate_matrix_nnz(space) -> int:
    """Exact nonzero count of the Galerkin matrix from the 1D overlap pattern."""
    nnz = 1
    for kv in space.knotvectors:
        p, n = kv.degree, kv.n_interior
        nnz *= sum(min(i + p, n - 1) - max(i - p, 0) + 1 for i in range(n))
    return nnz


def tensor_gauss_sum(space, geom, pts_per_span, u_coeffs, integrand):
    """Sum ``integrand`` of the field u_h with coefficients ``u_coeffs``
    over the tensor Gauss grid of ``space``.

    The grid (``pts_per_span`` points per knot span and direction) is split
    into the slabs of :func:`~igamf.kron.grid_slabs`; per slab, u_h and its
    parametric gradient come from Kronecker contractions with the interior
    collocation factors.  The pointwise part then runs ``_ROW_CHUNK``
    points at a time, calling ``integrand(x, measure, uh, grad_h)`` with the
    physical points, Gauss weight times det J_F, and the values of u_h and
    of its physical gradient J_F^-T grad u_h (shapes (n,) and (n, d)).
    """
    d = space.dim

    def factors(kv):
        x, w = gauss_points_weights(kv, pts_per_span)
        return x, w, [collocation_matrix(kv, x, b)[:, 1:-1].tocsr()
                      for b in (0, 1)]

    # one set of Gauss factors per distinct knot vector, as in set-up
    pts, wts, B = zip(*map_distinct(factors, space.knotvectors))
    # the banded factors of all but the last direction serve every slab
    lower = map_distinct(lambda Bl: [banded(f) for f in Bl], B[:-1])
    total = 0.0
    for s in grid_slabs([len(q) for q in pts]):
        B0_s, B1_s = ([f[b] for f in lower] + [banded(B[-1][b][s])]
                      for b in (0, 1))
        uh = kron_apply(B0_s, u_coeffs)
        grad_xi = [kron_apply([(B1_s if l == b else B0_s)[l] for l in range(d)],
                              u_coeffs) for b in range(d)]
        xi = slab_grid(pts, s).T
        # weight products with direction 1 fastest, as in slab_grid
        w = functools.reduce(lambda acc, q: np.multiply.outer(q, acc),
                             list(wts[:-1]) + [wts[-1][s]]).ravel()
        for c0 in range(0, len(w), _ROW_CHUNK):
            c = slice(c0, c0 + _ROW_CHUNK)
            det, cof = pullback(geom, xi[c])
            grad_h = np.empty((d, len(det)))
            for i, g in enumerate(grad_h):
                # component i of J_F^-T grad = cof grad / det
                np.multiply(cof[:, i, 0], grad_xi[0][c], out=g)
                for j in range(1, d):
                    g += cof[:, i, j] * grad_xi[j][c]
                g /= det
            total = total + integrand(geom.evaluate(xi[c]), w[c] * det,
                                      uh[c], grad_h.T)
    return total


def _materialize(space, rule, geom, coeff, kind, nnz_guard, provenance):
    """Assemble the term groups of :func:`wq_terms` as a CSR matrix.

    As in the matrix-free apply, per group the sum of kron(W) diag(c) over
    its pairs is formed first, then one sparse product with kron(B).
    Raises ``ValueError`` for a NaN ``nnz_guard``, and
    :class:`MemoryGuardError` before any allocation when the product's
    nonzero estimate or the largest Kronecker factor exceeds ``nnz_guard``.
    """
    if math.isnan(nnz_guard):
        raise ValueError("nnz_guard must not be NaN")
    groups = wq_terms(rule, kind)
    factor_nnz = max(int(np.prod([f.nnz for f in F])) for B, pairs in groups
                     for F in [B] + [W for W, _ in pairs])
    est = max(estimate_matrix_nnz(space), factor_nnz)
    if est > nnz_guard:
        raise MemoryGuardError(est, nnz_guard)
    coeffs = _rule_grids(kind, rule, geom, coeff)
    A = None
    for B, pairs in groups:
        WC = None
        for W, key in pairs:
            K = kron_materialize(W, max_entries=np.inf)
            K.data = K.data * coeffs[key][K.indices]  # K diag(c)
            WC = K if WC is None else WC + K
        term = WC @ kron_materialize(B, max_entries=np.inf)
        A = term if A is None else A + term
    A = A.tocsr()
    A.eliminate_zeros()
    return AssembledMatrix(matrix=A, provenance=provenance)


def assemble_sgq(space, geom, coeff=None, kind="mass", gauss_pts_per_span=None,
                 nnz_guard=NNZ_GUARD) -> AssembledMatrix:
    """Element-wise Gauss assembly of the mass or stiffness matrix.

    Default p+1 points per span per direction, exact for integrands of
    degree <= 2p+1 per direction.
    """
    rule = gauss_tensor_rule(space, gauss_pts_per_span)
    return _materialize(space, rule, geom, coeff, kind, nnz_guard, "SGQ")


def assemble_wq_explicit(space, rule, geom, coeff=None, kind="mass",
                         nnz_guard=NNZ_GUARD) -> AssembledMatrix:
    """Materialize the operator of a tensor rule from its sparse factors.

    With a WQ rule this is the weighted-quadrature matrix; with a rule of
    :func:`~igamf.wq.gauss_tensor_rule` it equals :func:`assemble_sgq`.
    """
    return _materialize(space, rule, geom, coeff, kind, nnz_guard,
                        "WQ-explicit")


def assemble_rhs(space, geom, f, gauss_pts_per_span=None) -> np.ndarray:
    """Load vector f_i = int det(J_F) b_i (f o F) dxi by tensor Gauss quadrature.

    ``f`` is a physical-space field taking an (npts, d) coordinate array.
    """
    return wq_load_vector(gauss_tensor_rule(space, gauss_pts_per_span), geom, f)
