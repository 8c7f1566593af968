# -*- coding: utf-8 -*-
"""Explicit sparse assembly oracles and the Gauss load vector.

Standard Gauss quadrature (SGQ, symmetric) and explicit weighted
quadrature (generally nonsymmetric on curved geometries) are one term
materializer over :func:`~igamf.operators.wq_terms`, fed the Gauss rule
of :func:`~igamf.wq.gauss_tensor_rule` or a WQ rule; they are oracles and
baselines, not fast paths.  The Gauss load vector is
:func:`~igamf.operators.wq_load_vector` on the Gauss rule.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .kron import kron_materialize
from .operators import _rule_grids, wq_load_vector, wq_terms
from .wq import gauss_tensor_rule

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


def _materialize(space, rule, geom, coeff, kind, nnz_guard):
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
    return AssembledMatrix(matrix=A)


def assemble_sgq(space, geom, coeff=None, kind="mass", gauss_pts_per_span=None,
                 nnz_guard=NNZ_GUARD) -> AssembledMatrix:
    """Element-wise Gauss assembly of the mass or stiffness matrix.

    Default p+1 points per span per direction, exact for polynomials of
    degree <= 2p+1 per direction.
    """
    rule = gauss_tensor_rule(space, gauss_pts_per_span)
    return _materialize(space, rule, geom, coeff, kind, nnz_guard)


def assemble_wq_explicit(space, rule, geom, coeff=None, kind="mass",
                         nnz_guard=NNZ_GUARD) -> AssembledMatrix:
    """Materialize the operator of a tensor rule from its sparse factors.

    With a WQ rule this is the weighted-quadrature matrix; with a rule of
    :func:`~igamf.wq.gauss_tensor_rule` it equals :func:`assemble_sgq`.
    """
    return _materialize(space, rule, geom, coeff, kind, nnz_guard)


def assemble_rhs(space, geom, f, gauss_pts_per_span=None) -> np.ndarray:
    """Load vector f_i = int det(J_F) b_i (f o F) dxi by tensor Gauss quadrature.

    ``f`` is a physical-space field taking an (npts, d) coordinate array.
    """
    return wq_load_vector(gauss_tensor_rule(space, gauss_pts_per_span), geom, f)
