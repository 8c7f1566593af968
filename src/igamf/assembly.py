# -*- coding: utf-8 -*-
"""Explicit sparse assembly oracles and the Gauss load vector.

Standard Gauss quadrature (SGQ, symmetric) and explicit weighted
quadrature (generally nonsymmetric on curved geometries) are one term
materializer over :func:`~igamf.operators.wq_terms`, fed the Gauss rule
of :func:`~igamf.wq.gauss_tensor_rule` or a WQ rule; they are oracles and
baselines, not fast paths, and the one place where the dense univariate
factors become sparse (:func:`kron_materialize`).  The Gauss load vector is
:func:`~igamf.operators.wq_load_vector` on the Gauss rule.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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
    matrix: "scipy.sparse.csr_matrix" = field(repr=False)

    @property
    def nnz(self):
        return self.matrix.nnz


def kron_materialize(factors) -> "scipy.sparse.csr_matrix":
    """Explicit sparse Kronecker matrix A^(d) x ... x A^(1) of dense factors.

    The assembled WQ and SGQ matrices are built from it, and tests use it
    as the oracle of the sum-factorized apply.  It has no size guard: the
    caller's nonzero estimate is the one that holds for a sparse product.
    scipy is imported here, so the matrix-free path never loads it.
    """
    import scipy.sparse as sp

    out = None
    for f in reversed(factors):
        f = sp.csr_matrix(f)
        out = f if out is None else sp.kron(out, f, format="csr")
    return sp.csr_matrix(out)


def estimate_matrix_nnz(space) -> int:
    """Exact nonzero count of the Galerkin matrix from the 1D overlap pattern."""
    nnz = 1
    for kv in space.knotvectors:
        p, n = kv.degree, kv.n_interior
        nnz *= sum(min(i + p, n - 1) - max(i - p, 0) + 1 for i in range(n))
    return nnz


def assemble_sgq(space, geom, coeff=None, kind="mass",
                 nnz_guard=NNZ_GUARD) -> AssembledMatrix:
    """Element-wise Gauss assembly of the mass or stiffness matrix.

    p+1 points per span per direction, exact for polynomials of degree
    <= 2p+1 per direction; for another count, pass
    ``gauss_tensor_rule(space, n)`` to :func:`assemble_wq_explicit`.
    """
    return assemble_wq_explicit(space, gauss_tensor_rule(space), geom, coeff,
                                kind, nnz_guard)


def assemble_wq_explicit(space, rule, geom, coeff=None, kind="mass",
                         nnz_guard=NNZ_GUARD) -> AssembledMatrix:
    """Materialize the operator of a tensor rule from its factors.

    With a WQ rule this is the weighted-quadrature matrix; with a rule of
    :func:`~igamf.wq.gauss_tensor_rule` it equals :func:`assemble_sgq`.
    As in the matrix-free apply, per group of :func:`wq_terms` the sum of
    kron(W) diag(c) over its pairs is formed first, then one sparse product
    with kron(B).  Raises ``ValueError`` for a NaN ``nnz_guard``, and
    :class:`MemoryGuardError` before any allocation when the product's
    nonzero estimate or the largest Kronecker factor exceeds ``nnz_guard``.
    """
    if math.isnan(nnz_guard):
        raise ValueError("nnz_guard must not be NaN")
    groups = wq_terms(rule, kind)
    factor_nnz = max(int(np.prod([np.count_nonzero(f) for f in F]))
                     for B, pairs in groups
                     for F in [B] + [W for W, _ in pairs])
    est = max(estimate_matrix_nnz(space), factor_nnz)
    if est > nnz_guard:
        raise MemoryGuardError(est, nnz_guard)
    coeffs, _ = _rule_grids(kind, rule, geom, coeff)
    A = None
    for B, pairs in groups:
        WC = None
        for W, key in pairs:
            K = kron_materialize(W)
            K.data = K.data * coeffs[key][K.indices]  # K diag(c)
            WC = K if WC is None else WC + K
        term = WC @ kron_materialize(B)
        A = term if A is None else A + term
    A = A.tocsr()
    A.eliminate_zeros()
    return AssembledMatrix(matrix=A)


def assemble_rhs(space, geom, f) -> np.ndarray:
    """Load vector f_i = int det(J_F) b_i (f o F) dxi by tensor Gauss quadrature.

    ``f(x_1, ..., x_d)`` is a physical-space row function of coordinate
    arrays that broadcast, passed as is to
    :func:`~igamf.operators.wq_load_vector`.  The rule is
    :func:`~igamf.wq.gauss_tensor_rule`'s default; for another point count,
    pass ``gauss_tensor_rule(space, n)`` to
    :func:`~igamf.operators.wq_load_vector`.
    """
    return wq_load_vector(gauss_tensor_rule(space), geom, f)
