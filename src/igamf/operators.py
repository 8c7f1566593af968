# -*- coding: utf-8 -*-
"""Matrix-free mass and stiffness operators built on weighted quadrature.

A weighted-quadrature operator is a short sum of Kronecker terms
W diag(c) B: per-direction weight factors W, a coefficient grid c at the
tensor quadrature points and per-direction collocation factors B.
:func:`wq_terms` lists the terms and :func:`coefficient_grids` evaluates
the grids; the matrix-free operators here and the explicit assembly oracle
both consume them.  The mass operator is one term; the stiffness operator
has d*d derivative-pair terms over d(d+1)/2 symmetric grids, and its apply
shares the d collocation contractions among them.  Factors are restricted
to the Dirichlet-interior basis; boundary rows/columns are never formed.
Coefficient grids are evaluated once, at setup.
"""

import numpy as np

from .geometry import pullback
from .kron import CostMeter, kron_apply
from .wq import TensorRule

#: nominal flop charge per coefficient value evaluated during setup
#: (geometry Jacobian, cofactors and determinant); used for cost accounting
#: only.
COEFF_EVAL_FLOPS = 60


def _check_kind(kind):
    if kind not in ("mass", "stiffness"):
        raise ValueError(f"unknown kind {kind!r}")


def wq_terms(rule: TensorRule, kind: str):
    """The interior-restricted WQ operator as (W-factors, key, B-factors) terms.

    The operator is the sum over terms of
    kron(W-factors) diag(grids[key]) kron(B-factors), with the grids of
    :func:`coefficient_grids` and factors listed in direction order.
    ``"mass"``: one term W^(0,0), key None, values B.  ``"stiffness"``: for
    each direction pair (a, b), W^(a_l,b_l) with a_l = [l == a] and
    b_l = [l == b], key (min(a, b), max(a, b)), and B differentiated in
    direction b.  Terms of one b are adjacent and share one B-factor list.
    """
    _check_kind(kind)

    def W(a, b):
        return [r.weights[(1 if l == a else 0, 1 if l == b else 0)][1:-1, :].tocsr()
                for l, r in enumerate(rule.rules)]

    def B(b):
        return [r.colloc[1 if l == b else 0][:, 1:-1].tocsr()
                for l, r in enumerate(rule.rules)]

    if kind == "mass":
        return [(W(None, None), None, B(None))]
    terms = []
    for b in range(rule.dim):
        Bb = B(b)
        terms += [(W(a, b), (min(a, b), max(a, b)), Bb) for a in range(rule.dim)]
    return terms


def coefficient_grids(kind: str, geom, xi, coeff=None):
    """Pulled-back coefficient values at parametric points, keyed as in :func:`wq_terms`.

    ``"mass"``: {None: alpha det J_F}, with ``coeff`` = alpha a scalar or a
    physical field (default 1).  ``"stiffness"``: {(a, b): C_ab for a <= b}
    with C = det J_F J_F^-1 K J_F^-T = cof^T K cof / det J_F, where
    ``coeff`` = K is None (identity), a symmetric d x d matrix, or a
    physical field returning (npts, d, d) values.  Raises
    :class:`~igamf.geometry.DegenerateGeometryError` where det J_F <= 0.
    """
    _check_kind(kind)
    det, cof = pullback(geom, xi)
    if kind == "mass":
        alpha = 1.0 if coeff is None else coeff
        scale = alpha(geom.evaluate(xi)) if callable(alpha) else float(alpha)
        return {None: np.asarray(scale * det, dtype=float)}
    if coeff is None:
        Kcof = cof
    else:
        K = coeff(geom.evaluate(xi)) if callable(coeff) else coeff
        Kcof = np.matmul(np.asarray(K, dtype=float), cof)
    d = cof.shape[1]
    return {(a, b): np.einsum("qi,qi->q", cof[:, :, a], Kcof[:, :, b]) / det
            for a in range(d) for b in range(a, d)}


class _WQOperator:
    """Term list and stored coefficient grids of one WQ operator."""

    def __init__(self, space, rule: TensorRule, geom, kind, coeff):
        self.space = space
        self.rule = rule
        self.geom = geom
        self.n_dofs = space.n_dofs
        self.terms = wq_terms(rule, kind)
        xi = np.stack(rule.point_arrays(), axis=1)
        self.coeffs = coefficient_grids(kind, geom, xi, coeff)
        self.setup_flops = COEFF_EVAL_FLOPS * rule.n_points * len(self.coeffs)

    @property
    def coeff_scalars(self) -> int:
        """Stored coefficient-grid scalars."""
        return sum(g.size for g in self.coeffs.values())

    def _vector(self, v):
        v = np.asarray(v, dtype=float).ravel()
        if v.size != self.n_dofs:
            raise ValueError(f"expected vector of length {self.n_dofs}, got {v.size}")
        return v


class MassOperator(_WQOperator):
    """Matrix-free weighted-quadrature mass operator on the interior space."""

    def __init__(self, space, rule: TensorRule, geom, alpha=1.0):
        super().__init__(space, rule, geom, "mass", alpha)

    def apply(self, v, meter: CostMeter | None = None) -> np.ndarray:
        (W, key, B), = self.terms
        vt = kron_apply(B, self._vector(v), meter)
        vt *= self.coeffs[key]
        if meter is not None:
            meter.add_flops(self.rule.n_points)
        return kron_apply(W, vt, meter)


class StiffnessOperator(_WQOperator):
    """Matrix-free weighted-quadrature stiffness operator (interior space)."""

    def __init__(self, space, rule: TensorRule, geom, K=None):
        super().__init__(space, rule, geom, "stiffness", K)

    def apply(self, v, meter: CostMeter | None = None) -> np.ndarray:
        v = self._vector(v)
        w = np.zeros(self.n_dofs)
        nq = self.rule.n_points
        B_done = vt = None
        for W, key, B in self.terms:
            if B is not B_done:
                vt = kron_apply(B, v, meter)
                B_done = B
            w += kron_apply(W, self.coeffs[key] * vt, meter)
            if meter is not None:
                meter.add_flops(nq + 2 * self.n_dofs)
        return w


def setup_mass(space, rule, geom, alpha=1.0) -> MassOperator:
    return MassOperator(space, rule, geom, alpha=alpha)


def setup_stiffness(space, rule, geom, K=None) -> StiffnessOperator:
    return StiffnessOperator(space, rule, geom, K=K)
