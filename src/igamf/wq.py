# -*- coding: utf-8 -*-
"""Weighted-quadrature points and weight matrices for univariate spline spaces.

For a knot vector with interior multiplicity 1, the quadrature points are
the endpoints and midpoints of every knot span, densified in the first and
last spans where up to p+1 basis functions coexist.  For each of the four
test/trial derivative pairs (a, b), each row i of the weight matrix solves
a small exactness system so that

    sum_q W^(a,b)[i, q] * D^b b_j(x_q) = int D^a b_i D^b b_j

holds for every overlapping trial function j.  Right-hand sides are exact
(per-span Gauss-Legendre with p+1 nodes, exact up to degree 2p+1).  Each
rule is fitted once on its one point set; a row that misses the exactness
tolerance raises :class:`WQConstructionError`.

Standard Gauss quadrature is the rule with W^(a,b) = (D^a B)^T diag(w) at
the Gauss nodes (:func:`gauss_tensor_rule`), so every consumer of a WQ
rule (operators, load vector, explicit assembly) also serves Gauss.
Weights, collocations and Grams are dense arrays; the apply cuts their
zeros away (:func:`~igamf.kron.banded`).
"""

from dataclasses import dataclass, field

import numpy as np

from .splines import KnotVector, collocation_matrix, map_distinct

#: residual bound enforced on every exactness equation
EXACTNESS_TOL = 1e-10

_DERIV_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


class WQConstructionError(RuntimeError):
    """A row of :func:`build_wq_rule` whose exactness system has no solution.

    ``row`` is that row and ``residual`` its largest defect.
    """

    def __init__(self, row: int, residual: float):
        self.row = row
        self.residual = residual
        super().__init__(
            f"exactness system for row {row} unsolvable "
            f"(residual {residual:.3e} > {EXACTNESS_TOL:.0e})"
        )


def gauss_points_weights(kv: KnotVector, pts_per_span: int):
    """Tensor Gauss-Legendre nodes/weights over all knot spans of ``kv``."""
    nodes, weights = np.polynomial.legendre.leggauss(pts_per_span)
    brk = kv.breakpoints
    a = brk[:-1][:, None]
    b = brk[1:][:, None]
    x = (a + b) / 2 + (b - a) / 2 * nodes[None, :]
    w = (b - a) / 2 * weights[None, :]
    return x.ravel(), w.ravel()


def exact_grams(kv: KnotVector) -> dict:
    """Exact univariate Gram matrices int D^a b_i D^b b_j (dense, m x m).

    Returns ``{(a, b): G}`` for the four pairs a, b in {0, 1}, all from
    the p+1-point Gauss rule of :func:`_gauss_rule`, G = W^(a,b) D^b B.
    """
    R = _gauss_rule(kv, kv.degree + 1)
    return {(a, b): R.weights[(a, b)] @ R.colloc[b] for a, b in _DERIV_PAIRS}


def wq_points(kv: KnotVector) -> np.ndarray:
    """Quadrature points: span endpoints and midpoints, denser at the boundary.

    The first and last spans receive p-1 uniformly spaced interior points
    (merged with the midpoint), since near the boundary up to p+1 basis
    functions live on a single span.
    """
    p = kv.degree
    brk = kv.breakpoints
    pts = [brk, (brk[:-1] + brk[1:]) / 2]
    for (a, b) in ((brk[0], brk[1]), (brk[-2], brk[-1])):
        pts.append(np.linspace(a, b, p + 1)[1:-1])
    pts = np.concatenate(pts)
    pts.sort()
    # drop near-duplicates (uniform linspace can reproduce the midpoint)
    keep = np.concatenate([[True], np.diff(pts) > 1e-12])
    return pts[keep]


@dataclass(frozen=True)
class WQRule1D:
    """Quadrature points plus the four weight families and trial collocations.

    ``weights[(a, b)]`` is the m x n_q array W^(a,b); ``colloc[b]`` holds
    the trial-side values/derivatives at the same points (n_q x m).  A
    Gauss rule (:func:`gauss_tensor_rule`) fills the same fields.
    """

    kv: KnotVector
    points: np.ndarray = field(repr=False)
    weights: dict = field(repr=False)
    colloc: dict = field(repr=False)

    @property
    def n_points(self) -> int:
        return len(self.points)


def build_wq_rule(kv: KnotVector) -> WQRule1D:
    """The weighted-quadrature rule of one knot vector, in one pass over the rows.

    The points are those of :func:`wq_points`; ``colloc[b]`` is the
    collocation matrix (n_q x m) of the b-th derivative there.  Row i of
    all four W^(a,b) is fitted by least squares to the exact Grams of
    :func:`exact_grams`, using the points in supp b_i and the trial
    functions j with |i - j| <= p, which are the ones overlapping b_i only
    for simple interior knots; any other knot vector raises
    ``ValueError``.  Raises :class:`WQConstructionError` carrying the
    first row whose residual exceeds :data:`EXACTNESS_TOL`.
    """
    if kv.max_interior_multiplicity() > 1:
        raise ValueError("weighted quadrature requires interior multiplicity 1")
    points = wq_points(kv)
    p, m = kv.degree, kv.n_funcs
    colloc = {b: collocation_matrix(kv, points, b) for b in (0, 1)}
    gram = exact_grams(kv)
    weights = {ab: np.zeros((m, len(points))) for ab in _DERIV_PAIRS}
    for i in range(m):
        lo, hi = kv.support(i)
        qs = np.flatnonzero((points >= lo - 1e-14) & (points <= hi + 1e-14))
        js = slice(max(i - p, 0), min(i + p + 1, m))
        for a, b in _DERIV_PAIRS:
            E = colloc[b][qs, js].T
            g = gram[(a, b)][i, js]
            w, *_ = np.linalg.lstsq(E, g, rcond=None)
            resid = float(np.abs(E @ w - g).max())
            if resid > EXACTNESS_TOL:
                raise WQConstructionError(i, resid)
            weights[(a, b)][i, qs] = w
    return WQRule1D(kv=kv, points=points, weights=weights, colloc=colloc)


@dataclass(frozen=True)
class TensorRule:
    """Per-direction weighted-quadrature rules seen as one tensor rule.

    Nothing multivariate is materialized: the full weight matrix exists only
    as the Kronecker product of the univariate factors.
    """

    rules: tuple[WQRule1D, ...]

    @property
    def dim(self) -> int:
        return len(self.rules)

    @property
    def n_points_per_dir(self) -> tuple[int, ...]:
        return tuple(r.n_points for r in self.rules)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.n_points_per_dir))


def build_tensor_rule(space) -> TensorRule:
    """Weighted-quadrature rules for every direction of a tensor space.

    One rule is built per distinct knot-vector object; directions sharing
    a knot vector share its :class:`WQRule1D`.
    """
    return TensorRule(tuple(map_distinct(build_wq_rule, space.knotvectors)))


def _gauss_rule(kv: KnotVector, pts_per_span: int) -> WQRule1D:
    """Gauss quadrature on ``kv`` as a :class:`WQRule1D`.

    ``pts_per_span`` Gauss nodes x per knot span as points, ``colloc[b]``
    the b-th derivative collocation matrix at x and ``weights[(a, b)]`` =
    ``colloc[a]^T diag(w)``.
    """
    x, w = gauss_points_weights(kv, pts_per_span)
    colloc = {b: collocation_matrix(kv, x, b) for b in (0, 1)}
    test = {a: colloc[a].T * w for a in (0, 1)}
    weights = {(a, b): test[a] for (a, b) in _DERIV_PAIRS}
    return WQRule1D(kv=kv, points=x, weights=weights, colloc=colloc)


def gauss_tensor_rule(space, pts_per_span: int | None = None) -> TensorRule:
    """Standard Gauss quadrature as a :class:`TensorRule`.

    Per direction the rule of :func:`_gauss_rule` with ``pts_per_span``
    points per knot span (default p+1, exact for degree 2p+1); one rule
    per distinct knot-vector object, as in :func:`build_tensor_rule`.
    """
    if pts_per_span is None:
        pts_per_span = max(kv.degree for kv in space.knotvectors) + 1
    return TensorRule(tuple(map_distinct(
        lambda kv: _gauss_rule(kv, pts_per_span), space.knotvectors)))
