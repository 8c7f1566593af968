# -*- coding: utf-8 -*-
"""Weighted-quadrature points and weight matrices for univariate spline spaces.

For a knot vector with interior multiplicity 1, the quadrature points are
the endpoints and midpoints of every knot span, densified in the first and
last spans where up to p+1 basis functions coexist.  For each of the four
test/trial derivative pairs (a, b), each row i of the weight matrix solves
a small exactness system so that

    sum_q W^(a,b)[i, q] * D^b b_j(x_q) = int D^a b_i D^b b_j

holds for every overlapping trial function j.  Right-hand sides are exact
(per-span Gauss-Legendre with p+1 nodes, exact up to degree 2p+1).

Standard Gauss quadrature is the rule with W^(a,b) = (D^a B)^T diag(w) at
the Gauss nodes (:func:`gauss_tensor_rule`), so every consumer of a WQ
rule (operators, load vector, explicit assembly) also serves Gauss.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .splines import KnotVector, collocation_matrix, map_distinct

#: residual bound enforced on every exactness equation
EXACTNESS_TOL = 1e-10

_DERIV_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


class WQConstructionError(RuntimeError):
    """Raised when the exactness system of some row cannot be satisfied."""

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
    """Exact univariate Gram matrices int D^a b_i D^b b_j (sparse, m x m).

    Returns ``{(a, b): G}`` for the four pairs a, b in {0, 1}, all from
    one Gauss collocation of the values and one of the first derivatives.
    """
    x, w = gauss_points_weights(kv, kv.degree + 1)
    B = {b: collocation_matrix(kv, x, b) for b in (0, 1)}
    grams = {}
    for a, b in _DERIV_PAIRS:
        G = (B[a].T @ sp.diags(w) @ B[b]).tocsr()
        G.eliminate_zeros()
        grams[(a, b)] = G
    return grams


def wq_points(kv: KnotVector, boundary_extra: int | None = None) -> np.ndarray:
    """Quadrature points: span endpoints and midpoints, denser at the boundary.

    The first and last spans receive ``boundary_extra`` uniformly spaced
    interior points (default p-1, merged with the midpoint), since near the
    boundary up to p+1 basis functions live on a single span.
    """
    if kv.max_interior_multiplicity() > 1:
        raise ValueError("weighted quadrature requires interior multiplicity 1")
    p = kv.degree
    if boundary_extra is None:
        boundary_extra = p - 1
    brk = kv.breakpoints
    pts = [brk, (brk[:-1] + brk[1:]) / 2]
    if boundary_extra > 0 and len(brk) >= 2:
        for (a, b) in ((brk[0], brk[1]), (brk[-2], brk[-1])):
            pts.append(np.linspace(a, b, boundary_extra + 2)[1:-1])
    pts = np.concatenate(pts)
    pts.sort()
    # drop near-duplicates (uniform linspace can reproduce the midpoint)
    keep = np.concatenate([[True], np.diff(pts) > 1e-12])
    return pts[keep]


def wq_weights(kv: KnotVector, points, grams):
    """All four weight matrices W^(a,b) (m x n_q) in one pass over the rows.

    ``grams`` are the exact Grams of :func:`exact_grams`, the right-hand
    sides.  Returns ``(weights, colloc)``: ``weights[(a, b)]`` satisfies
    the exactness conditions and ``colloc[b]`` is the collocation matrix
    (n_q x m) of the b-th derivative at ``points``.  Row i uses the points
    in supp b_i and the trial functions j with |i - j| <= p, which are the
    ones overlapping b_i only for simple interior knots; any other knot
    vector raises ``ValueError``.  Raises :class:`WQConstructionError`
    carrying the offending row when a row's system is rank-deficient beyond
    the residual tolerance; the caller may retry with more boundary points.
    """
    if kv.max_interior_multiplicity() > 1:
        raise ValueError("weighted quadrature requires interior multiplicity 1")
    points = np.asarray(points, dtype=float)
    p, m = kv.degree, kv.n_funcs
    colloc = {b: collocation_matrix(kv, points, b) for b in (0, 1)}
    trial = {b: c.toarray().T for b, c in colloc.items()}  # (m, n_q)
    gram = {ab: G.toarray() for ab, G in grams.items()}
    indptr, indices = [0], []
    data = {ab: [] for ab in _DERIV_PAIRS}
    for i in range(m):
        lo, hi = kv.support(i)
        qs = np.flatnonzero((points >= lo - 1e-14) & (points <= hi + 1e-14))
        js = slice(max(i - p, 0), min(i + p + 1, m))
        for a, b in _DERIV_PAIRS:
            E = trial[b][js, qs]
            g = gram[(a, b)][i, js]
            w, *_ = np.linalg.lstsq(E, g, rcond=None)
            resid = float(np.abs(E @ w - g).max())
            if resid > EXACTNESS_TOL:
                raise WQConstructionError(i, resid)
            data[(a, b)].append(w)
        indices.append(qs)
        indptr.append(indptr[-1] + len(qs))
    weights = {
        ab: sp.csr_matrix((np.concatenate(w), np.concatenate(indices), indptr),
                          shape=(m, len(points)))
        for ab, w in data.items()
    }
    return weights, colloc


@dataclass(frozen=True)
class WQRule1D:
    """Quadrature points plus the four weight families and trial collocations.

    ``weights[(a, b)]`` is the m x n_q matrix W^(a,b); ``colloc[b]`` holds
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
    """Construct the full weighted-quadrature rule for one knot vector.

    Starts from the default point set and, if some exactness system is
    rank-deficient, adds boundary points and retries (bounded at 2p extra
    per boundary span).  The exact Grams do not depend on the points and
    are built once, before the first attempt.
    """
    p = kv.degree
    grams = exact_grams(kv)
    last_err = None
    for extra in range(max(p - 1, 0), 3 * p + 1):
        points = wq_points(kv, boundary_extra=extra)
        try:
            weights, colloc = wq_weights(kv, points, grams)
        except WQConstructionError as err:
            last_err = err
            continue
        return WQRule1D(kv=kv, points=points, weights=weights, colloc=colloc)
    raise last_err


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


def gauss_tensor_rule(space, pts_per_span: int | None = None) -> TensorRule:
    """Standard Gauss quadrature as a :class:`TensorRule`.

    Per direction: ``pts_per_span`` Gauss nodes x per knot span as points
    (default p+1, exact for degree 2p+1), ``colloc[b]`` the b-th
    derivative collocation matrix at x and ``weights[(a, b)]`` =
    ``colloc[a]^T diag(w)``; one rule per distinct knot-vector object, as in
    :func:`build_tensor_rule`.
    """
    if pts_per_span is None:
        pts_per_span = max(kv.degree for kv in space.knotvectors) + 1

    def rule(kv):
        x, w = gauss_points_weights(kv, pts_per_span)
        colloc = {b: collocation_matrix(kv, x, b) for b in (0, 1)}
        test = {a: (colloc[a].T @ sp.diags(w)).tocsr() for a in (0, 1)}
        weights = {(a, b): test[a] for (a, b) in _DERIV_PAIRS}
        return WQRule1D(kv=kv, points=x, weights=weights, colloc=colloc)

    return TensorRule(tuple(map_distinct(rule, space.knotvectors)))
