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
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .splines import KnotVector, collocation_matrix

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


def exact_gram(kv: KnotVector, a: int, b: int) -> sp.csr_matrix:
    """Exact univariate Gram matrix int D^a b_i D^b b_j (sparse, m x m)."""
    x, w = gauss_points_weights(kv, kv.degree + 1)
    Ba = collocation_matrix(kv, x, a)
    Bb = collocation_matrix(kv, x, b)
    G = (Ba.T @ sp.diags(w) @ Bb).tocsr()
    G.eliminate_zeros()
    return G


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


def _solve_weight_row(kv, points, colloc_b, gram_ab, i):
    """Min-norm least-squares solve of the exactness system of one row."""
    lo, hi = kv.support(i)
    qs = np.flatnonzero((points >= lo - 1e-14) & (points <= hi + 1e-14))
    js = [
        j
        for j in range(kv.n_funcs)
        if kv.support(j)[1] > lo + 1e-14 and kv.support(j)[0] < hi - 1e-14
    ]
    E = colloc_b[np.ix_(js, qs)]
    g = gram_ab[i, js]
    w, *_ = np.linalg.lstsq(E, g, rcond=None)
    resid = float(np.abs(E @ w - g).max()) if len(js) else 0.0
    return qs, w, resid


def wq_weights(kv: KnotVector, points, a: int, b: int) -> sp.csr_matrix:
    """Weight matrix W^(a,b) (m x n_q) satisfying the exactness conditions.

    Raises :class:`WQConstructionError` carrying the offending row when a
    row's system is rank-deficient beyond the residual tolerance; the caller
    may retry with more boundary points.
    """
    points = np.asarray(points, dtype=float)
    colloc_b = collocation_matrix(kv, points, b).toarray().T  # (m, n_q)
    gram = exact_gram(kv, a, b).toarray()
    rows, cols, vals = [], [], []
    for i in range(kv.n_funcs):
        qs, w, resid = _solve_weight_row(kv, points, colloc_b, gram, i)
        if resid > EXACTNESS_TOL:
            raise WQConstructionError(i, resid)
        rows.extend([i] * len(qs))
        cols.extend(qs.tolist())
        vals.extend(w.tolist())
    W = sp.csr_matrix(
        (vals, (rows, cols)), shape=(kv.n_funcs, len(points))
    )
    return W


@dataclass(frozen=True)
class WQRule1D:
    """Quadrature points plus the four weight families and trial collocations.

    ``weights[(a, b)]`` is the m x n_q matrix W^(a,b); ``colloc[b]`` holds
    the trial-side values/derivatives at the same points (n_q x m).
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
    per boundary span).
    """
    p = kv.degree
    last_err = None
    for extra in range(max(p - 1, 0), 3 * p + 1):
        points = wq_points(kv, boundary_extra=extra)
        try:
            weights = {
                (a, b): wq_weights(kv, points, a, b) for (a, b) in _DERIV_PAIRS
            }
        except WQConstructionError as err:
            last_err = err
            continue
        colloc = {b: collocation_matrix(kv, points, b) for b in (0, 1)}
        return WQRule1D(kv=kv, points=points, weights=weights, colloc=colloc)
    raise last_err


@dataclass(frozen=True)
class TensorRule:
    """Per-direction weighted-quadrature rules seen as one tensor rule.

    Nothing multivariate is materialized: the full weight matrix exists only
    as the Kronecker product of the univariate factors.
    """

    rules: tuple[WQRule1D, ...]

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    @property
    def dim(self) -> int:
        return len(self.rules)

    @property
    def n_points_per_dir(self) -> tuple[int, ...]:
        return tuple(r.n_points for r in self.rules)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.n_points_per_dir))

    def point_arrays(self):
        """Flat coordinate arrays of the tensor grid, direction 1 fastest."""
        from .kron import tensor_grid

        return tensor_grid([r.points for r in self.rules])


def build_tensor_rule(space) -> TensorRule:
    """Weighted-quadrature rules for every direction of a tensor space."""
    return TensorRule(tuple(build_wq_rule(kv) for kv in space.knotvectors))
