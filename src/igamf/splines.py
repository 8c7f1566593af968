# -*- coding: utf-8 -*-
"""Univariate B-spline spaces, collocation matrices and tensor spaces.

All knot vectors are open and live on the parametric interval [0, 1].
Evaluation at a knot uses the right-continuous limit, except at the right
domain endpoint where the left limit is taken, so that basis values are
well defined at every quadrature point including span endpoints.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class KnotVector:
    """Open knot vector of degree ``p`` on [0, 1].

    The number of basis functions is ``m = len(knots) - p - 1``.
    """

    degree: int
    knots: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = self.degree
        if p < 1:
            raise ValueError(f"degree must be >= 1, got {p}")
        knots = np.ascontiguousarray(np.asarray(self.knots, dtype=float))
        object.__setattr__(self, "knots", knots)
        knots.setflags(write=False)
        if knots.ndim != 1 or len(knots) < 2 * (p + 1):
            raise ValueError("knot vector too short for the given degree")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")
        if knots[0] != 0.0 or knots[-1] != 1.0:
            raise ValueError("knot vector must start at 0 and end at 1")
        if np.any(knots[: p + 1] != 0.0) or np.any(knots[-(p + 1) :] != 1.0):
            raise ValueError("knot vector must be open (p+1 repeats at each end)")
        if knots[p + 1] == 0.0 or knots[-(p + 2)] == 1.0:
            raise ValueError("endpoint multiplicity must be exactly p+1")
        interior = knots[p + 1 : len(knots) - p - 1]
        if len(interior) > 0:
            _, counts = np.unique(interior, return_counts=True)
            if np.any(counts > p):
                raise ValueError("interior knot multiplicity exceeds p")

    @property
    def n_funcs(self) -> int:
        """Number of univariate basis functions (before boundary removal)."""
        return len(self.knots) - self.degree - 1

    @property
    def n_interior(self) -> int:
        """Basis functions kept after removing the first and last one."""
        return self.n_funcs - 2

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knot values, i.e. the element boundaries."""
        return np.unique(self.knots)

    @property
    def n_elements(self) -> int:
        return len(self.breakpoints) - 1

    def max_interior_multiplicity(self) -> int:
        interior = self.knots[self.degree + 1 : len(self.knots) - self.degree - 1]
        if len(interior) == 0:
            return 0
        _, counts = np.unique(interior, return_counts=True)
        return int(counts.max())

    def support(self, i: int) -> tuple[float, float]:
        """Closed support of basis function ``i`` (0-based)."""
        return float(self.knots[i]), float(self.knots[i + self.degree + 1])


def make_uniform_knots(p: int, n_el: int) -> KnotVector:
    """Open uniform knot vector with ``n_el`` spans and interior multiplicity 1."""
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    if n_el < 1:
        raise ValueError(f"number of elements must be >= 1, got {n_el}")
    interior = np.arange(1, n_el) / n_el
    knots = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
    return KnotVector(p, knots)


def _cox_de_boor(knots, x, span, q):
    """Degree-q values of the q+1 functions nonzero at each point, shape (n, q+1).

    Column r belongs to function span - q + r.  All points run at once, in
    the operation order of the textbook (Piegl-Tiller A2.2) recurrence.
    """
    N = np.zeros((len(x), q + 1))
    N[:, 0] = 1.0
    left = [None] + [x - knots[span + 1 - j] for j in range(1, q + 1)]
    right = [None] + [knots[span + j] - x for j in range(1, q + 1)]
    for j in range(1, q + 1):
        saved = 0.0
        for r in range(j):
            denom = right[r + 1] + left[j - r]
            temp = np.divide(N[:, r], denom, out=np.zeros_like(denom),
                             where=denom != 0.0)
            N[:, r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        N[:, j] = saved
    return N


def collocation_matrix(kv: KnotVector, points, deriv: int = 0) -> sp.csr_matrix:
    """Sparse matrix of the ``deriv``-th derivative of all basis functions.

    Entry (q, j) is D^deriv b_j(x_q).  Shape (n_points, m); each row has at
    most p+1 nonzeros.  Points must lie in [0, 1].  Row q holds the p+1
    functions of the span of x_q, knots[span] <= x_q < knots[span+1]
    (right-continuous; the last span at x_q = 1).  First derivatives come
    from the degree p-1 values by the two-term formula; a term whose knot
    difference is zero is dropped.
    """
    if deriv not in (0, 1):
        raise ValueError("only derivative orders 0 and 1 are supported")
    x = np.atleast_1d(np.asarray(points, dtype=float))
    outside = ~((x >= 0.0) & (x <= 1.0))  # NaN fails both comparisons
    if np.any(outside):
        raise ValueError(f"point {x[outside].flat[0]} outside [0, 1]")
    p, knots = kv.degree, kv.knots
    span = np.clip(np.searchsorted(knots, x, side="right") - 1, p,
                   kv.n_funcs - 1)
    if deriv == 0:
        vals = _cox_de_boor(knots, x, span, p)
    else:
        # degree p-1 function span-p+1+r feeds columns r+1 (plus) and r (minus)
        lower = _cox_de_boor(knots, x, span, p - 1)
        g = span[:, None] - p + 1 + np.arange(p)
        denom = knots[g + p] - knots[g]
        c = np.divide(p * lower, denom, out=np.zeros_like(lower),
                      where=denom != 0.0)
        vals = np.zeros((len(x), p + 1))
        vals[:, 1:] = c
        vals[:, :-1] -= c
    indices = span[:, None] - p + np.arange(p + 1)
    mat = sp.csr_matrix((vals.ravel(), indices.ravel(),
                         np.arange(len(x) + 1) * (p + 1)),
                        shape=(len(x), kv.n_funcs))
    mat.eliminate_zeros()
    return mat


@dataclass(frozen=True)
class TensorSpace:
    """Tensor product of univariate spline spaces with Dirichlet boundary removal.

    Per direction, the first and last basis function are dropped; the
    remaining ``n = m - 2`` functions per direction give ``N = prod(n)``
    degrees of freedom.  A multi-index (i_1, ..., i_d) maps to the scalar
    index with direction 1 running fastest.
    """

    knotvectors: tuple[KnotVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "knotvectors", tuple(self.knotvectors))
        for kv in self.knotvectors:
            if kv.n_interior < 1:
                raise ValueError("each direction needs at least one interior function")

    @property
    def dim(self) -> int:
        return len(self.knotvectors)

    @property
    def n_per_dir(self) -> tuple[int, ...]:
        return tuple(kv.n_interior for kv in self.knotvectors)

    @property
    def n_dofs(self) -> int:
        return int(np.prod(self.n_per_dir))


def map_distinct(fn, items) -> list:
    """``[fn(x) for x in items]``, calling ``fn`` once per distinct object.

    Objects are told apart by identity, so the directions of a
    :func:`tensor_space`, which share one knot vector, share one result.
    """
    done = {}
    for x in items:
        if id(x) not in done:
            done[id(x)] = fn(x)
    return [done[id(x)] for x in items]


def tensor_space(p: int, n_el: int, d: int = 3) -> TensorSpace:
    """Isotropic tensor space: same degree and uniform mesh in every direction.

    All d directions hold the same :class:`KnotVector` object.
    """
    kv = make_uniform_knots(p, n_el)
    return TensorSpace((kv,) * d)

