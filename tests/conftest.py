import numpy as np

from igamf import (GeometryMap, KnotVector, exact_grams, kron_apply,
                   make_uniform_knots, tensor_grid)


class NaNEmpty:
    """numpy, except that ``empty`` arrays start as NaN; patched over a
    module's ``np``, it shows any output entry a kernel fails to write."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, *args, **kwargs):
        return np.full(shape, np.nan)


def affine_map(A, b):
    """The geometry F(xi) = A xi + b (orientation-preserving A)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    d = A.shape[0]
    if np.linalg.det(A) <= 0:
        raise ValueError("affine map must be orientation-preserving")

    def _map(xi):
        return xi @ A.T + b

    def _jac(xi):
        return np.broadcast_to(A, (len(xi), d, d)).copy()

    return GeometryMap(dim=d, _map=_map, _jacobian=_jac)


def not_extruded(geom):
    """``geom`` as a plain map that declares no extrusion, so that
    ``pullback`` and the error pass evaluate it at every point."""
    return GeometryMap(dim=geom.dim, _map=geom.evaluate, _jacobian=geom.jacobian)


def point_arrays(rule):
    """A tensor rule's grid coordinates as a (d, n_points) array, direction 1
    fastest; the transpose is the (n_points, d) point array."""
    return tensor_grid([r.points for r in rule.rules])


def perturbed_knots(p, n_el, seed=0, amount=0.25):
    """Open knot vector with randomly jittered interior breakpoints."""
    kv = make_uniform_knots(p, n_el)
    knots = np.asarray(kv.knots, dtype=float).copy()
    h = 1.0 / n_el
    rng = np.random.default_rng(seed)
    interior = slice(p + 1, len(knots) - p - 1)
    knots[interior] += amount * h * rng.uniform(-1, 1, knots[interior].size)
    assert np.all(np.diff(knots) >= 0)
    return KnotVector(p, knots)


def fd_forward(space, v):
    """P v for the FD preconditioner's Kronecker sum (oracle for its inverse).

    P = sum_l M x ... x K_l x ... x M, with K and M the interior blocks of
    the univariate stiffness and mass Grams.
    """
    K = [exact_grams(kv)[(1, 1)].toarray()[1:-1, 1:-1] for kv in space.knotvectors]
    M = [exact_grams(kv)[(0, 0)].toarray()[1:-1, 1:-1] for kv in space.knotvectors]
    v = np.asarray(v, dtype=float).ravel()
    d = space.dim
    out = np.zeros_like(v)
    for l in range(d):
        out += kron_apply([K[k] if k == l else M[k] for k in range(d)], v)
    return out


def max_row_nnz(space):
    """Largest per-row nonzero count of the Galerkin matrix."""
    out = 1
    for kv in space.knotvectors:
        out *= min(2 * kv.degree + 1, kv.n_interior)
    return out
