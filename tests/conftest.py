import numpy as np

from igamf import (GeometryMap, KnotVector, exact_grams, kron_apply,
                   make_uniform_knots, quarter_ring_rational_map, tensor_grid)


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


def reparametrized_ring(a=0.5, b=0.3):
    """The rational quarter ring with xi_1 and xi_3 reparametrized:
    F(xi) = (G(s, xi_2), phi(xi)), s = xi_1 + b xi_1 (1 - xi_1) sin(pi xi_2),
    phi = xi_3 + a xi_3 (1 - xi_3) psi, psi = sin(pi xi_1) cos(pi xi_2),
    with G the ring's planar map.

    For |a|, |b| < 1, s rises from 0 to 1 in xi_1 and phi in xi_3, both
    fixing the faces, so the domain, its faces and the oscillating case are
    the ring's.  The map is neither an extrusion (``planar`` is None) nor
    separable, and s shears G, whose own Jacobian has orthogonal columns:
    every entry of C = cof^T cof / det J_F is nonzero.
    """
    G = quarter_ring_rational_map().planar

    def parts(xi):
        t = xi[:, 2]
        s1, c1 = np.sin(np.pi * xi[:, 0]), np.cos(np.pi * xi[:, 0])
        s2, c2 = np.sin(np.pi * xi[:, 1]), np.cos(np.pi * xi[:, 1])
        return t, a * t * (1 - t), s1, c1, s2, c2

    def sheared(xi):
        """(s, xi_2) and the derivatives of s in xi_1 and xi_2."""
        x1 = xi[:, 0]
        s2, c2 = np.sin(np.pi * xi[:, 1]), np.cos(np.pi * xi[:, 1])
        plane = np.stack([x1 + b * x1 * (1 - x1) * s2, xi[:, 1]], axis=1)
        return plane, 1 + b * (1 - 2 * x1) * s2, np.pi * b * x1 * (1 - x1) * c2

    def _map(xi):
        t, bump, s1, _, _, c2 = parts(xi)
        x = np.empty((len(xi), 3))
        x[:, :2] = G.evaluate(sheared(xi)[0])
        x[:, 2] = t + bump * s1 * c2
        return x

    def _jac(xi):
        t, bump, s1, c1, s2, c2 = parts(xi)
        plane, ds1, ds2 = sheared(xi)
        JG = G.jacobian(plane)
        J = np.zeros((len(xi), 3, 3))
        J[:, :2, 0] = JG[:, :, 0] * ds1[:, None]
        J[:, :2, 1] = JG[:, :, 0] * ds2[:, None] + JG[:, :, 1]
        J[:, 2, 0] = np.pi * bump * c1 * c2
        J[:, 2, 1] = -np.pi * bump * s1 * s2
        J[:, 2, 2] = 1 + a * (1 - 2 * t) * s1 * c2
        return J

    return GeometryMap(dim=3, _map=_map, _jacobian=_jac)


def stiffness_field(x):
    """A symmetric positive definite K(x), (npts, 3, 3) at (npts, 3) points."""
    K = np.empty((len(x), 3, 3))
    K[:] = [[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]]
    K[:, 0, 0] += x[:, 0]**2
    K[:, 2, 2] += np.sin(x[:, 1])**2
    K[:, 1, 2] += 0.1 * x[:, 2]
    K[:, 2, 1] += 0.1 * x[:, 2]
    return K


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
    K = [exact_grams(kv)[(1, 1)][1:-1, 1:-1] for kv in space.knotvectors]
    M = [exact_grams(kv)[(0, 0)][1:-1, 1:-1] for kv in space.knotvectors]
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
