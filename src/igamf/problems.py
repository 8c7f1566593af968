# -*- coding: utf-8 -*-
"""Concrete benchmark problems: geometries, manufactured solutions, error norms.

The oscillating manufactured solution on the thick quarter ring is

    u(x) = sin(5 pi x1) sin(5 pi x2) sin(5 pi x3) (x1^2 + x2^2 - 1)(x1^2 + x2^2 - 4)

which vanishes on the whole boundary.  Its gradient and source f = -div(K grad u)
+ alpha u are derived symbolically (sympy) and validated against finite
differences in the test suite, so no hand transcription is involved.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import sympy

from .assembly import tensor_gauss_sum
from .geometry import identity_map, quarter_ring_map  # noqa: F401  (re-export)
from .kron import kron_apply

#: reference relative H1 errors of the fully solved quarter-ring benchmark,
#: keyed by (degree, mesh exponent); used to derive stopping tolerances.
QUARTER_RING_H1_REFERENCE = {
    (1, 4): 5.8e-1, (1, 5): 2.8e-1, (1, 6): 1.4e-1, (1, 7): 6.8e-2, (1, 8): 3.4e-2,
    (2, 4): 5.3e-1, (2, 5): 7.1e-2, (2, 6): 1.2e-2, (2, 7): 2.6e-3, (2, 8): 6.2e-4,
    (3, 4): 4.5e-1, (3, 5): 3.3e-2, (3, 6): 2.5e-3, (3, 7): 2.7e-4, (3, 8): 3.2e-5,
    (4, 4): 5.1e-1, (4, 5): 1.4e-2, (4, 6): 3.8e-4, (4, 7): 1.8e-5, (4, 8): 1.0e-6,
    (5, 4): 4.4e-1, (5, 5): 6.8e-3, (5, 6): 7.1e-5, (5, 7): 1.5e-6, (5, 8): 4.3e-8,
    (6, 4): 4.9e-1, (6, 5): 3.3e-2, (6, 6): 1.3e-5, (6, 7): 1.2e-7, (6, 8): 1.6e-9,
    (7, 4): 4.1e-1, (7, 5): 1.7e-3, (7, 6): 2.5e-6, (7, 7): 1.1e-8, (7, 8): 6.7e-11,
    (8, 4): 4.7e-1, (8, 5): 9.2e-4, (8, 6): 5.1e-7, (8, 7): 9.3e-10, (8, 8): 2.8e-12,
    (9, 4): 3.8e-1, (9, 5): 5.2e-4, (9, 6): 1.0e-7, (9, 7): 8.4e-11, (9, 8): 1.4e-13,
    (10, 4): 4.4e-1, (10, 5): 3.0e-4, (10, 6): 2.2e-8, (10, 7): 7.8e-12, (10, 8): 2.8e-13,
}


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution, gradient and matching source term (physical coordinates)."""

    name: str
    u: callable = field(repr=False)
    grad_u: callable = field(repr=False)
    f: callable = field(repr=False)
    alpha: float = 0.0
    reference_h1_errors: dict = field(default_factory=dict, repr=False)


def _lambdify_case(name, u_expr, syms, alpha, reference):
    grads = [sympy.diff(u_expr, s) for s in syms]
    lap = sum(sympy.diff(u_expr, s, 2) for s in syms)
    f_expr = -lap + alpha * u_expr
    u_fn = sympy.lambdify(syms, u_expr, "numpy")
    g_fns = [sympy.lambdify(syms, g, "numpy") for g in grads]
    f_fn = sympy.lambdify(syms, f_expr, "numpy")

    def u(x):
        x = np.atleast_2d(x)
        return np.asarray(u_fn(*(x[:, l] for l in range(len(syms)))), dtype=float)

    def grad_u(x):
        x = np.atleast_2d(x)
        cols = [np.broadcast_to(g(*(x[:, l] for l in range(len(syms)))), (len(x),))
                for g in g_fns]
        return np.stack([np.asarray(c, dtype=float) for c in cols], axis=1)

    def f(x):
        x = np.atleast_2d(x)
        return np.asarray(f_fn(*(x[:, l] for l in range(len(syms)))), dtype=float)

    return ManufacturedCase(name=name, u=u, grad_u=grad_u, f=f, alpha=alpha,
                            reference_h1_errors=reference)


@lru_cache(maxsize=None)
def oscillating_case() -> ManufacturedCase:
    """Oscillating solution on the thick quarter ring (K = I, alpha = 0)."""
    x1, x2, x3 = sympy.symbols("x1 x2 x3")
    r2 = x1**2 + x2**2
    u = (sympy.sin(5 * sympy.pi * x1) * sympy.sin(5 * sympy.pi * x2)
         * sympy.sin(5 * sympy.pi * x3) * (r2 - 1) * (r2 - 4))
    return _lambdify_case("quarter-ring-oscillating", u, (x1, x2, x3), 0.0,
                          dict(QUARTER_RING_H1_REFERENCE))


@lru_cache(maxsize=None)
def cube_sine_case() -> ManufacturedCase:
    """Smooth product-of-sines solution on the unit cube (K = I, alpha = 0)."""
    x1, x2, x3 = sympy.symbols("x1 x2 x3")
    u = sympy.sin(sympy.pi * x1) * sympy.sin(sympy.pi * x2) * sympy.sin(sympy.pi * x3)
    return _lambdify_case("cube-sine", u, (x1, x2, x3), 0.0, {})


def _error_integrals(space, geom, u_coeffs, case, gauss_pts, with_gradient):
    """Tensor-Gauss sums of the squared error and reference norms."""
    u_coeffs = np.asarray(u_coeffs, dtype=float).ravel()
    if u_coeffs.size != space.n_dofs:
        raise ValueError(
            f"expected coefficient vector of length {space.n_dofs}, got {u_coeffs.size}"
        )
    d = space.dim

    def integrand(x, measure, det, cof, B0, B1):
        ue = case.u(x)
        e = ue - kron_apply(B0, u_coeffs)
        err2 = measure @ e**2
        ref2 = measure @ ue**2
        if with_gradient:
            gp = np.stack([kron_apply([B1[l] if l == b else B0[l] for l in range(d)],
                                      u_coeffs) for b in range(d)], axis=1)
            # physical gradient J_F^-T grad = cof grad / det
            gh = np.einsum("qij,qj->qi", cof, gp)
            gh /= det[:, None]
            ge = case.grad_u(x)
            gh -= ge
            err2 += measure @ np.einsum("qi,qi->q", gh, gh)
            ref2 += measure @ np.einsum("qi,qi->q", ge, ge)
        return np.array([err2, ref2])

    return tensor_gauss_sum(space, geom, gauss_pts, integrand)


def h1_relative_error(space, geom, u_coeffs, case, gauss_pts=None) -> float:
    """Relative full H1 norm of u - u_h over the physical domain."""
    if gauss_pts is None:
        gauss_pts = max(kv.degree for kv in space.knotvectors) + 2
    err2, ref2 = _error_integrals(space, geom, u_coeffs, case, gauss_pts, True)
    return float(np.sqrt(err2 / ref2))


def l2_relative_error(space, geom, u_coeffs, case, gauss_pts=None) -> float:
    """Relative L2 norm of u - u_h over the physical domain."""
    if gauss_pts is None:
        gauss_pts = max(kv.degree for kv in space.knotvectors) + 2
    err2, ref2 = _error_integrals(space, geom, u_coeffs, case, gauss_pts, False)
    return float(np.sqrt(err2 / ref2))
