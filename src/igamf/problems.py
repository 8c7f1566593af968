# -*- coding: utf-8 -*-
"""Concrete benchmark problems: manufactured solutions and error norms.

The oscillating manufactured solution on the thick quarter ring is

    u(x) = sin(5 pi x1) sin(5 pi x2) sin(5 pi x3) (x1^2 + x2^2 - 1)(x1^2 + x2^2 - 4)

which vanishes on the whole boundary.  Its gradient and source f = -div(K grad u)
+ alpha u are derived symbolically (sympy) and validated against finite
differences in the test suite, so no hand transcription is involved.  u and
grad u are lambdified together, with common subexpressions shared.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import sympy

from .assembly import tensor_gauss_sum
from .geometry import _eval_rows
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
    """Exact solution with its gradient, and matching source term.

    ``u_grad(x)`` returns ``(u, grad)`` at physical points x of shape
    (npts, d): shapes (npts,) and (npts, d), grad stored component-major.
    """

    u_grad: callable = field(repr=False)
    f: callable = field(repr=False)
    alpha: float = 0.0
    reference_h1_errors: dict = field(default_factory=dict, repr=False)


def _lambdify_case(u_expr, syms, alpha, reference):
    grads = [sympy.diff(u_expr, s) for s in syms]
    lap = sum(sympy.diff(u_expr, s, 2) for s in syms)
    f_expr = -lap + alpha * u_expr
    ug_fn = sympy.lambdify(syms, [u_expr, *grads], "numpy", cse=True)
    f_fn = sympy.lambdify(syms, [f_expr], "numpy", cse=True)

    def u_grad(x):
        out = _eval_rows(ug_fn, np.atleast_2d(x), 1 + len(syms))
        return out[0], out[1:].T

    def f(x):
        return _eval_rows(f_fn, np.atleast_2d(x), 1)[0]

    return ManufacturedCase(u_grad=u_grad, f=f, alpha=alpha,
                            reference_h1_errors=reference)


@lru_cache(maxsize=None)
def oscillating_case() -> ManufacturedCase:
    """Oscillating solution on the thick quarter ring (K = I, alpha = 0)."""
    x1, x2, x3 = sympy.symbols("x1 x2 x3")
    r2 = x1**2 + x2**2
    u = (sympy.sin(5 * sympy.pi * x1) * sympy.sin(5 * sympy.pi * x2)
         * sympy.sin(5 * sympy.pi * x3) * (r2 - 1) * (r2 - 4))
    return _lambdify_case(u, (x1, x2, x3), 0.0, dict(QUARTER_RING_H1_REFERENCE))


@lru_cache(maxsize=None)
def cube_sine_case() -> ManufacturedCase:
    """Smooth product-of-sines solution on the unit cube (K = I, alpha = 0)."""
    x1, x2, x3 = sympy.symbols("x1 x2 x3")
    u = sympy.sin(sympy.pi * x1) * sympy.sin(sympy.pi * x2) * sympy.sin(sympy.pi * x3)
    return _lambdify_case(u, (x1, x2, x3), 0.0, {})


def relative_errors(space, geom, u_coeffs, case, gauss_pts=None):
    """Relative full H1 and L2 norms of u - u_h over the physical domain.

    Returns ``(h1, l2)`` from one tensor-Gauss pass with ``gauss_pts``
    points per span and direction (default p+2); the L2 sums are the value
    part of the H1 sums.
    """
    u_coeffs = np.asarray(u_coeffs, dtype=float).ravel()
    if u_coeffs.size != space.n_dofs:
        raise ValueError(
            f"expected coefficient vector of length {space.n_dofs}, got {u_coeffs.size}"
        )
    if gauss_pts is None:
        gauss_pts = max(kv.degree for kv in space.knotvectors) + 2
    d = space.dim

    def integrand(x, measure, det, cof, B0, B1):
        ue, ge = case.u_grad(x)
        e = ue - kron_apply(B0, u_coeffs)
        l2_err2 = measure @ e**2
        l2_ref2 = measure @ ue**2
        gp = [kron_apply([B1[l] if l == b else B0[l] for l in range(d)], u_coeffs)
              for b in range(d)]
        err_sq = np.zeros_like(ue)
        ref_sq = np.zeros_like(ue)
        for i in range(d):
            # component i of the physical gradient J_F^-T grad = cof grad / det
            g = cof[:, i, 0] * gp[0]
            for j in range(1, d):
                g += cof[:, i, j] * gp[j]
            g /= det
            g -= ge[:, i]
            err_sq += g * g
            ref_sq += ge[:, i] * ge[:, i]
        h1_err2 = l2_err2 + measure @ err_sq
        h1_ref2 = l2_ref2 + measure @ ref_sq
        return np.array([h1_err2, h1_ref2, l2_err2, l2_ref2])

    h1_err2, h1_ref2, l2_err2, l2_ref2 = tensor_gauss_sum(space, geom, gauss_pts,
                                                          integrand)
    return float(np.sqrt(h1_err2 / h1_ref2)), float(np.sqrt(l2_err2 / l2_ref2))


def h1_relative_error(space, geom, u_coeffs, case, gauss_pts=None) -> float:
    """Relative full H1 norm of u - u_h (see :func:`relative_errors`)."""
    return relative_errors(space, geom, u_coeffs, case, gauss_pts)[0]


def l2_relative_error(space, geom, u_coeffs, case, gauss_pts=None) -> float:
    """Relative L2 norm of u - u_h (see :func:`relative_errors`)."""
    return relative_errors(space, geom, u_coeffs, case, gauss_pts)[1]
