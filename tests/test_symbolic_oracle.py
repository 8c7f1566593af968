"""Hand-written closed forms against a symbolic derivation.

The package evaluates the manufactured solutions (u, grad u and
f = -lap u) and the rational quarter ring (F and J_F) from
hand-written numpy formulas.  Here the same quantities are derived with
sympy, a dependency of the ``test`` extra only, lambdified, and compared
at random points to 1e-13 relative to each quantity's largest magnitude.
"""

import numpy as np
import pytest
import sympy

from igamf import cube_sine_case, oscillating_case, quarter_ring_rational_map

TOL = 1e-13
X = sympy.symbols("x1 x2 x3")


def oscillating_u():
    r2 = X[0]**2 + X[1]**2
    return (sympy.sin(5 * sympy.pi * X[0]) * sympy.sin(5 * sympy.pi * X[1])
            * sympy.sin(5 * sympy.pi * X[2]) * (r2 - 1) * (r2 - 4))


def cube_u():
    return sympy.sin(sympy.pi * X[0]) * sympy.sin(sympy.pi * X[1]) * sympy.sin(sympy.pi * X[2])


def ring_points(n=400, seed=0):
    xi = np.random.default_rng(seed).random((n, 3))
    return quarter_ring_rational_map().evaluate(xi)


def cube_points(n=400, seed=1):
    return np.random.default_rng(seed).random((n, 3))


def rel_diff(a, b):
    return np.abs(np.asarray(a) - b).max() / np.abs(b).max()


@pytest.mark.parametrize("points", [ring_points, cube_points])
@pytest.mark.parametrize("make_case, u_expr", [(oscillating_case, oscillating_u),
                                               (cube_sine_case, cube_u)])
def test_manufactured_case(make_case, u_expr, points):
    case = make_case()
    u = u_expr()
    grad = [sympy.diff(u, s) for s in X]
    f = -sum(sympy.diff(u, s, 2) for s in X)
    x = points()
    ref = [np.broadcast_to(v, len(x))
           for v in sympy.lambdify(X, [u, *grad, f], "numpy")(*x.T)]
    ue, *ge = case.u_grad(*x.T)
    assert rel_diff(ue, ref[0]) <= TOL
    for l in range(3):
        assert rel_diff(ge[l], ref[1 + l]) <= TOL
    assert rel_diff(case.f(*x.T), ref[4]) <= TOL


def test_rational_ring_map_and_jacobian():
    a, b, c = sympy.symbols("a b c")
    w = (1 - b)**2 + sympy.sqrt(2) * b * (1 - b) + b**2
    cx = ((1 - b)**2 + sympy.sqrt(2) * b * (1 - b)) / w
    cy = (sympy.sqrt(2) * b * (1 - b) + b**2) / w
    F = [(1 + a) * cx, (1 + a) * cy, c]
    J = [sympy.diff(F[i], s) for i in range(3) for s in (a, b, c)]
    xi = np.vstack([np.random.default_rng(2).random((400, 3)),
                    [[0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.5]]])
    n = len(xi)
    F_ref = [np.broadcast_to(v, n)
             for v in sympy.lambdify((a, b, c), F, "numpy")(*xi.T)]
    J_ref = [np.broadcast_to(v, n)
             for v in sympy.lambdify((a, b, c), J, "numpy")(*xi.T)]
    geom = quarter_ring_rational_map()
    Fx, Jx = geom.evaluate(xi), geom.jacobian(xi)
    for i in range(3):
        assert rel_diff(Fx[:, i], F_ref[i]) <= TOL
        for j in range(3):
            ref = J_ref[3 * i + j]
            if np.abs(ref).max() == 0:
                assert np.array_equal(Jx[:, i, j], ref)
            else:
                assert rel_diff(Jx[:, i, j], ref) <= TOL
