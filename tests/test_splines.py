from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import BSpline

from igamf import (KnotVector, collocation_matrix, make_uniform_knots,
                   tensor_space)


class TestMakeUniformKnots:
    def test_p1_two_elements(self):
        kv = make_uniform_knots(1, 2)
        assert np.allclose(kv.knots, [0, 0, 0.5, 1, 1])
        assert kv.n_funcs == 3

    def test_p2_four_elements(self):
        kv = make_uniform_knots(2, 4)
        assert np.allclose(kv.knots, [0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1])
        assert kv.n_funcs == 6

    def test_counts(self):
        kv = make_uniform_knots(3, 8)
        assert kv.n_funcs == 11
        assert kv.n_elements == 8

    @pytest.mark.parametrize("p,n_el", [(0, 4), (-1, 4), (2, 0)])
    def test_rejects_bad_sizes(self, p, n_el):
        with pytest.raises(ValueError):
            make_uniform_knots(p, n_el)

    def test_rejects_non_open(self):
        with pytest.raises(ValueError):
            KnotVector(2, [0, 0, 0.5, 1, 1, 1, 1])
        with pytest.raises(ValueError):
            KnotVector(1, [0, 0, 0.7, 0.3, 1, 1])


class TestCollocation:
    def test_hat_row_at_quarter(self):
        kv = make_uniform_knots(1, 2)
        B = collocation_matrix(kv, [0.25]).toarray()
        assert np.allclose(B, [[0.5, 0.5, 0.0]])

    @pytest.mark.parametrize("p,n_el", [(1, 2), (2, 4), (3, 5), (6, 8)])
    def test_partition_of_unity(self, p, n_el):
        kv = make_uniform_knots(p, n_el)
        pts = np.linspace(0, 1, 37)
        B = collocation_matrix(kv, pts)
        assert np.allclose(np.asarray(B.sum(axis=1)).ravel(), 1.0, atol=1e-13)

    @pytest.mark.parametrize("p,n_el", [(1, 2), (2, 4), (4, 6)])
    def test_derivative_rows_sum_to_zero(self, p, n_el):
        kv = make_uniform_knots(p, n_el)
        pts = np.linspace(0.01, 0.99, 23)
        D = collocation_matrix(kv, pts, deriv=1)
        assert np.allclose(np.asarray(D.sum(axis=1)).ravel(), 0.0, atol=1e-11)

    def test_local_support(self):
        kv = make_uniform_knots(3, 7)
        B = collocation_matrix(kv, np.linspace(0, 1, 50))
        counts = np.diff(B.indptr)
        assert counts.max() <= kv.degree + 1
        for q, x in enumerate(np.linspace(0, 1, 50)):
            for j in B.indices[B.indptr[q]:B.indptr[q + 1]]:
                lo, hi = kv.support(j)
                assert lo <= x <= hi

    def test_rejects_outside_points(self):
        kv = make_uniform_knots(2, 4)
        with pytest.raises(ValueError):
            collocation_matrix(kv, [-0.1])
        with pytest.raises(ValueError):
            collocation_matrix(kv, [1.0001])
        with pytest.raises(ValueError):
            collocation_matrix(kv, [np.nan])

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_derivative_matches_finite_differences(self, p):
        kv = make_uniform_knots(p, 6)
        rng = np.random.default_rng(3)
        # keep points away from knots so the central difference is clean
        pts = rng.uniform(0.02, 0.98, 20)
        pts = pts[np.min(np.abs(pts[:, None] - kv.breakpoints[None, :]),
                         axis=1) > 1e-3]
        eps = 1e-5
        Dp = collocation_matrix(kv, pts + eps).toarray()
        Dm = collocation_matrix(kv, pts - eps).toarray()
        D = collocation_matrix(kv, pts, deriv=1).toarray()
        assert np.allclose((Dp - Dm) / (2 * eps), D, atol=1e-6)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_polynomial_reproduction(self, p):
        # interpolate x^p at m well-spaced sites, then evaluate elsewhere
        kv = make_uniform_knots(p, 5)
        sites = np.linspace(0, 1, kv.n_funcs)
        coeffs = np.linalg.solve(collocation_matrix(kv, sites).toarray(),
                                 sites**p)
        x = np.random.default_rng(0).uniform(0, 1, 30)
        vals = collocation_matrix(kv, x) @ coeffs
        assert np.allclose(vals, x**p, atol=1e-12)

    def test_endpoint_values(self):
        # open vectors are interpolatory at the ends; x=1 uses the left limit
        kv = make_uniform_knots(3, 4)
        B = collocation_matrix(kv, [0.0, 1.0]).toarray()
        assert B[0, 0] == pytest.approx(1.0)
        assert B[1, -1] == pytest.approx(1.0)
        assert np.allclose(B[0, 1:], 0.0)
        assert np.allclose(B[1, :-1], 0.0)

    @pytest.mark.parametrize("kv", [
        *(make_uniform_knots(p, n_el) for p in range(1, 11) for n_el in (1, 3, 8)),
        KnotVector(3, [0, 0, 0, 0, .1, .35, .35, .8, 1, 1, 1, 1]),
        KnotVector(2, [0, 0, 0, .2, .2, .7, 1, 1, 1]),
    ], ids=lambda kv: (f"p{kv.degree}-{kv.n_elements}el"
                       f"-m{kv.max_interior_multiplicity()}"))
    @pytest.mark.parametrize("deriv", [0, 1])
    def test_matches_scipy_bspline(self, kv, deriv):
        # independent oracle, one basis function (unit coefficient) at a time
        x = np.concatenate([kv.breakpoints,
                            np.random.default_rng(5).random(100)])
        B = collocation_matrix(kv, x, deriv).toarray()
        ref = np.column_stack([
            BSpline(kv.knots, np.eye(kv.n_funcs)[j], kv.degree)(x, nu=deriv)
            for j in range(kv.n_funcs)])
        assert np.abs(B - ref).max() <= 1e-14 * np.abs(ref).max()



def exact_basis(kv, x):
    """Values and first derivatives of every basis function at ``x``, in
    exact rational arithmetic from the Cox-de Boor definition: degree 0 is
    the indicator of [t_i, t_i+1), except at x = 1, which belongs to the
    last nonempty span (the left limit); a term over a zero knot
    difference is dropped."""
    t = [Fraction(k) for k in kv.knots]
    x = Fraction(x)
    last = max(i for i in range(len(t) - 1) if t[i] < t[i + 1])
    N = [Fraction(int(t[i] <= x < t[i + 1] or (x == 1 and i == last)))
         for i in range(len(t) - 1)]
    ratio = lambda a, b: a / b if b else Fraction(0)
    for k in range(1, kv.degree + 1):
        lower = N
        N = [ratio(x - t[i], t[i + k] - t[i]) * lower[i]
             + ratio(t[i + k + 1] - x, t[i + k + 1] - t[i + 1]) * lower[i + 1]
             for i in range(len(t) - 1 - k)]
    p = kv.degree
    D = [ratio(p * lower[i], t[i + p] - t[i])
         - ratio(p * lower[i + 1], t[i + p + 1] - t[i + 1])
         for i in range(kv.n_funcs)]
    return N, D


def _knots(p, inner):
    return KnotVector(p, [0] * (p + 1) + inner + [1] * (p + 1))


class TestCollocationExact:
    @pytest.mark.parametrize("kv", [
        *(make_uniform_knots(p, n_el) for p in range(1, 5) for n_el in (3, 5, 8)),
        *(_knots(p, [0.3, 0.5, 0.5, 0.8]) for p in range(2, 5)),
        *(_knots(p, [0.25] + [0.6] * p) for p in range(1, 5)),
    ], ids=lambda kv: (f"p{kv.degree}-{kv.n_elements}el"
                       f"-m{kv.max_interior_multiplicity()}"))
    def test_matches_rational_cox_de_boor(self, kv):
        # every breakpoint (0 and 1 included, where the one-sided limits
        # are taken) and 40 random points; within 4 ulps of the largest
        # exact entry, measured at most 1.6 (values) and 2.6 (derivatives)
        x = np.concatenate([kv.breakpoints,
                            np.random.default_rng(7).random(40)])
        ref = list(zip(*(exact_basis(kv, xq) for xq in x)))
        for deriv, exact in enumerate(ref):
            B = collocation_matrix(kv, x, deriv).toarray()
            scale = max(abs(v) for row in exact for v in row)
            err = max(abs(Fraction(B[q, j]) - v) for q, row in enumerate(exact)
                      for j, v in enumerate(row))
            assert err <= 4 * np.spacing(float(scale))


class TestTensorSpace:
    def test_dof_counts(self):
        space = tensor_space(3, 8, 3)
        assert space.n_per_dir == (9, 9, 9)
        assert space.n_dofs == 729

    def test_interior_is_m_minus_2(self):
        kv = make_uniform_knots(2, 4)
        assert kv.n_interior == kv.n_funcs - 2

    def test_too_small_space_rejected(self):
        with pytest.raises(ValueError):
            tensor_space(1, 1, 3)
