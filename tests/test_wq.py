import numpy as np
import pytest

from conftest import perturbed_knots, point_arrays
from igamf import (EXACTNESS_TOL, KnotVector, TensorSpace,
                   WQConstructionError, build_tensor_rule, build_wq_rule,
                   collocation_matrix,
                   exact_grams,
                   gauss_tensor_rule, make_uniform_knots, tensor_space)
import igamf.wq
from igamf.wq import gauss_points_weights, wq_points

DERIV_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def exactness_defect(rule, a, b):
    """Max abs deviation of the materialized W^(a,b) B^(b) from the Gram."""
    approx = rule.weights[(a, b)] @ rule.colloc[b]
    exact = exact_grams(rule.kv)[(a, b)]
    return np.abs(approx - exact).max()


def test_univariate_factors_are_dense_arrays():
    kv = make_uniform_knots(3, 5)
    space = tensor_space(3, 5)
    arrays = [collocation_matrix(kv, [0.0, 0.3, 1.0], 1),
              *exact_grams(kv).values()]
    for rule in (build_tensor_rule(space), gauss_tensor_rule(space)):
        for r in rule.rules:
            arrays += [*r.weights.values(), *r.colloc.values()]
    assert all(type(a) is np.ndarray for a in arrays)


class TestWQPoints:
    def test_p2_base_set(self):
        kv = make_uniform_knots(2, 4)
        pts = wq_points(kv)
        base = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8]) / 8.0
        assert np.all(np.isin(base, pts))

    def test_p1_minimal_set(self):
        kv = make_uniform_knots(1, 2)
        pts = wq_points(kv)
        assert np.allclose(pts, [0, 0.25, 0.5, 0.75, 1.0])
        # and the rule construction succeeds without extra points
        rule = build_wq_rule(kv)
        assert len(rule.points) == 5

    @pytest.mark.parametrize("p", [1, 2, 4, 6, 8])
    def test_count_independent_of_p(self, p):
        kv = make_uniform_knots(p, 10)
        pts = wq_points(kv)
        extra = max(p - 1, 0)
        assert len(pts) <= 2 * 10 + 1 + 2 * extra

    def test_sorted_duplicate_free(self):
        pts = wq_points(make_uniform_knots(4, 7))
        assert np.all(np.diff(pts) > 0)


class TestWQWeights:
    def test_hat_gram_reproduction(self):
        # p=1, n_el=2: middle hat has integrals 1/3 (self) and 1/12 (neighbors)
        kv = make_uniform_knots(1, 2)
        rule = build_wq_rule(kv)
        G = rule.weights[(0, 0)] @ rule.colloc[0]
        assert G[1, 1] == pytest.approx(1 / 3, abs=1e-12)
        assert G[1, 0] == pytest.approx(1 / 12, abs=1e-12)
        assert G[1, 2] == pytest.approx(1 / 12, abs=1e-12)

    def test_row_nonzero_bound(self):
        p, n_el = 3, 8
        rule = build_wq_rule(make_uniform_knots(p, n_el))
        extra = (rule.n_points - (2 * n_el + 1)) // 2
        for (a, b), W in rule.weights.items():
            assert np.count_nonzero(W, axis=1).max() <= 2 * (p + 1) + 1 + extra

    def test_support_condition(self):
        kv = make_uniform_knots(3, 6)
        rule = build_wq_rule(kv)
        for i, q in zip(*np.nonzero(rule.weights[(1, 1)])):
            lo, hi = kv.support(i)
            assert lo <= rule.points[q] <= hi

    def test_mixed_pair_against_gauss_oracle(self):
        kv = make_uniform_knots(3, 5)
        rule = build_wq_rule(kv)
        assert exactness_defect(rule, 0, 1) <= EXACTNESS_TOL

    def test_insufficient_points_raise_with_row(self, monkeypatch):
        # at p=3 on 4 elements the span endpoints and midpoints alone fail;
        # the rule is fitted once, on the points it is given
        calls = []

        def without_boundary_points(kv):
            calls.append(kv)
            brk = kv.breakpoints
            return np.union1d(brk, (brk[:-1] + brk[1:]) / 2)

        monkeypatch.setattr(igamf.wq, "wq_points", without_boundary_points)
        with pytest.raises(WQConstructionError) as exc:
            build_wq_rule(make_uniform_knots(3, 4))
        assert exc.value.row >= 0
        assert len(calls) == 1

    def test_repeated_interior_knot_rejected(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 0.5, 1, 1, 1])
        with pytest.raises(ValueError, match="multiplicity 1"):
            build_wq_rule(kv)

    def test_one_collocation_per_trial_derivative(self, monkeypatch):
        # the four weight families and the rule share the collocations at
        # the WQ points (the Gram oracle's calls are at Gauss points)
        calls = []

        def counting(kv, points, deriv=0):
            calls.append(np.asarray(points, dtype=float).copy())
            return collocation_matrix(kv, points, deriv)

        monkeypatch.setattr(igamf.wq, "collocation_matrix", counting)
        rule = build_wq_rule(make_uniform_knots(3, 6))
        at_rule = [x for x in calls if np.array_equal(x, rule.points)]
        assert len(at_rule) == 2
        # the four Grams come from one collocation of the values and one of
        # the first derivatives at the Gauss points
        assert len(calls) == 4

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_exactness_all_pairs_uniform(self, p):
        # the WQ rule and the p+1 Gauss rule, which fills the same fields
        space = tensor_space(p, 6, 1)
        for rule in (build_wq_rule(space.knotvectors[0]),
                     gauss_tensor_rule(space, p + 1).rules[0]):
            for a, b in DERIV_PAIRS:
                assert exactness_defect(rule, a, b) <= EXACTNESS_TOL

    @pytest.mark.parametrize("p", [2, 4])
    def test_exactness_perturbed_knots(self, p):
        rule = build_wq_rule(perturbed_knots(p, 8, seed=p))
        for a, b in DERIV_PAIRS:
            assert exactness_defect(rule, a, b) <= EXACTNESS_TOL

    @pytest.mark.parametrize("p", [9, 10])
    def test_exactness_highest_degrees(self, p):
        # the top of the reference table and of the CLI's degree range
        for kv in (make_uniform_knots(p, 8), perturbed_knots(p, 8, seed=p)):
            rule = build_wq_rule(kv)
            for a, b in DERIV_PAIRS:
                assert exactness_defect(rule, a, b) <= EXACTNESS_TOL


class TestGaussOracle:
    def test_gauss_integrates_polynomials(self):
        kv = make_uniform_knots(3, 4)
        x, w = gauss_points_weights(kv, 4)
        # degree 7 monomial integrated exactly by 4-point Gauss per span
        assert w @ x**7 == pytest.approx(1 / 8, abs=1e-14)

    def test_gram_symmetry(self):
        kv = make_uniform_knots(2, 5)
        G = exact_grams(kv)[(0, 0)]
        assert np.abs(G - G.T).max() <= 1e-14

    def test_stiffness_gram_row_sums_vanish(self):
        # d/dx of the constant is zero, so K rows sum to zero
        kv = make_uniform_knots(3, 4)
        K = exact_grams(kv)[(1, 1)]
        assert np.allclose(np.asarray(K.sum(axis=1)).ravel(), 0.0, atol=1e-13)


class TestTensorRule:
    def test_point_count_product(self):
        space = tensor_space(2, 4, 3)
        rule = build_tensor_rule(space)
        per_dir = rule.n_points_per_dir
        assert rule.n_points == int(np.prod(per_dir))

    def test_single_direction_passthrough(self):
        space = tensor_space(2, 4, 1)
        rule = build_tensor_rule(space)
        assert rule.dim == 1
        assert rule.n_points == rule.rules[0].n_points

    def test_one_rule_per_distinct_knot_vector(self, monkeypatch):
        built = []
        build = igamf.wq.build_wq_rule
        monkeypatch.setattr(igamf.wq, "build_wq_rule",
                            lambda kv: built.append(kv) or build(kv))
        rule = build_tensor_rule(tensor_space(2, 4, 3))
        assert len(built) == 1
        assert rule.rules[0] is rule.rules[1] is rule.rules[2]
        # distinct knot vectors, equal or not, each get their own rule
        kvs = (make_uniform_knots(2, 4), make_uniform_knots(2, 5),
               make_uniform_knots(2, 4))
        built.clear()
        rule = build_tensor_rule(TensorSpace(kvs))
        assert built == list(kvs)
        assert [r.kv for r in rule.rules] == list(kvs)
        assert rule.n_points_per_dir[0] < rule.n_points_per_dir[1]

    def test_grid_ordering(self):
        space = tensor_space(1, 2, 2)
        rule = build_tensor_rule(space)
        xs = point_arrays(rule)
        # direction 1 varies fastest in the flattened grid
        assert xs[0][0] != xs[0][1]
        assert xs[1][0] == xs[1][1]
