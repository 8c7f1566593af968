import tracemalloc

import numpy as np
import pytest

from igamf import (CostMeter, DegenerateGeometryError, GeometryMap,
                   affine_map, assemble_rhs, assemble_sgq,
                   assemble_wq_explicit, build_tensor_rule, coefficient_grids,
                   cube_sine_case, h1_relative_error, identity_map, kron_apply,
                   pullback, quarter_ring_map, quarter_ring_rational_map,
                   setup_mass, setup_stiffness, tensor_space)


def make(p, n_el, geom=None, d=3):
    space = tensor_space(p, n_el, d)
    rule = build_tensor_rule(space)
    return space, rule, geom if geom is not None else identity_map(d)


def grids(kind, rule, geom, coeff=None):
    return coefficient_grids(kind, geom, np.stack(rule.point_arrays(), axis=1),
                             coeff)


def folded_map():
    """A map whose Jacobian determinant is negative everywhere."""
    return GeometryMap(
        dim=3, kind="folded",
        _map=lambda xi: xi.copy(),
        _jacobian=lambda xi: np.broadcast_to(
            np.diag([1.0, -1.0, 1.0]), (len(xi), 3, 3)).copy())


class TestCoefficientGrids:
    def test_mass_identity_geometry(self):
        space, rule, geom = make(2, 3)
        vals = grids("mass", rule, geom, 1.0)[None]
        assert np.allclose(vals, 1.0)

    def test_mass_quarter_ring_determinant(self):
        space, rule, geom = make(2, 3, quarter_ring_map())
        vals = grids("mass", rule, geom, 1.0)[None]
        xi1 = rule.point_arrays()[0]
        assert np.allclose(vals, (np.pi / 2) * (1 + xi1), atol=1e-13)

    def test_stiffness_identity_is_kronecker_delta(self):
        space, rule, geom = make(2, 3)
        for (a, b), g in grids("stiffness", rule, geom).items():
            assert np.allclose(g, 1.0 if a == b else 0.0, atol=1e-14)

    def test_symmetric_storage_count(self):
        space, rule, geom = make(2, 4, quarter_ring_map())
        op = setup_stiffness(space, rule, geom)
        assert op.coeff_scalars == 6 * rule.n_points

    def test_mass_storage_count(self):
        space, rule, geom = make(3, 4)
        op = setup_mass(space, rule, geom)
        assert op.coeff_scalars == rule.n_points

    def test_stiffness_coeff_spd_on_ring(self):
        space, rule, geom = make(1, 3, quarter_ring_map())
        nq = rule.n_points
        C = np.empty((nq, 3, 3))
        for (a, b), g in grids("stiffness", rule, geom).items():
            C[:, a, b] = g
            C[:, b, a] = g
        assert np.linalg.eigvalsh(C).min() > 0

    def test_degenerate_geometry_reported(self):
        space, rule, _ = make(1, 2)
        with pytest.raises(DegenerateGeometryError):
            grids("mass", rule, folded_map(), 1.0)

    def test_pullback_matches_dense_linear_algebra(self):
        # the closed-form cofactors against numpy's det and inverse
        space, rule, geom = make(2, 3, quarter_ring_rational_map())
        xi = np.stack(rule.point_arrays(), axis=1)
        J = geom.jacobian(xi)
        det, cof = pullback(geom, xi)
        assert np.allclose(det, np.linalg.det(J), rtol=1e-14, atol=0)
        assert np.allclose(np.swapaxes(cof, 1, 2) / det[:, None, None],
                           np.linalg.inv(J), rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("A", [[[2.0]], [[1.5, 0.4], [-0.3, 0.8]]])
    def test_pullback_low_dimensions(self, A):
        A = np.array(A)
        xi = np.random.default_rng(0).uniform(size=(5, len(A)))
        det, cof = pullback(affine_map(A, np.zeros(len(A))), xi)
        assert np.allclose(det, np.linalg.det(A), rtol=1e-15)
        assert np.allclose(np.swapaxes(cof, 1, 2) / det[:, None, None],
                           np.linalg.inv(A), rtol=1e-15)

    def test_stiffness_grids_match_dense_pullback(self):
        # C = det J^-1 K J^-T with a constant anisotropic K
        space, rule, geom = make(2, 3, quarter_ring_rational_map())
        K = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        xi = np.stack(rule.point_arrays(), axis=1)
        J = geom.jacobian(xi)
        Jinv = np.linalg.inv(J)
        C = np.einsum("qij,jk,qlk->qil", Jinv, K, Jinv) * np.linalg.det(J)[:, None, None]
        for (a, b), g in grids("stiffness", rule, geom, K).items():
            assert np.allclose(g, C[:, a, b], rtol=1e-13, atol=1e-14)


class TestDegenerateGeometry:
    def test_every_path_raises(self):
        # a folded map (det J < 0) is reported by every path that integrates
        space, rule, _ = make(1, 2)
        geom = folded_map()
        case = cube_sine_case()
        calls = [
            lambda: setup_stiffness(space, rule, geom),
            lambda: setup_mass(space, rule, geom),
            lambda: assemble_sgq(space, geom, kind="stiffness"),
            lambda: assemble_rhs(space, geom, case.f),
            lambda: h1_relative_error(space, geom, np.zeros(space.n_dofs), case),
        ]
        for call in calls:
            with pytest.raises(DegenerateGeometryError):
                call()


class TestMassApply:
    def test_zero_vector(self):
        space, rule, geom = make(2, 3)
        op = setup_mass(space, rule, geom)
        assert np.array_equal(op.apply(np.zeros(space.n_dofs)),
                              np.zeros(space.n_dofs))

    def test_matches_materialized_wq_on_ring(self):
        space, rule, geom = make(2, 8, quarter_ring_map())
        op = setup_mass(space, rule, geom)
        mat = assemble_wq_explicit(space, rule, geom, kind="mass")
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.standard_normal(space.n_dofs)
            ref = mat.matrix @ v
            assert np.linalg.norm(op.apply(v) - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_length_mismatch(self):
        space, rule, geom = make(1, 2)
        op = setup_mass(space, rule, geom)
        with pytest.raises(ValueError):
            op.apply(np.zeros(space.n_dofs + 1))


class TestStiffnessApply:
    def test_zero_vector(self):
        space, rule, geom = make(2, 3, quarter_ring_map())
        op = setup_stiffness(space, rule, geom)
        assert np.array_equal(op.apply(np.zeros(space.n_dofs)),
                              np.zeros(space.n_dofs))

    def test_matches_materialized_wq_on_ring(self):
        space, rule, geom = make(2, 8, quarter_ring_map())
        op = setup_stiffness(space, rule, geom)
        mat = assemble_wq_explicit(space, rule, geom, kind="stiffness")
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = rng.standard_normal(space.n_dofs)
            ref = mat.matrix @ v
            assert np.linalg.norm(op.apply(v) - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_matches_sgq_on_cube_p1(self):
        # trilinear elements on the identity cube: WQ exactness makes the
        # matrix-free product equal the standard FEM stiffness product
        space, rule, geom = make(1, 4)
        op = setup_stiffness(space, rule, geom)
        mat = assemble_sgq(space, geom, kind="stiffness")
        rng = np.random.default_rng(2)
        v = rng.standard_normal(space.n_dofs)
        ref = mat.matrix @ v
        assert np.linalg.norm(op.apply(v) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_patch_test_annihilates_constant(self):
        # applied over the full basis (boundary functions kept), the
        # stiffness operator kills the constant: it lies in the space and
        # has zero gradient
        space, rule, geom = make(3, 4, quarter_ring_map())
        coeffs = grids("stiffness", rule, geom)
        m = [r.kv.n_funcs for r in rule.rules]
        ones = np.ones(int(np.prod(m)))
        w = np.zeros_like(ones)
        for b in range(3):
            B = [r.colloc[1 if l == b else 0] for l, r in enumerate(rule.rules)]
            vt = kron_apply(B, ones)
            for a in range(3):
                W = [r.weights[(1 if l == a else 0, 1 if l == b else 0)]
                     for l, r in enumerate(rule.rules)]
                key = (min(a, b), max(a, b))
                w += kron_apply(W, coeffs[key] * vt)
        assert np.abs(w).max() <= 1e-11


class TestSetupMemory:
    def test_stiffness_setup_peak(self):
        # coefficient setup holds the Jacobian, its cofactors and the six
        # grids, never a Jacobian inverse: peak <= 30 float64 scalars per
        # quadrature point (43 with batched det/inv)
        space = tensor_space(3, 16)
        rule = build_tensor_rule(space)
        geom = quarter_ring_rational_map()
        tracemalloc.start()
        try:
            setup_stiffness(space, rule, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * rule.n_points) <= 30


class TestCostLaws:
    def test_mass_apply_flops_near_linear_in_p(self):
        # measured at 16 elements per direction; on coarser meshes the
        # fixed boundary-point correction inflates the apparent exponent
        flops = []
        degrees = range(1, 9)
        for p in degrees:
            space, rule, geom = make(p, 16, d=3)
            op = setup_mass(space, rule, geom)
            meter = CostMeter()
            op.apply(np.zeros(space.n_dofs), meter)
            flops.append(meter.flops)
        exponent = np.polyfit(np.log(list(degrees)), np.log(flops), 1)[0]
        assert exponent <= 1.3
