import tracemalloc

import numpy as np
import pytest

from conftest import (NaNEmpty, affine_map, perturbed_knots, point_arrays,
                      reparametrized_ring, stiffness_field)
from igamf import (CostMeter, DegenerateGeometryError, GeometryMap,
                   TensorSpace, assemble_rhs, assemble_sgq,
                   assemble_wq_explicit, build_tensor_rule, coefficient_grids,
                   cube_sine_case, extrude, gauss_tensor_rule,
                   h1_relative_error, identity_map, kron_apply,
                   make_uniform_knots, oscillating_case, pullback,
                   quarter_ring_map, quarter_ring_rational_map, setup_mass,
                   setup_stiffness, tensor_space, wq_load_vector, wq_terms)
from igamf import kron, operators
from igamf.cli import _GEOMETRIES
from igamf.kron import BandedFactor, banded, contract_modes


def make(p, n_el, geom=None, d=3):
    space = tensor_space(p, n_el, d)
    rule = build_tensor_rule(space)
    return space, rule, geom if geom is not None else identity_map(d)


def grids(kind, rule, geom, coeff=None):
    return coefficient_grids(kind, geom, np.stack(point_arrays(rule), axis=1),
                             coeff)


def split_into_slabs(monkeypatch, rule, n_slabs):
    """Shrink the slab size so that the rule's grid splits into at least
    ``n_slabs`` slabs."""
    monkeypatch.setattr(kron, "SLAB_POINTS", rule.n_points // (n_slabs + 1))
    assert len(kron.grid_slabs(rule.n_points_per_dir)) >= n_slabs


def warped_map(d):
    """F(xi)_l = xi_l + 0.2 xi_{l+1}^2 (directions cyclic): a curved map of
    any dimension with det J_F > 0 on the unit cube."""
    def _map(xi):
        return xi + 0.2 * np.roll(xi, -1, axis=1)**2

    def _jacobian(xi):
        J = np.broadcast_to(np.eye(d), (len(xi), d, d)).copy()
        for l in range(d):
            J[:, l, (l + 1) % d] += 0.4 * xi[:, (l + 1) % d]
        return J

    return GeometryMap(dim=d, _map=_map, _jacobian=_jacobian)


def folded_map():
    """A map whose Jacobian determinant is negative everywhere."""
    return GeometryMap(
        dim=3,
        _map=lambda xi: xi.copy(),
        _jacobian=lambda xi: np.broadcast_to(
            np.diag([1.0, -1.0, 1.0]), (len(xi), 3, 3)).copy())


class TestCoefficientGrids:
    @pytest.mark.parametrize("geometry", ["ring", "ring-polar", "cube"])
    @pytest.mark.parametrize("plane_parts", [False, True])
    @pytest.mark.parametrize("p", [2, 3])
    def test_slab_wise_setup_matches_whole_grid(self, monkeypatch, geometry,
                                                plane_parts, p):
        # pointwise values do not depend on the chunks: slabs of whole
        # layers, and with a chunk below the plane's size, parts of a layer
        space, rule, _ = make(p, 6)
        geom = _GEOMETRIES[geometry][0]()
        split_into_slabs(monkeypatch, rule, 8)
        if plane_parts:
            plane = rule.n_points // rule.n_points_per_dir[-1]
            monkeypatch.setattr(kron, "CHUNK_POINTS", plane // 3)
        for op, kind in ((setup_stiffness(space, rule, geom), "stiffness"),
                         (setup_mass(space, rule, geom), "mass")):
            whole = coefficient_grids(kind, geom, point_arrays(rule).T)
            assert op.coeffs.keys() == whole.keys()
            assert all(np.array_equal(op.coeffs[k], whole[k]) for k in whole)

    def test_no_grid_identically_zero_on_a_general_map(self):
        # the ring, an extrusion, has C_13 = C_23 = 0; the reparametrized
        # ring has every grid nonzero, so every term of the apply counts
        space, rule, _ = make(3, 4)
        ring = setup_stiffness(space, rule, quarter_ring_rational_map())
        assert [k for k, g in ring.coeffs.items() if not np.any(g)] == [
            (0, 2), (1, 2)]
        op = setup_stiffness(space, rule, reparametrized_ring())
        assert all(np.any(g) for g in op.coeffs.values())

    def test_mass_identity_geometry(self):
        space, rule, geom = make(2, 3)
        vals = grids("mass", rule, geom, 1.0)[None]
        assert np.allclose(vals, 1.0)

    def test_mass_quarter_ring_determinant(self):
        space, rule, geom = make(2, 3, quarter_ring_map())
        vals = grids("mass", rule, geom, 1.0)[None]
        xi1 = point_arrays(rule)[0]
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
        xi = np.stack(point_arrays(rule), axis=1)
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

    def test_pullback_same_for_either_layout(self):
        # a component-major Jacobian and a C-order copy of it give the same
        # bits: det and cof are formed from entry products in a fixed order
        space, rule, geom = make(2, 3, quarter_ring_rational_map())
        xi = point_arrays(rule).T
        J = geom.jacobian(xi)
        assert J.transpose(1, 2, 0).flags.c_contiguous
        J_c = np.ascontiguousarray(J)
        out = [pullback(GeometryMap(dim=3, _map=None,
                                    _jacobian=lambda _, M=M: M), xi)
               for M in (J, J_c)]
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])

    def test_pullback_chunked(self):
        # 2.5 chunks of component-major points: the outputs equal the
        # pullbacks of the separate chunks, and J_F is only ever evaluated
        # on one chunk at a time
        n = kron.CHUNK_POINTS
        ring = quarter_ring_rational_map()
        sizes = []

        def jacobian(xi):
            sizes.append(len(xi))
            return ring.jacobian(xi)

        geom = GeometryMap(dim=3, _map=ring.evaluate, _jacobian=jacobian)
        xi = np.random.default_rng(1).random((3, 5 * n // 2)).T
        det, cof = pullback(geom, xi)
        assert sizes == [n, n, n // 2]
        for s in range(0, len(xi), n):
            det_s, cof_s = pullback(ring, xi[s:s + n])
            assert np.array_equal(det[s:s + n], det_s)
            assert np.array_equal(cof[s:s + n], cof_s)

    @pytest.mark.parametrize("extruded", [False, True])
    def test_pullback_reports_first_bad_point_of_later_chunk(self, extruded):
        # det J_F <= 0 only on points n + 100 to n + 199, in the second
        # chunk; an extrusion reports the point with its xi_3 too
        n = kron.CHUNK_POINTS
        N = 5 * n // 2
        xi = np.random.default_rng(2).random((N, 3))
        xi[:, 0] = np.arange(N) / N

        def jacobian(x):
            d = x.shape[1]
            J = np.broadcast_to(np.eye(d), (len(x), d, d)).copy()
            bad = (x[:, 0] >= (n + 100) / N) & (x[:, 0] < (n + 200) / N)
            J[bad, 1, 1] = -1.0
            return J

        geom = (extrude(GeometryMap(dim=2, _map=None, _jacobian=jacobian))
                if extruded else GeometryMap(dim=3, _map=None, _jacobian=jacobian))
        with pytest.raises(DegenerateGeometryError) as err:
            pullback(geom, xi)
        assert err.value.point == tuple(xi[n + 100])
        assert err.value.det == -1.0

    def test_stiffness_grids_same_for_c_order_points(self):
        space, rule, geom = make(2, 4, quarter_ring_rational_map())
        xi = point_arrays(rule).T
        xi_c = np.stack(list(point_arrays(rule)), axis=1)
        assert xi_c.flags.c_contiguous and np.array_equal(xi, xi_c)
        new = coefficient_grids("stiffness", geom, xi)
        old = coefficient_grids("stiffness", geom, xi_c)
        for key, g in new.items():
            assert np.abs(g - old[key]).max() <= 1e-15 * np.abs(old[key]).max()

    @pytest.mark.parametrize("field", [False, True],
                             ids=["constant-K", "K-field"])
    def test_stiffness_grids_match_dense_pullback(self, field):
        # C = det J^-1 K J^-T with a constant anisotropic K, or with a
        # position-dependent K(x) evaluated at the physical points
        space, rule, geom = make(2, 3, quarter_ring_rational_map())
        K = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        xi = np.stack(point_arrays(rule), axis=1)
        J = geom.jacobian(xi)
        Jinv = np.linalg.inv(J)
        Kq = stiffness_field(geom.evaluate(xi)) if field else K[None]
        C = np.einsum("qij,qjk,qlk->qil", Jinv, Kq, Jinv) * np.linalg.det(J)[:, None, None]
        coeff = stiffness_field if field else K
        for (a, b), g in grids("stiffness", rule, geom, coeff).items():
            assert np.allclose(g, C[:, a, b], rtol=1e-13, atol=1e-14)


class TestWQLoadVector:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_gauss_for_spline_source(self, p):
        # f of degree <= p per direction lies in the spline space on the
        # identity map, where W^(0,0) integrates b_i f exactly
        space, rule, geom = make(p, 6)

        def f(x):
            return ((x[:, 0]**p - 0.3 * x[:, 0]) * (1 + x[:, 1])**p
                    * (x[:, 2]**2 - x[:, 2]**(p - 1) + 0.5))

        b = wq_load_vector(rule, geom, f)
        ref = assemble_rhs(space, geom, f)
        assert np.abs(b - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("gauss", [False, True], ids=["wq", "gauss"])
    @pytest.mark.parametrize("anisotropic", [False, True],
                             ids=["isotropic", "anisotropic"])
    def test_matches_whole_grid_product(self, monkeypatch, gauss,
                                        anisotropic):
        # the streamed load vector equals one Kronecker product over the
        # whole (f o F) det J grid, whatever the slab and chunk sizes, and
        # contracts the lower directions once, not once per chunk.  The
        # anisotropic space has a different N_l and Q_l in each direction
        space = (TensorSpace((make_uniform_knots(2, 5), make_uniform_knots(3, 6),
                              make_uniform_knots(4, 7)))
                 if anisotropic else tensor_space(3, 8))
        rule = gauss_tensor_rule(space) if gauss else build_tensor_rule(space)
        assert anisotropic == (len(set(rule.n_points_per_dir)) == 3
                               and len(set(space.n_per_dir)) == 3)
        geom = quarter_ring_rational_map()
        f = oscillating_case().f
        (_, [(W, _)]), = wq_terms(rule, "mass")
        grid = operators._rule_grids("mass", rule, geom, f)[None]
        whole = kron_apply(W, grid)
        default = wq_load_vector(rule, geom, f)
        modes = []

        def counting(F, X):
            modes.append(len(F))
            return contract_modes(F, X)

        monkeypatch.setattr(operators, "contract_modes", counting)
        split_into_slabs(monkeypatch, rule, 8)
        # three direction-1 rows per chunk
        monkeypatch.setattr(kron, "CHUNK_POINTS", 3 * rule.n_points_per_dir[0])
        b = wq_load_vector(rule, geom, f)
        assert modes == [2]
        assert np.abs(b - whole).max() <= 1e-13 * np.abs(whole).max()
        # the split changes no bit of the grid; a direction-1 product over
        # fewer rows may round differently in BLAS (half an ulp measured)
        assert np.array_equal(operators._rule_grids("mass", rule, geom, f)[None],
                              grid)
        assert np.abs(b - default).max() <= 1e-15 * np.abs(default).max()

    @pytest.mark.parametrize("shared", [True, False])
    def test_one_conversion_per_distinct_factor(self, monkeypatch, shared):
        # the directions of an isotropic space share one W^(0,0) object,
        # converted to a banded factor once; three knot vectors, three times
        converted = []

        def counting(f):
            converted.append(f)
            return banded(f)

        monkeypatch.setattr(operators, "banded", counting)
        if shared:
            space, n_distinct = tensor_space(2, 4), 1
        else:
            kvs = tuple(make_uniform_knots(2, 4 + l) for l in range(3))
            space, n_distinct = TensorSpace(kvs), 3
        rule = build_tensor_rule(space)
        b = wq_load_vector(rule, quarter_ring_map(), oscillating_case().f)
        assert len(converted) == n_distinct
        assert b.shape == (space.n_dofs,)

    @pytest.mark.parametrize("gauss", [False, True], ids=["wq", "gauss"])
    def test_peak_is_buffer_plus_chunk_scratch(self, gauss):
        # the (Q_2 Q_3, N_1) buffer of the direction-1 mode (twice: the next
        # mode writes an array no larger while it lives), one slab's points
        # and one chunk's scratch, measured at 16 (Gauss) and 26 (WQ)
        # float64 arrays of CHUNK_POINTS points.  At p=8 on 16^3 elements the
        # Gauss grid of 3.0 M points alone exceeds this bound
        space = tensor_space(8, 16)
        rule = gauss_tensor_rule(space) if gauss else build_tensor_rule(space)
        geom = quarter_ring_rational_map()
        f = oscillating_case().f
        buffer = 8 * rule.n_points // rule.n_points_per_dir[0] * space.n_per_dir[0]
        slab = 8 * 3 * min(kron.SLAB_POINTS, rule.n_points)
        bound = 2 * buffer + slab + 48 * 8 * kron.CHUNK_POINTS
        tracemalloc.start()
        try:
            wq_load_vector(rule, geom, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
        assert not gauss or bound < 8 * rule.n_points


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
            lambda: wq_load_vector(rule, geom, case.f),
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

    def test_each_distinct_factor_built_and_converted_once(self, monkeypatch):
        # per distinct knot vector 4 weight matrices W^(a,b) and 2
        # collocations B^(b) serve all 9 terms, grouped by trial direction;
        # an isotropic space shares one knot vector among its directions
        converted = []

        def counting(f):
            converted.append(f)
            return banded(f)

        monkeypatch.setattr(operators, "banded", counting)
        geom = quarter_ring_map()
        for n_kvs in (1, 3):
            kvs = [make_uniform_knots(2, 3 + l) for l in range(n_kvs)]
            space = TensorSpace(tuple(kvs[l % n_kvs] for l in range(3)))
            rule = build_tensor_rule(space)
            converted.clear()
            op = setup_stiffness(space, rule, geom)
            assert len(converted) == 4 * n_kvs + 2 * n_kvs
            for groups in (wq_terms(rule, "stiffness"), op.groups):
                assert len(groups) == 3
                assert all(len(pairs) == 3 for _, pairs in groups)
                assert len({id(f) for _, pairs in groups
                            for W, _ in pairs for f in W}) == 4 * n_kvs
                assert len({id(f) for B, _ in groups for f in B}) == 2 * n_kvs
            assert all(isinstance(f, BandedFactor) for B, pairs in op.groups
                       for F in [B] + [W for W, _ in pairs] for f in F)

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


SETUPS = {"mass": setup_mass, "stiffness": setup_stiffness}


class TestFusedApply:
    """The fused apply of both operators against the materialized WQ
    matrix, in the settings that exercise its axis order and its tiles."""

    @staticmethod
    def assert_matches_explicit(op, space, rule, geom, kind, coeff=None):
        mat = assemble_wq_explicit(space, rule, geom, coeff=coeff,
                                   kind=kind).matrix
        v = np.random.default_rng(7).standard_normal(space.n_dofs)
        ref = mat @ v
        assert np.linalg.norm(op.apply(v) - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", ["mass", "stiffness"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_dimension(self, d, kind):
        space, rule, geom = make(3, 6, warped_map(d), d)
        op = SETUPS[kind](space, rule, geom)
        self.assert_matches_explicit(op, space, rule, geom, kind)

    @pytest.mark.parametrize("kind", ["mass", "stiffness"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_general_map(self, p, kind):
        # neither an extrusion nor separable: all 9 stiffness terms carry
        # nonzero grids; measured at most 2.7e-16 (p=2) and 9.7e-16 (p=3)
        space, rule, geom = make(p, 4, reparametrized_ring())
        op = SETUPS[kind](space, rule, geom)
        self.assert_matches_explicit(op, space, rule, geom, kind)

    @pytest.mark.parametrize("kind, coeff", [
        ("stiffness", np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2],
                                [0.1, -0.2, 1.0]])),
        ("stiffness", stiffness_field),
        ("mass", 2.5),
        ("mass", lambda x: 1 + x[:, 0]**2 + x[:, 2]),
    ], ids=["K-constant", "K-field", "alpha-scalar", "alpha-field"])
    def test_coefficients(self, kind, coeff):
        # setup_stiffness(K=...) and setup_mass(alpha=...) against the
        # materialized matrix of the same coefficient; measured <= 3.4e-16
        space, rule, geom = make(2, 4, quarter_ring_rational_map())
        op = SETUPS[kind](space, rule, geom, coeff)
        self.assert_matches_explicit(op, space, rule, geom, kind, coeff)

    @pytest.mark.parametrize("kind", ["mass", "stiffness"])
    def test_anisotropic_space(self, kind):
        # every direction has its own degree, mesh and size, so any
        # mis-ordered axis of the fused pass or its final permutation fails
        space = TensorSpace((make_uniform_knots(2, 6),
                             perturbed_knots(3, 3, seed=1),
                             make_uniform_knots(4, 5)))
        rule = build_tensor_rule(space)
        Q, N = rule.n_points_per_dir, space.n_per_dir
        assert len(set(Q) | set(N)) == 6
        geom = quarter_ring_rational_map()
        op = SETUPS[kind](space, rule, geom)
        self.assert_matches_explicit(op, space, rule, geom, kind)

    @pytest.mark.parametrize("kind", ["mass", "stiffness"])
    def test_ragged_last_tile(self, monkeypatch, kind):
        # tiles of 7 rows of Q_1 points; the last tile is shorter, and the
        # NaN scratch shows any row the tiles fail to write
        space, rule, geom = make(3, 6, quarter_ring_rational_map())
        q1 = rule.n_points_per_dir[0]
        rows = rule.n_points // q1
        monkeypatch.setattr(kron, "TILE_POINTS", 7 * q1)
        assert rows % 7 != 0
        op = SETUPS[kind](space, rule, geom)
        monkeypatch.setattr(operators, "np", NaNEmpty())
        monkeypatch.setattr(kron, "np", NaNEmpty())
        self.assert_matches_explicit(op, space, rule, geom, kind)

    @pytest.mark.parametrize("kind", ["mass", "stiffness"])
    def test_all_zero_row_block(self, monkeypatch, kind):
        # with one row per block, the points xi = 0 and 1, where only the
        # dropped boundary functions are nonzero, give B^(0) empty blocks
        monkeypatch.setattr(kron, "ROWS_PER_BLOCK", 1)
        space, rule, geom = make(2, 5, quarter_ring_rational_map())
        op = SETUPS[kind](space, rule, geom)
        assert any(c0 == c1 for B, _ in op.groups
                   for f in B for _, _, c0, c1, _ in f.blocks)
        monkeypatch.setattr(operators, "np", NaNEmpty())
        monkeypatch.setattr(kron, "np", NaNEmpty())
        self.assert_matches_explicit(op, space, rule, geom, kind)

    def test_meter_charges_term_by_term_count(self):
        # the fused pass contracts direction 1 of W first but is charged
        # what kron_apply charges for each B and W list, plus nq + 2 n_dofs
        # per term; the term-by-term apply gave 1,397,601 for this stiffness
        space, rule, geom = make(3, 8, quarter_ring_rational_map())
        nq, N = rule.n_points, space.n_dofs
        flops = {}
        for kind, setup in SETUPS.items():
            op = setup(space, rule, geom)
            expected = 0
            for B, pairs in op.groups:
                meter = CostMeter()
                kron_apply(B, np.zeros(N), meter)
                for W, _ in pairs:
                    kron_apply(W, np.zeros(nq), meter)
                expected += meter.flops + len(pairs) * (nq + 2 * N)
            meter = CostMeter()
            op.apply(np.zeros(N), meter)
            flops[kind] = meter.flops
            assert flops[kind] == expected
        assert flops["stiffness"] == 1_397_601

    def test_apply_scratch_peak(self):
        # one trial group's per-term grids after their direction-1 W mode
        # (N_1 Q_2 Q_3 each), its B grid, the result and two tiles: the
        # peak stays <= 3 float64 scalars per quadrature point (2.4 here;
        # the term-by-term apply took 2.86)
        space = tensor_space(8, 32)
        rule = build_tensor_rule(space)
        op = setup_stiffness(space, rule, quarter_ring_rational_map())
        v = np.random.default_rng(0).standard_normal(space.n_dofs)
        tracemalloc.start()
        try:
            op.apply(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * rule.n_points) <= 3


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

    @pytest.mark.parametrize("p", [3, 8])
    def test_slab_wise_setup_peak(self, monkeypatch, p):
        # the six stored grids plus one slab's scratch: with the grid cut
        # into at least 8 slabs the peak stays near 10 scalars per point
        space = tensor_space(p, 16)
        rule = build_tensor_rule(space)
        geom = quarter_ring_rational_map()
        split_into_slabs(monkeypatch, rule, 8)
        tracemalloc.start()
        try:
            setup_stiffness(space, rule, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * rule.n_points) <= 12

    def test_default_slab_setup_peak(self):
        # at the default slab size a 32^3 ring grid is two slabs; the peak
        # is the six stored grids, one slab's points and one chunk's
        # scratch, <= 12 float64 scalars per point
        space = tensor_space(3, 32)
        rule = build_tensor_rule(space)
        geom = quarter_ring_rational_map()
        tracemalloc.start()
        try:
            setup_stiffness(space, rule, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * rule.n_points) <= 12


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
