import tracemalloc

import numpy as np
import pytest

from conftest import (NaNEmpty, affine_map, not_extruded, perturbed_knots,
                      point_arrays, reparametrized_ring, stiffness_field)
from igamf import (CostMeter, DegenerateGeometryError, GeometryMap,
                   TensorSpace, assemble_rhs, assemble_sgq,
                   assemble_wq_explicit, build_tensor_rule, coefficient_grids,
                   cube_sine_case, extrude, gauss_points_weights,
                   gauss_tensor_rule, h1_relative_error, identity_map,
                   kron_apply, make_uniform_knots, oscillating_case, pullback,
                   quarter_ring_map, quarter_ring_rational_map, setup_mass,
                   setup_stiffness, tensor_space, wq_load_vector, wq_terms)
from igamf import geometry, kron, operators
from igamf.cli import _GEOMETRIES
from igamf.kron import BandedFactor, banded, contract_modes
from igamf.splines import collocation_matrix


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


def folded_extrusion():
    """The extrusion of G(xi) = (xi_1, -xi_2), with det J_G = -1 everywhere."""
    return extrude(GeometryMap(
        dim=2,
        _map=lambda xi: xi * [1.0, -1.0],
        _jacobian=lambda xi: np.broadcast_to(
            np.diag([1.0, -1.0]), (len(xi), 2, 2)).copy()))


def curve_extrusion():
    """The 2D extrusion of G(xi_1) = 1 + 2 xi_1 + xi_1^2, G' > 0 on [0, 1]."""
    return extrude(GeometryMap(dim=1, _map=lambda xi: 1 + 2 * xi + xi**2,
                               _jacobian=lambda xi: (2 + 2 * xi)[:, :, None]))


class TestCoefficientGrids:
    @pytest.mark.parametrize("geometry", ["ring", "ring-polar", "cube"])
    @pytest.mark.parametrize("plane_parts", [False, True])
    @pytest.mark.parametrize("p", [2, 3])
    def test_slab_wise_setup_matches_whole_grid(self, monkeypatch, geometry,
                                                plane_parts, p):
        # pointwise values do not depend on the chunks: slabs of whole
        # layers, and with a chunk below the plane's size, parts of a layer;
        # the operator stores the kept grids of these values, on these
        # extrusions over the first xi_3 layer only
        space, rule, _ = make(p, 6)
        geom = _GEOMETRIES[geometry][0]()
        split_into_slabs(monkeypatch, rule, 8)
        if plane_parts:
            plane = rule.n_points // rule.n_points_per_dir[-1]
            monkeypatch.setattr(kron, "CHUNK_POINTS", plane // 3)
        for kind, setup in SETUPS.items():
            whole = coefficient_grids(kind, geom, point_arrays(rule).T)
            chunked, kept = operators._rule_grids(kind, rule, geom, None)
            assert chunked.keys() == whole.keys()
            assert all(np.array_equal(chunked[k], whole[k]) for k in whole)
            op = setup(space, rule, geom)
            assert op.coeffs.keys() == kept
            layer = rule.n_points // rule.n_points_per_dir[-1]
            assert all(np.array_equal(op.coeffs[k], whole[k][:layer])
                       for k in kept)

    def test_no_grid_identically_zero_on_a_general_map(self):
        # the ring, an extrusion, has C_13 = C_23 = 0; on the reparametrized
        # ring every coupling is far above the noise bound TAU (measured
        # max |C_ab| / sqrt(C_aa C_bb) >= 5.0e14 eps), so every term counts
        space, rule, _ = make(3, 4)
        ring = grids("stiffness", rule, quarter_ring_rational_map())
        assert [k for k, g in ring.items() if not np.any(g)] == [(0, 2), (1, 2)]
        C = grids("stiffness", rule, reparametrized_ring())
        for (a, b), g in C.items():
            if a != b:
                ratio = np.abs(g) / np.sqrt(C[(a, a)] * C[(b, b)])
                assert ratio.max() > 1e10 * operators.TAU, (a, b)
        op = setup_stiffness(space, rule, reparametrized_ring())
        assert op.coeffs.keys() == C.keys()

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
        # of the 6 symmetric grids the polar ring stores the 3 diagonal
        # ones: C_12 is rounding noise and C_13 = C_23 = 0; an extrusion's
        # grids are stored over one xi_3 layer
        space, rule, geom = make(2, 4, quarter_ring_map())
        op = setup_stiffness(space, rule, geom)
        assert op.coeff_scalars == 3 * rule.n_points // rule.n_points_per_dir[-1]

    def test_mass_storage_count(self):
        space, rule, geom = make(3, 4)
        op = setup_mass(space, rule, geom)
        assert op.coeff_scalars == rule.n_points // rule.n_points_per_dir[-1]

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

    def test_pullback_rejects_dimension_four(self):
        with pytest.raises(ValueError, match="dimension <= 3, got 4"):
            pullback(affine_map(np.eye(4), np.zeros(4)), np.zeros((2, 4)))

    def test_unknown_kind(self):
        _, rule, _ = make(1, 2)
        with pytest.raises(ValueError, match="unknown kind 'damping'"):
            wq_terms(rule, "damping")

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

        def f(x1, x2, x3):
            return ((x1**p - 0.3 * x1) * (1 + x2)**p
                    * (x3**2 - x3**(p - 1) + 0.5))

        b = wq_load_vector(rule, geom, f)
        ref = assemble_rhs(space, geom, f)
        assert np.abs(b - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("d", [1, 2])
    def test_low_dimensions_match_dense_gauss(self, d):
        # in d = 1 the grid's one chunk is its one direction-1 row; the
        # source, of degree 2 per direction, is integrated exactly by W^(0,0)
        # and by 4 Gauss points per span
        space, rule, geom = make(3, 6, d=d)
        kv = space.knotvectors[0]
        nodes, weights = np.polynomial.legendre.leggauss(4)
        a, b = kv.breakpoints[:-1, None], kv.breakpoints[1:, None]
        x = ((a + b) / 2 + (b - a) / 2 * nodes).ravel()
        w = ((b - a) / 2 * weights).ravel()
        g = (w * (x**2 - 0.3 * x)) @ collocation_matrix(kv, x)[:, 1:-1]
        ref = g if d == 1 else np.kron(g, g)
        b = wq_load_vector(rule, geom,
                           lambda *x: np.prod([xl**2 - 0.3 * xl for xl in x],
                                              axis=0))
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

        def alpha(x):  # f as a mass coefficient field of (npts, d) points
            return f(*x.T)

        (_, [(W, _)]), = wq_terms(rule, "mass")
        grid = operators._rule_grids("mass", rule, geom, alpha)[0][None]
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
        chunked, _ = operators._rule_grids("mass", rule, geom, alpha)
        assert np.array_equal(chunked[None], grid)
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
    @pytest.mark.parametrize("geometry", ["ring", "ring-polar", "cube",
                                          "curve"])
    @pytest.mark.parametrize("split", [False, True],
                             ids=["default", "split"])
    def test_plane_path_matches_pointwise_path(self, monkeypatch, gauss,
                                               geometry, split):
        # an extrusion is pulled back and mapped once per plane point and
        # f gets plane rows and a column of layers; the same map wrapped
        # by not_extruded is pulled back and mapped at every point.  Split:
        # several slabs, and chunks of 3 layers times one direction-1 row,
        # each a part of the plane (in 2D the plane is one row)
        if geometry == "curve":
            geom, d = curve_extrusion(), 2

            def f(x1, x2):
                return np.sin(3 * x1) * (1 + x2 * x2)
        else:
            make_map, make_case = _GEOMETRIES[geometry]
            geom, f, d = make_map(), make_case().f, 3
        space = tensor_space(3, 4, d)
        rule = gauss_tensor_rule(space) if gauss else build_tensor_rule(space)
        if split:
            split_into_slabs(monkeypatch, rule, 3)
            q1 = rule.n_points_per_dir[0]
            monkeypatch.setattr(kron, "CHUNK_POINTS", 3 * q1)
            chunks = [c for _, cs in kron.grid_chunks(rule.n_points_per_dir)
                      for c in cs]
            assert all(l.stop - l.start <= 3 for l, _ in chunks)
            assert d == 2 or chunks[0][1] == slice(0, q1)
        b = wq_load_vector(rule, geom, f)
        ref = wq_load_vector(rule, not_extruded(geom), f)
        assert np.abs(b - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("grid", ["wq", "gauss", "error"])
    def test_extrusion_maps_the_plane_once(self, monkeypatch, grid):
        # the load vector (WQ and Gauss rules) and the error pass: pullback,
        # the Jacobian and F see the Q_1 Q_2 plane points only, also when
        # slabs and chunks cut the grid into parts of the plane
        space = tensor_space(3, 4)
        geom, case = quarter_ring_rational_map(), oscillating_case()
        if grid == "error":
            # the error pass's Gauss grid, p + 2 points per span
            n_per_dir = [len(gauss_points_weights(kv, 5)[0])
                         for kv in space.knotvectors]
        else:
            rule = (gauss_tensor_rule(space) if grid == "gauss"
                    else build_tensor_rule(space))
            n_per_dir = rule.n_points_per_dir
        q1, q2, q3 = n_per_dir
        monkeypatch.setattr(kron, "SLAB_POINTS", q1 * q2 * q3 // 4)
        assert len(kron.grid_slabs(n_per_dir)) >= 3
        monkeypatch.setattr(kron, "CHUNK_POINTS", 2 * q1)
        seen = {"pullback": 0, "jacobian": 0, "evaluate": 0}

        def counting(name, fn):
            def wrapper(first, xi):
                seen[name] += len(np.atleast_2d(xi))
                return fn(first, xi)
            return wrapper

        monkeypatch.setattr(geometry, "pullback",
                            counting("pullback", geometry.pullback))
        monkeypatch.setattr(operators, "pullback",
                            counting("pullback", operators.pullback))
        for name in ("jacobian", "evaluate"):
            monkeypatch.setattr(GeometryMap, name,
                                counting(name, getattr(GeometryMap, name)))
        if grid == "error":
            x = np.random.default_rng(0).standard_normal(space.n_dofs)
            h1_relative_error(space, geom, x, case)
        else:
            wq_load_vector(rule, geom, case.f)
        assert seen == {name: q1 * q2 for name in seen}

    @pytest.mark.parametrize("gauss", [False, True], ids=["wq", "gauss"])
    def test_extrusion_peak_has_no_slab_term(self, gauss):
        # on an extrusion no slab point array is laid out: the peak is the
        # direction-1 buffer twice and the plane's and a chunk's arrays,
        # measured at 5.9 (WQ) and 7.0 (Gauss) float64 arrays of
        # CHUNK_POINTS points at p=8 on 16^3 elements (37.8 and 64.5 with
        # the slab's points laid out)
        space = tensor_space(8, 16)
        rule = gauss_tensor_rule(space) if gauss else build_tensor_rule(space)
        geom = quarter_ring_rational_map()
        f = oscillating_case().f
        buffer = 8 * rule.n_points // rule.n_points_per_dir[0] * space.n_per_dir[0]
        bound = 2 * buffer + 16 * 8 * kron.CHUNK_POINTS
        tracemalloc.start()
        try:
            wq_load_vector(rule, geom, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

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

    def test_extruded_map_reports_full_point(self):
        # det J_G < 0: the stiffness and mass folds, the load vector and
        # the error pass pull back one plane each and report the first
        # point of their grid with its xi_3 coordinate
        space, rule, _ = make(1, 2)
        geom = folded_extrusion()
        case = cube_sine_case()
        kv = space.knotvectors[0]

        def first(points):
            return (float(points[0]),) * 3

        wq = first(rule.rules[0].points)
        calls = [
            (lambda: setup_stiffness(space, rule, geom), wq),
            (lambda: setup_mass(space, rule, geom), wq),
            (lambda: wq_load_vector(rule, geom, case.f), wq),
            (lambda: assemble_rhs(space, geom, case.f),
             first(gauss_points_weights(kv, 2)[0])),
            (lambda: h1_relative_error(space, geom, np.zeros(space.n_dofs),
                                       case),
             first(gauss_points_weights(kv, 3)[0])),
        ]
        for call, point in calls:
            with pytest.raises(DegenerateGeometryError) as err:
                call()
            assert err.value.point == point
            assert err.value.det == -1.0


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
        # an isotropic space shares one knot vector among its directions.
        # On the reparametrized ring no grid is negligible, so the operator
        # keeps all 9 terms too
        converted = []

        def counting(f):
            converted.append(f)
            return banded(f)

        monkeypatch.setattr(operators, "banded", counting)
        geom = reparametrized_ring()
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
#: the CLI's maps and the general one, each a function returning the map
MAPS = {"reparametrized-ring": reparametrized_ring,
        **{name: make_map for name, (make_map, _) in _GEOMETRIES.items()}}


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
    @pytest.mark.parametrize("geometry", MAPS)
    def test_general_map(self, geometry, p, kind):
        # the reparametrized ring is neither an extrusion nor separable, so
        # the apply keeps all 9 stiffness terms; on the CLI maps it keeps 3
        # and the materialized matrix has all 9, noise couplings included
        space, rule, geom = make(p, 4, MAPS[geometry]())
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
        # tiles of 7 rows of Q_1 points, less than one xi_3 layer, so each
        # tile is one layer; the NaN scratch shows any row the tiles fail
        # to write
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
    @pytest.mark.parametrize("geometry", ["ring", "reparametrized-ring"])
    def test_ragged_last_layer_tile(self, monkeypatch, geometry, kind):
        # tiles of 3 whole xi_3 layers: N_3 folded layers on the ring, Q_3
        # on the sheared map, neither a multiple of 3, so the last tile is
        # thinner; the NaN scratch shows any row the tiles fail to write
        space, rule, geom = make(3, 6, MAPS[geometry]())
        op = SETUPS[kind](space, rule, geom)
        layers = (space.n_per_dir[-1] if geom.planar is not None
                  else rule.n_points_per_dir[-1])
        assert layers % 3 != 0
        monkeypatch.setattr(kron, "TILE_POINTS",
                            3 * rule.n_points // rule.n_points_per_dir[-1])
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
        # with all 9 terms, which the reparametrized ring keeps
        space, rule, geom = make(3, 8, reparametrized_ring())
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

    def test_meter_charges_folded_factors(self):
        # on the ring, an extrusion, the applied factors are the folded
        # ones: the identity for each group's direction-3 B factor and
        # W_3 B_3 (N_3 x N_3) for each term's direction-3 W factor, so each
        # term's product with its grid runs at Q_1 Q_2 N_3 points; the meter
        # charges what kron_apply charges for the lists actually applied:
        # 387,261 for this stiffness, against 642,195 unfolded
        space, rule, geom = make(3, 8, quarter_ring_rational_map())
        n3, N = space.n_per_dir[-1], space.n_dofs
        nq = rule.n_points // rule.n_points_per_dir[-1] * n3
        flops = {}
        for kind, setup in SETUPS.items():
            op = setup(space, rule, geom)
            expected = 0
            for B, pairs in op.groups:
                assert B[-1].shape == (n3, n3) and B[-1].nnz == n3
                meter = CostMeter()
                kron_apply(B, np.zeros(N), meter)
                for W, _ in pairs:
                    assert W[-1].shape == (n3, n3)
                    kron_apply(W, np.zeros(nq), meter)
                expected += meter.flops + len(pairs) * (nq + 2 * N)
            meter = CostMeter()
            op.apply(np.zeros(N), meter)
            flops[kind] = meter.flops
            assert flops[kind] == expected
        assert flops["stiffness"] == 387_261

    def test_apply_scratch_peak(self):
        # one trial group's per-term grids after their direction-1 W mode
        # (N_1 Q_2 Q_3 each), its B grid, the result and two tiles: the
        # peak stays <= 3 float64 scalars per quadrature point (1.4 here,
        # where the ring keeps 1 term per group; 2.4 with all 3, and the
        # term-by-term apply took 2.86)
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


def upper_coupling(x):
    """K(x) = I, plus 0.1 (x_3 - 1/2) off the diagonal where x_3 > 1/2."""
    c = 0.1 * np.maximum(x[:, 2] - 0.5, 0)
    return np.eye(3) + c[:, None, None] * (np.ones((3, 3)) - np.eye(3))


class TestZeroTermSkip:
    """Set-up keeps the terms whose grid is not negligible and stores only
    their grids; the term list of :func:`wq_terms` stays whole."""

    @pytest.mark.parametrize("geom, sizes, keys, extrusion", [
        (quarter_ring_rational_map, [1, 1, 1], {(0, 0), (1, 1), (2, 2)}, True),
        (quarter_ring_map, [1, 1, 1], {(0, 0), (1, 1), (2, 2)}, True),
        (lambda: identity_map(3), [1, 1, 1], {(0, 0), (1, 1), (2, 2)}, True),
        (reparametrized_ring, [3, 3, 3],
         {(a, b) for a in range(3) for b in range(a, 3)}, False),
    ], ids=["rational-ring", "polar-ring", "cube", "reparametrized-ring"])
    def test_kept_terms(self, geom, sizes, keys, extrusion):
        # extrusions have C_13 = C_23 = 0; C_12 is 0 on the cube and
        # rounding noise on both rings (<= 0.97 eps of sqrt(C_11 C_22)).
        # An extrusion stores its grids over one xi_3 layer
        space, rule, _ = make(3, 4)
        op = setup_stiffness(space, rule, geom())
        assert [len(pairs) for _, pairs in op.groups] == sizes
        assert {key for _, pairs in op.groups for _, key in pairs} == keys
        assert op.coeffs.keys() == keys
        points = rule.n_points // (rule.n_points_per_dir[-1] if extrusion else 1)
        assert op.coeff_scalars == len(keys) * points
        assert [len(pairs) for _, pairs in wq_terms(rule, "stiffness")] == [
            3, 3, 3]

    @pytest.mark.parametrize("coupling, sizes", [(1e-300, [1, 1, 1]),
                                                 (1e-12, [2, 2, 1])],
                             ids=["dropped", "kept"])
    def test_small_coupling(self, coupling, sizes):
        # C_12 = 1e-300 is below TAU sqrt(C_11 C_22) = TAU and dropped;
        # 1e-12 is above it and kept; either way the apply matches the
        # materialized matrix, which keeps every term
        K = np.eye(3)
        K[0, 1] = K[1, 0] = coupling
        space, rule, geom = make(2, 3)
        op = setup_stiffness(space, rule, geom, K)
        assert [len(pairs) for _, pairs in op.groups] == sizes
        assert ((0, 1) in op.coeffs) == (coupling > operators.TAU)
        mat = assemble_wq_explicit(space, rule, geom, K, "stiffness").matrix
        v = np.random.default_rng(5).standard_normal(space.n_dofs)
        ref = mat @ v
        assert np.linalg.norm(op.apply(v) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("geometry, K", [
        *((name, None) for name in MAPS), ("cube", upper_coupling)],
        ids=[*MAPS, "cube-upper-coupling"])
    def test_kept_keys_do_not_depend_on_chunk_size(self, monkeypatch,
                                                   geometry, K):
        # the test is pointwise, so chunks of 2^8 points and one chunk for
        # the whole grid keep the same terms; a coupling that is zero below
        # x_3 = 1/2, on the first chunks of the walk, is kept all the same
        space, rule, _ = make(3, 6)
        geom = MAPS[geometry]()
        kept = []
        for points in (2**8, rule.n_points + 1):
            monkeypatch.setattr(kron, "CHUNK_POINTS", points)
            op = setup_stiffness(space, rule, geom, K)
            kept.append([[key for _, key in pairs] for _, pairs in op.groups])
        assert kept[0] == kept[1]
        assert len(kron.grid_slabs(rule.n_points_per_dir)) == 1
        if K is not None:
            assert [len(keys) for keys in kept[0]] == [3, 3, 3]

    @pytest.mark.parametrize("kind, coeff", [("stiffness", np.zeros((3, 3))),
                                             ("mass", 0.0)])
    def test_every_term_dropped(self, kind, coeff):
        # a zero coefficient leaves no term: the apply returns exact zeros
        # of the operator's length and charges no flops
        space, rule, geom = make(2, 3, quarter_ring_rational_map())
        op = SETUPS[kind](space, rule, geom, coeff)
        assert op.groups == []
        meter = CostMeter()
        v = np.random.default_rng(3).standard_normal(space.n_dofs)
        assert np.array_equal(op.apply(v, meter), np.zeros(space.n_dofs))
        assert meter.flops == 0


#: a constant K with K_13 = K_31 != 0: on the cube, the groups of trial
#: directions 1 and 3 each hold two terms with different direction-3 W factors
K_13 = np.array([[2.0, 0.0, 0.4], [0.0, 1.5, 0.0], [0.4, 0.0, 1.0]])


class TestExtrusionFold:
    """On an extrusion with a constant coefficient every grid is constant
    along xi_3: set-up evaluates and stores it over one xi_3 layer and the
    apply folds direction 3 into one factor W_3 B_3 per term."""

    @pytest.mark.parametrize("geometry, kind, K", [
        *((name, kind, None) for name in _GEOMETRIES for kind in SETUPS),
        ("cube", "stiffness", K_13)],
        ids=[*(f"{name}-{kind}" for name in _GEOMETRIES for kind in SETUPS),
             "cube-stiffness-K13"])
    def test_folded_apply_matches_explicit(self, geometry, kind, K):
        space, rule, geom = make(3, 4, MAPS[geometry]())
        op = (SETUPS[kind](space, rule, geom) if K is None
              else setup_stiffness(space, rule, geom, K))
        Q = rule.n_points_per_dir
        assert op.grid_rule.n_points_per_dir == (*Q[:-1], 1)
        n3 = space.n_per_dir[-1]
        assert all(F[-1].shape == (n3, n3) for B, pairs in op.groups
                   for F in [B] + [W for W, _ in pairs])
        if K is not None:
            # two different folded factors in one group
            assert [len({id(W[-1]) for W, _ in pairs})
                    for _, pairs in op.groups] == [2, 1, 2]
        TestFusedApply.assert_matches_explicit(op, space, rule, geom, kind, K)

    @pytest.mark.parametrize("kind", ["mass", "stiffness"])
    def test_two_dimensional_extrusion(self, kind):
        # in d = 2 the plane is one direction-1 row, broadcast over N_2
        # layers
        space, rule, geom = make(3, 6, curve_extrusion(), d=2)
        op = SETUPS[kind](space, rule, geom)
        assert op.grid_rule.n_points_per_dir == (rule.n_points_per_dir[0], 1)
        TestFusedApply.assert_matches_explicit(op, space, rule, geom, kind)

    @pytest.mark.parametrize("kind, coeff", [
        ("stiffness", stiffness_field),
        ("mass", lambda x: 1 + x[:, 0]**2 + x[:, 2]),
    ], ids=["K-field", "alpha-field"])
    def test_callable_coefficient_stores_full_grids(self, kind, coeff):
        # a physical field varies along xi_3 on the ring, so nothing folds
        space, rule, geom = make(2, 4, quarter_ring_rational_map())
        op = SETUPS[kind](space, rule, geom, coeff)
        assert op.grid_rule is rule
        assert all(g.size == rule.n_points for g in op.coeffs.values())
        assert op.coeff_scalars == len(op.coeffs) * rule.n_points
        TestFusedApply.assert_matches_explicit(op, space, rule, geom, kind,
                                               coeff)

    def test_ring_stores_plane_grids(self):
        # 3 stored grids of Q_1 Q_2 scalars, whatever the xi_3 point count
        kv = make_uniform_knots(3, 4)
        geom = quarter_ring_rational_map()
        scalars = []
        for n3 in (2, 9):
            space = TensorSpace((kv, kv, make_uniform_knots(3, n3)))
            rule = build_tensor_rule(space)
            op = setup_stiffness(space, rule, geom)
            q1, q2, q3 = rule.n_points_per_dir
            assert op.coeff_scalars == 3 * q1 * q2
            scalars.append((op.coeff_scalars, q3))
        assert scalars[0][0] == scalars[1][0] and scalars[0][1] < scalars[1][1]


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
