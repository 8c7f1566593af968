import functools
import tracemalloc

import numpy as np
import pytest

from conftest import affine_map, not_extruded, reparametrized_ring
from igamf import (QUARTER_RING_H1_REFERENCE, TensorSpace, assemble_rhs,
                   assemble_sgq, bicgstab, build_tensor_rule, cg,
                   cube_sine_case, extrude, FDPreconditioner,
                   gauss_points_weights, h1_relative_error, identity_map, l2_relative_error,
                   make_uniform_knots, oscillating_case,
                   quarter_ring_map, quarter_ring_rational_map,
                   relative_errors, setup_stiffness, tensor_space,
                   wq_load_vector)
from igamf import kron, problems
from igamf.cli import _GEOMETRIES
from igamf.geometry import grid_plane
from igamf.splines import collocation_matrix


class TestOscillatingCase:
    def test_boundary_values_vanish(self):
        case = oscillating_case()
        geom = quarter_ring_map()
        rng = np.random.default_rng(0)
        pts = []
        for face_dim in range(3):
            for side in (0.0, 1.0):
                xi = rng.random((170, 3))
                xi[:, face_dim] = side
                pts.append(xi)
        xi = np.concatenate(pts)[:1000]
        u = case.u_grad(*geom.evaluate(xi).T)[0]
        assert np.abs(u).max() <= 1e-12

    def test_point_value_regression(self):
        case = oscillating_case()
        x = np.array([[1.5 / np.sqrt(2), 1.5 / np.sqrt(2), 0.1]])
        assert case.u_grad(*x.T)[0][0] == pytest.approx(-1.453237129106922, abs=1e-12)

    def test_source_matches_fd_laplacian(self):
        case = oscillating_case()
        rng = np.random.default_rng(1)
        # interior physical points of the quarter ring
        r = rng.uniform(1.1, 1.9, 20)
        th = rng.uniform(0.1, np.pi / 2 - 0.1, 20)
        x = np.stack([r * np.cos(th), r * np.sin(th),
                      rng.uniform(0.1, 0.9, 20)], axis=1)
        def u(x):
            return case.u_grad(*x.T)[0]

        h = 1e-5
        lap = np.zeros(20)
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            lap += (u(x + e) - 2 * u(x) + u(x - e)) / h**2
        f_fd = -lap
        f = case.f(*x.T)
        assert np.abs(f - f_fd).max() <= 1e-5 * max(1.0, np.abs(f).max())

    def test_gradient_matches_fd(self):
        case = oscillating_case()
        x = np.array([[1.2, 0.7, 0.4], [0.3, 1.5, 0.8]])
        h = 1e-6
        _, *grad = case.u_grad(*x.T)
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            fd = (case.u_grad(*(x + e).T)[0] - case.u_grad(*(x - e).T)[0]) / (2 * h)
            assert np.allclose(grad[d], fd, atol=1e-6)

    def test_reference_table_spot_values(self):
        assert QUARTER_RING_H1_REFERENCE[(2, 5)] == pytest.approx(7.1e-2)
        assert QUARTER_RING_H1_REFERENCE[(8, 5)] == pytest.approx(9.2e-4)
        assert QUARTER_RING_H1_REFERENCE[(3, 4)] == pytest.approx(4.5e-1)


class TestErrorNorms:
    @staticmethod
    def in_space_case():
        """prod_l x_l (1 - x_l) in any dimension: on the identity map of a
        space of degree >= 2, a function of V_h with zero boundary trace."""

        def u_grad(*x):
            fac = [xl * (1 - xl) for xl in x]
            return (functools.reduce(np.multiply, fac),
                    *((1 - 2 * xl) * functools.reduce(
                        np.multiply, fac[:l] + fac[l + 1:], 1.0)
                      for l, xl in enumerate(x)))

        case = cube_sine_case()
        return type(case)(u_grad=u_grad, f=case.f, reference_h1_errors={})

    @staticmethod
    def interpolate_tensor_poly(space):
        """Coefficients of prod x(1-x) via univariate interpolation."""
        kv = space.knotvectors[0]
        sites = np.linspace(0, 1, kv.n_funcs)
        B = collocation_matrix(kv, sites)
        c1 = np.linalg.solve(B, sites * (1 - sites))[1:-1]
        return np.kron(np.kron(c1, c1), c1)

    def test_in_space_function_has_tiny_error(self):
        space = tensor_space(2, 4, 3)
        coeffs = self.interpolate_tensor_poly(space)
        case = self.in_space_case()
        geom = identity_map(3)
        assert h1_relative_error(space, geom, coeffs, case) <= 1e-11
        assert l2_relative_error(space, geom, coeffs, case) <= 1e-12

    def test_l2_below_h1_and_mesh_convergence(self):
        geom = identity_map(3)
        case = cube_sine_case()
        errs = []
        for n_el in (2, 4, 8):
            space = tensor_space(2, n_el, 3)
            A = assemble_sgq(space, geom, kind="stiffness").matrix
            b = assemble_rhs(space, geom, case.f)
            x, _ = cg(lambda v: A @ v, b, FDPreconditioner(space).apply,
                      tol=1e-12)
            e_h1 = h1_relative_error(space, geom, x, case)
            e_l2 = l2_relative_error(space, geom, x, case)
            assert e_l2 <= e_h1
            errs.append(e_h1)
        assert errs[2] < errs[1] < errs[0]
        # rate roughly h^p for the H1 error at p=2
        assert errs[1] / errs[2] > 2.5

    def test_convergence_on_a_general_map(self):
        # the ring reparametrized in xi_1 and xi_3 (neither an extrusion
        # nor separable, so every point is pulled back): at p=3 its H1
        # errors follow the ring's table (measured 0.766, 0.431, 0.0337 at
        # k = 3, 4, 5; the table gives 0.45 and 0.033 at k = 4, 5)
        geom, case = reparametrized_ring(), oscillating_case()
        errs = []
        for k in (3, 4, 5):
            space = tensor_space(3, 2**k, 3)
            rule = build_tensor_rule(space)
            A = setup_stiffness(space, rule, geom)
            b = wq_load_vector(rule, geom, case.f)
            x, report = bicgstab(A.apply, b, FDPreconditioner(space).apply,
                                 tol=1e-10)
            assert report.converged
            h1, l2 = relative_errors(space, geom, x, case)
            assert l2 <= h1
            errs.append(h1)
            ref = QUARTER_RING_H1_REFERENCE.get((3, k))
            assert ref is None or 0.9 * ref <= h1 <= 1.1 * ref
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] / errs[2] > 8  # measured 12.8; the ring's is 14.0

    def test_quadrature_stability(self):
        space = tensor_space(2, 4, 3)
        geom = quarter_ring_map()
        case = oscillating_case()
        rule = build_tensor_rule(space)
        stiff = setup_stiffness(space, rule, geom)
        b = assemble_rhs(space, geom, case.f)
        x, _ = bicgstab(stiff.apply, b, FDPreconditioner(space).apply,
                        tol=1e-10)
        e1 = h1_relative_error(space, geom, x, case, gauss_pts=6)
        e2 = h1_relative_error(space, geom, x, case, gauss_pts=12)
        assert abs(e1 - e2) <= 1e-3 * e2

    @staticmethod
    def norm_sums(space, geom, u_coeffs, case, pts_per_span):
        """Squared L2 norms and H1 seminorms of u - u_h and of u, summed
        over one whole tensor Gauss grid with dense collocation,
        np.linalg.det and solve: (L2 error, L2 reference, seminorm error,
        seminorm reference).  Any dimension d."""
        d = space.dim
        nodes, weights = np.polynomial.legendre.leggauss(pts_per_span)
        pts, wts, B0, B1 = [], [], [], []
        for kv in space.knotvectors:
            a, b = kv.breakpoints[:-1, None], kv.breakpoints[1:, None]
            x = ((a + b) / 2 + (b - a) / 2 * nodes).ravel()
            pts.append(x)
            wts.append(((b - a) / 2 * weights).ravel())
            B0.append(collocation_matrix(kv, x, 0)[:, 1:-1])
            B1.append(collocation_matrix(kv, x, 1)[:, 1:-1])
        # grids and coefficients with direction 1 fastest, i.e. last axis
        U = u_coeffs.reshape(tuple(reversed(space.n_per_dir)))
        xi = np.stack([g.ravel() for g in
                       reversed(np.meshgrid(*reversed(pts), indexing="ij"))],
                      axis=1)
        w = np.prod(np.meshgrid(*reversed(wts), indexing="ij"), axis=0).ravel()

        def field(F):
            # contract the fastest remaining direction; its grid axis goes
            # first, so direction d ends up slowest
            V = U
            for Fl in F:
                V = np.tensordot(Fl, V, axes=([1], [-1]))
            return V.ravel()

        uh = field(B0)
        grad_xi = np.stack([field([(B1 if l == m else B0)[l]
                                   for l in range(d)]) for m in range(d)],
                           axis=1)
        J = geom.jacobian(xi)
        grad_h = np.linalg.solve(np.swapaxes(J, 1, 2), grad_xi[:, :, None])[:, :, 0]
        measure = w * np.abs(np.linalg.det(J))
        u, *grad_u = np.broadcast_arrays(*case.u_grad(*geom.evaluate(xi).T))
        grad_u = np.stack(grad_u, axis=1)
        return (measure @ (uh - u)**2, measure @ u**2,
                measure @ ((grad_h - grad_u)**2).sum(axis=1),
                measure @ (grad_u**2).sum(axis=1))

    def test_one_pass_matches_each_norm(self):
        # both halves of the one-pass sums equal a whole-grid sum that does
        # not go through the Kronecker contractions, the cofactors or the
        # slab loop
        space = tensor_space(2, 4, 3)
        geom = quarter_ring_rational_map()
        case = oscillating_case()
        rule = build_tensor_rule(space)
        stiff = setup_stiffness(space, rule, geom)
        b = wq_load_vector(rule, geom, case.f)
        x, _ = bicgstab(stiff.apply, b, FDPreconditioner(space).apply,
                        tol=1e-10)
        h1, l2 = relative_errors(space, geom, x, case)
        err2, ref2, semi_err2, semi_ref2 = self.norm_sums(space, geom, x,
                                                          case, 4)
        assert l2 == pytest.approx(np.sqrt(err2 / ref2), rel=1e-13)
        assert h1 == pytest.approx(
            np.sqrt((err2 + semi_err2) / (ref2 + semi_ref2)), rel=1e-13)

    @pytest.mark.parametrize("geom", [
        identity_map(1), identity_map(2),
        affine_map([[1.3, 0.4], [-0.2, 0.8]], [0.5, -1.0]),
        extrude(identity_map(1))], ids=["line", "square", "affine-2d",
                                        "extruded-2d"])
    def test_low_dimensions_match_dense_sums(self, geom):
        # d = 1 has an empty (xi_1, ..., xi_{d-1}) plane of one point; the
        # 2D extrusion pulls back a 1D planar map
        space = tensor_space(3, 5, geom.dim)
        x = np.random.default_rng(geom.dim).standard_normal(space.n_dofs)
        case = self.in_space_case()
        h1, l2 = relative_errors(space, geom, x, case)
        err2, ref2, semi_err2, semi_ref2 = self.norm_sums(space, geom, x,
                                                          case, 5)
        assert l2 == pytest.approx(np.sqrt(err2 / ref2), rel=1e-12)
        assert h1 == pytest.approx(
            np.sqrt((err2 + semi_err2) / (ref2 + semi_ref2)), rel=1e-12)

    @pytest.mark.parametrize("name", ["ring", "ring-wrapped", "extruded-2d",
                                      "line", "three-knot-vectors",
                                      "gauss-p+3"])
    def test_fused_walk_matches_dense_sums(self, monkeypatch, name):
        # the slab's modes of directions d..2, each chunk's direction-1
        # mode and its sums against one dense whole-grid sum, on slabs of
        # 5 layers (the last may be thinner) cut into chunks of 3 and then 2
        # layers; in d = 3 the chunks also cut the plane into parts of whole
        # direction-1 rows.  The 2D plane is one row, and d = 1 is one chunk
        ring = quarter_ring_rational_map()
        geom, space, gauss_pts = {
            "ring": (ring, tensor_space(2, 4, 3), 4),
            "ring-wrapped": (not_extruded(ring), tensor_space(2, 4, 3), 4),
            "extruded-2d": (extrude(identity_map(1)), tensor_space(3, 5, 2),
                            5),
            "line": (identity_map(1), tensor_space(3, 5, 1), 5),
            "three-knot-vectors": (ring, TensorSpace((
                make_uniform_knots(2, 3), make_uniform_knots(3, 4),
                make_uniform_knots(2, 5))), 5),
            "gauss-p+3": (ring, tensor_space(2, 4, 3), 5),
        }[name]
        case = oscillating_case() if geom.dim == 3 else self.in_space_case()
        n = [gauss_pts * len(kv.breakpoints[1:]) for kv in space.knotvectors]
        plane, q1 = int(np.prod(n[:-1])), n[0]
        monkeypatch.setattr(kron, "SLAB_POINTS", 5 * plane)
        monkeypatch.setattr(kron, "CHUNK_POINTS", 3 * q1 + q1 // 2)
        walk = list(kron.grid_chunks(n))
        if geom.dim > 1:
            assert {(l.start, l.stop) for s, chunks in walk
                    if s.stop - s.start == 5
                    for l, _ in chunks} == {(0, 3), (3, 5)}
        if geom.dim == 3:
            assert all(0 < p.stop - p.start < plane
                       for _, chunks in walk for _, p in chunks)
        x = np.random.default_rng(len(name)).standard_normal(space.n_dofs)
        h1, l2 = relative_errors(space, geom, x, case, gauss_pts)
        err2, ref2, semi_err2, semi_ref2 = self.norm_sums(space, geom, x,
                                                          case, gauss_pts)
        assert l2 == pytest.approx(np.sqrt(err2 / ref2), rel=1e-13)
        assert h1 == pytest.approx(
            np.sqrt((err2 + semi_err2) / (ref2 + semi_ref2)), rel=1e-13)

    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("slab, chunk, n_slabs", [
        (500, None, 16),  # one layer per slab, whole-layer chunks
        (1000, 150, 6),  # 3 layers per slab, chunks of 3 x 48 points
    ])
    def test_slab_invariance(self, monkeypatch, wrapped, slab, chunk, n_slabs):
        # on the extrusion (one pullback per plane point) and on the same
        # map wrapped as a generic one (pulled back per chunk)
        space = tensor_space(2, 4, 3)
        geom = quarter_ring_rational_map()
        if wrapped:
            geom = not_extruded(geom)
        x = np.random.default_rng(0).standard_normal(space.n_dofs)
        case = oscillating_case()
        h1, l2 = relative_errors(space, geom, x, case)
        monkeypatch.setattr(kron, "SLAB_POINTS", slab)
        if chunk is not None:
            monkeypatch.setattr(kron, "CHUNK_POINTS", chunk)
        # the 16^3-point Gauss grid now splits into n_slabs slabs
        assert len(kron.grid_slabs((16,) * 3)) == n_slabs
        h1_s, l2_s = relative_errors(space, geom, x, case)
        assert h1_s == pytest.approx(h1, rel=1e-13)
        assert l2_s == pytest.approx(l2, rel=1e-13)

    @pytest.mark.parametrize("geometry", ["ring", "ring-polar", "cube"])
    @pytest.mark.parametrize("p, n_el", [(3, 4), (8, 2)])
    @pytest.mark.parametrize("chunk", [None, 150])
    def test_extruded_pass_matches_pointwise_pass(self, monkeypatch, geometry,
                                                  p, n_el, chunk):
        # the plane-once geometry against the same map wrapped as a
        # generic one, pulled back at every point; both walk the same
        # chunks: a 150-point chunk cuts the one slab of 20 layers of a
        # 20^2-point plane into chunks of 7 layers times 40 plane points,
        # the default one takes whole layers
        geom, case = (make() for make in _GEOMETRIES[geometry])
        assert geom.planar is not None
        space = tensor_space(p, n_el, 3)
        x = np.random.default_rng(p).standard_normal(space.n_dofs)
        if chunk is not None:
            monkeypatch.setattr(kron, "CHUNK_POINTS", chunk)
            (_, chunks), = kron.grid_chunks((20,) * 3)
            assert chunks[0] == (slice(0, 7), slice(0, 40))
        h1, l2 = relative_errors(space, geom, x, case)
        h1_g, l2_g = relative_errors(space, not_extruded(geom), x, case)
        assert h1 == pytest.approx(h1_g, rel=1e-12)
        assert l2 == pytest.approx(l2_g, rel=1e-12)

    def test_plane_work_amortized(self, monkeypatch):
        # on an extrusion u_grad gets the plane's (P,) coordinate rows and
        # the chunk's xi_3 layers as an (L, 1) column, so each plane value
        # serves every layer of its chunk: with 5 layers per 2,000-point
        # slab and 200-point chunks, the 20^2-point plane is cut into
        # chunks of 5 layers times 40 plane points
        monkeypatch.setattr(kron, "SLAB_POINTS", 2000)
        monkeypatch.setattr(kron, "CHUNK_POINTS", 200)
        space = tensor_space(3, 4, 3)
        geom = quarter_ring_rational_map()
        x = np.random.default_rng(0).standard_normal(space.n_dofs)
        case = oscillating_case()
        shapes = []

        def recording(*coords):
            shapes.append([np.shape(c) for c in coords])
            return case.u_grad(*coords)

        relative_errors(space, geom, x, type(case)(
            u_grad=recording, f=case.f, reference_h1_errors={}))
        assert shapes and all(len(coords) == 3 for coords in shapes)
        for plane1, plane2, layers in shapes:
            assert len(plane1) == 1 and plane2 == plane1
            assert len(layers) == 2 and layers[1] == 1
        assert sum(plane1[0] for plane1, _, _ in shapes) <= 20**3 // 2

    @pytest.mark.parametrize("shared", [True, False])
    def test_one_gauss_factor_set_per_distinct_knot_vector(self, monkeypatch,
                                                           shared):
        # two collocations (values and first derivatives) per distinct knot
        # vector; two banded conversions per distinct lower-direction knot
        # vector, and two for the last direction per slab
        colloc, band = [], []

        def counting(kv, points, deriv=0):
            colloc.append(kv)
            return collocation_matrix(kv, points, deriv)

        def counting_banded(f):
            band.append(f)
            return kron.banded(f)

        monkeypatch.setattr(problems, "collocation_matrix", counting)
        monkeypatch.setattr(problems, "banded", counting_banded)
        if shared:
            space, n_distinct, n_lower = tensor_space(2, 4, 3), 1, 1
        else:
            kvs = tuple(make_uniform_knots(2, 4) for _ in range(3))
            space, n_distinct, n_lower = TensorSpace(kvs), 3, 2
        x = np.random.default_rng(0).standard_normal(space.n_dofs)
        relative_errors(space, quarter_ring_rational_map(), x,
                        oscillating_case())
        assert len(colloc) == 2 * n_distinct
        # the 16^3-point Gauss grid is one slab
        assert len(band) == 2 * n_lower + 2

    def test_peak_memory_tracks_slab(self):
        # the pass peaks at 1.8 slab-sized float64 arrays on the ring (an
        # extrusion; 2.7 on the same map wrapped as a generic one); at p=3
        # on 16^3 elements the 80^3-point grid is two slabs.  The next
        # tests hold the chunked pointwise work to tighter bounds
        space = tensor_space(3, 16, 3)
        geom = quarter_ring_rational_map()
        x = np.random.default_rng(0).standard_normal(space.n_dofs)
        case = oscillating_case()
        tracemalloc.start()
        try:
            relative_errors(space, geom, x, case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 8 * kron.SLAB_POINTS

    @pytest.mark.parametrize("wrapped", [False, True])
    def test_peak_memory_pointwise_work_chunked(self, wrapped):
        # a slab's points and weights are never laid out; the geometry,
        # u_grad and the error arithmetic run in small chunks.  At p=3 on
        # 32^3 elements the 160^3-point grid is 16 slabs.  The peak was
        # measured at 2.5x with the ring's geometry once per plane point
        # (2.8x with the plane pulled back whole) and 3.4x on the ring
        # wrapped as a generic map, pulled back per chunk (7.9x and 7.5x
        # with slab-sized u_h and parametric gradient, 10.7x when a
        # generic map's slab points were laid out, 36x with the pointwise
        # work done per slab), so this also fails a pass over the whole
        # grid
        space = tensor_space(3, 32, 3)
        geom = quarter_ring_rational_map()
        if wrapped:
            geom = not_extruded(geom)
        x = np.random.default_rng(0).standard_normal(space.n_dofs)
        case = oscillating_case()
        tracemalloc.start()
        try:
            relative_errors(space, geom, x, case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 8 * kron.SLAB_POINTS

    @pytest.mark.parametrize("wrapped", [False, True])
    def test_peak_memory_no_slab_sized_fields(self, wrapped):
        # u_h and its parametric gradient exist only per chunk: a slab
        # holds 3 fields before their direction-1 mode, N_1 / Q_1 = 0.21
        # slab arrays each.  At p=3 on 32^3 elements the peak was measured
        # at 2.46 slab-sized float64 arrays on the ring (2.78 with its plane
        # pulled back whole) and 3.44 on the ring wrapped as a generic
        # map, against 7.89 and 7.50 with four slab-sized fields; the bound
        # leaves 0.56 slab arrays (1.2 MB) of margin over the larger
        space = tensor_space(3, 32, 3)
        geom = quarter_ring_rational_map()
        if wrapped:
            geom = not_extruded(geom)
        x = np.random.default_rng(0).standard_normal(space.n_dofs)
        case = oscillating_case()
        tracemalloc.start()
        try:
            relative_errors(space, geom, x, case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * kron.SLAB_POINTS

    def test_grid_plane_peak_is_outputs_plus_batch(self):
        # the error pass's extruded plane is pulled back and mapped about
        # CHUNK_POINTS points at a time into its outputs (det, the 4
        # entries of J_F^-T and the 2 rows of G).  On the 320^2-point Gauss
        # plane of p=8 on 32^2 elements the peak was measured at these 7
        # plane-sized float64 arrays plus 26 arrays of CHUNK_POINTS points,
        # against 8 plus 107 with the whole plane pulled back at once
        x = gauss_points_weights(make_uniform_knots(8, 32), 10)[0]
        geom = quarter_ring_rational_map()
        bound = 8 * (7 * len(x)**2 + 32 * kron.CHUNK_POINTS)
        tracemalloc.start()
        try:
            grid_plane(geom, (x, x, x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_length_mismatch_rejected(self):
        space = tensor_space(2, 3, 3)
        with pytest.raises(ValueError):
            h1_relative_error(space, identity_map(3),
                              np.zeros(space.n_dofs + 1), cube_sine_case())


class TestCubeSineCase:
    def test_solution_on_boundary(self):
        case = cube_sine_case()
        x = np.array([[0.0, 0.3, 0.7], [1.0, 0.5, 0.5], [0.2, 0.0, 0.9]])
        assert np.abs(case.u_grad(*x.T)[0]).max() <= 1e-14

    def test_source_value(self):
        case = cube_sine_case()
        x = np.array([[0.5, 0.5, 0.5]])
        assert case.f(*x.T)[0] == pytest.approx(3 * np.pi**2, rel=1e-12)
