import tracemalloc

import numpy as np
import pytest

from conftest import affine_map, not_extruded, reparametrized_ring
from igamf import (QUARTER_RING_H1_REFERENCE, TensorSpace, assemble_rhs,
                   assemble_sgq, bicgstab, build_tensor_rule, cg,
                   cube_sine_case, extrude, FDPreconditioner,
                   h1_relative_error, identity_map, l2_relative_error,
                   make_uniform_knots, oscillating_case,
                   quarter_ring_map, quarter_ring_rational_map,
                   relative_errors, setup_stiffness, tensor_space,
                   wq_load_vector)
from igamf import kron, problems
from igamf.cli import _GEOMETRIES
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
        u, _ = case.u_grad(geom.evaluate(xi))
        assert np.abs(u).max() <= 1e-12

    def test_point_value_regression(self):
        case = oscillating_case()
        x = np.array([[1.5 / np.sqrt(2), 1.5 / np.sqrt(2), 0.1]])
        assert case.u_grad(x)[0][0] == pytest.approx(-1.453237129106922, abs=1e-12)

    def test_source_matches_fd_laplacian(self):
        case = oscillating_case()
        rng = np.random.default_rng(1)
        # interior physical points of the quarter ring
        r = rng.uniform(1.1, 1.9, 20)
        th = rng.uniform(0.1, np.pi / 2 - 0.1, 20)
        x = np.stack([r * np.cos(th), r * np.sin(th),
                      rng.uniform(0.1, 0.9, 20)], axis=1)
        def u(x):
            return case.u_grad(x)[0]

        h = 1e-5
        lap = np.zeros(20)
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            lap += (u(x + e) - 2 * u(x) + u(x - e)) / h**2
        f_fd = -lap
        f = case.f(x)
        assert np.abs(f - f_fd).max() <= 1e-5 * max(1.0, np.abs(f).max())

    def test_gradient_matches_fd(self):
        case = oscillating_case()
        x = np.array([[1.2, 0.7, 0.4], [0.3, 1.5, 0.8]])
        h = 1e-6
        _, grad = case.u_grad(x)
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            fd = (case.u_grad(x + e)[0] - case.u_grad(x - e)[0]) / (2 * h)
            assert np.allclose(grad[:, d], fd, atol=1e-6)

    def test_reference_table_spot_values(self):
        assert QUARTER_RING_H1_REFERENCE[(2, 5)] == pytest.approx(7.1e-2)
        assert QUARTER_RING_H1_REFERENCE[(8, 5)] == pytest.approx(9.2e-4)
        assert QUARTER_RING_H1_REFERENCE[(3, 4)] == pytest.approx(4.5e-1)


class TestErrorNorms:
    @staticmethod
    def in_space_case():
        """prod_l x_l (1 - x_l) in any dimension: on the identity map of a
        space of degree >= 2, a function of V_h with zero boundary trace."""

        def u_grad(x):
            x = np.atleast_2d(x)
            full = np.prod(x * (1 - x), axis=1)
            out = np.empty(x.shape)
            for l in range(x.shape[1]):
                fac = x[:, l] * (1 - x[:, l])
                deriv = 1 - 2 * x[:, l]
                with np.errstate(invalid="ignore", divide="ignore"):
                    other = np.where(fac > 0, full / fac,
                                     np.prod(np.delete(x * (1 - x), l, axis=1),
                                             axis=1))
                out[:, l] = deriv * other
            return full, out

        case = cube_sine_case()
        return type(case)(u_grad=u_grad, f=case.f, reference_h1_errors={})

    @staticmethod
    def interpolate_tensor_poly(space):
        """Coefficients of prod x(1-x) via univariate interpolation."""
        kv = space.knotvectors[0]
        sites = np.linspace(0, 1, kv.n_funcs)
        B = collocation_matrix(kv, sites).toarray()
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
        # the ring reparametrized in xi_3 (neither an extrusion nor
        # separable, so every point is pulled back): at p=3 its H1 errors
        # follow the ring's table (measured 0.765, 0.451, 0.0346 at
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
        assert errs[1] / errs[2] > 8  # measured 13.0; the ring's is 14.0

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
            B0.append(collocation_matrix(kv, x, 0).toarray()[:, 1:-1])
            B1.append(collocation_matrix(kv, x, 1).toarray()[:, 1:-1])
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
        u, grad_u = case.u_grad(geom.evaluate(xi))
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

    @pytest.mark.parametrize("wrapped", [False, True])
    def test_slab_invariance(self, monkeypatch, wrapped):
        # on the extrusion (one pullback per plane point) and on the same
        # map wrapped as a generic one (pulled back per chunk)
        space = tensor_space(2, 4, 3)
        geom = quarter_ring_rational_map()
        if wrapped:
            geom = not_extruded(geom)
        x = np.random.default_rng(0).standard_normal(space.n_dofs)
        case = oscillating_case()
        h1, l2 = relative_errors(space, geom, x, case)
        monkeypatch.setattr(kron, "SLAB_POINTS", 500)
        # the 16^3-point Gauss grid now splits into 16 slabs
        assert len(kron.grid_slabs((16,) * 3)) == 16
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
        # chunks: a 150-point chunk cuts each plane (12^2 or 20^2 points)
        # into parts of a layer, the default one takes whole layers
        geom, case = (make() for make in _GEOMETRIES[geometry])
        assert geom.planar is not None
        space = tensor_space(p, n_el, 3)
        x = np.random.default_rng(p).standard_normal(space.n_dofs)
        if chunk is not None:
            monkeypatch.setattr(kron, "CHUNK_POINTS", chunk)
        h1, l2 = relative_errors(space, geom, x, case)
        h1_g, l2_g = relative_errors(space, not_extruded(geom), x, case)
        assert h1 == pytest.approx(h1_g, rel=1e-12)
        assert l2 == pytest.approx(l2_g, rel=1e-12)

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
        # the pass peaks at 7.3 slab-sized float64 arrays on the ring (an
        # extrusion; 7.2 on the same map wrapped as a generic one); at p=3
        # on 16^3 elements the 80^3-point grid is two slabs.  The next test
        # holds the chunked pointwise work to a tighter bound
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
        # slab-sized arrays are only the Kronecker contractions' u_h and
        # parametric gradient (a slab's points and weights are never laid
        # out); the geometry, u_grad and the error arithmetic run in small
        # chunks.  At p=3 on 32^3 elements the 160^3-point grid is 16
        # slabs.  The peak was measured at 7.9x with the ring's geometry
        # once per plane point and 7.5x on the ring wrapped as a generic
        # map, pulled back per chunk (10.7x when a generic map's slab
        # points were laid out, 36x with the pointwise work done per slab),
        # so this also fails a pass over the whole grid
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

    def test_length_mismatch_rejected(self):
        space = tensor_space(2, 3, 3)
        with pytest.raises(ValueError):
            h1_relative_error(space, identity_map(3),
                              np.zeros(space.n_dofs + 1), cube_sine_case())


class TestCubeSineCase:
    def test_solution_on_boundary(self):
        case = cube_sine_case()
        x = np.array([[0.0, 0.3, 0.7], [1.0, 0.5, 0.5], [0.2, 0.0, 0.9]])
        assert np.abs(case.u_grad(x)[0]).max() <= 1e-14

    def test_source_value(self):
        case = cube_sine_case()
        x = np.array([[0.5, 0.5, 0.5]])
        assert case.f(x)[0] == pytest.approx(3 * np.pi**2, rel=1e-12)
