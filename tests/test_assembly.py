import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (affine_map, max_row_nnz, reparametrized_ring,
                      stiffness_field)
from igamf import (MemoryGuardError, assembly, assemble_rhs, assemble_sgq,
                   assemble_wq_explicit, build_tensor_rule, collocation_matrix,
                   exact_grams, estimate_matrix_nnz, gauss_points_weights,
                   gauss_tensor_rule, identity_map, kron, kron_materialize,
                   oscillating_case, pullback, quarter_ring_map,
                   quarter_ring_rational_map, tensor_grid, tensor_space,
                   wq_load_vector)


class TestSGQ:
    def test_1d_hat_mass_entries(self):
        space = tensor_space(1, 2, 1)
        M = assemble_sgq(space, identity_map(1), kind="mass").matrix.toarray()
        # only one interior hat: diagonal is its self integral 1/3
        assert M[0, 0] == pytest.approx(1 / 3, abs=1e-14)

    def test_1d_p2_against_gauss_gram(self):
        space = tensor_space(2, 4, 1)
        M = assemble_sgq(space, identity_map(1), kind="mass").matrix.toarray()
        G = exact_grams(space.knotvectors[0])[(0, 0)][1:-1, 1:-1]
        assert np.allclose(M, G, atol=1e-14)

    def test_cube_mass_is_kron_of_grams(self):
        space = tensor_space(2, 3, 3)
        M = assemble_sgq(space, identity_map(3), kind="mass").matrix
        G = exact_grams(space.knotvectors[0])[(0, 0)][1:-1, 1:-1]
        ref = kron_materialize([G, G, G])
        assert np.abs((M - ref).toarray()).max() <= 1e-13

    def test_symmetry(self):
        space = tensor_space(2, 4, 3)
        A = assemble_sgq(space, quarter_ring_map(), kind="stiffness").matrix
        defect = np.abs((A - A.T).toarray()).max()
        assert defect <= 1e-12 * abs(A).max()

    def test_symmetry_with_stiffness_field(self):
        # a position-dependent K on a map whose C is full; measured 3.4e-16
        space = tensor_space(2, 4, 3)
        A = assemble_sgq(space, reparametrized_ring(), coeff=stiffness_field,
                         kind="stiffness").matrix
        defect = np.abs((A - A.T).toarray()).max()
        assert defect <= 1e-12 * abs(A).max()

    def test_gauss_refinement_invariance_on_cube(self):
        # spline integrands on the identity cube: p+1 points are exact
        space = tensor_space(2, 3, 3)
        A1 = assemble_sgq(space, identity_map(3), kind="stiffness").matrix
        A2 = assemble_wq_explicit(space, gauss_tensor_rule(space, 6),
                                  identity_map(3), kind="stiffness").matrix
        assert np.abs((A1 - A2).toarray()).max() <= 1e-13

    def test_row_bandwidth(self):
        space = tensor_space(3, 6, 3)
        A = assemble_sgq(space, identity_map(3), kind="mass").matrix
        assert np.diff(A.indptr).max() <= (2 * 3 + 1) ** 3
        assert np.diff(A.indptr).max() == max_row_nnz(space)

    @pytest.mark.parametrize("geom", [
        pytest.param(quarter_ring_rational_map(), id="rational-ring"),
        # the ring is orthogonal (C_ab = 0 for a != b); a shear is not
        pytest.param(affine_map([[1, 0.4, 0], [0, 1, 0.3], [0.2, 0, 1]],
                                np.zeros(3)), id="sheared"),
    ])
    def test_stiffness_against_independent_oracle(self, geom):
        # sum_ab B_a^T diag(w C_ab) B_b, built here from Gauss nodes,
        # collocation matrices and the pullback
        space = tensor_space(2, 4, 3)
        kvs = space.knotvectors
        xw = [gauss_points_weights(kv, 3) for kv in kvs]
        det, cof = pullback(geom, tensor_grid([x for x, _ in xw]).T)
        w = np.prod(tensor_grid([wl for _, wl in xw]), axis=0)
        C = np.einsum("nia,nib->nab", cof, cof) / det[:, None, None]
        B = [kron_materialize([collocation_matrix(kv, x, int(l == a))[:, 1:-1]
                               for l, (kv, (x, _)) in enumerate(zip(kvs, xw))])
             for a in range(3)]
        ref = sum(B[a].T @ sp.diags(w * C[:, a, b]) @ B[b]
                  for a in range(3) for b in range(3))
        A = assemble_sgq(space, geom, kind="stiffness").matrix
        assert abs(A - ref).max() <= 1e-13 * abs(ref).max()


class TestWQExplicit:
    def test_equals_sgq_on_cube(self):
        space = tensor_space(3, 4, 3)
        rule = build_tensor_rule(space)
        for kind in ("mass", "stiffness"):
            W = assemble_wq_explicit(space, rule, identity_map(3), kind=kind)
            S = assemble_sgq(space, identity_map(3), kind=kind)
            assert np.abs((W.matrix - S.matrix).toarray()).max() <= 1e-12

    def test_nonsymmetric_on_curved_geometry(self):
        space = tensor_space(2, 4, 3)
        rule = build_tensor_rule(space)
        A = assemble_wq_explicit(space, rule, quarter_ring_map(),
                                 kind="stiffness").matrix
        assert np.abs((A - A.T).toarray()).max() > 1e-8


class TestRHS:
    def test_zero_source(self):
        space = tensor_space(2, 3, 3)
        rhs = assemble_rhs(space, identity_map(3), lambda *x: 0.0)
        assert np.array_equal(rhs, np.zeros(space.n_dofs))

    def test_unit_source_p1(self):
        # p=1, 2 elements: single interior hat per direction, integral 1/2
        space = tensor_space(1, 2, 3)
        rhs = assemble_rhs(space, identity_map(3), lambda *x: 1.0)
        assert rhs.shape == (1,)
        assert rhs[0] == pytest.approx(0.125, abs=1e-14)

    def test_quadrature_refinement_stability(self):
        # the oscillating source needs ~12 points per span before the
        # quadrature error bottoms out; doubling from there is inert
        space = tensor_space(3, 8, 3)
        case = oscillating_case()
        geom = quarter_ring_map()
        r1 = wq_load_vector(gauss_tensor_rule(space, 12), geom, case.f)
        r2 = wq_load_vector(gauss_tensor_rule(space, 24), geom, case.f)
        assert np.linalg.norm(r1 - r2) <= 1e-10 * np.linalg.norm(r2)

    @pytest.mark.parametrize("load", [
        pytest.param(lambda space, geom, f: assemble_rhs(space, geom, f),
                     id="assemble_rhs"),
        pytest.param(lambda space, geom, f: wq_load_vector(
            build_tensor_rule(space), geom, f), id="wq_load_vector"),
    ])
    def test_chunking_invariance(self, monkeypatch, load):
        space = tensor_space(2, 4, 3)
        case = oscillating_case()
        geom = quarter_ring_map()
        r1 = load(space, geom, case.f)
        monkeypatch.setattr(kron, "SLAB_POINTS", 200)
        # both point grids now split into several slabs
        for rule in (gauss_tensor_rule(space, 3), build_tensor_rule(space)):
            assert len(kron.grid_slabs(rule.n_points_per_dir)) > 1
        r2 = load(space, geom, case.f)
        assert np.allclose(r1, r2, atol=1e-14)


class TestGuardsAndMeta:
    def test_nnz_estimate_exact(self):
        for p, n_el in [(1, 3), (2, 4), (3, 4)]:
            space = tensor_space(p, n_el, 3)
            M = assemble_sgq(space, identity_map(3), kind="mass").matrix
            assert estimate_matrix_nnz(space) == M.nnz

    def test_guard_triggers_before_allocation(self):
        space = tensor_space(3, 8, 3)
        with pytest.raises(MemoryGuardError) as exc:
            assemble_sgq(space, identity_map(3), nnz_guard=1000)
        # the message names the estimated requirement (the guard may fire on
        # the intermediate Kronecker factor, which dominates the product)
        assert exc.value.estimate >= estimate_matrix_nnz(space)
        assert f"{exc.value.estimate:.2e}" in str(exc.value)

    def test_wq_guard_counts_kronecker_factor(self):
        # the product's estimate (1.33e5) passes a 2e5 guard, but kron(W)
        # would hold more than 5.3e5 entries
        space = tensor_space(3, 8, 3)
        rule = build_tensor_rule(space)
        assert estimate_matrix_nnz(space) < 2e5
        with pytest.raises(MemoryGuardError) as exc:
            assemble_wq_explicit(space, rule, identity_map(3),
                                 kind="stiffness", nnz_guard=2e5)
        assert exc.value.estimate >= 5.3e5

    def test_nan_guard_rejected_before_estimating(self, monkeypatch):
        # `est > nan` is False, so a NaN guard would switch the guard off
        space = tensor_space(2, 2, 3)
        rule = build_tensor_rule(space)

        def no_estimate(_):
            raise AssertionError("estimated under a NaN guard")

        monkeypatch.setattr(assembly, "estimate_matrix_nnz", no_estimate)
        for build in (
                lambda: assemble_sgq(space, identity_map(3), kind="stiffness",
                                     nnz_guard=float("nan")),
                lambda: assemble_wq_explicit(space, rule, identity_map(3),
                                             kind="stiffness",
                                             nnz_guard=float("nan"))):
            with pytest.raises(ValueError, match="NaN"):
                build()
