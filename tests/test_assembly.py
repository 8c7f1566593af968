import numpy as np
import pytest
import scipy.sparse as sp

from igamf import (MemoryGuardError, assemble_rhs, assemble_sgq,
                   assemble_wq_explicit, assembly, build_tensor_rule, exact_gram,
                   estimate_matrix_nnz, identity_map, kron_materialize,
                   make_uniform_knots, max_row_nnz, oscillating_case,
                   quarter_ring_map, tensor_space)


class TestSGQ:
    def test_1d_hat_mass_entries(self):
        space = tensor_space(1, 2, 1)
        M = assemble_sgq(space, identity_map(1), kind="mass").matrix.toarray()
        # only one interior hat: diagonal is its self integral 1/3
        assert M[0, 0] == pytest.approx(1 / 3, abs=1e-14)

    def test_1d_p2_against_gauss_gram(self):
        space = tensor_space(2, 4, 1)
        M = assemble_sgq(space, identity_map(1), kind="mass").matrix.toarray()
        G = exact_gram(space.knotvectors[0], 0, 0).toarray()[1:-1, 1:-1]
        assert np.allclose(M, G, atol=1e-14)

    def test_cube_mass_is_kron_of_grams(self):
        space = tensor_space(2, 3, 3)
        M = assemble_sgq(space, identity_map(3), kind="mass").matrix
        G = exact_gram(space.knotvectors[0], 0, 0)[1:-1, 1:-1]
        ref = kron_materialize([G, G, G])
        assert np.abs((M - ref).toarray()).max() <= 1e-13

    def test_symmetry(self):
        space = tensor_space(2, 4, 3)
        A = assemble_sgq(space, quarter_ring_map(), kind="stiffness").matrix
        defect = np.abs((A - A.T).toarray()).max()
        assert defect <= 1e-12 * abs(A).max()

    def test_gauss_refinement_invariance_on_cube(self):
        # spline integrands on the identity cube: p+1 points are exact
        space = tensor_space(2, 3, 3)
        A1 = assemble_sgq(space, identity_map(3), kind="stiffness").matrix
        A2 = assemble_sgq(space, identity_map(3), kind="stiffness",
                          gauss_pts_per_span=6).matrix
        assert np.abs((A1 - A2).toarray()).max() <= 1e-13

    def test_row_bandwidth(self):
        space = tensor_space(3, 6, 3)
        A = assemble_sgq(space, identity_map(3), kind="mass").matrix
        assert np.diff(A.indptr).max() <= (2 * 3 + 1) ** 3
        assert np.diff(A.indptr).max() == max_row_nnz(space)

    def test_provenance_tag(self):
        space = tensor_space(1, 2, 3)
        assert assemble_sgq(space, identity_map(3)).provenance == "SGQ"


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

    def test_provenance_tag(self):
        space = tensor_space(1, 2, 3)
        rule = build_tensor_rule(space)
        mat = assemble_wq_explicit(space, rule, identity_map(3))
        assert mat.provenance == "WQ-explicit"


class TestRHS:
    def test_zero_source(self):
        space = tensor_space(2, 3, 3)
        rhs = assemble_rhs(space, identity_map(3), lambda x: np.zeros(len(x)))
        assert np.array_equal(rhs, np.zeros(space.n_dofs))

    def test_unit_source_p1(self):
        # p=1, 2 elements: single interior hat per direction, integral 1/2
        space = tensor_space(1, 2, 3)
        rhs = assemble_rhs(space, identity_map(3), lambda x: np.ones(len(x)))
        assert rhs.shape == (1,)
        assert rhs[0] == pytest.approx(0.125, abs=1e-14)

    def test_quadrature_refinement_stability(self):
        # the oscillating source needs ~12 points per span before the
        # quadrature error bottoms out; doubling from there is inert
        space = tensor_space(3, 8, 3)
        case = oscillating_case()
        geom = quarter_ring_map()
        r1 = assemble_rhs(space, geom, case.f, gauss_pts_per_span=12)
        r2 = assemble_rhs(space, geom, case.f, gauss_pts_per_span=24)
        assert np.linalg.norm(r1 - r2) <= 1e-10 * np.linalg.norm(r2)

    def test_chunking_invariance(self, monkeypatch):
        space = tensor_space(2, 4, 3)
        case = oscillating_case()
        geom = quarter_ring_map()
        r1 = assemble_rhs(space, geom, case.f)
        monkeypatch.setattr(assembly, "SLAB_POINTS", 1000)
        r2 = assemble_rhs(space, geom, case.f)
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

    def test_export_coo_round_trip(self, tmp_path):
        space = tensor_space(1, 3, 3)
        mat = assemble_sgq(space, identity_map(3), kind="mass")
        path = tmp_path / "mass.coo"
        mat.export_coo(path)
        rows, cols, vals = np.loadtxt(path, unpack=True, ndmin=2)
        back = sp.coo_matrix((vals, (rows.astype(int), cols.astype(int))),
                             shape=mat.shape)
        assert np.abs((back.tocsr() - mat.matrix).toarray()).max() <= 1e-15
