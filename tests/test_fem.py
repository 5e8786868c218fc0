import dataclasses
import io
import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from steklovfem import (
    CR,
    CoefficientField,
    InvalidCoefficientError,
    P1,
    SymSparse,
    UNIT_COEFFICIENTS,
    affine,
    assemble_boundary_mass,
    assemble_stiffness,
    build_dof_map,
    write_matrix,
)
from steklovfem.fem import (
    ASSEMBLY_BLOCK,
    EDGE_GAUSS_POINTS,
    EDGE_GAUSS_WEIGHTS,
    TRIANGLE_QUADRATURE_BARY,
    _scatter,
    evaluate_fe_many,
)
from steklovfem.mesh import LOCAL_EDGES

from _utils import dof_points, reference_triangle_mesh, retained_bytes, sym_sparse

KINDS = ("square", "lshape", "slit")
# Meshes of this level span at least three assembly blocks on every domain,
# the last one partial (see test_multi_block_level_spans_three_blocks).
MULTI_BLOCK_LEVEL = 150

P1_STIFFNESS = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
P1_MASS = (0.5 / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
AFFINE_COEFFICIENTS = CoefficientField(alpha=affine(1.0, 0.5, 0.25), beta=affine(2.0, -0.5, 0.5))


def alpha_part(mesh, dofmap):
    """The pure diffusion matrix with alpha = 1, via linearity in alpha."""
    a2 = assemble_stiffness(mesh, dofmap,
                            CoefficientField(affine(2.0), affine(1.0))).to_csr().toarray()
    a1 = assemble_stiffness(mesh, dofmap,
                            CoefficientField(affine(1.0), affine(1.0))).to_csr().toarray()
    return a2 - a1


def beta_part(mesh, dofmap):
    """The pure reaction mass matrix with beta = 1, via linearity in beta."""
    a2 = assemble_stiffness(mesh, dofmap,
                            CoefficientField(affine(1.0), affine(2.0))).to_csr().toarray()
    a1 = assemble_stiffness(mesh, dofmap,
                            CoefficientField(affine(1.0), affine(1.0))).to_csr().toarray()
    return a2 - a1


def einsum_stiffness(mesh, dofmap, coeff):
    """Oracle: full 3x3 element matrices from three-operand einsums."""
    corners = mesh.vertices[mesh.triangles]
    d1 = corners[:, 1] - corners[:, 0]
    d2 = corners[:, 2] - corners[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    inv_det = 1.0 / det
    grads = np.empty((len(corners), 3, 2))
    grads[:, 1, 0] = d2[:, 1] * inv_det
    grads[:, 1, 1] = -d2[:, 0] * inv_det
    grads[:, 2, 0] = -d1[:, 1] * inv_det
    grads[:, 2, 1] = d1[:, 0] * inv_det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    bary = TRIANGLE_QUADRATURE_BARY
    basis = bary
    if dofmap.family == CR:
        grads = -2.0 * grads
        basis = 1.0 - 2.0 * bary
    quad = np.einsum("qc,tcd->tqd", bary, corners)
    alpha = coeff.alpha(quad[..., 0], quad[..., 1])
    beta = coeff.beta(quad[..., 0], quad[..., 1])
    w = (0.5 * det)[:, None] / 3.0
    local = (np.einsum("t,tad,tbd->tab", (w * alpha).sum(axis=1), grads, grads)
             + np.einsum("tq,qa,qb->tab", w * beta, basis, basis))
    a, b = np.array([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]).T
    return sym_sparse(dofmap.n_dofs, dofmap.cell_dofs[:, a].ravel(),
                      dofmap.cell_dofs[:, b].ravel(), local[:, a, b].ravel())


class TestLocalMatrices:
    def test_p1_reference_stiffness(self):
        mesh = reference_triangle_mesh()
        dm = build_dof_map(mesh, P1)
        assert alpha_part(mesh, dm) == pytest.approx(P1_STIFFNESS, abs=1e-15)

    def test_cr_reference_stiffness_is_four_times_p1(self):
        mesh = reference_triangle_mesh()
        dm = build_dof_map(mesh, CR)
        local = np.empty((3, 3))
        grad = alpha_part(mesh, dm)
        cd = dm.cell_dofs[0]
        local = grad[np.ix_(cd, cd)]
        assert local == pytest.approx(4.0 * P1_STIFFNESS, abs=1e-14)

    def test_p1_reference_mass(self):
        mesh = reference_triangle_mesh()
        dm = build_dof_map(mesh, P1)
        assert beta_part(mesh, dm) == pytest.approx(P1_MASS, abs=1e-14)

    def test_cr_reference_mass_is_diagonal(self):
        mesh = reference_triangle_mesh()
        dm = build_dof_map(mesh, CR)
        assert beta_part(mesh, dm) == pytest.approx((0.5 / 3.0) * np.eye(3), abs=1e-14)

    def test_alpha_scaling_is_exact(self, get_mesh):
        mesh = get_mesh("lshape", 4)
        dm = build_dof_map(mesh, P1)
        a1 = assemble_stiffness(mesh, dm,
                                CoefficientField(affine(1.0), affine(1.0))).to_csr().toarray()
        a3 = assemble_stiffness(mesh, dm,
                                CoefficientField(affine(3.0), affine(1.0))).to_csr().toarray()
        a5 = assemble_stiffness(mesh, dm,
                                CoefficientField(affine(5.0), affine(1.0))).to_csr().toarray()
        assert a5 - a1 == pytest.approx(2.0 * (a3 - a1), rel=1e-15)

    def test_p1_boundary_edge_block(self):
        mesh = reference_triangle_mesh(boundary_local_edges=(2,))
        dm = build_dof_map(mesh, P1)
        b = assemble_boundary_mass(mesh, dm).to_csr().toarray()
        expected = np.zeros((3, 3))
        expected[:2, :2] = (1.0 / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        assert b == pytest.approx(expected, abs=1e-16)

    def test_cr_boundary_edge_block(self):
        mesh = reference_triangle_mesh(boundary_local_edges=(2,))
        dm = build_dof_map(mesh, CR)
        b = assemble_boundary_mass(mesh, dm).to_csr().toarray()
        # Dof 0 is the midpoint of the boundary edge (0,0)-(1,0); its trace
        # is identically 1 there, the other two traces are +-(2t - 1).
        expected = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0 / 3.0, -1.0 / 3.0],
            [0.0, -1.0 / 3.0, 1.0 / 3.0],
        ])
        assert b == pytest.approx(expected, abs=1e-15)

    def test_hypotenuse_boundary_block_scales_with_length(self):
        mesh = reference_triangle_mesh(boundary_local_edges=(0,))
        dm = build_dof_map(mesh, P1)
        b = assemble_boundary_mass(mesh, dm).to_csr().toarray()
        length = math.sqrt(2.0)
        expected = np.zeros((3, 3))
        expected[1:, 1:] = (length / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        assert b == pytest.approx(expected, abs=1e-15)


class TestQuadratureRules:
    def test_triangle_rule_is_degree_two_exact(self):
        # Reference triangle integrals: 1 -> 1/2, x -> 1/6, x^2 -> 1/12, xy -> 1/24.
        pts = TRIANGLE_QUADRATURE_BARY @ np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w = 0.5 / 3.0
        assert w * len(pts) == pytest.approx(0.5)
        assert (w * pts[:, 0]).sum() == pytest.approx(1.0 / 6.0)
        assert (w * pts[:, 0] ** 2).sum() == pytest.approx(1.0 / 12.0)
        assert (w * pts[:, 0] * pts[:, 1]).sum() == pytest.approx(1.0 / 24.0)

    def test_edge_rule_is_degree_three_exact(self):
        for degree, exact in ((0, 1.0), (1, 0.5), (2, 1.0 / 3.0), (3, 0.25)):
            got = (EDGE_GAUSS_WEIGHTS * EDGE_GAUSS_POINTS**degree).sum()
            assert got == pytest.approx(exact, rel=1e-15)
        quartic = (EDGE_GAUSS_WEIGHTS * EDGE_GAUSS_POINTS**4).sum()
        assert quartic != pytest.approx(0.2, rel=1e-6)


class TestDofMap:
    def test_counts(self, get_dofmap):
        assert get_dofmap("square", 2, P1).n_dofs == 9
        assert get_dofmap("square", 2, CR).n_dofs == 16
        assert get_dofmap("slit", 2, P1).n_dofs == 10

    def test_unknown_family_rejected(self, get_mesh):
        with pytest.raises(ValueError, match="unknown element family"):
            build_dof_map(get_mesh("square", 2), "p2")

    def test_cr_dofs_sit_at_opposite_edge_midpoints(self, get_mesh, get_dofmap):
        # Every triangle around a dof puts it at the same midpoint.
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, CR)
        points = dof_points(mesh, dm)
        for tri in range(mesh.n_triangles):
            for loc, (a, b) in enumerate(LOCAL_EDGES):
                va, vb = mesh.triangles[tri, a], mesh.triangles[tri, b]
                midpoint = 0.5 * (mesh.vertices[va] + mesh.vertices[vb])
                assert points[dm.cell_dofs[tri, loc]] == pytest.approx(midpoint)

    def test_cr_neighbours_share_exactly_one_dof(self, get_dofmap):
        # Triangles 2s and 2s + 1 halve grid square s = 5, i.e. (1, 1) at level 4.
        dm = get_dofmap("square", 4, CR)
        shared = set(dm.cell_dofs[10]) & set(dm.cell_dofs[11])
        assert len(shared) == 1

    def test_cr_slit_midpoints_duplicated(self, get_mesh, get_dofmap):
        points = dof_points(get_mesh("slit", 4), get_dofmap("slit", 4, CR))
        on_slit = (points[:, 1] == 0.5) & (points[:, 0] > 0.5)
        assert on_slit.sum() == 4  # two edges per slit side at level 4

    def test_p1_boundary_dofs_are_boundary_vertices(self, get_mesh, get_dofmap):
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, P1)
        expected = np.unique(mesh.boundary_edge_vertices())
        assert np.array_equal(dm.boundary_dofs, expected)

    def test_cr_boundary_dofs_cover_boundary_triangles(self, get_mesh, get_dofmap):
        mesh = get_mesh("slit", 4)
        dm = get_dofmap("slit", 4, CR)
        expected = np.unique(dm.cell_dofs[mesh.boundary_edges[:, 0]].ravel())
        assert np.array_equal(dm.boundary_dofs, expected)

    @pytest.mark.parametrize("kind, level", [
        *(pytest.param(kind, 8, id=kind) for kind in KINDS),
        *(pytest.param(kind, MULTI_BLOCK_LEVEL, id=f"{kind}-{MULTI_BLOCK_LEVEL}") for kind in KINDS),
    ])
    def test_cr_edges_numbered_lexicographically(self, get_mesh, get_dofmap, kind, level):
        mesh = get_mesh(kind, level)
        dm = get_dofmap(kind, level, CR)
        tris = mesh.triangles
        heads, tails = tris[:, [1, 2, 0]], tris[:, [2, 0, 1]]
        keys = np.minimum(heads, tails) * mesh.n_vertices + np.maximum(heads, tails)
        expected = np.searchsorted(np.unique(keys), keys)
        assert dm.cell_dofs.dtype == expected.dtype
        assert np.array_equal(dm.cell_dofs, expected)

    @pytest.mark.parametrize("kind", KINDS)
    def test_p1_map_shares_the_mesh_arrays(self, get_mesh, get_dofmap, kind):
        mesh = get_mesh(kind, 8)
        p1, cr = get_dofmap(kind, 8, P1), get_dofmap(kind, 8, CR)
        assert np.shares_memory(p1.cell_dofs, mesh.triangles)
        assert not np.shares_memory(cr.cell_dofs, mesh.triangles)

    def test_cr_map_retains_only_its_arrays(self, get_mesh):
        # No per-edge geometry stays alive with the map: only its own
        # arrays, give or take 64 KiB (an n_dofs x 2 array is 770 KiB here).
        mesh = get_mesh("slit", 128)
        dm, retained = retained_bytes(lambda: build_dof_map(mesh, CR))
        assert retained <= dm.cell_dofs.nbytes + dm.boundary_dofs.nbytes + 64 * 1024

    def test_p1_slit_duplicates_are_distinct_dofs(self, get_mesh, get_dofmap):
        mesh = get_mesh("slit", 4)
        dm = get_dofmap("slit", 4, P1)
        assert dm.n_dofs == mesh.n_vertices  # duplicated vertices kept apart


class TestAssemblyInvariants:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("family", (P1, CR))
    def test_exact_symmetry_and_canonical_storage(self, get_mesh, get_dofmap, kind, family):
        mesh = get_mesh(kind, 4)
        dm = get_dofmap(kind, 4, family)
        a = assemble_stiffness(mesh, dm)
        assert sp.tril(a.upper, k=-1).nnz == 0
        assert a.upper.has_canonical_format
        dense = a.to_csr().toarray()
        assert np.array_equal(dense, dense.T)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("family", (P1, CR))
    def test_patch_test_alpha_annihilates_constants(self, get_mesh, get_dofmap, kind, family):
        mesh = get_mesh(kind, 4)
        dm = get_dofmap(kind, 4, family)
        ones = np.ones(dm.n_dofs)
        coeff_a = CoefficientField(alpha=affine(0.7, 2.0, 1.0), beta=affine(1.0))
        coeff_b = CoefficientField(alpha=affine(4.0, -1.0, 0.5), beta=affine(1.0))
        va = assemble_stiffness(mesh, dm, coeff_a).to_csr() @ ones
        vb = assemble_stiffness(mesh, dm, coeff_b).to_csr() @ ones
        assert va == pytest.approx(vb, abs=1e-12)

    @pytest.mark.parametrize("kind,p_sq", [
        ("square", 8.0 / 3.0), ("lshape", 15.0 / 8.0), ("slit", 8.0 / 3.0),
    ])
    @pytest.mark.parametrize("family", (P1, CR))
    def test_galerkin_energy_of_linear(self, get_mesh, get_dofmap, kind, p_sq, family):
        # p = 1 + 2 x1 - x2 interpolates exactly; |grad p|^2 = 5 and the
        # analytic integrals of p^2 are precomputed per domain.
        mesh = get_mesh(kind, 4)
        dm = get_dofmap(kind, 4, family)
        pts = dof_points(mesh, dm)
        p = 1.0 + 2.0 * pts[:, 0] - pts[:, 1]
        alpha, beta = 2.0, 3.0
        a = assemble_stiffness(mesh, dm, CoefficientField(affine(alpha), affine(beta)))
        energy = float(p @ (a.to_csr() @ p))
        expected = alpha * 5.0 * mesh.domain.area + beta * p_sq
        assert energy == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("family", (P1, CR))
    def test_b_of_ones_is_perimeter(self, get_mesh, get_dofmap, kind, family):
        mesh = get_mesh(kind, 8)
        dm = get_dofmap(kind, 8, family)
        b = assemble_boundary_mass(mesh, dm)
        ones = np.ones(dm.n_dofs)
        assert float(ones @ (b.to_csr() @ ones)) == pytest.approx(mesh.domain.perimeter,
                                                                 rel=1e-12)

    @pytest.mark.parametrize("family", (P1, CR))
    def test_boundary_mass_supported_on_boundary_dofs(self, get_mesh, get_dofmap, family):
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, family)
        b = assemble_boundary_mass(mesh, dm).to_csr()
        interior = np.setdiff1d(np.arange(dm.n_dofs), dm.boundary_dofs)
        assert np.abs(b[interior]).sum() == 0.0
        assert np.abs(b[:, interior]).sum() == 0.0

    def test_affine_coefficients_match_manual_quadrature(self, get_mesh, get_dofmap):
        # Midpoint-rule assembly with affine alpha equals the analytic
        # integral of alpha over each triangle times the constant gradients.
        mesh = get_mesh("square", 2)
        dm = get_dofmap("square", 2, P1)
        coeff = CoefficientField(alpha=affine(1.0, 2.0, 3.0), beta=affine(1e-9))
        a = assemble_stiffness(mesh, dm, coeff).to_csr().toarray()
        corners = mesh.vertices[mesh.triangles]
        manual = np.zeros_like(a)
        for t in range(mesh.n_triangles):
            c = corners[t]
            area = 0.5 * abs(np.linalg.det(np.column_stack([c[1] - c[0], c[2] - c[0]])))
            # Rows of M^-1 give lambda_i = const + grad . (x, y) coefficients,
            # where M = [[1,1,1], [x0,x1,x2], [y0,y1,y2]].
            grads = np.linalg.inv(np.column_stack([np.ones(3), c]).T)[:, 1:]
            centroid = c.mean(axis=0)
            bar_alpha = 1.0 + 2.0 * centroid[0] + 3.0 * centroid[1]
            local = bar_alpha * area * grads @ grads.T
            idx = dm.cell_dofs[t]
            manual[np.ix_(idx, idx)] += local
        assert a == pytest.approx(manual, abs=1e-9)


class TestSixEntryKernel:
    @pytest.mark.parametrize("kind", KINDS)
    def test_multi_block_level_spans_three_blocks(self, get_mesh, kind):
        n = get_mesh(kind, MULTI_BLOCK_LEVEL).n_triangles
        assert n > 2 * ASSEMBLY_BLOCK
        assert n % ASSEMBLY_BLOCK

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("family", (P1, CR))
    def test_identical_to_einsum_oracle_at_level_8(self, get_mesh, get_dofmap, kind, family):
        mesh, dm = get_mesh(kind, 8), get_dofmap(kind, 8, family)
        got = assemble_stiffness(mesh, dm, AFFINE_COEFFICIENTS)
        want = einsum_stiffness(mesh, dm, AFFINE_COEFFICIENTS)
        assert np.array_equal(got.upper.indptr, want.upper.indptr)
        assert np.array_equal(got.upper.indices, want.upper.indices)
        assert np.array_equal(got.upper.data, want.upper.data)

    @pytest.mark.parametrize("level", (6, 10, MULTI_BLOCK_LEVEL))
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("family", (P1, CR))
    def test_matches_einsum_oracle_off_powers_of_two(self, get_mesh, get_dofmap, kind, family, level):
        mesh, dm = get_mesh(kind, level), get_dofmap(kind, level, family)
        got = assemble_stiffness(mesh, dm, AFFINE_COEFFICIENTS)
        want = einsum_stiffness(mesh, dm, AFFINE_COEFFICIENTS)
        assert np.array_equal(got.upper.indptr, want.upper.indptr)
        assert np.array_equal(got.upper.indices, want.upper.indices)
        scale = np.abs(want.upper.data).max()
        assert np.abs(got.upper.data - want.upper.data).max() <= 1e-15 * scale


class TestCoefficientValidation:
    def test_alpha_must_be_positive(self, get_mesh, get_dofmap):
        mesh = get_mesh("square", 4)
        dm = get_dofmap("square", 4, P1)
        bad = CoefficientField(alpha=affine(0.2, -1.0, 0.0), beta=affine(1.0))
        with pytest.raises(InvalidCoefficientError, match="alpha"):
            assemble_stiffness(mesh, dm, bad)

    @pytest.mark.parametrize("family", (P1, CR))
    def test_message_names_first_bad_quadrature_point(self, get_mesh, get_dofmap, family):
        # alpha = 0.2 - x1 is smallest at every quadrature point on x1 = 1;
        # the message names the first in (triangle, point) order.
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, family)
        bad = CoefficientField(alpha=affine(0.2, -1.0, 0.0), beta=affine(1.0))
        expected = "coefficient alpha is -0.8 <= 0 at quadrature point (1, 0.125)"
        with pytest.raises(InvalidCoefficientError, match=f"^{re.escape(expected)}$"):
            assemble_stiffness(mesh, dm, bad)

    @pytest.mark.parametrize("family", (P1, CR))
    def test_message_names_the_mesh_minimum_past_the_first_bad_block(self, get_mesh, get_dofmap,
                                                                    family):
        # alpha = 0.2 - x2 first fails on the row at y = 0.2, about a quarter
        # into the triangle order, but is smallest on the top row, in the last
        # block; the message names the first point there, as for one block.
        mesh, dm = get_mesh("lshape", 256), get_dofmap("lshape", 256, family)
        assert mesh.n_triangles >= 3 * ASSEMBLY_BLOCK
        bad = CoefficientField(alpha=affine(0.2, 0.0, -1.0), beta=affine(1.0))
        expected = "coefficient alpha is -0.8 <= 0 at quadrature point (0.00195312, 1)"
        with pytest.raises(InvalidCoefficientError, match=f"^{re.escape(expected)}$"):
            assemble_stiffness(mesh, dm, bad)

    def test_beta_must_be_positive(self, get_mesh, get_dofmap):
        mesh = get_mesh("square", 4)
        dm = get_dofmap("square", 4, P1)
        bad = CoefficientField(alpha=affine(1.0), beta=affine(-1.0))
        with pytest.raises(InvalidCoefficientError, match="beta"):
            assemble_stiffness(mesh, dm, bad)

    def test_zero_constant_rejected(self, get_mesh, get_dofmap):
        mesh = get_mesh("square", 4)
        dm = get_dofmap("square", 4, P1)
        with pytest.raises(InvalidCoefficientError):
            assemble_stiffness(mesh, dm, CoefficientField(affine(0.0), affine(1.0)))

    @pytest.mark.parametrize("level, coeff", (
        (2, CoefficientField(alpha=affine(np.inf), beta=affine(1.0))),
        (2, CoefficientField(alpha=affine(1.0), beta=affine(np.inf))),
        # Finite, but the element contributions overflow when summed.
        (16, CoefficientField(alpha=affine(1e308), beta=affine(1.0)))))
    def test_non_finite_stiffness_rejected(self, get_mesh, get_dofmap, level, coeff):
        mesh, dm = get_mesh("square", level), get_dofmap("square", level, P1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidCoefficientError, match="non-finite entries"):
                assemble_stiffness(mesh, dm, coeff)

    def test_unit_default(self, get_mesh, get_dofmap):
        mesh = get_mesh("square", 2)
        dm = get_dofmap("square", 2, P1)
        a_default = assemble_stiffness(mesh, dm).to_csr().toarray()
        a_unit = assemble_stiffness(mesh, dm, UNIT_COEFFICIENTS).to_csr().toarray()
        assert np.array_equal(a_default, a_unit)


class TestSymSparse:
    # Assembly scatters element entries by the six local pairs (0, 0), (1, 1),
    # (2, 2), (0, 1), (0, 2), (1, 2); every entry left zero here is dropped.
    def test_unordered_pairs_fold_together(self):
        # Local pair (0, 1) is dof pair (0, 1) in the first triangle, (1, 0) in the second.
        m = _scatter(np.array([[0, 1, 2], [1, 0, 2]]),
                     np.array([[0.0, 0.0, 0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, 3.0, 0.0, 0.0]]), 3)
        assert m.nnz == 1
        assert m.upper[0, 1] == 5.0 and m.upper[1, 0] == 0.0

    def test_exact_zeros_dropped(self):
        m = _scatter(np.array([[0, 1, 2], [0, 1, 2]]),
                     np.array([[0.0, 2.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0, 0.0, 0.0]]), 3)
        assert m.nnz == 1
        assert m.to_csr().toarray() == pytest.approx(np.diag([0.0, 2.0, 0.0]))

    def test_matmul_matches_dense(self):
        # The full CSR form is the upper triangle plus its strict transpose.
        rng = np.random.default_rng(7)
        rows, cols, values = [0, 1, 2, 0], [1, 2, 3, 3], [1.0, -2.0, 0.5, 4.0]
        m = sym_sparse(4, rows, cols, values)
        dense = np.zeros((4, 4))
        dense[rows, cols] = values
        x = rng.standard_normal((4, 2))
        assert m.to_csr() @ x == pytest.approx((dense + dense.T) @ x, rel=1e-15)

    def test_stores_only_the_upper_triangle(self):
        # The dimension is read off the matrix, so the two cannot disagree.
        assert [f.name for f in dataclasses.fields(SymSparse)] == ["upper", "_csr"]
        m = sym_sparse(4, [0, 1], [1, 2], [1.0, 2.0])
        assert m.dimension == m.upper.shape[0] == 4

    def test_write_matrix_round_trip(self):
        m = sym_sparse(3, [0, 1, 0], [0, 1, 2], [3.0, 4.0, 0.125])
        buf = io.StringIO()
        write_matrix(m, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == f"matrix 3 {m.nnz}"
        entries = [ln.split() for ln in lines[1:]]
        assert all(e[0] == "e" for e in entries)
        got = {(int(e[1]), int(e[2])): float(e[3]) for e in entries}
        assert got == {(0, 0): 3.0, (1, 1): 4.0, (0, 2): 0.125}


class TestEvaluate:
    def test_p1_reproduces_linears(self, get_mesh, get_dofmap):
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, P1)
        values = mesh.vertices[:, 0]
        tris = np.array([0, 5, 11])
        bary = np.tile([0.2, 0.3, 0.5], (len(tris), 1))
        points = np.einsum("tc,tcd->td", bary, mesh.vertices[mesh.triangles[tris]])
        assert evaluate_fe_many(values, dm, tris, bary) == pytest.approx(points[:, 0])

    def test_cr_reproduces_linears(self, get_mesh, get_dofmap):
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, CR)
        values = dof_points(mesh, dm)[:, 0]
        tris = np.array([0, 7, 13])
        bary = np.tile([0.1, 0.6, 0.3], (len(tris), 1))
        points = np.einsum("tc,tcd->td", bary, mesh.vertices[mesh.triangles[tris]])
        assert evaluate_fe_many(values, dm, tris, bary) == pytest.approx(points[:, 0])

    def test_hat_function_vanishes_at_opposite_midpoint(self, get_mesh, get_dofmap):
        mesh = get_mesh("square", 2)
        dm = get_dofmap("square", 2, P1)
        tri = 0
        values = np.zeros(dm.n_dofs)
        values[mesh.triangles[tri, 0]] = 1.0
        assert evaluate_fe_many(values, dm, tri, np.array([0.0, 0.5, 0.5])) == 0.0

    def test_triangle_index_out_of_range(self, get_mesh, get_dofmap):
        dm = get_dofmap("square", 2, P1)
        values = np.zeros(dm.n_dofs)
        with pytest.raises(IndexError):
            evaluate_fe_many(values, dm, np.array([999]), np.array([[1.0, 0.0, 0.0]]))

    def test_cr_is_double_valued_on_interior_edges(self, get_dofmap):
        dm = get_dofmap("square", 2, CR)
        rng = np.random.default_rng(3)
        values = rng.standard_normal(dm.n_dofs)
        lower, upper = 0, 1  # the halves of grid square 0
        shared = (set(dm.cell_dofs[lower]) & set(dm.cell_dofs[upper])).pop()
        loc_lower = list(dm.cell_dofs[lower]).index(shared)
        loc_upper = list(dm.cell_dofs[upper]).index(shared)

        def at(tri, loc, t):
            e0, e1 = LOCAL_EDGES[loc]
            bary = np.zeros(3)
            bary[e0], bary[e1] = 1.0 - t, t
            return evaluate_fe_many(values, dm, tri, bary)

        # At the shared midpoint the two traces agree ...
        assert at(lower, loc_lower, 0.5) == pytest.approx(at(upper, loc_upper, 0.5), rel=1e-14)
        # ... but generically nowhere else along the edge.
        off_lower = at(lower, loc_lower, 0.25)
        off_upper_a = at(upper, loc_upper, 0.25)
        off_upper_b = at(upper, loc_upper, 0.75)
        assert abs(off_lower - off_upper_a) > 1e-8 or abs(off_lower - off_upper_b) > 1e-8

    def test_evaluate_many_matches_scalar(self, get_mesh, get_dofmap):
        # A batch, and a block of points per triangle broadcast against the
        # triangles, agree with evaluating one point at a time.
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, CR)
        rng = np.random.default_rng(11)
        values = rng.standard_normal(dm.n_dofs)
        tris = np.array([0, 3, 9])
        bary = rng.dirichlet(np.ones(3), size=(3, 2))
        expected = np.array([[evaluate_fe_many(values, dm, t, b) for b in pts]
                             for t, pts in zip(tris, bary)])
        assert evaluate_fe_many(values, dm, tris[:, None], bary) == pytest.approx(
            expected, rel=1e-14)
        assert evaluate_fe_many(values, dm, tris, bary[:, 0]) == pytest.approx(
            expected[:, 0], rel=1e-14)
