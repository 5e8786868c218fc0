import math

import numpy as np
import pytest
import scipy.sparse as sp

from steklovfem import (
    AmbiguousAlignmentError,
    CR,
    ConvergenceFailureError,
    DomainSpec,
    FeFunction,
    NestingError,
    P1,
    Pencil,
    PointFunction,
    ReferenceSpec,
    UNIT_COEFFICIENTS,
    UndefinedRatioError,
    align_sign,
    assemble_boundary_mass,
    assemble_stiffness,
    boundary_l2_error,
    build_dof_map,
    compute_reference,
    convergence_ratio,
    generate_mesh,
    interpolate_cr,
    interpolate_p1,
    run_convergence_study,
    singular_model,
    solve_pencil,
    transfer_reference,
)
from steklovfem.analysis import _paired_boundary_values, _richardson_fit, _solve_mesh
from steklovfem.eigen import DEFAULT_SEED, DEFAULT_TOL
from steklovfem.fem import EDGE_GAUSS_BARY, EDGE_GAUSS_WEIGHTS, evaluate_fe_many
from steklovfem.mesh import _prolongation, ancestor_map

from _utils import GAUSS2, boundary_edge_data, boundary_error_brute, eval_fe_brute


def p1_interpolant(mesh, f):
    dm = build_dof_map(mesh, P1)
    return FeFunction(mesh=mesh, dofmap=dm, values=interpolate_p1(mesh, dm, f))


def cr_interpolant(mesh, f):
    dm = build_dof_map(mesh, CR)
    return FeFunction(mesh=mesh, dofmap=dm, values=interpolate_cr(mesh, dm, f))


def no_solve(*args, **kwargs):
    raise AssertionError("no solve may run before the inputs are checked")


def random_fe(mesh, family, seed):
    dm = build_dof_map(mesh, family)
    rng = np.random.default_rng(seed)
    return FeFunction(mesh=mesh, dofmap=dm, values=rng.standard_normal(dm.n_dofs))


class TestFeFunction:
    def test_value_shape_checked(self, get_mesh, get_dofmap):
        mesh = get_mesh("square", 2)
        dm = get_dofmap("square", 2, P1)
        with pytest.raises(ValueError, match="dof values"):
            FeFunction(mesh=mesh, dofmap=dm, values=np.zeros(dm.n_dofs + 1))

    def test_dofmap_mesh_consistency_checked(self, get_mesh, get_dofmap):
        dm2 = get_dofmap("square", 2, P1)
        mesh4 = get_mesh("square", 4)
        with pytest.raises(ValueError, match="does not belong"):
            FeFunction(mesh=mesh4, dofmap=dm2, values=np.zeros(dm2.n_dofs))

    def test_negated(self, get_mesh):
        fn = random_fe(get_mesh("square", 2), P1, seed=0)
        assert np.array_equal(fn.negated().values, -fn.values)


def zero_fe(mesh):
    dm = build_dof_map(mesh, P1)
    return FeFunction(mesh=mesh, dofmap=dm, values=np.zeros(dm.n_dofs))


def stiffness_norm(fn):
    """The broken H1 norm, as the quadratic form of the unit-coefficient stiffness."""
    a = assemble_stiffness(fn.mesh, fn.dofmap).to_csr()
    return math.sqrt(fn.values @ (a @ fn.values))


class TestBoundaryL2Norm:
    """The boundary L2 norm is the distance to a zero function."""

    def test_constant_on_square(self, get_mesh):
        mesh = get_mesh("square", 4)
        assert boundary_l2_error(zero_fe(mesh), lambda x, y: np.ones_like(x)) == pytest.approx(
            2.0, rel=1e-12)

    def test_constant_on_slit(self, get_mesh):
        # The slit contributes both sides: perimeter 5, norm sqrt(5).
        mesh = get_mesh("slit", 4)
        assert boundary_l2_error(zero_fe(mesh), lambda x, y: np.ones_like(x)) == pytest.approx(
            math.sqrt(5.0), rel=1e-12)

    def test_fe_function_path(self, get_mesh):
        mesh = get_mesh("lshape", 4)
        fn = p1_interpolant(mesh, lambda x, y: np.ones_like(x))
        assert boundary_l2_error(fn, zero_fe(mesh)) == pytest.approx(2.0, rel=1e-12)  # perimeter 4

    def test_norm_squared_equals_b_quadratic_form(self, get_mesh, get_pencil):
        mesh = get_mesh("lshape", 8)
        pencil = get_pencil("lshape", 8, P1)
        fn = random_fe(mesh, P1, seed=1)
        quad = float(fn.values @ (pencil.b @ fn.values))
        assert boundary_l2_error(fn, zero_fe(mesh)) ** 2 == pytest.approx(quad, rel=1e-12)

    def test_normalized_eigenvector_has_unit_trace_norm(self, get_mesh, get_pencil):
        mesh = get_mesh("lshape", 8)
        pencil = get_pencil("lshape", 8, P1)
        sol = solve_pencil(pencil, 2)
        fn = FeFunction(mesh=mesh, dofmap=build_dof_map(mesh, P1),
                        values=sol.eigenvectors[:, 1])
        assert boundary_l2_error(fn, zero_fe(mesh)) == pytest.approx(1.0, abs=1e-10)


class TestBrokenH1Norm:
    """With unit coefficients the stiffness matrix is the broken H1 inner product."""

    def test_constant_on_square(self, get_mesh):
        fn = p1_interpolant(get_mesh("square", 4), lambda x, y: np.ones_like(x))
        assert stiffness_norm(fn) == pytest.approx(1.0, rel=1e-12)

    def test_linear_on_square(self, get_mesh):
        fn = p1_interpolant(get_mesh("square", 4), lambda x, y: x)
        assert stiffness_norm(fn) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)

    def test_constant_on_lshape(self, get_mesh):
        fn = p1_interpolant(get_mesh("lshape", 4), lambda x, y: np.ones_like(x))
        assert stiffness_norm(fn) == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_cr_linear_on_lshape(self, get_mesh):
        # int(x^2) over the L-shape is 3/16; the gradient part adds the area.
        fn = cr_interpolant(get_mesh("lshape", 4), lambda x, y: x)
        assert stiffness_norm(fn) == pytest.approx(math.sqrt(0.75 + 3.0 / 16.0), rel=1e-12)


class TestTransfer:
    def test_constant_transfers_exactly(self, get_mesh):
        coarse, fine = get_mesh("square", 4), get_mesh("square", 8)
        u = p1_interpolant(coarse, lambda x, y: np.ones_like(x))
        ref = p1_interpolant(fine, lambda x, y: np.ones_like(x))
        trace = transfer_reference(ref, coarse)
        assert boundary_l2_error(u, trace) == pytest.approx(0.0, abs=1e-13)

    def test_linear_transfers_exactly_two_hops(self, get_mesh):
        coarse, fine = get_mesh("lshape", 4), get_mesh("lshape", 16)
        u = p1_interpolant(coarse, lambda x, y: 2.0 * x - y)
        ref = p1_interpolant(fine, lambda x, y: 2.0 * x - y)
        trace = transfer_reference(ref, coarse)
        assert trace.coarse_mesh.level == 4
        assert boundary_l2_error(u, trace) == pytest.approx(0.0, abs=1e-12)

    def test_linear_transfers_exactly_odd_ratio(self, get_mesh):
        coarse, fine = get_mesh("slit", 4), get_mesh("slit", 12)
        u = cr_interpolant(coarse, lambda x, y: 2.0 * x - y)
        ref = p1_interpolant(fine, lambda x, y: 2.0 * x - y)
        assert boundary_l2_error(u, transfer_reference(ref, coarse)) == pytest.approx(0.0, abs=1e-12)

    def test_cr_against_p1_reference(self, get_mesh):
        coarse, fine = get_mesh("slit", 4), get_mesh("slit", 8)
        u = cr_interpolant(coarse, lambda x, y: x + y)
        ref = p1_interpolant(fine, lambda x, y: x + y)
        trace = transfer_reference(ref, coarse)
        assert boundary_l2_error(u, trace) == pytest.approx(0.0, abs=1e-12)

    def test_same_level_degenerates_to_same_mesh(self, get_mesh):
        mesh = get_mesh("square", 4)
        u = p1_interpolant(mesh, lambda x, y: x)
        trace = transfer_reference(u, mesh)
        assert trace.coarse_mesh is mesh
        assert np.array_equal(trace._coarse_tris[:, 0], mesh.boundary_edges[:, 0])
        assert np.array_equal(trace._coarse_bary, EDGE_GAUSS_BARY[mesh.boundary_edges[:, 1]])
        assert boundary_l2_error(u, trace) == pytest.approx(0.0, abs=1e-14)

    def test_coarse_mesh_of_other_domain_rejected(self, get_mesh):
        ref = p1_interpolant(get_mesh("square", 16), lambda x, y: x)
        for kind in ("lshape", "slit"):
            with pytest.raises(NestingError, match="does not refine"):
                transfer_reference(ref, get_mesh(kind, 4))

    def test_coarse_level_must_divide_reference_level(self, get_mesh):
        ref16 = p1_interpolant(get_mesh("square", 16), lambda x, y: x)
        for level in (6, 32):
            with pytest.raises(NestingError, match="does not refine"):
                transfer_reference(ref16, get_mesh("square", level))

    def test_coarse_mesh_mismatch(self, get_mesh):
        # A function on any mesh but the trace's coarse mesh is refused,
        # whether its level or its domain differs.
        coarse, fine = get_mesh("square", 4), get_mesh("square", 8)
        trace = transfer_reference(p1_interpolant(fine, lambda x, y: x), coarse)
        for mesh in (get_mesh("square", 8), get_mesh("lshape", 4)):
            with pytest.raises(ValueError, match="different mesh"):
                align_sign(p1_interpolant(mesh, lambda x, y: x), trace)

    def test_mismatched_function_mesh_rejected(self, get_mesh):
        coarse, fine = get_mesh("square", 4), get_mesh("square", 8)
        trace = transfer_reference(p1_interpolant(fine, lambda x, y: x), coarse)
        stranger = p1_interpolant(get_mesh("square", 8), lambda x, y: x)
        with pytest.raises(ValueError, match="different mesh"):
            boundary_l2_error(stranger, trace)


def geometric_pairing(u, ref):
    """Coarse and fine trace values at the fine boundary Gauss points.

    Each point's coarse triangle is the ancestor of its fine triangle, and
    its coarse barycentric coordinates come from solving for it in that
    triangle's corners.
    """
    coarse, fine = u.mesh, ref.mesh
    tris, locs = fine.boundary_edges.T
    bary = EDGE_GAUSS_BARY[locs]
    points = np.einsum("egc,ecd->egd", bary, fine.vertices[fine.triangles[tris]])
    coarse_tris = ancestor_map(coarse, fine)[tris]
    a, b, c = np.moveaxis(coarse.vertices[coarse.triangles[coarse_tris]], 1, 0)
    frame = np.stack([b - a, c - a], axis=-1)[:, None]  # (ne, 1, 2, 2)
    l12 = np.linalg.solve(np.broadcast_to(frame, points.shape + (2,)),
                          (points - a[:, None])[..., None])[..., 0]
    coarse_bary = np.concatenate([1.0 - l12.sum(axis=-1, keepdims=True), l12], axis=-1)
    return (coarse_tris, coarse_bary,
            evaluate_fe_many(u.values, u.dofmap, coarse_tris[:, None], coarse_bary),
            evaluate_fe_many(ref.values, ref.dofmap, tris[:, None], bary))


class TestBoundaryWalkPairing:
    """Fine boundary edge j lies in coarse boundary edge j // r of the same walk."""

    @pytest.mark.parametrize("kind", ("square", "lshape", "slit"))
    @pytest.mark.parametrize("coarse_level", (2, 4, 8))
    @pytest.mark.parametrize("ratio", (1, 2, 3, 4, 8))
    def test_walk_follows_ancestors(self, get_mesh, kind, coarse_level, ratio):
        coarse, fine = get_mesh(kind, coarse_level), get_mesh(kind, ratio * coarse_level)
        ancestors = ancestor_map(coarse, fine)[fine.boundary_edges[:, 0]]
        assert fine.n_boundary_edges == ratio * coarse.n_boundary_edges
        walk = coarse.boundary_edges[np.arange(fine.n_boundary_edges) // ratio, 0]
        assert np.array_equal(ancestors, walk)

    @pytest.mark.parametrize("kind", ("square", "lshape", "slit"))
    @pytest.mark.parametrize("family", (P1, CR))
    @pytest.mark.parametrize("ratio", (1, 2, 3, 4, 8, 64))
    def test_matches_geometric_pairing(self, get_mesh, kind, family, ratio):
        coarse, fine = get_mesh(kind, 4), get_mesh(kind, 4 * ratio)
        u = random_fe(coarse, family, seed=ratio)
        ref = random_fe(fine, P1, seed=ratio + 1)
        trace = transfer_reference(ref, coarse)
        coarse_tris, coarse_bary, u_expected, ref_expected = geometric_pairing(u, ref)
        assert np.array_equal(trace._coarse_tris[:, 0], coarse_tris)
        assert trace._coarse_bary == pytest.approx(coarse_bary, rel=0, abs=1e-15)
        _, u_vals, ref_vals = _paired_boundary_values(u, trace)
        assert u_vals == pytest.approx(u_expected, rel=0, abs=1e-13)
        assert np.array_equal(ref_vals, ref_expected)

    @pytest.mark.parametrize("kind", ("square", "lshape", "slit"))
    @pytest.mark.parametrize("family", (P1, CR))
    def test_ratio_one_is_the_same_mesh_pairing(self, get_mesh, kind, family):
        mesh = get_mesh(kind, 8)
        a, b = random_fe(mesh, family, seed=11), random_fe(mesh, family, seed=12)
        tris, locs = mesh.boundary_edges.T
        bary = EDGE_GAUSS_BARY[locs]
        expected = (mesh.boundary_edge_lengths()[:, None] * EDGE_GAUSS_WEIGHTS[None, :],
                    evaluate_fe_many(a.values, a.dofmap, tris[:, None], bary),
                    evaluate_fe_many(b.values, b.dofmap, tris[:, None], bary))
        for paired in (_paired_boundary_values(a, b),
                       _paired_boundary_values(a, transfer_reference(b, mesh))):
            for got, want in zip(paired, expected):
                assert np.array_equal(got, want)


def geometric_prolongation(coarse, fine):
    """The P1 prolongation from solving for each fine vertex's barycentric
    coordinates in the ancestor of a fine triangle around it, rounded to the
    nearest multiple of 1/r."""
    owner = np.empty(fine.n_vertices, dtype=np.int64)
    owner[fine.triangles.ravel()] = np.repeat(np.arange(fine.n_triangles), 3)
    tris = ancestor_map(coarse, fine)[owner]
    corners = coarse.vertices[coarse.triangles[tris]]
    d1 = corners[..., 1, :] - corners[..., 0, :]
    d2 = corners[..., 2, :] - corners[..., 0, :]
    dp = fine.vertices - corners[..., 0, :]
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    l1 = (dp[..., 0] * d2[..., 1] - dp[..., 1] * d2[..., 0]) / det
    l2 = (d1[..., 0] * dp[..., 1] - d1[..., 1] * dp[..., 0]) / det
    r = fine.level // coarse.level
    bary = np.rint(np.stack([1.0 - l1 - l2, l1, l2], axis=-1) * r) / r
    p = sp.csr_matrix((bary.ravel(), coarse.triangles[tris].ravel(),
                       np.arange(0, bary.size + 1, 3)),
                      shape=(fine.n_vertices, coarse.n_vertices))
    p.eliminate_zeros()
    return p


class TestProlongation:
    @pytest.mark.parametrize("kind", ("square", "lshape", "slit"))
    @pytest.mark.parametrize("ratio", (2, 3, 4, 8, 64))
    def test_matches_geometric_prolongation_bitwise(self, get_mesh, kind, ratio):
        coarse, fine = get_mesh(kind, 4), get_mesh(kind, 4 * ratio)
        got, want = _prolongation(coarse, fine), geometric_prolongation(coarse, fine)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ("square", "lshape", "slit"))
    @pytest.mark.parametrize("coarse_level, fine_level", ((8, 16), (8, 24), (16, 64)))
    def test_linear_functions_transfer_exactly(self, get_mesh, kind, coarse_level, fine_level):
        coarse, fine = get_mesh(kind, coarse_level), get_mesh(kind, fine_level)
        p = _prolongation(coarse, fine)
        f = lambda v: 1.0 + 2.0 * v[:, 0] - 3.0 * v[:, 1]
        assert p @ f(coarse.vertices) == pytest.approx(f(fine.vertices), abs=1e-14)
        assert p.sum(axis=1).A1 == pytest.approx(1.0, abs=1e-15)
        assert np.diff(p.indptr).max() <= 3

    @pytest.mark.parametrize("coarse_level, fine_level", ((8, 16), (8, 24)))
    def test_slit_jump_keeps_both_sides(self, get_mesh, coarse_level, fine_level):
        # (x1 - 1/2)_+ with opposite signs above and below the slit: linear on
        # every triangle, discontinuous only across the slit.
        def jump(mesh):
            x, y = mesh.vertices.T
            above = (y > 0.5) | (mesh.vertex_slit_side > 0)
            return np.where(above, 1.0, -1.0) * np.maximum(x - 0.5, 0.0)

        coarse, fine = get_mesh("slit", coarse_level), get_mesh("slit", fine_level)
        on_slit = fine.vertex_slit_side != 0
        values = _prolongation(coarse, fine) @ jump(coarse)
        assert values == pytest.approx(jump(fine), abs=1e-14)
        assert np.abs(values[on_slit]).min() > 0.0


class TestBoundaryL2Error:
    @pytest.mark.parametrize("kind,family", [
        ("lshape", P1), ("square", P1), ("slit", CR),
    ])
    def test_matches_brute_force_across_levels(self, get_mesh, kind, family):
        coarse, fine = get_mesh(kind, 4), get_mesh(kind, 8)
        u = random_fe(coarse, family, seed=7)
        ref = random_fe(fine, P1, seed=8)
        trace = transfer_reference(ref, coarse)
        got = boundary_l2_error(u, trace)
        expected = boundary_error_brute(u, ref)
        assert got == pytest.approx(expected, rel=1e-12)
        # The trace may sit on either side.
        assert boundary_l2_error(trace, u) == pytest.approx(got, rel=1e-14)

    def test_same_mesh_symmetry(self, get_mesh):
        mesh = get_mesh("lshape", 4)
        a = random_fe(mesh, P1, seed=2)
        b = random_fe(mesh, P1, seed=3)
        assert boundary_l2_error(a, b) == pytest.approx(boundary_l2_error(b, a), rel=1e-15)

    def test_triangle_inequality(self, get_mesh):
        mesh = get_mesh("square", 4)
        a = random_fe(mesh, P1, seed=4)
        b = random_fe(mesh, P1, seed=5)
        c = random_fe(mesh, P1, seed=6)
        assert boundary_l2_error(a, c) <= boundary_l2_error(a, b) + boundary_l2_error(b, c) + 1e-12

    def test_point_function_reference_with_slit_sides(self, get_mesh):
        mesh = get_mesh("slit", 8)
        model = singular_model(mesh.domain)
        u = p1_interpolant(mesh, model)
        got = boundary_l2_error(u, model)
        # Independent quadrature via brute-force evaluation.
        pa, pb, lengths, side = boundary_edge_data(mesh)
        total = 0.0
        for a, b, length, s in zip(pa, pb, lengths, side):
            for t, w in GAUSS2:
                pt = (1.0 - t) * a + t * b
                diff = eval_fe_brute(u, pt, side=int(s)) - float(model(pt[0], pt[1], side=int(s)))
                total += w * length * diff * diff
        assert got == pytest.approx(math.sqrt(total), rel=1e-12)
        assert got > 0.0

    def test_mismatched_same_level_meshes_rejected(self, get_mesh):
        a = p1_interpolant(get_mesh("square", 4), lambda x, y: x)
        b = p1_interpolant(get_mesh("lshape", 4), lambda x, y: x)
        with pytest.raises(ValueError, match="different meshes"):
            boundary_l2_error(a, b)


class TestAlignSign:
    def test_aligned_function_unchanged(self, get_mesh):
        mesh = get_mesh("square", 4)
        u = p1_interpolant(mesh, lambda x, y: np.ones_like(x))
        assert align_sign(u, u) is u

    def test_flipped_function_restored(self, get_mesh):
        mesh = get_mesh("square", 4)
        u = p1_interpolant(mesh, lambda x, y: 1.0 + x)
        flipped = align_sign(u.negated(), u)
        assert np.array_equal(flipped.values, u.values)

    def test_against_transferred_trace(self, get_mesh):
        coarse, fine = get_mesh("lshape", 4), get_mesh("lshape", 8)
        trace = transfer_reference(p1_interpolant(fine, lambda x, y: 1.0 + x), coarse)
        u = p1_interpolant(coarse, lambda x, y: -(1.0 + x))
        aligned = align_sign(u, trace)
        assert np.array_equal(aligned.values, -u.values)

    def test_boundary_zero_function_is_ambiguous(self, get_mesh, get_dofmap):
        mesh = get_mesh("square", 4)
        dm = get_dofmap("square", 4, P1)
        values = np.zeros(dm.n_dofs)
        interior = np.setdiff1d(np.arange(dm.n_dofs), dm.boundary_dofs)
        values[interior[0]] = 1.0
        bump = FeFunction(mesh=mesh, dofmap=dm, values=values)
        ref = p1_interpolant(mesh, lambda x, y: np.ones_like(x))
        with pytest.raises(AmbiguousAlignmentError):
            align_sign(bump, ref)


class TestConvergenceRatio:
    def test_halving_is_first_order(self):
        assert convergence_ratio(0.4, 0.2) == pytest.approx(1.0)

    def test_published_trace_ratio_arithmetic(self):
        assert convergence_ratio(0.02800065, 0.01287370) == pytest.approx(1.12103345, abs=1e-6)

    @pytest.mark.parametrize("coarse,fine", [
        (0.0, 0.1), (0.1, 0.0), (-0.1, 0.1), (math.inf, 0.1), (math.nan, 0.1),
    ])
    def test_undefined_ratios(self, coarse, fine):
        with pytest.raises(UndefinedRatioError):
            convergence_ratio(coarse, fine)


class TestReferenceSpec:
    def test_auto_resolution(self):
        spec = ReferenceSpec()
        assert spec.resolve_mode(DomainSpec("lshape"), 2) == "bracket"
        assert spec.resolve_mode(DomainSpec("slit"), 2) == "bracket"
        assert spec.resolve_mode(DomainSpec("square"), 2) == "richardson"
        assert spec.resolve_mode(DomainSpec("lshape"), 3) == "richardson"

    def test_explicit_mode_wins(self):
        spec = ReferenceSpec(mode="richardson")
        assert spec.resolve_mode(DomainSpec("lshape"), 2) == "richardson"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="reference mode"):
            ReferenceSpec(mode="exact")


class TestComputeReference:
    def test_sign_convention_and_determinism(self):
        ref = compute_reference(DomainSpec("lshape"), 16, eig_index=2)
        again = compute_reference(DomainSpec("lshape"), 16, eig_index=2)
        assert np.array_equal(ref.fn.values, again.fn.values)
        bvals = ref.fn.values[ref.fn.dofmap.boundary_dofs]
        assert bvals[np.argmax(np.abs(bvals))] > 0.0
        assert ref.level == 16 and ref.eig_index == 2

    @pytest.mark.parametrize("level", (64, 10))
    @pytest.mark.parametrize("eig_index", (0, -1))
    def test_eig_index_checked_before_any_solve(self, monkeypatch, level, eig_index):
        import steklovfem.analysis as analysis

        monkeypatch.setattr(analysis, "_solve_mesh", no_solve)
        with pytest.raises(ValueError, match=f"eig_index must be at least 1, got {eig_index}"):
            compute_reference(DomainSpec("lshape"), level, eig_index)

    @pytest.mark.parametrize("tol", (1.0, 0.0))
    def test_tol_checked_before_any_assembly(self, monkeypatch, tol):
        import steklovfem.analysis as analysis

        monkeypatch.setattr(analysis, "assemble_stiffness", no_solve)
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1e-6\]"):
            compute_reference(DomainSpec("slit"), 64, tol=tol)

    @pytest.mark.parametrize("eig_index, start", ((29, 8), (30, None)))
    def test_start_level_holds_the_start_solve(self, solve_mesh_calls, eig_index, start):
        # L-shape level 8 has 32 boundary edges, one P1 boundary dof each: room
        # for the 29 + 3 start pairs of eig_index 29, not the 33 of eig_index 30,
        # whose level-16 reference is then solved directly.
        ref = compute_reference(DomainSpec("lshape"), 16, eig_index=eig_index)
        assert solve_mesh_calls[0][4] == ("factor-free" if start else "direct")
        assert [call[1] for call in solve_mesh_calls[1:]] == ([start] if start else [])
        mesh = ref.fn.mesh
        direct = _solve_mesh(mesh, P1, UNIT_COEFFICIENTS, eig_index, DEFAULT_TOL, DEFAULT_SEED)[1]
        assert ref.lambda_h == pytest.approx(direct.eigenvalues[-1], rel=1e-9)
        if start is None:
            assert ref.lambda_h == direct.eigenvalues[-1]
            assert ref.lambda_h == pytest.approx(35.8476, abs=1e-4)

    def test_one_factor_free_call(self, solve_mesh_calls):
        # The nested call is the direct start solve on the third halving.
        compute_reference(DomainSpec("lshape"), 64, eig_index=2)
        assert solve_mesh_calls == [("lshape", 64, P1, 2, "factor-free", 0),
                                    ("lshape", 8, P1, 5, "direct", 1)]

    @pytest.mark.parametrize("kind, level, start", (
        ("square", 128, 16), ("slit", 64, 8), ("lshape", 256, 32),  # the third halving
        ("lshape", 32, 8), ("square", 16, 8), ("lshape", 36, 18),  # the coarsest level
        ("slit", 6, None)))  # no halving: a direct solve
    def test_start_level(self, solve_mesh_calls, kind, level, start):
        compute_reference(DomainSpec(kind), level, eig_index=1)
        path = "factor-free" if start else "direct"
        assert solve_mesh_calls[0] == (kind, level, P1, 1, path, 0)
        assert [call[1] for call in solve_mesh_calls[1:]] == ([start] if start else [])

    @pytest.mark.parametrize("level, eig_index", ((32, 20), (128, 28)))
    def test_square_reference_with_many_pairs_converges(self, solve_mesh_calls, level,
                                                        eig_index):
        # LOBPCG needs 24 (level 32) and 31 (level 128) iterations here, so
        # a cap of 20 made both fall back to a direct solve.
        ref = compute_reference(DomainSpec("square"), level, eig_index=eig_index)
        assert solve_mesh_calls[0][4:] == ("factor-free", 0)
        mesh, dofmap, u = ref.fn.mesh, ref.fn.dofmap, ref.fn.values
        pencil = Pencil(assemble_stiffness(mesh, dofmap), assemble_boundary_mass(mesh, dofmap))
        au = pencil.a @ u
        residual = np.linalg.norm(au - ref.lambda_h * (pencil.b @ u)) / np.linalg.norm(au)
        assert residual <= DEFAULT_TOL
        assert ref.lambda_h == pytest.approx(solve_pencil(pencil, eig_index).eigenvalues[-1],
                                             rel=1e-12)

    def test_richardson_fit_recovers_exact_model(self):
        levels = [8, 16, 32]
        h = [math.sqrt(2.0) / n for n in levels]
        lams = [3.0 + 5.0 * hh**1.5 for hh in h]
        assert _richardson_fit(levels, lams, 1.5) == pytest.approx(3.0, abs=1e-10)


@pytest.fixture(scope="module")
def square_table():
    return run_convergence_study(
        DomainSpec("square"), P1, [8, 16, 32], eig_index=1,
        reference=ReferenceSpec(level=128))


class TestRunConvergenceStudy:
    def test_table_structure(self, square_table):
        table = square_table
        assert table.reference_mode == "richardson"
        assert table.reference_level == 128
        assert table.expected_lambda_rate == pytest.approx(2.0)
        assert table.expected_u_rate == pytest.approx(1.5)
        assert [row.level for row in table.rows] == [8, 16, 32]
        assert table.rows[0].h == pytest.approx(math.sqrt(2.0) / 8)
        assert table.rows[-1].lambda_ratio is None and table.rows[-1].u_ratio is None
        assert all(row.u_error > 0.0 for row in table.rows)
        assert table.warnings == []

    def test_conforming_lambdas_decrease(self, square_table):
        lams = [row.lambda_h for row in square_table.rows]
        assert lams[0] >= lams[1] >= lams[2]

    def test_csv_round_trip(self, square_table):
        csv = square_table.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "h,lambda,ratio_lambda,err_boundary,ratio_u"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "sqrt2/8"
        assert float(first[1]) == pytest.approx(square_table.rows[0].lambda_h, abs=5e-9)
        assert float(first[2]) == pytest.approx(square_table.rows[0].lambda_ratio, abs=5e-9)
        last = lines[3].split(",")
        assert last[2] == "" and last[4] == ""

    def test_csv_and_markdown_print_the_same_cells(self, square_table):
        csv_rows = [line.split(",") for line in square_table.to_csv().splitlines()[1:]]
        md_rows = [line[2:-2].split(" | ") for line in square_table.to_markdown().splitlines()[2:]]
        assert csv_rows == md_rows
        assert md_rows[-1][2] == "" and md_rows[-1][4] == ""

    def test_markdown_structure(self, square_table):
        md = square_table.to_markdown()
        lines = md.strip().splitlines()
        assert lines[0].startswith("| h | lambda_1 |")
        assert lines[1].startswith("|---")
        assert len(lines) == 5
        assert lines[2].startswith("| sqrt2/8 |")

    def test_deterministic(self, square_table):
        again = run_convergence_study(
            DomainSpec("square"), P1, [8, 16, 32], eig_index=1,
            reference=ReferenceSpec(level=128))
        assert again.to_csv() == square_table.to_csv()

    def test_near_degenerate_pair_warns(self, monkeypatch):
        # The square's second and third eigenvalues differ by O(h^2); widening
        # the cluster tolerance to cover that gap must trigger the warning.
        import steklovfem.analysis as analysis

        monkeypatch.setattr(analysis, "CLUSTER_GAP_TOL", 1e-2)
        table = run_convergence_study(
            DomainSpec("square"), P1, [8, 16, 32], eig_index=2,
            reference=ReferenceSpec(level=64))
        assert any("cluster" in w for w in table.warnings)

    def test_cr_richardson_fits_the_conforming_eigenvalues(self, square_table):
        # A CR study fits the P1 eigenvalues of its own levels, so both families
        # extrapolate from the same conforming solves.
        cr = run_convergence_study(
            DomainSpec("square"), CR, [8, 16, 32], eig_index=1,
            reference=ReferenceSpec(level=128))
        assert cr.reference_mode == "richardson"
        assert cr.reference_lambda == square_table.reference_lambda
        assert [row.lambda_h for row in cr.rows] != [row.lambda_h for row in square_table.rows]

    def test_zero_trace_error_leaves_ratio_undefined(self, monkeypatch):
        import steklovfem.analysis as analysis

        measure = analysis.boundary_l2_error
        monkeypatch.setattr(analysis, "boundary_l2_error",
                            lambda u, ref: 0.0 if u.mesh.level == 32 else measure(u, ref))
        table = run_convergence_study(
            DomainSpec("square"), P1, [8, 16, 32], eig_index=1,
            reference=ReferenceSpec(level=64))
        assert table.warnings == ["level 16: trace error ratio undefined (zero error)"]
        assert table.rows[1].u_ratio is None and table.rows[1].u_error > 0.0
        assert table.rows[0].u_ratio is not None and table.rows[1].lambda_ratio is not None
        assert table.to_csv().splitlines()[2].endswith(",")

    def test_level_validation(self):
        with pytest.raises(ValueError, match="at least one level"):
            run_convergence_study(DomainSpec("square"), P1, [],
                                  reference=ReferenceSpec(level=16))
        with pytest.raises(ValueError, match="must double"):
            run_convergence_study(DomainSpec("square"), P1, [8, 24],
                                  reference=ReferenceSpec(level=128))
        with pytest.raises(ValueError, match="must exceed"):
            run_convergence_study(DomainSpec("square"), P1, [8, 16],
                                  reference=ReferenceSpec(level=16))
        with pytest.raises(ValueError, match="power-of-two multiple"):
            run_convergence_study(DomainSpec("square"), P1, [8],
                                  reference=ReferenceSpec(level=24))
        with pytest.raises(ValueError, match="eig_index"):
            run_convergence_study(DomainSpec("square"), P1, [8], eig_index=0,
                                  reference=ReferenceSpec(level=16))

    @pytest.mark.parametrize("domain,levels,mode,match", [
        ("square", [8, 16, 32, 64, 128], "bracket", "no reference enclosure"),
        ("lshape", [64, 128], "richardson", "three study levels"),
        ("square", [128], "auto", "three study levels"),
    ], ids=("bracket-not-tabulated", "richardson-two-levels", "auto-one-level"))
    def test_unusable_reference_fails_before_any_solve(self, monkeypatch, domain, levels,
                                                       mode, match):
        import steklovfem.analysis as analysis

        monkeypatch.setattr(analysis, "compute_reference", no_solve)
        monkeypatch.setattr(analysis, "_solve_mesh", no_solve)
        with pytest.raises(ValueError, match=match):
            run_convergence_study(DomainSpec(domain), P1, levels,
                                  reference=ReferenceSpec(mode=mode, level=512))

    @pytest.mark.parametrize("family, mode, families", (
        (P1, "bracket", (P1,)), (CR, "richardson", (CR, P1))))
    def test_one_direct_solve_per_level(self, solve_mesh_calls, family, mode, families):
        # A CR Richardson study adds the P1 twin of each fitted level.
        domain = DomainSpec("lshape")
        ref = compute_reference(domain, 64)
        solve_mesh_calls.clear()
        run_convergence_study(domain, family, [8, 16, 32], reference_solution=ref,
                              reference=ReferenceSpec(mode=mode, level=64))
        assert solve_mesh_calls == [("lshape", lvl, f, 3, "direct", 0)
                                    for lvl in (8, 16, 32) for f in families]

    def test_richardson_needs_three_levels(self):
        with pytest.raises(ValueError, match="three study levels"):
            run_convergence_study(DomainSpec("square"), P1, [8, 16],
                                  reference=ReferenceSpec(level=64), eig_index=1)

    def test_reference_solution_reuse_and_validation(self):
        domain = DomainSpec("square")
        ref = compute_reference(domain, 64, eig_index=1)
        table = run_convergence_study(
            domain, P1, [8, 16, 32], eig_index=1,
            reference=ReferenceSpec(level=64), reference_solution=ref)
        fresh = run_convergence_study(
            domain, P1, [8, 16, 32], eig_index=1, reference=ReferenceSpec(level=64))
        assert table.to_csv() == fresh.to_csv()
        with pytest.raises(ValueError, match="does not match"):
            run_convergence_study(domain, P1, [8, 16, 32], eig_index=1,
                                  reference=ReferenceSpec(level=128),
                                  reference_solution=ref)
        with pytest.raises(ValueError, match="does not match"):
            run_convergence_study(DomainSpec("lshape"), P1, [8, 16, 32], eig_index=1,
                                  reference=ReferenceSpec(level=64),
                                  reference_solution=ref)


class TestStudyPath:
    """Fine P1 study levels with few pairs are solved without a factor.

    The threshold is lowered to level 32 here so that a level-64 study
    reaches it; at level 32 the factor-free path starts from level 8.
    """

    STUDY = dict(levels=[8, 16, 32], reference=ReferenceSpec("bracket", 64))

    @pytest.fixture(scope="class")
    def reference(self):
        return compute_reference(DomainSpec("lshape"), 64)

    def study(self, solution, family=P1, **kwargs):
        return run_convergence_study(DomainSpec("lshape"), family, reference_solution=solution,
                                     **{**self.STUDY, **kwargs})

    @pytest.fixture
    def level_32(self, monkeypatch):
        import steklovfem.analysis as analysis

        monkeypatch.setattr(analysis, "FACTOR_FREE_LEVEL", 32)

    def test_fine_p1_levels_go_factor_free(self, reference, level_32, solve_mesh_calls,
                                           monkeypatch):
        from steklovfem import eigen

        factorize, dimensions = eigen.factorize_spd, []

        def tracked(matrix):
            dimensions.append(matrix.shape[0])
            return factorize(matrix)

        monkeypatch.setattr(eigen, "factorize_spd", tracked)
        self.study(reference)
        assert [call for call in solve_mesh_calls if call[5] == 0] == [
            ("lshape", 8, P1, 3, "direct", 0), ("lshape", 16, P1, 3, "direct", 0),
            ("lshape", 32, P1, 3, "factor-free", 0)]
        # Level 32 is left unfactored; levels 8 and 16, the start solve and
        # the V-cycle's coarsest matrix are factored.
        n_32 = build_dof_map(generate_mesh(DomainSpec("lshape"), 32), P1).n_dofs
        assert dimensions and max(dimensions) < n_32

    def test_cr_levels_stay_direct(self, reference, level_32, solve_mesh_calls):
        # Only the P1 twin of the finest fitted level reaches the threshold.
        self.study(reference, family=CR, reference=ReferenceSpec("richardson", 64))
        assert [call[1:5] for call in solve_mesh_calls if call[5] == 0] == [
            (lvl, f, 3, "factor-free" if lvl == 32 and f == P1 else "direct")
            for lvl in (8, 16, 32) for f in (CR, P1)]

    def test_more_pairs_stay_direct(self, level_32, solve_mesh_calls):
        ref = compute_reference(DomainSpec("lshape"), 64, eig_index=3)
        solve_mesh_calls.clear()
        self.study(ref, eig_index=3, reference=ReferenceSpec("richardson", 64))
        assert solve_mesh_calls == [("lshape", lvl, P1, 4, "direct", 0) for lvl in (8, 16, 32)]

    def test_rows_match_direct_solves(self, reference, level_32, solve_mesh_calls, monkeypatch):
        import steklovfem.analysis as analysis

        factor_free = self.study(reference)
        assert solve_mesh_calls[2] == ("lshape", 32, P1, 3, "factor-free", 0)
        monkeypatch.setattr(analysis, "FACTOR_FREE_LEVEL", 64)
        direct = self.study(reference)
        for got, want in zip(factor_free.rows, direct.rows):
            assert got.lambda_h == pytest.approx(want.lambda_h, rel=1e-9)
            assert got.u_error == pytest.approx(want.u_error, abs=1e-8)

    def test_unconverged_level_is_solved_directly(self, reference, level_32, solve_mesh_calls,
                                                  monkeypatch):
        import steklovfem.analysis as analysis
        from steklovfem import eigen

        def failing(pencil, *args):
            raise ConvergenceFailureError("no convergence", np.zeros(3), np.ones(3))

        monkeypatch.setattr(eigen, "_multigrid_eigenpairs", failing)
        table = self.study(reference)
        assert [call[1:5] for call in solve_mesh_calls if call[5] == 0] == [
            (8, P1, 3, "direct"), (16, P1, 3, "direct"), (32, P1, 3, "factor-free, direct")]
        monkeypatch.setattr(analysis, "FACTOR_FREE_LEVEL", 64)
        assert table.to_csv() == self.study(reference).to_csv()

    def test_unconverged_start_solve_is_solved_directly(self, level_32, solve_mesh_calls,
                                                        monkeypatch):
        import steklovfem.analysis as analysis
        from steklovfem import eigen

        def failing_start(pencil, k, **kwargs):
            if k == 3 + analysis.REFERENCE_SPARE_COLUMNS:
                raise ConvergenceFailureError("no convergence", np.zeros(k), np.ones(k))
            return solve_pencil(pencil, k, **kwargs)

        monkeypatch.setattr(eigen, "solve_pencil", failing_start)
        mesh = generate_mesh(DomainSpec("lshape"), 32)
        dofmap, got = analysis._solve_mesh(mesh, P1, UNIT_COEFFICIENTS, 3, DEFAULT_TOL,
                                           DEFAULT_SEED)
        assert solve_mesh_calls == [("lshape", 32, P1, 3, "direct", 0),
                                    ("lshape", 8, P1, 6, "direct", 1)]
        pencil = Pencil(assemble_stiffness(mesh, dofmap), assemble_boundary_mass(mesh, dofmap))
        assert np.array_equal(got.eigenvalues, solve_pencil(pencil, 3).eigenvalues)

    def test_level_128_is_solved_directly(self, solve_mesh_calls):
        import steklovfem.analysis as analysis

        analysis._solve_mesh(generate_mesh(DomainSpec("lshape"), 128), P1, UNIT_COEFFICIENTS, 3,
                             DEFAULT_TOL, DEFAULT_SEED)
        assert solve_mesh_calls == [("lshape", 128, P1, 3, "direct", 0)]

    @pytest.mark.parametrize("kind", ("lshape", "slit"))
    def test_level_256_matches_the_direct_solve(self, kind, solve_mesh_calls):
        # The square's lambda_2 and lambda_3 nearly coincide, so its
        # eigenvectors are not compared.
        import steklovfem.analysis as analysis

        mesh = generate_mesh(DomainSpec(kind), 256)
        dofmap, got = analysis._solve_mesh(mesh, P1, UNIT_COEFFICIENTS, 3, DEFAULT_TOL,
                                           DEFAULT_SEED)
        assert solve_mesh_calls == [(kind, 256, P1, 3, "factor-free", 0),
                                    (kind, 32, P1, 6, "direct", 1)]
        pencil = Pencil(assemble_stiffness(mesh, dofmap), assemble_boundary_mass(mesh, dofmap))
        want = solve_pencil(pencil, 3)
        assert got.eigenvalues == pytest.approx(want.eigenvalues, rel=1e-9)
        u, v = got.eigenvectors[dofmap.boundary_dofs], want.eigenvectors[dofmap.boundary_dofs]
        assert np.abs(u * np.sign(np.einsum("ij,ij->j", u, v)) - v).max() <= 1e-8
