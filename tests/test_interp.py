import math

import numpy as np
import pytest

from steklovfem import (
    CR,
    DomainSpec,
    FeFunction,
    P1,
    PointFunction,
    as_point_function,
    build_dof_map,
    interpolate_cr,
    interpolate_p1,
    singular_model,
)

from _utils import cr_edge_endpoints, dof_points, eval_fe_brute, reference_triangle_mesh

GAUSS4 = np.polynomial.legendre.leggauss(4)


def edge_mean(pa, pb, f):
    """Mean of f over the segment pa-pb, exact through degree 7."""
    nodes, weights = GAUSS4
    t = 0.5 * (nodes + 1.0)
    pts = np.outer(1.0 - t, pa) + np.outer(t, pb)
    return 0.5 * (weights * f(pts[:, 0], pts[:, 1])).sum()


def fe_as_point_function(fn):
    """Re-express an FE function as a point function by brute-force location."""
    def evaluation(x, y, side):
        x, y, side = np.broadcast_arrays(x, y, side)
        out = np.empty(x.shape)
        for idx in np.ndindex(x.shape):
            out[idx] = eval_fe_brute(fn, (x[idx], y[idx]), side=int(side[idx]))
        return out

    return PointFunction(evaluation=evaluation)


class TestPointFunction:
    def test_wraps_plain_callable(self):
        pf = as_point_function(lambda x, y: x + 2.0 * y)
        assert float(pf(0.5, 1.0)) == pytest.approx(2.5)

    def test_broadcasts(self):
        pf = as_point_function(lambda x, y: x * y)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert pf(x, 2.0 * x) == pytest.approx(2.0 * x**2)

    def test_passthrough(self):
        pf = as_point_function(lambda x, y: x)
        assert as_point_function(pf) is pf

    def test_side_argument_reaches_evaluation(self):
        pf = PointFunction(evaluation=lambda x, y, side: np.asarray(side, dtype=float))
        assert float(pf(0.0, 0.0, side=-1)) == -1.0
        assert pf(np.zeros(3), np.zeros(3), side=[-1, 0, 1]) == pytest.approx([-1.0, 0.0, 1.0])


class TestSingularModel:
    def test_square_has_no_model(self):
        with pytest.raises(ValueError, match="reentrant"):
            singular_model(DomainSpec("square"))

    @pytest.mark.parametrize("kind", ("lshape", "slit"))
    def test_vanishes_at_corner(self, kind):
        pf = singular_model(DomainSpec(kind))
        assert float(pf(0.5, 0.5)) == 0.0

    def test_lshape_values(self):
        pf = singular_model(DomainSpec("lshape"))
        # Rightward ray (theta = 0): rho^(2/3).
        assert float(pf(0.8, 0.5)) == pytest.approx(0.3 ** (2.0 / 3.0))
        # Upward ray (theta = 3*pi/2 = omega): cos(pi) factor.
        assert float(pf(0.5, 0.9)) == pytest.approx(-(0.4 ** (2.0 / 3.0)))
        # Mid-angle ray theta = 3*pi/4 points into the lower-left diagonal.
        assert float(pf(0.3, 0.3)) == pytest.approx(0.0, abs=1e-12)

    def test_slit_values(self):
        pf = singular_model(DomainSpec("slit"))
        # On the slit the side flag selects the branch: +sqrt(rho) below.
        assert float(pf(0.75, 0.5, side=-1)) == pytest.approx(0.5)
        assert float(pf(0.75, 0.5, side=+1)) == pytest.approx(-0.5)
        # Left of the tip (interior line) the angle is pi: cos(pi/2) = 0.
        assert float(pf(0.25, 0.5)) == pytest.approx(0.0, abs=1e-12)
        # Straight below the tip: theta = pi/2.
        assert float(pf(0.5, 0.25)) == pytest.approx(0.5 * math.cos(math.pi / 4.0))

    def test_slit_branches_are_sqrt_rho(self):
        pf = singular_model(DomainSpec("slit"))
        x = np.array([0.6, 0.7, 0.9])
        rho = x - 0.5
        assert pf(x, np.full(3, 0.5), side=-1) == pytest.approx(np.sqrt(rho))
        assert pf(x, np.full(3, 0.5), side=+1) == pytest.approx(-np.sqrt(rho))


class TestInterpolateP1:
    def test_constant(self, get_mesh, get_dofmap):
        mesh = get_mesh("square", 4)
        dm = get_dofmap("square", 4, P1)
        assert interpolate_p1(mesh, dm, lambda x, y: np.full_like(x, 5.0)) == pytest.approx(
            np.full(dm.n_dofs, 5.0))

    def test_linear_reproduction(self, get_mesh, get_dofmap):
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, P1)
        values = interpolate_p1(mesh, dm, lambda x, y: 2.0 * x - 3.0 * y + 1.0)
        pts = mesh.vertices
        assert values == pytest.approx(2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0)

    def test_requires_p1(self, get_mesh, get_dofmap):
        with pytest.raises(ValueError, match="P1"):
            interpolate_p1(get_mesh("square", 2), get_dofmap("square", 2, CR), lambda x, y: x)

    def test_slit_sides_reach_function(self, get_mesh, get_dofmap):
        mesh = get_mesh("slit", 4)
        dm = get_dofmap("slit", 4, P1)
        pf = PointFunction(evaluation=lambda x, y, side: np.asarray(side, dtype=float))
        assert interpolate_p1(mesh, dm, pf) == pytest.approx(
            mesh.vertex_slit_side.astype(float))

    def test_projection_on_fe_functions(self, get_mesh, get_dofmap):
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, P1)
        rng = np.random.default_rng(5)
        fn = FeFunction(mesh=mesh, dofmap=dm, values=rng.standard_normal(dm.n_dofs))
        again = interpolate_p1(mesh, dm, fe_as_point_function(fn))
        assert again == pytest.approx(fn.values, rel=1e-12, abs=1e-12)


class TestInterpolateCR:
    def test_linear_reproduction(self, get_mesh, get_dofmap):
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, CR)
        values = interpolate_cr(mesh, dm, lambda x, y: 2.0 * x - 3.0 * y + 1.0)
        pts = dof_points(mesh, dm)
        assert values == pytest.approx(2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0)

    def test_quadratic_mean_on_unit_edge(self):
        # The mean of x1^2 over the edge (0,0)-(1,0) is 1/3.
        mesh = reference_triangle_mesh()
        dm = build_dof_map(mesh, CR)
        values = interpolate_cr(mesh, dm, lambda x, y: x**2)
        bottom = np.where((dof_points(mesh, dm)[:, 1] == 0.0))[0]
        assert len(bottom) == 1
        assert values[bottom[0]] == pytest.approx(1.0 / 3.0)

    def test_edge_means_exact_through_cubics(self, get_mesh, get_dofmap):
        mesh = get_mesh("lshape", 2)
        dm = get_dofmap("lshape", 2, CR)

        def f(x, y):
            return (x + 2.0 * y) ** 3 - x * y + 1.0

        values = interpolate_cr(mesh, dm, f)
        ends = cr_edge_endpoints(mesh, dm)
        pa = mesh.vertices[ends[:, 0]]
        pb = mesh.vertices[ends[:, 1]]
        expected = [edge_mean(a, b, f) for a, b in zip(pa, pb)]
        assert values == pytest.approx(expected, rel=1e-12)

    def test_requires_cr(self, get_mesh, get_dofmap):
        with pytest.raises(ValueError, match="CR"):
            interpolate_cr(get_mesh("square", 2), get_dofmap("square", 2, P1), lambda x, y: x)

    def test_slit_sides_reach_function(self, get_mesh, get_dofmap):
        mesh = get_mesh("slit", 4)
        dm = get_dofmap("slit", 4, CR)
        pf = PointFunction(evaluation=lambda x, y, side: np.asarray(side, dtype=float))
        values = interpolate_cr(mesh, dm, pf)
        pts = dof_points(mesh, dm)
        on_slit = (pts[:, 1] == 0.5) & (pts[:, 0] > 0.5)
        assert np.sort(values[on_slit]) == pytest.approx([-1.0, -1.0, 1.0, 1.0])

    def test_projection_on_fe_functions(self, get_mesh, get_dofmap):
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, CR)
        rng = np.random.default_rng(6)
        fn = FeFunction(mesh=mesh, dofmap=dm, values=rng.standard_normal(dm.n_dofs))
        again = interpolate_cr(mesh, dm, fe_as_point_function(fn))
        assert again == pytest.approx(fn.values, rel=1e-12, abs=1e-12)


def boundary_means(mesh, f):
    """Edge means of ``f`` on the boundary edges, in traversal order."""
    dm = build_dof_map(mesh, CR)
    return interpolate_cr(mesh, dm, f)[dm.cell_dofs[mesh.boundary_edges[:, 0],
                                                    mesh.boundary_edges[:, 1]]]


class TestInterpolateBoundaryConstant:
    """The piecewise-constant boundary interpolant: CR values on boundary edges."""

    def test_constant(self, get_mesh):
        mesh = get_mesh("lshape", 4)
        values = boundary_means(mesh, lambda x, y: np.ones_like(x))
        assert values.shape == (mesh.n_boundary_edges,)
        assert values == pytest.approx(np.ones(mesh.n_boundary_edges))

    def test_linear_means_are_midpoint_values(self, get_mesh):
        mesh = get_mesh("lshape", 2)
        values = boundary_means(mesh, lambda x, y: x + 2.0 * y)
        ends = mesh.boundary_edge_vertices()
        mid = 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])
        assert values == pytest.approx(mid[:, 0] + 2.0 * mid[:, 1])

    def test_cubic_means_exact(self, get_mesh):
        mesh = get_mesh("square", 2)

        def f(x, y):
            return x**3 + y**2 - x * y

        values = boundary_means(mesh, f)
        ends = mesh.boundary_edge_vertices()
        expected = [edge_mean(mesh.vertices[a], mesh.vertices[b], f) for a, b in ends]
        assert values == pytest.approx(expected, rel=1e-12)

    def test_slit_sides_reach_function(self, get_mesh):
        mesh = get_mesh("slit", 4)
        pf = PointFunction(evaluation=lambda x, y, side: np.asarray(side, dtype=float))
        values = boundary_means(mesh, pf)
        ends = mesh.boundary_edge_vertices()
        mid = 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])
        on_slit = (mid[:, 1] == 0.5) & (mid[:, 0] > 0.5)
        assert on_slit.sum() == 4
        assert np.sort(values[on_slit]) == pytest.approx([-1.0, -1.0, 1.0, 1.0])
