import io
import math

import numpy as np
import pytest

from _utils import barycentric, retained_bytes, square_table, undirected_edge_count
from steklovfem import (
    DomainSpec,
    InvalidLevelError,
    NestingError,
    ancestor_map,
    generate_mesh,
    refine,
    write_mesh,
)
from steklovfem.mesh import (EDGE_ENDS, EDGE_STARTS, INDEX_DTYPE, LOCAL_EDGES, _grid,
                             _square_to_tri, _validate_level, edge_slit_sides)

KINDS = ("square", "lshape", "slit")
SQRT2 = math.sqrt(2.0)


def dictionary_chain_boundary(mesh):
    """Oracle: boundary edges found by an edge search, chained by a dictionary from vertex 0."""
    domain, triangles, table = mesh.domain, mesh.triangles, square_table(mesh)
    n = mesh.level
    lower, upper = table[..., 0], table[..., 1]
    present = np.pad(lower >= 0, 1)  # square (i, j) at [i + 1, j + 1]
    inside = present[1:-1, 1:-1]
    open_right, open_left = ~present[2:, 1:-1], ~present[:-2, 1:-1]
    open_top, open_bottom = ~present[1:-1, 2:], ~present[1:-1, :-2]
    if domain.kind == "slit":
        half = n // 2
        open_bottom[half:, half] = True
        open_top[half:, half - 1] = True
    # Flat edge ids 3 * triangle + local edge; local edge i is opposite vertex i.
    flat = np.concatenate([3 * lower[inside & open_right],
                           3 * lower[inside & open_bottom] + 2,
                           3 * upper[inside & open_top],
                           3 * upper[inside & open_left] + 1])

    tri_idx, local_idx = np.divmod(flat, 3)
    starts = triangles[tri_idx, EDGE_STARTS[local_idx]]
    stops = triangles[tri_idx, EDGE_ENDS[local_idx]]

    next_edge: dict[int, int] = {}
    for pos, a in enumerate(starts):
        if int(a) in next_edge:
            raise RuntimeError("boundary is not a simple closed curve")
        next_edge[int(a)] = pos

    chain = []
    cursor = 0
    for _ in range(len(flat)):
        pos = next_edge[cursor]
        chain.append(pos)
        cursor = int(stops[pos])
    if cursor != 0 or len(chain) != len(flat):
        raise RuntimeError("boundary traversal did not close up")

    return np.column_stack([tri_idx[chain], local_idx[chain]])


def signed_areas(mesh):
    c = mesh.vertices[mesh.triangles]
    d1 = c[:, 1] - c[:, 0]
    d2 = c[:, 2] - c[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


class TestDomainSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown domain kind"):
            DomainSpec("disk")

    def test_geometry_constants(self):
        assert DomainSpec("square").area == 1.0
        assert DomainSpec("lshape").area == 0.75
        assert DomainSpec("slit").area == 1.0
        assert DomainSpec("square").perimeter == 4.0
        assert DomainSpec("lshape").perimeter == 4.0
        assert DomainSpec("slit").perimeter == 5.0

    def test_corner_and_regularity(self):
        assert DomainSpec("square").corner is None
        assert DomainSpec("lshape").corner == (0.5, 0.5)
        assert DomainSpec("slit").corner == (0.5, 0.5)
        assert DomainSpec("square").expected_r == 1.0
        assert DomainSpec("lshape").expected_r == pytest.approx(2.0 / 3.0)
        assert DomainSpec("slit").expected_r == pytest.approx(0.5)


class TestGenerateCounts:
    def test_square_level_2(self):
        m = generate_mesh(DomainSpec("square"), 2)
        assert (m.n_vertices, m.n_triangles, m.n_boundary_edges) == (9, 8, 8)
        assert m.h == pytest.approx(SQRT2 / 2)

    def test_lshape_level_2(self):
        m = generate_mesh(DomainSpec("lshape"), 2)
        assert (m.n_vertices, m.n_triangles, m.n_boundary_edges) == (8, 6, 8)
        coords = {tuple(v) for v in m.vertices}
        assert (1.0, 1.0) not in coords

    def test_slit_level_2(self):
        m = generate_mesh(DomainSpec("slit"), 2)
        assert (m.n_vertices, m.n_triangles, m.n_boundary_edges) == (10, 8, 10)
        dup = [tuple(v) for v in m.vertices]
        assert dup.count((1.0, 0.5)) == 2
        assert dup.count((0.5, 0.5)) == 1

    @pytest.mark.parametrize("kind,level,nv,nt", [
        ("square", 4, 25, 32),
        ("lshape", 4, 21, 24),
        ("slit", 4, 27, 32),
    ])
    def test_level_4_counts(self, kind, level, nv, nt):
        m = generate_mesh(DomainSpec(kind), level)
        assert (m.n_vertices, m.n_triangles) == (nv, nt)

    def test_slit_level_4_duplicates(self):
        m = generate_mesh(DomainSpec("slit"), 4)
        dup = [tuple(v) for v in m.vertices]
        assert dup.count((0.75, 0.5)) == 2
        assert dup.count((1.0, 0.5)) == 2
        assert dup.count((0.5, 0.5)) == 1
        assert (m.vertex_slit_side == 1).sum() == 2
        assert (m.vertex_slit_side == -1).sum() == 2


class TestLevelValidation:
    @pytest.mark.parametrize("kind", ("lshape", "slit"))
    def test_odd_level_rejected(self, kind):
        with pytest.raises(InvalidLevelError, match="even"):
            generate_mesh(DomainSpec(kind), 3)

    @pytest.mark.parametrize("level", (0, 1, -2))
    def test_small_level_rejected(self, level):
        with pytest.raises(InvalidLevelError):
            generate_mesh(DomainSpec("square"), level)

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidLevelError):
            generate_mesh(DomainSpec("square"), 2.5)

    @pytest.mark.parametrize("kind,refused", [("square", 26755), ("lshape", 26756), ("slit", 26756)])
    @pytest.mark.parametrize("level_type", (int, np.int32, np.int64))
    def test_level_past_the_index_range_rejected(self, kind, refused, level_type):
        # Checked through the validator alone: a mesh at either level would
        # take about 100 GB.  Level 26754 has fewer than 3 * 26754 * 26755 =
        # 2147409270 edges, within int32; the next valid level is refused.
        assert INDEX_DTYPE == np.int32
        _validate_level(DomainSpec(kind), level_type(26754))
        with pytest.raises(InvalidLevelError, match="int32"):
            _validate_level(DomainSpec(kind), level_type(refused))


class TestGeometryInvariants:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("level", (2, 4, 8, 16))
    def test_orientation_and_area(self, get_mesh, kind, level):
        m = get_mesh(kind, level)
        areas = signed_areas(m)
        assert (areas > 0).all()
        expected = 0.5 / level**2
        assert areas == pytest.approx(np.full_like(areas, expected), rel=1e-14)
        assert areas.sum() == pytest.approx(m.domain.area, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("level", (2, 8))
    def test_perimeter(self, get_mesh, kind, level):
        m = get_mesh(kind, level)
        assert m.boundary_edge_lengths().sum() == pytest.approx(
            m.domain.perimeter, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_area_perimeter_at_level_512(self, kind):
        m = generate_mesh(DomainSpec(kind), 512)
        assert signed_areas(m).sum() == pytest.approx(m.domain.area, rel=1e-12)
        assert m.boundary_edge_lengths().sum() == pytest.approx(
            m.domain.perimeter, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("level", (2, 4, 8))
    def test_euler_characteristic(self, get_mesh, kind, level):
        m = get_mesh(kind, level)
        edges = undirected_edge_count(m)
        assert m.n_vertices - edges + m.n_triangles == 1

    @pytest.mark.parametrize("level", (2, 4, 8))
    def test_grid_coordinates_exact(self, get_mesh, level):
        m = get_mesh("square", level)
        scaled = m.vertices * level
        assert (scaled == np.round(scaled)).all()


class TestBoundaryChain:
    @pytest.mark.parametrize("level,kind", [
        *((level, kind) for level in (2, 4, 8, 150) for kind in KINDS),
        (3, "square"), (7, "square"),
    ])
    def test_chained_ccw_from_origin(self, get_mesh, level, kind):
        m = get_mesh(kind, level)
        ends = m.boundary_edge_vertices()
        assert tuple(m.vertices[ends[0, 0]]) == (0.0, 0.0)
        # Each edge starts where the previous one stopped and the walk closes.
        assert (ends[1:, 0] == ends[:-1, 1]).all()
        assert ends[-1, 1] == ends[0, 0]
        assert m.boundary_edges.shape == (m.n_boundary_edges, 2)

    @pytest.mark.parametrize("kind,level", [
        *(pytest.param(kind, 4, id=kind) for kind in KINDS),
        *(pytest.param(kind, 10, id=f"{kind}-10") for kind in KINDS),
    ])
    def test_domain_on_the_left(self, get_mesh, kind, level):
        m = get_mesh(kind, level)
        ends = m.boundary_edge_vertices()
        tangent = m.vertices[ends[:, 1]] - m.vertices[ends[:, 0]]
        midpoints = 0.5 * (m.vertices[ends[:, 0]] + m.vertices[ends[:, 1]])
        centroids = m.vertices[m.triangles[m.boundary_edges[:, 0]]].mean(axis=1)
        to_interior = centroids - midpoints
        cross = tangent[:, 0] * to_interior[:, 1] - tangent[:, 1] * to_interior[:, 0]
        assert (cross > 0).all()

    @pytest.mark.parametrize("kind,total", [
        ("square", 4.0), ("lshape", 4.0), ("slit", 5.0),
    ])
    def test_arclength_order(self, get_mesh, kind, total):
        m = get_mesh(kind, 2)
        cumulative = np.cumsum(m.boundary_edge_lengths())
        assert len(cumulative) == m.n_boundary_edges
        assert (np.diff(cumulative) > 0).all()
        assert cumulative[-1] == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("kind,level", [
        *((kind, level) for kind in KINDS
          for level in (2, 4, 6, 8, 10, 12, 16, 24, 32, 64, 150, 512)),
        *(("square", level) for level in (3, 5, 7, 9, 151)),
    ])
    def test_matches_dictionary_chain_oracle(self, kind, level):
        m = generate_mesh(DomainSpec(kind), level)
        want = dictionary_chain_boundary(m)
        assert m.boundary_edges.dtype == INDEX_DTYPE
        assert m.boundary_edges.shape == want.shape
        assert np.array_equal(m.boundary_edges, want)

    def test_slit_walked_once_per_side(self, get_mesh):
        m = get_mesh("slit", 4)
        ends = m.boundary_edge_vertices()
        mids = 0.5 * (m.vertices[ends[:, 0]] + m.vertices[ends[:, 1]])
        on_slit = (mids[:, 1] == 0.5) & (mids[:, 0] > 0.5)
        side = edge_slit_sides(m, ends[:, 0], ends[:, 1])
        assert on_slit.sum() == 4  # two edges per side at level 4
        assert sorted(side[on_slit]) == [-1, -1, 1, 1]
        # The lower lip is walked right-to-... left-to-right coming from the
        # outer boundary toward the tip is impossible CCW; assert directions:
        lower = on_slit & (side == -1)
        upper = on_slit & (side == 1)
        assert (m.vertices[ends[lower, 1]][:, 0] < m.vertices[ends[lower, 0]][:, 0]).all()
        assert (m.vertices[ends[upper, 1]][:, 0] > m.vertices[ends[upper, 0]][:, 0]).all()


class TestSlitTopology:
    def test_no_triangle_straddles_slit(self, get_mesh):
        m = get_mesh("slit", 8)
        side = m.vertex_slit_side[m.triangles]
        has_lower = (side == -1).any(axis=1)
        has_upper = (side == 1).any(axis=1)
        assert not (has_lower & has_upper).any()

    def test_duplicates_after_originals(self, get_mesh):
        m = get_mesh("slit", 8)
        upper_ids = np.flatnonzero(m.vertex_slit_side == 1)
        assert (upper_ids >= m.n_vertices - len(upper_ids)).all()

    def test_duplicate_coordinates_match(self, get_mesh):
        m = get_mesh("slit", 8)
        uppers = m.vertices[m.vertex_slit_side == 1]
        lowers = m.vertices[m.vertex_slit_side == -1]
        assert np.array_equal(np.sort(uppers[:, 0]), np.sort(lowers[:, 0]))
        assert (uppers[:, 1] == 0.5).all() and (lowers[:, 1] == 0.5).all()


class TestRefinement:
    @pytest.mark.parametrize("kind", KINDS)
    def test_counts_double(self, get_mesh, kind):
        r = refine(get_mesh(kind, 2))
        assert r.fine.level == 4
        assert r.fine.n_triangles == 4 * r.coarse.n_triangles

    def test_square_refine_counts(self, get_mesh):
        r = refine(get_mesh("square", 2))
        assert (r.fine.n_vertices, r.fine.n_triangles) == (25, 32)

    def test_lshape_refine_counts(self, get_mesh):
        r = refine(get_mesh("lshape", 2))
        assert r.fine.n_triangles == 24

    @pytest.mark.parametrize("kind", KINDS)
    def test_children_partition_parents(self, get_mesh, kind):
        r = refine(get_mesh(kind, 4))
        counts = np.bincount(r.parent_of, minlength=r.coarse.n_triangles)
        assert (counts == 4).all()
        fine_areas = signed_areas(r.fine)
        coarse_areas = signed_areas(r.coarse)
        summed = np.zeros(r.coarse.n_triangles)
        np.add.at(summed, r.parent_of, fine_areas)
        assert summed == pytest.approx(coarse_areas, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_children_geometrically_inside(self, get_mesh, kind):
        r = refine(get_mesh(kind, 2))
        coarse_corners = r.coarse.vertices[r.coarse.triangles]
        for f in range(r.fine.n_triangles):
            centroid = r.fine.vertices[r.fine.triangles[f]].mean(axis=0)
            bary = barycentric(coarse_corners[r.parent_of[f]], centroid)
            assert bary.min() > -1e-12

    def test_nested_vertices(self, get_mesh):
        r = refine(get_mesh("lshape", 4))
        coarse_set = {tuple(v) for v in r.coarse.vertices}
        fine_set = {tuple(v) for v in r.fine.vertices}
        assert coarse_set <= fine_set


class TestAncestorMap:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_composed_refinements(self, get_mesh, kind):
        # Compose refine's parent maps from level 2 up to 128, checking the
        # direct map at every ratio 2..64 from the coarse end.
        coarse = get_mesh(kind, 2)
        mesh, composed = coarse, None
        while mesh.level < 128:
            r = refine(mesh)
            composed = r.parent_of if composed is None else composed[r.parent_of]
            mesh = r.fine
            assert np.array_equal(ancestor_map(coarse, mesh), composed)

    @pytest.mark.parametrize("kind", KINDS)
    def test_ratio_one_is_identity(self, get_mesh, kind):
        mesh = get_mesh(kind, 8)
        assert np.array_equal(ancestor_map(mesh, mesh), np.arange(mesh.n_triangles))

    @pytest.mark.parametrize("kind", KINDS)
    def test_odd_ratio_partitions_coarse_triangles(self, get_mesh, kind):
        coarse, fine = get_mesh(kind, 4), get_mesh(kind, 12)
        anc = ancestor_map(coarse, fine)
        assert (np.bincount(anc, minlength=coarse.n_triangles) == 9).all()
        centroids = fine.vertices[fine.triangles].mean(axis=1)
        corners = coarse.vertices[coarse.triangles[anc]]
        for c, p in zip(corners, centroids):
            assert barycentric(c, p).min() > -1e-12

    def test_other_domain_rejected(self, get_mesh):
        with pytest.raises(NestingError, match="does not refine"):
            ancestor_map(get_mesh("lshape", 4), get_mesh("square", 8))
        with pytest.raises(NestingError, match="does not refine"):
            ancestor_map(get_mesh("square", 4), get_mesh("lshape", 8))

    @pytest.mark.parametrize("coarse, fine", [
        (("square", 4), ("slit", 8)),
        (("slit", 4), ("square", 8)),
        (("square", 4), ("square", 6)),
        (("square", 4), ("square", 10)),
        (("square", 8), ("square", 4)),
    ])
    def test_non_refinement_rejected(self, get_mesh, coarse, fine):
        with pytest.raises(NestingError, match="does not refine"):
            ancestor_map(get_mesh(*coarse), get_mesh(*fine))


class TestStorageOrder:
    """Triangles 2s and 2s+1 are the lower and upper halves of the s-th present
    grid square, squares numbered row by row; corner 0 is the lower-left vertex."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("level", (2, 8, 150))
    def test_squares_row_by_row(self, get_mesh, kind, level):
        m = get_mesh(kind, level)
        table = square_table(m)
        sq_j, sq_i = np.nonzero(table[..., 0].T >= 0)
        assert np.array_equal(table[sq_i, sq_j], np.arange(m.n_triangles).reshape(-1, 2))
        lower, upper = m.triangles[0::2], m.triangles[1::2]
        assert np.array_equal(lower[:, 0], upper[:, 0])
        assert np.array_equal(m.vertices[lower[:, 0]], np.column_stack([sq_i, sq_j]) / level)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("level", (2, 8, 150))
    def test_corner_layout(self, get_mesh, kind, level):
        m = get_mesh(kind, level)
        grid = np.rint(m.vertices * level).astype(np.int64)
        assert np.array_equal(m.vertices, grid / level)
        lower, upper = m.triangles[0::2], m.triangles[1::2]
        assert (grid[lower[:, 1]] - grid[lower[:, 0]] == [1, 0]).all()
        assert (grid[upper[:, 2]] - grid[upper[:, 0]] == [0, 1]).all()
        assert (grid[lower[:, 2]] - grid[lower[:, 0]] == [1, 1]).all()
        assert np.array_equal(lower[:, 2], upper[:, 1])
        assert tuple(m.vertices[0]) == (0.0, 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("level", (2, 8, 150))
    def test_square_table_matches_geometry(self, get_mesh, kind, level):
        # The table built on demand from the present squares equals the one
        # read off the triangles' centroids, absent squares included.
        table = _square_to_tri(_grid(DomainSpec(kind), level)[1], level)
        want = square_table(get_mesh(kind, level))
        assert table.dtype == INDEX_DTYPE
        assert np.array_equal(table, want)

    def test_mesh_retains_only_its_arrays(self):
        # No level x level x 2 square table (256 KiB at this level) stays
        # alive with the mesh: only its own arrays, give or take 64 KiB.
        m, retained = retained_bytes(lambda: generate_mesh(DomainSpec("slit"), 128))
        own = sum(a.nbytes for a in (m.vertices, m.triangles, m.boundary_edges,
                                     m.vertex_slit_side))
        assert retained <= own + 64 * 1024


class TestMeshDump:
    def test_format_and_counts(self, get_mesh):
        m = get_mesh("slit", 2)
        buf = io.StringIO()
        write_mesh(m, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "mesh slit 2"
        kinds = [ln.split()[0] for ln in lines[1:]]
        assert kinds.count("v") == 10
        assert kinds.count("t") == 8
        assert kinds.count("b") == 10

    def test_round_trip_values(self, get_mesh):
        m = get_mesh("square", 2)
        buf = io.StringIO()
        write_mesh(m, buf)
        lines = buf.getvalue().splitlines()
        vs = np.array([[float(t) for t in ln.split()[1:]]
                       for ln in lines if ln.startswith("v ")])
        assert np.array_equal(vs, m.vertices)
        ts = np.array([[int(t) for t in ln.split()[1:]]
                       for ln in lines if ln.startswith("t ")])
        assert np.array_equal(ts, m.triangles)


class TestLocalEdges:
    def test_local_edge_is_opposite_vertex(self, get_mesh):
        m = get_mesh("square", 2)
        starts = m.triangles[:, EDGE_STARTS]
        ends = m.triangles[:, EDGE_ENDS]
        assert (starts != m.triangles).all() and (ends != m.triangles).all()

    def test_local_edges_are_ccw_walk(self):
        assert LOCAL_EDGES == ((1, 2), (2, 0), (0, 1))
