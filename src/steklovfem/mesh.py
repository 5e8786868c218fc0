"""Uniform right-triangle meshes on the unit square, an L-shape, and a slit square.

Every mesh lives on the grid of step ``1/level``; each grid square is split
along its lower-left to upper-right diagonal into two triangles, so the mesh
at level ``r*n`` is an exact refinement of the mesh at level ``n``.  The mesh
size is ``h = sqrt(2)/level`` (the diagonal length).

The slit domain is the unit square cut along the open segment
``{(x1, 1/2) : 1/2 < x1 <= 1}``.  Vertices on the slit are stored twice, one
copy per side, so the two slit sides carry independent degrees of freedom and
both count as boundary.  The slit tip ``(1/2, 1/2)`` is stored once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainSpec",
    "Mesh",
    "Refinement",
    "InvalidLevelError",
    "LOCAL_EDGES",
    "generate_mesh",
    "ancestor_map",
    "refine",
    "edge_slit_sides",
    "write_mesh",
]

SQRT2 = math.sqrt(2.0)

# Local edge i is the edge opposite local vertex i, directed so that a CCW
# walk of the triangle traverses (v1,v2), (v2,v0), (v0,v1).
LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))
# Start and end vertex of each local edge, as index arrays.
EDGE_STARTS, EDGE_ENDS = np.array(LOCAL_EDGES).T

_KINDS = ("square", "lshape", "slit")


class InvalidLevelError(ValueError):
    """Raised when a mesh level violates the domain's grid constraints."""


@dataclass(frozen=True)
class DomainSpec:
    """One of the three study domains.

    Parameters
    ----------
    kind : str
        ``"square"`` for the unit square, ``"lshape"`` for the unit square
        minus its closed upper-right quadrant, or ``"slit"`` for the unit
        square cut along the horizontal slit ending at ``(1/2, 1/2)``.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}; expected one of {_KINDS}")

    @property
    def area(self) -> float:
        return 0.75 if self.kind == "lshape" else 1.0

    @property
    def perimeter(self) -> float:
        # The slit contributes both of its sides to the boundary.
        return 5.0 if self.kind == "slit" else 4.0

    @property
    def corner(self) -> tuple[float, float] | None:
        """Reentrant corner location, or None for the convex square."""
        if self.kind == "square":
            return None
        return (0.5, 0.5)

    @property
    def corner_angle(self) -> float:
        """Largest interior angle of the domain."""
        if self.kind == "square":
            return 0.5 * math.pi
        if self.kind == "lshape":
            return 1.5 * math.pi
        return 2.0 * math.pi

    @property
    def expected_r(self) -> float:
        """Regularity exponent governing the convergence rates.

        Eigenvalues converge at rate ``h**(2r)`` and boundary traces of
        eigenfunctions at ``h**(r + 1/2)``; ``r = pi/corner_angle`` capped
        at 1 for the convex square.
        """
        if self.kind == "square":
            return 1.0
        return math.pi / self.corner_angle


@dataclass
class Mesh:
    """A triangulation with oriented triangles and an ordered boundary.

    Attributes
    ----------
    domain : DomainSpec
    level : int
        Grid subdivisions per unit length; ``h = sqrt(2)/level``.
    vertices : ndarray, shape (n_vertices, 2)
        Coordinates.  Slit duplicates come after all grid originals.
    triangles : ndarray, shape (n_triangles, 3)
        Vertex indices, counterclockwise.
    boundary_edges : ndarray, shape (n_boundary_edges, 2)
        Rows ``(triangle, local_edge)`` in the order of one closed walk from
        ``(0, 0)`` with the domain on the left, along both sides of the slit.
        The walk follows the grid: at level ``r * n``, edge ``j`` lies in edge
        ``j // r`` of the level-``n`` walk, running the same way.
    vertex_slit_side : ndarray, shape (n_vertices,)
        ``-1`` for a vertex on the lower slit side, ``+1`` for the upper
        copy, ``0`` elsewhere (always 0 away from the slit domain).
    tri_square : ndarray, shape (n_triangles, 2)
        Grid square ``(i, j)`` containing each triangle.
    tri_upper : ndarray, shape (n_triangles,)
        True for the upper-left triangle of its square.
    """

    domain: DomainSpec
    level: int
    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    vertex_slit_side: np.ndarray
    tri_square: np.ndarray
    tri_upper: np.ndarray
    square_to_tri: np.ndarray = field(repr=False)

    @property
    def h(self) -> float:
        return SQRT2 / self.level

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_boundary_edges(self) -> int:
        return len(self.boundary_edges)

    def boundary_edge_vertices(self) -> np.ndarray:
        """Directed endpoint indices of the boundary edges, shape (nb, 2)."""
        tris, loc = self.boundary_edges.T
        return np.take_along_axis(self.triangles[tris], np.array(LOCAL_EDGES)[loc], axis=1)

    def boundary_edge_lengths(self) -> np.ndarray:
        start, end = self.vertices[self.boundary_edge_vertices().T]
        return np.hypot(*(end - start).T)


def _validate_level(domain: DomainSpec, level: int) -> None:
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise InvalidLevelError(f"level must be an integer, got {level!r}")
    if level < 2:
        raise InvalidLevelError(f"level must be at least 2, got {level}")
    if domain.kind in ("lshape", "slit") and level % 2:
        raise InvalidLevelError(
            f"{domain.kind} requires an even level so the corner sits on the grid, got {level}"
        )


def generate_mesh(domain: DomainSpec, level: int) -> Mesh:
    """Triangulate a domain uniformly at the given level.

    Parameters
    ----------
    domain : DomainSpec
    level : int
        Number of grid subdivisions per unit length, at least 2, and even
        for the L-shape and slit domains.

    Returns
    -------
    Mesh

    Examples
    --------
    >>> m = generate_mesh(DomainSpec("square"), 2)
    >>> m.n_vertices, m.n_triangles, m.n_boundary_edges
    (9, 8, 8)
    """
    _validate_level(domain, level)
    n = int(level)
    half = n // 2

    # Grid points present in the closed domain, indexed (i, j) for the point
    # (i/n, j/n).  The L-shape drops the open upper-right quadrant.
    gi, gj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    if domain.kind == "lshape":
        point_mask = ~((2 * gi > n) & (2 * gj > n))
    else:
        point_mask = np.ones_like(gi, dtype=bool)

    # Vertex ids in row-major (j outer, i inner) order over present points.
    flat_mask = point_mask.T.ravel()  # (j, i) ordering
    vid_flat = np.cumsum(flat_mask) - 1
    vid = np.full((n + 1, n + 1), -1, dtype=np.int64)
    vid_t = np.where(flat_mask, vid_flat, -1).reshape(n + 1, n + 1)  # [j, i]
    vid[:, :] = vid_t.T  # [i, j]
    n_orig = int(flat_mask.sum())

    xs = (gi / n)[point_mask]
    ys = (gj / n)[point_mask]
    # Reorder coordinates to match the (j, i) id ordering.
    coords = np.empty((n_orig, 2))
    coords[vid[point_mask], 0] = xs
    coords[vid[point_mask], 1] = ys

    slit_side = np.zeros(n_orig, dtype=np.int8)
    if domain.kind == "slit":
        # Duplicate the vertices strictly right of the tip; the original grid
        # copy serves the lower side, the appended copy the upper side.
        slit_is = np.arange(half + 1, n + 1)
        dup_ids = n_orig + np.arange(len(slit_is))
        dup_coords = np.column_stack([slit_is / n, np.full(len(slit_is), 0.5)])
        coords = np.vstack([coords, dup_coords])
        orig_ids = vid[slit_is, half]
        slit_side = np.concatenate([slit_side, np.ones(len(slit_is), dtype=np.int8)])
        slit_side[orig_ids] = -1
        dup_lookup = np.full(n + 1, -1, dtype=np.int64)
        dup_lookup[slit_is] = dup_ids
    vertices = coords

    # Grid squares present, in (j outer, i inner) order.
    si, sj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    if domain.kind == "lshape":
        square_mask = (2 * (si + 1) <= n) | (2 * (sj + 1) <= n)
    else:
        square_mask = np.ones_like(si, dtype=bool)
    sq_j, sq_i = np.nonzero(square_mask.T)  # row-major over (j, i)
    n_squares = len(sq_i)

    def corner_ids(ci: np.ndarray, cj: np.ndarray) -> np.ndarray:
        ids = vid[ci, cj]
        if domain.kind == "slit":
            # Squares above the slit see the duplicated upper copies.
            on_slit = (2 * cj == n) & (2 * ci > n) & (sq_j >= half)
            if on_slit.any():
                ids = np.where(on_slit, dup_lookup[ci], ids)
        return ids

    ll = corner_ids(sq_i, sq_j)
    lr = corner_ids(sq_i + 1, sq_j)
    ur = corner_ids(sq_i + 1, sq_j + 1)
    ul = corner_ids(sq_i, sq_j + 1)

    # Lower triangle (ll, lr, ur), then upper triangle (ll, ur, ul); both CCW.
    triangles = np.empty((2 * n_squares, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ur])
    triangles[1::2] = np.column_stack([ll, ur, ul])
    tri_square = np.empty((2 * n_squares, 2), dtype=np.int64)
    tri_square[0::2] = np.column_stack([sq_i, sq_j])
    tri_square[1::2] = np.column_stack([sq_i, sq_j])
    tri_upper = np.zeros(2 * n_squares, dtype=bool)
    tri_upper[1::2] = True

    square_to_tri = np.full((n, n, 2), -1, dtype=np.int64)
    square_to_tri[sq_i, sq_j, 0] = np.arange(0, 2 * n_squares, 2)
    square_to_tri[sq_i, sq_j, 1] = np.arange(1, 2 * n_squares, 2)

    boundary_edges = _ordered_boundary(domain, vertices, triangles, square_to_tri)

    return Mesh(
        domain=domain,
        level=n,
        vertices=vertices,
        triangles=triangles,
        boundary_edges=boundary_edges,
        vertex_slit_side=slit_side,
        tri_square=tri_square,
        tri_upper=tri_upper,
        square_to_tri=square_to_tri,
    )


def _ordered_boundary(domain: DomainSpec, vertices: np.ndarray, triangles: np.ndarray,
                      square_to_tri: np.ndarray) -> np.ndarray:
    """Find boundary edges and chain them CCW starting from (0, 0).

    A lower triangle's right and bottom edges and an upper triangle's top
    and left edges lie on the boundary when no grid square sits behind
    them; the diagonals never do.  The slit adds the bottom edges of the
    squares just above it and the top edges of those just below.
    """
    n = square_to_tri.shape[0]
    lower, upper = square_to_tri[..., 0], square_to_tri[..., 1]
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

    origin = int(np.flatnonzero((vertices[:, 0] == 0.0) & (vertices[:, 1] == 0.0))[0])
    chain = []
    cursor = origin
    for _ in range(len(flat)):
        pos = next_edge[cursor]
        chain.append(pos)
        cursor = int(stops[pos])
    if cursor != origin or len(chain) != len(flat):
        raise RuntimeError("boundary traversal did not close up")

    return np.column_stack([tri_idx[chain], local_idx[chain]])


@dataclass
class Refinement:
    """The nesting relation between a mesh and its uniform refinement."""

    coarse: Mesh
    fine: Mesh
    parent_of: np.ndarray


def ancestor_map(coarse: Mesh, fine: Mesh) -> np.ndarray:
    """The coarse triangle containing each fine triangle.

    ``fine`` must cover the same domain as ``coarse`` at a level that is a
    multiple ``r`` of the coarse level.  Each coarse grid square then holds
    ``r x r`` fine squares, so the ancestor follows from the grid layout,
    not from a geometric search, and every coarse triangle has exactly
    ``r**2`` descendants.

    Examples
    --------
    >>> square = DomainSpec("square")
    >>> anc = ancestor_map(generate_mesh(square, 2), generate_mesh(square, 4))
    >>> np.bincount(anc).tolist()
    [4, 4, 4, 4, 4, 4, 4, 4]
    """
    r = fine.level // coarse.level
    # Coarse square (ci, cj) and the fine square's offset (a, b) inside it.
    (ci, cj), (a, b) = np.divmod(fine.tri_square.T, r)
    # Sub-squares on the coarse diagonal (a == b) keep the fine orientation;
    # the off-diagonal sub-squares lie wholly in one coarse triangle.
    upper = np.where(a == b, fine.tri_upper, b > a)
    ancestor = coarse.square_to_tri[ci, cj, upper.astype(np.int64)]
    if (ancestor < 0).any():
        raise RuntimeError("a fine triangle falls outside the coarse mesh")
    counts = np.bincount(ancestor, minlength=coarse.n_triangles)
    if not (counts == r * r).all():
        raise RuntimeError(f"each coarse triangle must have exactly {r * r} descendants")
    return ancestor


def refine(mesh: Mesh) -> Refinement:
    """Refine uniformly by doubling the level.

    Each coarse triangle is the union of exactly four fine triangles; the
    parent map is :func:`ancestor_map` of the two meshes.
    """
    fine = generate_mesh(mesh.domain, 2 * mesh.level)
    return Refinement(coarse=mesh, fine=fine, parent_of=ancestor_map(mesh, fine))


def edge_slit_sides(mesh: Mesh, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Slit-side flag for points strictly inside the edges with endpoints a, b.

    The flag only matters for edges lying on the open slit; there at least
    one endpoint is a tagged copy (the tip is tagged 0) and tagged endpoints
    agree.  For every other edge the interior points are off the slit and
    the returned flag is ignored by slit-aware evaluations.
    """
    sa = mesh.vertex_slit_side[a].astype(np.int8)
    sb = mesh.vertex_slit_side[b].astype(np.int8)
    return np.where(sa != 0, sa, sb)


def write_mesh(mesh: Mesh, stream) -> None:
    """Write the plain-text mesh format.

    One header line ``mesh <kind> <level>``, then ``v <x1> <x2>`` per vertex,
    ``t <i0> <i1> <i2>`` per triangle, and ``b <tri> <local_edge>`` per
    boundary edge, each section in storage order.
    """
    stream.write(f"mesh {mesh.domain.kind} {mesh.level}\n")
    for x, y in mesh.vertices:
        stream.write(f"v {x:.17g} {y:.17g}\n")
    for t in mesh.triangles:
        stream.write(f"t {t[0]} {t[1]} {t[2]}\n")
    for e in mesh.boundary_edges:
        stream.write(f"b {e[0]} {e[1]}\n")
