"""Uniform right-triangle meshes on the unit square, an L-shape, and a slit square.

Every mesh lives on the grid of step ``1/level``; each grid square is split
along its lower-left to upper-right diagonal into two triangles, so the mesh
at level ``r*n`` is an exact refinement of the mesh at level ``n``.  The mesh
size is ``h = sqrt(2)/level`` (the diagonal length).  The boundary walk is
read off the grid as a table of straight runs of grid squares.

The slit domain is the unit square cut along the open segment
``{(x1, 1/2) : 1/2 < x1 <= 1}``.  Vertices on the slit are stored twice, one
copy per side, so the two slit sides carry independent degrees of freedom and
both count as boundary.  The slit tip ``(1/2, 1/2)`` is stored once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DomainSpec",
    "Mesh",
    "Refinement",
    "InvalidLevelError",
    "NestingError",
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

# Area, perimeter (both slit sides count), largest interior angle and reentrant corner.
_DOMAIN_FACTS = {"square": (1.0, 4.0, 0.5 * math.pi, None),
                 "lshape": (0.75, 4.0, 1.5 * math.pi, (0.5, 0.5)),
                 "slit": (1.0, 5.0, 2.0 * math.pi, (0.5, 0.5))}
_KINDS = tuple(_DOMAIN_FACTS)


class InvalidLevelError(ValueError):
    """Raised when a mesh level violates the domain's grid constraints."""


class NestingError(ValueError):
    """Raised when meshes handed to a transfer are not nested as claimed."""


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
        return _DOMAIN_FACTS[self.kind][0]

    @property
    def perimeter(self) -> float:
        return _DOMAIN_FACTS[self.kind][1]

    @property
    def corner(self) -> tuple[float, float] | None:
        """Reentrant corner location, or None for the convex square."""
        return _DOMAIN_FACTS[self.kind][3]

    @property
    def corner_angle(self) -> float:
        """Largest interior angle of the domain."""
        return _DOMAIN_FACTS[self.kind][2]

    @property
    def expected_r(self) -> float:
        """Regularity exponent governing the convergence rates.

        Eigenvalues converge at rate ``h**(2r)`` and boundary traces of
        eigenfunctions at ``h**(r + 1/2)``; ``r = pi/corner_angle`` capped
        at 1 for the convex square.
        """
        return min(1.0, math.pi / self.corner_angle)


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
        The walk is a table of straight runs of grid squares, and a run at
        level ``r * n`` is the level-``n`` run with each square split in
        ``r``, so edge ``j`` lies in edge ``j // r`` of the level-``n`` walk.
    vertex_slit_side : ndarray, shape (n_vertices,)
        ``-1`` for a vertex on the lower slit side, ``+1`` for the upper
        copy, ``0`` elsewhere (always 0 away from the slit domain).

    The storage order fixes the grid layout.  Grid points and squares are
    numbered row by row from ``(0, 0)``, so vertex 0 is the origin.
    Triangle ``2s`` is the lower triangle ``(ll, lr, ur)`` and ``2s + 1``
    the upper triangle ``(ll, ur, ul)`` of the ``s``-th present square;
    corner 0 of both is the square's lower-left vertex.
    """

    domain: DomainSpec
    level: int
    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    vertex_slit_side: np.ndarray

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
    if domain.corner is not None and level % 2:
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

    # Vertex ids number the present grid points row by row (absent points
    # are never read).
    present, (sq_j, sq_i) = _grid(domain, n)
    vid = np.cumsum(present).reshape(n + 1, n + 1) - 1
    vertices = np.column_stack(np.nonzero(present)[::-1]) / n
    n_orig = len(vertices)

    # Bottom corners of squares see ``below``, top corners ``vid``.  On the
    # slit the two differ right of the tip: the original grid copy serves the
    # lower side, an appended copy the upper side.
    below = vid
    slit_side = np.zeros(n_orig, dtype=np.int8)
    if domain.kind == "slit":
        lower = vid[half, half + 1:]
        vertices = np.vstack([vertices, vertices[lower]])
        slit_side = np.concatenate([slit_side, np.ones(len(lower), dtype=np.int8)])
        slit_side[lower] = -1
        below = vid.copy()
        below[half, half + 1:] = n_orig + np.arange(len(lower))

    ll, lr = below[sq_j, sq_i], below[sq_j, sq_i + 1]
    ur, ul = vid[sq_j + 1, sq_i + 1], vid[sq_j + 1, sq_i]
    # Lower triangle (ll, lr, ur), then upper triangle (ll, ur, ul); both CCW.
    triangles = np.column_stack([ll, lr, ur, ll, ur, ul]).reshape(-1, 3)

    return Mesh(
        domain=domain,
        level=n,
        vertices=vertices,
        triangles=triangles,
        boundary_edges=_ordered_boundary(domain, _square_to_tri((sq_j, sq_i), n)),
        vertex_slit_side=slit_side,
    )


def _grid(domain: DomainSpec, n: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The mask of present grid points, point ``(i/n, j/n)`` at ``[j, i]``, and
    the present squares ``(j, i)`` row by row, the order that numbers the
    triangles.  The L-shape drops the open upper-right quadrant, and a grid
    square is present exactly when its upper-right corner is."""
    j, i = np.mgrid[:n + 1, :n + 1]
    present = ~((domain.kind == "lshape") & (2 * i > n) & (2 * j > n))
    return present, np.nonzero(present[1:, 1:])


def _square_to_tri(squares: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """Lower and upper triangle of grid square ``(i, j)`` at level ``n``, shape
    ``(n, n, 2)``, given the present ``squares`` of :func:`_grid`; ``-1``
    where the square lies outside the domain."""
    sq_j, sq_i = squares
    table = np.full((n, n, 2), -1, dtype=np.int64)
    table[sq_i, sq_j] = np.arange(2 * len(sq_i)).reshape(-1, 2)
    return table


def _ordered_boundary(domain: DomainSpec, square_to_tri: np.ndarray) -> np.ndarray:
    """The boundary walk as straight runs of grid squares, CCW from ``(0, 0)``.

    A lower triangle contributes its bottom (local edge 2) and right (0)
    edge, an upper triangle its top (0) and left (1) edge.  Each run is
    ``(triangles, local edge)``; the slit is walked along its lower side
    toward the tip, then along its upper side back out.
    """
    half = square_to_tri.shape[0] // 2
    lower, upper = square_to_tri[..., 0], square_to_tri[..., 1]
    bottom, left = (lower[:, 0], 2), (upper[0, ::-1], 1)
    if domain.kind == "square":
        runs = [bottom, (lower[-1, :], 0), (upper[::-1, -1], 0), left]
    elif domain.kind == "lshape":
        runs = [bottom, (lower[-1, :half], 0), (upper[:half - 1:-1, half - 1], 0),
                (lower[half - 1, half:], 0), (upper[half - 1::-1, -1], 0), left]
    else:
        runs = [bottom, (lower[-1, :half], 0), (upper[:half - 1:-1, half - 1], 0),
                (lower[half:, half], 2), (lower[-1, half:], 0), (upper[::-1, -1], 0), left]
    return np.concatenate([np.column_stack([t, np.full_like(t, e)]) for t, e in runs])


@dataclass
class Refinement:
    """The nesting relation between a mesh and its uniform refinement."""

    coarse: Mesh
    fine: Mesh
    parent_of: np.ndarray


def _check_nesting(coarse: Mesh, fine: Mesh) -> int:
    """The ratio of the levels; :class:`NestingError` unless ``fine`` refines ``coarse``."""
    if fine.domain.kind != coarse.domain.kind or fine.level % coarse.level:
        raise NestingError(
            f"{fine.domain.kind} level {fine.level} does not refine "
            f"{coarse.domain.kind} level {coarse.level}")
    return fine.level // coarse.level


def _grid_points(mesh: Mesh, ids=slice(None)) -> np.ndarray:
    """Integer grid coordinates ``(i, j)`` of the given vertices, one row each."""
    return np.rint(mesh.vertices[ids] * mesh.level).astype(np.int64)


def ancestor_map(coarse: Mesh, fine: Mesh) -> np.ndarray:
    """The coarse triangle containing each fine triangle.

    ``fine`` must cover the same domain as ``coarse`` at a level that is a
    multiple ``r`` of the coarse level.  Each coarse grid square then holds
    ``r x r`` fine squares, so the ancestor follows from the grid layout,
    not from a geometric search, and every coarse triangle has exactly
    ``r**2`` descendants.

    Raises
    ------
    NestingError
        If the meshes cover different domains or ``coarse.level`` does not
        divide ``fine.level``.

    Examples
    --------
    >>> square = DomainSpec("square")
    >>> anc = ancestor_map(generate_mesh(square, 2), generate_mesh(square, 4))
    >>> np.bincount(anc).tolist()
    [4, 4, 4, 4, 4, 4, 4, 4]
    >>> ancestor_map(generate_mesh(square, 4), generate_mesh(square, 6))
    Traceback (most recent call last):
    ...
    steklovfem.mesh.NestingError: square level 6 does not refine square level 4
    """
    r = _check_nesting(coarse, fine)
    # A fine triangle's corner 0 is its square's lower-left grid point: that
    # gives the coarse square (ci, cj) and the fine square's offset (a, b) in it.
    (ci, cj), (a, b) = np.divmod(_grid_points(fine, fine.triangles[:, 0]).T, r)
    # Sub-squares on the coarse diagonal (a == b) keep the fine orientation,
    # odd triangles being upper; the off-diagonal sub-squares lie wholly in
    # one coarse triangle.
    upper = np.where(a == b, np.arange(fine.n_triangles) % 2, b > a)
    ancestor = _square_to_tri(_grid(coarse.domain, coarse.level)[1], coarse.level)[ci, cj, upper]
    if (ancestor < 0).any():
        raise RuntimeError("a fine triangle falls outside the coarse mesh")
    counts = np.bincount(ancestor, minlength=coarse.n_triangles)
    if not (counts == r * r).all():
        raise RuntimeError(f"each coarse triangle must have exactly {r * r} descendants")
    return ancestor


def _prolongation(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """The P1 prolongation from a coarse mesh to a nested fine one.

    Row ``v`` holds the barycentric coordinates of fine vertex ``v`` in the
    ancestor of a fine triangle around it, so a coarse P1 function's dof
    values map to its fine interpolant.  The coordinates are grid
    arithmetic: with ``(a, b)`` the vertex's offset in fine steps from the
    lower-left corner of the ancestor's square, they are ``(r - a, a - b,
    b) / r`` in a lower and ``(r - b, a, b - a) / r`` in an upper triangle.
    Ancestors never straddle the slit, so each slit side takes its values
    from its own side.

    Examples
    --------
    >>> slit = DomainSpec("slit")
    >>> p = _prolongation(generate_mesh(slit, 4), generate_mesh(slit, 8))
    >>> p.shape, int(np.diff(p.indptr).max())
    ((85, 27), 2)
    """
    r = _check_nesting(coarse, fine)
    owner = np.empty(fine.n_vertices, dtype=np.int64)
    owner[fine.triangles.ravel()] = np.repeat(np.arange(fine.n_triangles), 3)
    tris = ancestor_map(coarse, fine)[owner]
    a, b = (_grid_points(fine) - r * _grid_points(coarse, coarse.triangles[tris, 0])).T
    # Odd coarse triangles are upper.  Integer numerators divided by r, not
    # 1 - a/r, so each weight is the float nearest its multiple of 1/r.
    bary = np.where((tris % 2 == 1)[:, None], np.column_stack([r - b, a, b - a]),
                    np.column_stack([r - a, a - b, b])) / r
    p = sp.csr_matrix((bary.ravel(), coarse.triangles[tris].ravel(),
                       np.arange(0, bary.size + 1, 3)),
                      shape=(fine.n_vertices, coarse.n_vertices))
    p.eliminate_zeros()
    return p


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
