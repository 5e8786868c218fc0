"""Independent helpers for cross-checking the library against brute force.

Everything here deliberately avoids the library's own transfer and quadrature
code paths: points are located by scanning all triangles, and boundary
integrals use a locally defined Gauss rule, so agreement with the package is
meaningful.
"""

import math
import tracemalloc

import numpy as np
import scipy.sparse as sp

from steklovfem import DomainSpec, SymSparse
from steklovfem.mesh import Mesh

GAUSS2 = ((0.5 - 0.5 / math.sqrt(3.0), 0.5), (0.5 + 0.5 / math.sqrt(3.0), 0.5))


def sym_sparse(dimension, rows, cols, values):
    """A :class:`SymSparse` from COO triplets, each unordered index pair summed.

    The upper triangle is built with scipy alone: COO to CSR sums duplicates
    and sorts the columns, ``eliminate_zeros`` drops exact zeros.  Callers
    list each unordered off-diagonal pair once per contribution.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    upper = sp.coo_matrix((np.asarray(values, dtype=float),
                           (np.minimum(rows, cols), np.maximum(rows, cols))),
                          shape=(dimension, dimension)).tocsr()
    upper.eliminate_zeros()
    return SymSparse(upper)


def reference_triangle_mesh(boundary_local_edges=(2, 0, 1)):
    """A one-triangle mesh on (0,0), (1,0), (0,1), built by hand."""
    return Mesh(
        domain=DomainSpec("square"),
        level=1,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.array([[0, loc] for loc in boundary_local_edges]),
        vertex_slit_side=np.zeros(3, dtype=np.int8),
    )


def square_table(mesh):
    """Lower and upper triangle of each grid square ``(i, j)``, ``-1`` where absent.

    Found from geometry alone: a triangle's centroid lies in its grid square,
    above the square's diagonal for the upper triangle and below it for the
    lower one.
    """
    n = mesh.level
    centroids = mesh.vertices[mesh.triangles].mean(axis=1) * n
    i, j = np.floor(centroids).astype(np.int64).T
    upper = centroids[:, 1] - j > centroids[:, 0] - i
    table = np.full((n, n, 2), -1, dtype=np.int64)
    table[i, j, upper.astype(np.int64)] = np.arange(mesh.n_triangles)
    return table


def cr_edge_endpoints(mesh, dofmap):
    """Sorted endpoint pair of each CR dof's edge, read triangle by triangle:
    the dof ``cell_dofs[t, i]`` lies on the edge opposite vertex ``i`` of ``t``."""
    ends = np.full((dofmap.n_dofs, 2), -1, dtype=np.int64)
    for tri, dofs in zip(mesh.triangles, dofmap.cell_dofs):
        for opposite, dof in enumerate(dofs):
            ends[dof] = sorted(v for k, v in enumerate(tri) if k != opposite)
    return ends


def dof_points(mesh, dofmap):
    """Where each dof sits: the vertices for P1, the edge midpoints for CR."""
    if dofmap.family == "p1":
        return mesh.vertices
    ends = cr_edge_endpoints(mesh, dofmap)
    return 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])


def retained_bytes(fn):
    """Run ``fn()`` once to warm up, then again under tracemalloc; return its
    result and the bytes still allocated by the second call while the
    result is alive.  numpy reports its data buffers to tracemalloc."""
    fn()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


def barycentric(corners, point):
    """Barycentric coordinates of a point with respect to a 3x2 corner array."""
    a, b, c = corners
    m = np.column_stack([b - a, c - a])
    l12 = np.linalg.solve(m, np.asarray(point, dtype=float) - a)
    return np.array([1.0 - l12.sum(), l12[0], l12[1]])


def locate_point(mesh, point, side=0, tol=1e-12):
    """Find a triangle containing the point by scanning the whole mesh.

    On the slit domain a point lying on the open slit is double-valued; the
    ``side`` flag picks the triangle below (-1) or above (+1) the slit.
    """
    px, py = float(point[0]), float(point[1])
    corners_all = mesh.vertices[mesh.triangles]
    for tri in range(mesh.n_triangles):
        bary = barycentric(corners_all[tri], (px, py))
        if bary.min() < -tol:
            continue
        if side and py == 0.5 and px > 0.5:
            centroid_y = corners_all[tri][:, 1].mean()
            if (centroid_y - 0.5) * side < 0:
                continue
        return tri, bary
    raise AssertionError(f"point {(px, py)} not found in any triangle")


def eval_fe_brute(fn, point, side=0):
    """Evaluate an FeFunction at a physical point via brute-force location."""
    tri, bary = locate_point(fn.mesh, point, side=side)
    basis = bary if fn.dofmap.family == "p1" else 1.0 - 2.0 * bary
    return float(fn.values[fn.dofmap.cell_dofs[tri]] @ basis)


def boundary_edge_data(mesh):
    """Directed boundary edge endpoints, lengths, and slit-side flags."""
    ends = mesh.boundary_edge_vertices()
    pa = mesh.vertices[ends[:, 0]]
    pb = mesh.vertices[ends[:, 1]]
    lengths = np.hypot(*(pb - pa).T)
    sa = mesh.vertex_slit_side[ends[:, 0]].astype(int)
    sb = mesh.vertex_slit_side[ends[:, 1]].astype(int)
    side = np.where(sa != 0, sa, sb)
    return pa, pb, lengths, side


def boundary_error_brute(coarse_fn, fine_fn):
    """Boundary L2 distance via brute-force location on the fine partition."""
    pa, pb, lengths, side = boundary_edge_data(fine_fn.mesh)
    total = 0.0
    for a, b, length, s in zip(pa, pb, lengths, side):
        for t, w in GAUSS2:
            pt = (1.0 - t) * a + t * b
            diff = eval_fe_brute(fine_fn, pt, side=s) - eval_fe_brute(coarse_fn, pt, side=s)
            total += w * length * diff * diff
    return math.sqrt(total)


def boundary_norm_pointfn_brute(mesh, f):
    """Boundary L2 norm of a plain callable f(x, y) by edge-wise Gauss."""
    pa, pb, lengths, _ = boundary_edge_data(mesh)
    total = 0.0
    for a, b, length in zip(pa, pb, lengths):
        for t, w in GAUSS2:
            pt = (1.0 - t) * a + t * b
            total += w * length * f(pt[0], pt[1]) ** 2
    return math.sqrt(total)


def undirected_edge_count(mesh):
    """Number of distinct undirected edges, counting slit duplicates apart."""
    tris = mesh.triangles
    pairs = set()
    for t in tris:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            pairs.add((min(t[i], t[j]), max(t[i], t[j])))
    return len(pairs)
