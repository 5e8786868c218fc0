"""P1 and Crouzeix-Raviart elements with symmetric sparse assembly.

The bilinear forms are

    a(u, v) = integral over the domain of  alpha grad(u).grad(v) + beta u v
    b(u, v) = integral over the boundary of  u v

assembled triangle by triangle (so the Crouzeix-Raviart form is the broken
one).  Element integrals use the three edge-midpoint quadrature points,
boundary integrals the two-point Gauss rule on each edge; both are exact for
the polynomial integrands that arise with constant coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import EDGE_ENDS, EDGE_STARTS, Mesh

__all__ = [
    "P1",
    "CR",
    "DofMap",
    "CoefficientField",
    "SymSparse",
    "InvalidCoefficientError",
    "build_dof_map",
    "constant_coefficients",
    "affine",
    "assemble_stiffness",
    "assemble_boundary_mass",
    "write_matrix",
]

P1 = "p1"
CR = "cr"
_FAMILIES = (P1, CR)

# Edge-midpoint quadrature on the reference triangle: barycentric points,
# each with weight area/3.  Exact for quadratics.
TRIANGLE_QUADRATURE_BARY = np.array([
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
    [0.5, 0.5, 0.0],
])

# Two-point Gauss rule on [0, 1].  Exact for cubics.
EDGE_GAUSS_POINTS = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
EDGE_GAUSS_WEIGHTS = np.array([0.5, 0.5])


class InvalidCoefficientError(ValueError):
    """Raised when a coefficient is not strictly positive at a quadrature point."""


def _check_family(family: str) -> str:
    if family not in _FAMILIES:
        raise ValueError(f"unknown element family {family!r}; expected one of {_FAMILIES}")
    return family


@dataclass
class DofMap:
    """Degree-of-freedom layout of one element family on one mesh.

    For P1 the dofs are the mesh vertices; for Crouzeix-Raviart they are the
    undirected edges, numbered lexicographically by sorted vertex pair, with
    values attached to edge midpoints.  ``cell_dofs[t, i]`` is the dof sitting
    opposite local vertex ``i`` of triangle ``t`` (for P1 simply vertex ``i``).

    Attributes
    ----------
    family : str
    n_dofs : int
    cell_dofs : ndarray, shape (n_triangles, 3)
    boundary_dofs : ndarray
        Sorted dof indices with support on the boundary.
    dof_points : ndarray, shape (n_dofs, 2)
        Vertex coordinates (P1) or edge midpoints (CR).
    edge_vertices : ndarray or None
        For CR, the sorted endpoint pair of each edge dof.
    """

    family: str
    n_dofs: int
    cell_dofs: np.ndarray
    boundary_dofs: np.ndarray
    dof_points: np.ndarray
    edge_vertices: np.ndarray | None = None


def build_dof_map(mesh: Mesh, family: str) -> DofMap:
    """Number the degrees of freedom of a family on a mesh.

    Examples
    --------
    >>> from .mesh import DomainSpec, generate_mesh
    >>> build_dof_map(generate_mesh(DomainSpec("square"), 2), CR).n_dofs
    16
    """
    _check_family(family)
    tris = mesh.triangles

    if family == P1:
        return DofMap(
            family=P1,
            n_dofs=mesh.n_vertices,
            cell_dofs=tris.copy(),
            boundary_dofs=np.unique(mesh.boundary_edge_vertices()),
            dof_points=mesh.vertices.copy(),
        )

    nv = mesh.n_vertices
    heads = tris[:, [1, 2, 0]].ravel()
    tails = tris[:, [2, 0, 1]].ravel()
    lo = np.minimum(heads, tails)
    hi = np.maximum(heads, tails)
    keys = lo * nv + hi
    uniq_keys = np.unique(keys)
    cell_dofs = np.searchsorted(uniq_keys, keys).reshape(-1, 3)
    edge_vertices = np.column_stack([uniq_keys // nv, uniq_keys % nv])
    midpoints = 0.5 * (mesh.vertices[edge_vertices[:, 0]] + mesh.vertices[edge_vertices[:, 1]])
    # All three traces of a boundary triangle are nonzero on its boundary
    # edge (the two non-midpoint ones are odd linear functions there).
    bdofs = np.unique(cell_dofs[mesh.boundary_edges[:, 0]].ravel())
    return DofMap(
        family=CR,
        n_dofs=len(uniq_keys),
        cell_dofs=cell_dofs,
        boundary_dofs=bdofs,
        dof_points=midpoints,
        edge_vertices=edge_vertices,
    )


@dataclass(frozen=True)
class CoefficientField:
    """Strictly positive coefficients ``alpha`` (diffusion) and ``beta`` (reaction).

    Both callables take coordinate arrays ``(x1, x2)`` and return values of
    the same shape.  Positivity is enforced at the quadrature points during
    assembly.
    """

    alpha: Callable[[np.ndarray, np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray, np.ndarray], np.ndarray]


def constant_coefficients(alpha: float = 1.0, beta: float = 1.0) -> CoefficientField:
    """Coefficient field with constant values."""
    a, b = float(alpha), float(beta)
    return CoefficientField(
        alpha=lambda x, y: np.full_like(np.asarray(x, dtype=float), a),
        beta=lambda x, y: np.full_like(np.asarray(x, dtype=float), b),
    )


def affine(c0: float, cx: float = 0.0, cy: float = 0.0) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The affine function ``c0 + cx*x1 + cy*x2`` as a coefficient callable."""
    return lambda x, y: c0 + cx * np.asarray(x, dtype=float) + cy * np.asarray(y, dtype=float)


UNIT_COEFFICIENTS = constant_coefficients()


@dataclass
class SymSparse:
    """A symmetric sparse matrix stored as its upper triangle in COO form.

    Entries are canonicalized to ``row <= col``, sorted row-major, duplicates
    summed, and exact zeros dropped, so equal matrices have identical storage.
    """

    dimension: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    _csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_entries(cls, dimension: int, rows, cols, values) -> "SymSparse":
        """Build from COO triplets; each unordered index pair is summed.

        Callers must list each unordered off-diagonal pair once per
        contribution (canonicalization folds ``(i, j)`` and ``(j, i)``
        together, it does not halve them).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        r = np.minimum(rows, cols)
        c = np.maximum(rows, cols)
        coo = sp.coo_matrix((values, (r, c)), shape=(dimension, dimension))
        upper = coo.tocsr()
        upper.sum_duplicates()
        upper.eliminate_zeros()
        out = upper.tocoo()
        return cls(dimension=dimension, rows=out.row.astype(np.int64),
                   cols=out.col.astype(np.int64), values=out.data.copy())

    @property
    def nnz(self) -> int:
        return len(self.values)

    def to_csr(self) -> sp.csr_matrix:
        """Full symmetric CSR matrix (cached)."""
        if self._csr is None:
            upper = sp.coo_matrix((self.values, (self.rows, self.cols)),
                                  shape=(self.dimension, self.dimension)).tocsr()
            strict = sp.triu(upper, k=1)
            self._csr = (upper + strict.T).tocsr()
        return self._csr

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        return self.to_csr() @ other

    def diagonal(self) -> np.ndarray:
        return self.to_csr().diagonal()


def write_matrix(matrix: SymSparse, stream) -> None:
    """Write the plain-text symmetric matrix format.

    Header ``matrix <dimension> <nnz>`` followed by one line
    ``e <row> <col> <value>`` per stored upper-triangle entry.
    """
    stream.write(f"matrix {matrix.dimension} {matrix.nnz}\n")
    for r, c, v in zip(matrix.rows, matrix.cols, matrix.values):
        stream.write(f"e {r} {c} {v:.17g}\n")


def _geometry(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner coordinates, areas, and barycentric gradients per triangle."""
    corners = mesh.triangle_corners()
    d1 = corners[:, 1] - corners[:, 0]
    d2 = corners[:, 2] - corners[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * det
    inv_det = 1.0 / det
    grads = np.empty((len(corners), 3, 2))
    grads[:, 1, 0] = d2[:, 1] * inv_det
    grads[:, 1, 1] = -d2[:, 0] * inv_det
    grads[:, 2, 0] = -d1[:, 1] * inv_det
    grads[:, 2, 1] = d1[:, 0] * inv_det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return corners, area, grads


def _basis_at_bary(bary: np.ndarray, family: str) -> np.ndarray:
    """Values of the three local basis functions at barycentric points."""
    if family == P1:
        return bary
    return 1.0 - 2.0 * bary


_LOCAL_PAIRS = np.array([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)])


def _scatter(cell_dofs: np.ndarray, local: np.ndarray, n_dofs: int) -> SymSparse:
    """Accumulate symmetric 3x3 element matrices into a SymSparse."""
    a = _LOCAL_PAIRS[:, 0]
    b = _LOCAL_PAIRS[:, 1]
    rows = cell_dofs[:, a].ravel()
    cols = cell_dofs[:, b].ravel()
    vals = local[:, a, b].ravel()
    return SymSparse.from_entries(n_dofs, rows, cols, vals)


def _coefficient_values(coeff: CoefficientField, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    alpha = np.broadcast_to(np.asarray(coeff.alpha(x, y), dtype=float), x.shape)
    beta = np.broadcast_to(np.asarray(coeff.beta(x, y), dtype=float), x.shape)
    for name, vals in (("alpha", alpha), ("beta", beta)):
        if not (vals > 0.0).all():
            bad = np.unravel_index(int(np.argmin(vals)), vals.shape)
            raise InvalidCoefficientError(
                f"coefficient {name} is {vals[bad]:g} <= 0 at quadrature point "
                f"({x[bad]:g}, {y[bad]:g})"
            )
    return alpha, beta


def assemble_stiffness(mesh: Mesh, dofmap: DofMap,
                       coeff: CoefficientField = UNIT_COEFFICIENTS) -> SymSparse:
    """Assemble ``a(u, v)``, triangle by triangle.

    Returns the symmetric positive definite stiffness-plus-mass matrix of the
    form with diffusion ``alpha`` and reaction ``beta``.
    """
    corners, area, grads = _geometry(mesh)
    if dofmap.family == CR:
        grads = -2.0 * grads
    quad = np.einsum("qc,tcd->tqd", TRIANGLE_QUADRATURE_BARY, corners)
    alpha, beta = _coefficient_values(UNIT_COEFFICIENTS if coeff is None else coeff,
                                      quad[..., 0], quad[..., 1])
    w = area[:, None] / 3.0
    # Gradients are constant per triangle, so the diffusion block is
    # (sum of w*alpha) * G G^T; the reaction block needs the basis values.
    grad_part = np.einsum("t,tad,tbd->tab", (w * alpha).sum(axis=1), grads, grads)
    basis = _basis_at_bary(TRIANGLE_QUADRATURE_BARY, dofmap.family)
    mass_part = np.einsum("tq,qa,qb->tab", w * beta, basis, basis)
    return _scatter(dofmap.cell_dofs, grad_part + mass_part, dofmap.n_dofs)


def _boundary_gauss_bary(local_edges: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of the edge Gauss points, shape (ne, 2, 3).

    On local edge ``i`` the barycentric coordinate of vertex ``i`` vanishes;
    the point at parameter ``t`` from the edge start has weight ``1 - t`` on
    the start vertex and ``t`` on the end vertex.
    """
    ne = len(local_edges)
    bary = np.zeros((ne, len(EDGE_GAUSS_POINTS), 3))
    idx = np.arange(ne)
    for g, t in enumerate(EDGE_GAUSS_POINTS):
        bary[idx, g, EDGE_STARTS[local_edges]] = 1.0 - t
        bary[idx, g, EDGE_ENDS[local_edges]] = t
    return bary


def assemble_boundary_mass(mesh: Mesh, dofmap: DofMap) -> SymSparse:
    """Assemble ``b(u, v)``, the boundary mass matrix.

    Rows and columns of dofs without boundary support vanish, so the matrix
    is positive semidefinite with a large kernel.
    """
    b_tris = mesh.boundary_edges[:, 0]
    b_locals = mesh.boundary_edges[:, 1]
    lengths = mesh.boundary_edge_lengths()
    bary = _boundary_gauss_bary(b_locals)  # (ne, 2, 3)
    traces = _basis_at_bary(bary.reshape(-1, 3), dofmap.family).reshape(bary.shape)
    w = lengths[:, None] * EDGE_GAUSS_WEIGHTS[None, :]
    local = np.einsum("eg,ega,egb->eab", w, traces, traces)
    return _scatter(dofmap.cell_dofs[b_tris], local, dofmap.n_dofs)


def evaluate_fe_many(values: np.ndarray, dofmap: DofMap,
                     tris: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Evaluate a finite element function at points inside given triangles.

    ``bary`` holds barycentric coordinates along its last axis; its leading
    axes broadcast against ``tris``, and the result has the broadcast shape.
    """
    basis = _basis_at_bary(bary.reshape(-1, 3), dofmap.family).reshape(bary.shape)
    return np.einsum("...a,...a->...", values[dofmap.cell_dofs[tris]], basis)
