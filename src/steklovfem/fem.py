"""P1 and Crouzeix-Raviart elements with symmetric sparse assembly.

The bilinear forms are

    a(u, v) = integral over the domain of  alpha grad(u).grad(v) + beta u v
    b(u, v) = integral over the boundary of  u v

assembled triangle by triangle (so the Crouzeix-Raviart form is the broken
one), each symmetric element matrix entry by entry for its six upper pairs.
Element integrals use the three edge-midpoint quadrature points, boundary
integrals the two-point Gauss rule on each edge; both are exact for the
polynomial integrands that arise with constant coefficients.

Assembly works through the mesh in blocks of ``ASSEMBLY_BLOCK`` triangles.
A block's arrays take a few hundred kilobytes each, so they stay in cache
across the kernel's passes instead of streaming from main memory.  The
element kernel writes every block's six entries into one preallocated
array, the COO triplets are written block by block into preallocated int32
index arrays, and one canonicalization turns them into the stored upper
triangle.  Triangle order, and with it the order in which duplicates are
summed, is that of the mesh, so the result does not depend on the block
size.

Dof maps, like the mesh, hold their indices as int32 (``mesh.INDEX_DTYPE``)
and build them in int32; only the Crouzeix-Raviart edge keys, and
``argsort``'s order, are int64 while a map is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import EDGE_ENDS, EDGE_STARTS, INDEX_DTYPE, Mesh

__all__ = [
    "P1",
    "CR",
    "DofMap",
    "CoefficientField",
    "SymSparse",
    "InvalidCoefficientError",
    "build_dof_map",
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


def _edge_bary(local_edges: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of the points at parameter ``t`` on local edges
    (broadcast together): ``1 - t`` on the edge's start vertex, ``t`` on its end."""
    return (np.eye(3)[EDGE_STARTS[local_edges]] * (1.0 - t)[..., None]
            + np.eye(3)[EDGE_ENDS[local_edges]] * t[..., None])


# Barycentric coordinates of the Gauss points on each local edge, shape (3, 2, 3).
EDGE_GAUSS_BARY = _edge_bary(np.arange(3)[:, None], EDGE_GAUSS_POINTS)

# Triangles per assembly block.  On the L-shape P1 level-512 kernel (2-core
# Xeon, 2 MB L2 per core) blocks of 4096 and 16384 took 0.07-0.08 s, 65536
# took 0.085-0.09 s and the whole mesh at once 0.13-0.15 s; the larger of
# the two fastest sizes makes fewer Python-level passes.
ASSEMBLY_BLOCK = 16384


def _blocks(n: int):
    """Slices of ``range(n)`` of ``ASSEMBLY_BLOCK`` items each, the last one partial."""
    return (slice(start, start + ASSEMBLY_BLOCK) for start in range(0, n, ASSEMBLY_BLOCK))


class InvalidCoefficientError(ValueError):
    """Raised when a coefficient is not strictly positive at a quadrature point,
    or so large that the stiffness matrix has non-finite entries."""


@dataclass
class DofMap:
    """Degree-of-freedom layout of one element family on one mesh.

    For P1 the dofs are the mesh vertices; for Crouzeix-Raviart they are the
    undirected edges, numbered lexicographically by sorted vertex pair, with
    values attached to edge midpoints.  ``cell_dofs[t, i]`` is the dof sitting
    opposite local vertex ``i`` of triangle ``t`` (for P1 simply vertex ``i``,
    and the array is the mesh's own int32 ``triangles``, not a copy).  The map
    holds no geometry: a dof's location follows from the mesh through
    ``cell_dofs``.

    Attributes
    ----------
    family : str
    n_dofs : int
    cell_dofs : ndarray of INDEX_DTYPE, shape (n_triangles, 3)
    boundary_dofs : ndarray of INDEX_DTYPE
        Sorted dof indices with support on the boundary.
    """

    family: str
    n_dofs: int
    cell_dofs: np.ndarray
    boundary_dofs: np.ndarray


def build_dof_map(mesh: Mesh, family: str) -> DofMap:
    """Number the degrees of freedom of a family on a mesh.

    Examples
    --------
    >>> from .mesh import DomainSpec, generate_mesh
    >>> build_dof_map(generate_mesh(DomainSpec("square"), 2), CR).n_dofs
    16
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown element family {family!r}; expected one of {_FAMILIES}")
    tris = mesh.triangles

    if family == P1:
        return DofMap(
            family=P1,
            n_dofs=mesh.n_vertices,
            cell_dofs=tris,
            boundary_dofs=np.unique(mesh.boundary_edge_vertices()),
        )

    nv = mesh.n_vertices
    # The edge key min * nv + max is int64: nv**2 passes the int32 range from
    # about level 215, and a wrapped key still counts the edges right but no
    # longer numbers them in lexicographic order.
    # Each spent temporary is freed at once: glibc keeps freed heap resident,
    # and freeing them only on return left 24 MB more of it after the slit
    # level-512 map (assemble benchmark peak 284 MB against 272 MB).
    heads = tris[:, EDGE_STARTS].ravel()
    tails = tris[:, EDGE_ENDS].ravel()
    keys = np.minimum(heads, tails, dtype=np.int64)
    keys *= nv
    keys += np.maximum(heads, tails)
    del heads, tails
    # Triangles run row by row, so the keys come in long sorted runs, which
    # the stable sort (timsort) merges quickly; each edge is numbered at its
    # first occurrence in sorted order.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    del keys
    numbers = np.cumsum(first, dtype=INDEX_DTYPE)
    numbers -= 1
    cell_dofs = np.empty(len(order), dtype=INDEX_DTYPE)
    cell_dofs[order] = numbers
    n_dofs = int(numbers[-1]) + 1
    del first, order, numbers
    cell_dofs = cell_dofs.reshape(-1, 3)
    # All three traces of a boundary triangle are nonzero on its boundary
    # edge (the two non-midpoint ones are odd linear functions there).
    bdofs = np.unique(cell_dofs[mesh.boundary_edges[:, 0]].ravel())
    return DofMap(
        family=CR,
        n_dofs=n_dofs,
        cell_dofs=cell_dofs,
        boundary_dofs=bdofs,
    )


@dataclass(frozen=True)
class CoefficientField:
    """Strictly positive coefficients ``alpha`` (diffusion) and ``beta`` (reaction).

    Both callables take coordinate arrays ``(x1, x2)`` and return values of
    the same shape.  Assembly calls them once per block of triangles, so
    they must be pointwise: a value may depend only on its own point.
    Positivity is enforced at the quadrature points during assembly.
    """

    alpha: Callable[[np.ndarray, np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray, np.ndarray], np.ndarray]


def affine(c0: float, cx: float = 0.0, cy: float = 0.0) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The affine function ``c0 + cx*x1 + cy*x2`` as a coefficient callable."""
    return lambda x, y: c0 + cx * np.asarray(x, dtype=float) + cy * np.asarray(y, dtype=float)


UNIT_COEFFICIENTS = CoefficientField(alpha=affine(1.0), beta=affine(1.0))


@dataclass
class SymSparse:
    """A symmetric sparse matrix stored as its upper triangle in CSR form.

    ``upper`` is canonical: entries have ``row <= col``, column indices are
    sorted within each row, duplicates are summed and exact zeros dropped, so
    equal matrices have identical storage.  It is only the form assembly
    returns and :func:`write_matrix` dumps; solvers build none and take the
    full symmetric CSR matrix, built on the first :meth:`to_csr` call and cached.
    """

    upper: sp.csr_matrix
    _csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return self.upper.shape[0]

    @property
    def nnz(self) -> int:
        return self.upper.nnz

    def to_csr(self) -> sp.csr_matrix:
        """Full symmetric CSR matrix (cached)."""
        if self._csr is None:
            self._csr = (self.upper + sp.triu(self.upper, k=1).T).tocsr()
        return self._csr


def write_matrix(matrix: SymSparse, stream) -> None:
    """Write the plain-text symmetric matrix format.

    Header ``matrix <dimension> <nnz>`` followed by one line
    ``e <row> <col> <value>`` per stored upper-triangle entry, row-major.
    """
    upper = matrix.upper
    stream.write(f"matrix {matrix.dimension} {matrix.nnz}\n")
    rows = np.repeat(np.arange(matrix.dimension), np.diff(upper.indptr))
    for r, c, v in zip(rows, upper.indices, upper.data):
        stream.write(f"e {r} {c} {v:.17g}\n")


def _basis_at_bary(bary: np.ndarray, family: str) -> np.ndarray:
    """Values of the three local basis functions at barycentric points."""
    if family == P1:
        return bary
    return 1.0 - 2.0 * bary


# The six upper-triangle entries (a, b) of a symmetric 3x3 element matrix.
_LOCAL_PAIRS = np.array([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)])
_PAIR_A, _PAIR_B = _LOCAL_PAIRS.T


def _scatter(cell_dofs: np.ndarray, entries: np.ndarray, n_dofs: int) -> SymSparse:
    """The canonical upper triangle of element entries, one column per ``_LOCAL_PAIRS`` row."""
    lo = np.empty(entries.shape, dtype=np.int32)
    hi = np.empty(entries.shape, dtype=np.int32)
    for block in _blocks(len(cell_dofs)):
        a, b = cell_dofs[block, _PAIR_A], cell_dofs[block, _PAIR_B]
        np.minimum(a, b, out=lo[block])
        np.maximum(a, b, out=hi[block])
    upper = sp.coo_matrix((entries.ravel(), (lo.ravel(), hi.ravel())), shape=(n_dofs, n_dofs)).tocsr()
    upper.eliminate_zeros()  # tocsr sums duplicates, but keeps explicit zeros
    return SymSparse(upper)


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


def _corners(mesh: Mesh, block: slice) -> tuple[np.ndarray, np.ndarray]:
    """Corner coordinates ``x, y`` of a block of triangles, each shape (n, 3)."""
    tris = mesh.triangles[block]
    return mesh.vertices[tris, 0], mesh.vertices[tris, 1]


def _quadrature_points(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edge midpoints of triangles with corners ``x, y``: point q is opposite vertex q."""
    return tuple(0.5 * (c[:, EDGE_STARTS] + c[:, EDGE_ENDS]) for c in (x, y))


def _element_entries(x: np.ndarray, y: np.ndarray, family: str, coeff: CoefficientField,
                     out: np.ndarray) -> None:
    """Write the ``_LOCAL_PAIRS`` entries of the element matrices of ``a(u, v)``
    on triangles with corners ``x, y`` into ``out``."""
    alpha, beta = _coefficient_values(coeff, *_quadrature_points(x, y))
    # Local edge q, opposite vertex q, turned a quarter turn counterclockwise,
    # over det, is the gradient of barycentric coordinate q.
    gx = y[:, EDGE_STARTS] - y[:, EDGE_ENDS]
    gy = x[:, EDGE_ENDS] - x[:, EDGE_STARTS]
    det = gx[:, 1] * gy[:, 2] - gx[:, 2] * gy[:, 1]
    w = (0.5 * det / 3.0)[:, None]
    # The Crouzeix-Raviart basis functions are 1 - 2*lambda.
    scale = ((-2.0 if family == CR else 1.0) / det)[:, None]
    for g in (gx, gy):
        g[:, 1:] *= scale
        g[:, 0] = -(g[:, 1] + g[:, 2])  # barycentric coordinates sum to 1
    # Gradients are constant per triangle: diffusion entries are (sum of
    # w*alpha) * grad_a.grad_b.
    s = (w * alpha).sum(axis=1)[:, None]
    np.multiply(gx[:, _PAIR_A], s, out=out)
    out *= gx[:, _PAIR_B]
    cross = gy[:, _PAIR_A]
    cross *= s
    cross *= gy[:, _PAIR_B]
    out += cross
    basis = _basis_at_bary(TRIANGLE_QUADRATURE_BARY, family)
    out += np.einsum("tq,qp->tp", w * beta, basis[:, _PAIR_A] * basis[:, _PAIR_B])


def _stiffness_entries(mesh: Mesh, family: str, coeff: CoefficientField) -> np.ndarray:
    """The ``_LOCAL_PAIRS`` entries of every element matrix of ``a(u, v)``, shape (n, 6)."""
    entries = np.empty((mesh.n_triangles, len(_LOCAL_PAIRS)))
    try:
        for block in _blocks(mesh.n_triangles):
            _element_entries(*_corners(mesh, block), family, coeff, entries[block])
    except InvalidCoefficientError:
        # A block names its own first minimum; the error names the mesh's,
        # the first in (triangle, point) order.
        _coefficient_values(coeff, *_quadrature_points(*_corners(mesh, slice(None))))
        raise
    return entries


def assemble_stiffness(mesh: Mesh, dofmap: DofMap,
                       coeff: CoefficientField = UNIT_COEFFICIENTS) -> SymSparse:
    """Assemble ``a(u, v)``, triangle by triangle.

    Returns the symmetric positive definite stiffness-plus-mass matrix of the
    form with diffusion ``alpha`` and reaction ``beta``.

    Examples
    --------
    The level-2 square has 9 vertices and 16 edges, one stored entry each:

    >>> from .mesh import DomainSpec, generate_mesh
    >>> mesh = generate_mesh(DomainSpec("square"), 2)
    >>> assemble_stiffness(mesh, build_dof_map(mesh, P1)).nnz
    25
    """
    # An infinite or huge coefficient makes inf/nan entries; they are
    # counted below, so numpy's warnings about them would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        entries = _stiffness_entries(mesh, dofmap.family, coeff)
        matrix = _scatter(dofmap.cell_dofs, entries, dofmap.n_dofs)
    finite = np.isfinite(matrix.upper.data)
    if not finite.all():
        raise InvalidCoefficientError(
            f"stiffness matrix has {finite.size - np.count_nonzero(finite)} non-finite "
            f"entries: a coefficient is infinite or too large")
    return matrix


def assemble_boundary_mass(mesh: Mesh, dofmap: DofMap) -> SymSparse:
    """Assemble ``b(u, v)``, the boundary mass matrix.

    Rows and columns of dofs without boundary support vanish, so the matrix
    is positive semidefinite with a large kernel.
    """
    b_tris, b_locals = mesh.boundary_edges.T
    lengths = mesh.boundary_edge_lengths()
    bary = EDGE_GAUSS_BARY[b_locals]  # (ne, 2, 3)
    traces = _basis_at_bary(bary, dofmap.family)
    w = lengths[:, None] * EDGE_GAUSS_WEIGHTS[None, :]
    entries = np.einsum("egp,egp->ep", w[:, :, None] * traces[:, :, _PAIR_A], traces[:, :, _PAIR_B])
    return _scatter(dofmap.cell_dofs[b_tris], entries, dofmap.n_dofs)


def evaluate_fe_many(values: np.ndarray, dofmap: DofMap,
                     tris: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Evaluate a finite element function at points inside given triangles.

    ``bary`` holds barycentric coordinates along its last axis; its leading
    axes broadcast against ``tris``, and the result has the broadcast shape.
    """
    basis = _basis_at_bary(bary, dofmap.family)
    return np.einsum("...a,...a->...", values[dofmap.cell_dofs[tris]], basis)
