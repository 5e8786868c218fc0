"""Norms, reference transfer, boundary errors, and convergence studies.

Error measurement against a finer reference never relocates points
geometrically: the meshes are nested by construction and walk their
boundaries alike, so each point of the fine boundary quadrature finds its
coarse triangle and barycentric coordinates from its place in the walk
(:class:`TransferredTrace`).  This keeps the error of the transfer itself at
rounding level.

The conforming reference (:func:`compute_reference`) is solved without a
factor of its own level.  Its level is halved down to level 8 or the first
level that cannot be halved; the P1 prolongations between these nested
meshes, whose weights are integer grid offsets over the level ratio
(:func:`~.mesh._prolongation`), carry a multigrid V-cycle that preconditions
LOBPCG.  LOBPCG starts from the prolonged eigenvectors of a direct solve on
the third halving of the reference level or the coarsest level of a shorter
hierarchy, moved up while it has fewer boundary dofs than start pairs.  The
spectrum of that start level sets the block width (:func:`_block_width`):
LOBPCG runs as long as its slowest column, so the block gets spare columns
past the ``k`` wanted ones only when no gap of ratio ``REFERENCE_GAP_RATIO``
follows ``lambda_k``, and then ends at the first such gap or after
``REFERENCE_SPARE_COLUMNS`` spares.  A P1 study level, or the P1 twin of a
CR level, takes the same path when it is at least ``STUDY_FACTOR_FREE_LEVEL``
and wants at most ``STUDY_FACTOR_FREE_PAIRS`` pairs, where it was measured
faster than a factor on all three domains; other study levels and
``steklovfem solve`` take the direct path of the same function,
:func:`_solve_mesh`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import fem
from .eigen import (DEFAULT_SEED, DEFAULT_TOL, ConvergenceFailureError, EigenSolution, Pencil,
                    _check_k, _check_tol, _multigrid_eigenpairs, solve_pencil)
from .fem import (P1, CoefficientField, DofMap, UNIT_COEFFICIENTS,
                  assemble_boundary_mass, assemble_stiffness, build_dof_map,
                  evaluate_fe_many)
from .interp import as_point_function
from .mesh import (SQRT2, DomainSpec, InvalidLevelError, Mesh, NestingError, _check_nesting,
                   _prolongation, _validate_level, edge_slit_sides, generate_mesh)

__all__ = [
    "FeFunction",
    "TransferredTrace",
    "ReferenceSpec",
    "ReferenceSolution",
    "ConvergenceRow",
    "ConvergenceTable",
    "AmbiguousAlignmentError",
    "NestingError",
    "UndefinedRatioError",
    "REFERENCE_INTERVALS",
    "align_sign",
    "transfer_reference",
    "boundary_l2_error",
    "convergence_ratio",
    "compute_reference",
    "run_convergence_study",
]

# Reference enclosures for the second Steklov eigenvalue with unit
# coefficients, from independent high-accuracy computations.  The midpoint
# serves as the reference value; the enclosure width bounds its error.
REFERENCE_INTERVALS: dict[tuple[str, int], tuple[float, float]] = {
    ("lshape", 2): (0.89364476, 0.89364690),
    ("slit", 2): (0.734554376, 0.73455822),
}

CLUSTER_GAP_TOL = 1e-8
# Reference solves halve the level down to this one for the multigrid hierarchy,
# and start from a direct solve this many halvings down, or on the coarsest level.
MULTIGRID_COARSEST_LEVEL = 8
MULTIGRID_START_HALVINGS = 3
# The LOBPCG block of a reference solve ends at the first start-level eigenvalue
# gap of this ratio from lambda_k on, and holds at most this many spare columns.
REFERENCE_GAP_RATIO = 1.5
REFERENCE_SPARE_COLUMNS = 3
# A P1 study level at least this fine, solved for at most this many pairs,
# takes the factor-free path of a reference.
STUDY_FACTOR_FREE_LEVEL = 256
STUDY_FACTOR_FREE_PAIRS = 3


class AmbiguousAlignmentError(Exception):
    """Raised when a sign alignment inner product is too small to trust."""


class UndefinedRatioError(ValueError):
    """Raised when a convergence ratio is requested for nonpositive errors."""


@dataclass
class FeFunction:
    """A finite element function: a mesh, a dof map, and dof values."""

    mesh: Mesh
    dofmap: DofMap
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.dofmap.n_dofs,):
            raise ValueError(
                f"expected {self.dofmap.n_dofs} dof values, got shape {self.values.shape}")
        if len(self.dofmap.cell_dofs) != self.mesh.n_triangles:
            raise ValueError("dof map does not belong to this mesh")

    def negated(self) -> "FeFunction":
        return FeFunction(self.mesh, self.dofmap, -self.values)


def _boundary_gauss(mesh: Mesh):
    """Per-boundary-edge Gauss data: triangles, barycentric points, weights,
    physical points, and slit-side flags."""
    tris, locs = mesh.boundary_edges.T
    bary = fem.EDGE_GAUSS_BARY[locs]
    weights = mesh.boundary_edge_lengths()[:, None] * fem.EDGE_GAUSS_WEIGHTS[None, :]
    points = np.einsum("egc,ecd->egd", bary, mesh.vertices[mesh.triangles[tris]])
    side = edge_slit_sides(mesh, *mesh.boundary_edge_vertices().T)
    return tris, bary, weights, points, side


@dataclass
class TransferredTrace:
    """A fine-mesh function viewed from a coarse mesh through nesting.

    Wraps a reference :class:`FeFunction` on a fine mesh whose level is a
    multiple ``r`` of the coarse level; errors against coarse functions
    integrate on the fine boundary partition.  Both boundary walks follow
    the grid from ``(0, 0)``, so fine boundary edge ``j`` lies in coarse edge
    ``j // r``, and its point at parameter ``t`` sits at ``(j % r + t) / r``
    on that edge: no search, no geometry.  The quadrature, its coarse
    points and the reference values on it are set up once, here, and shared
    by every error and sign alignment against this trace.
    """

    fn: FeFunction
    coarse_mesh: Mesh
    _weights: np.ndarray = field(init=False, repr=False)
    _values: np.ndarray = field(init=False, repr=False)
    _coarse_tris: np.ndarray = field(init=False, repr=False)
    _coarse_bary: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        fine, coarse = self.fn.mesh, self.coarse_mesh
        r = _check_nesting(coarse, fine)
        tris, bary, self._weights, _, _ = _boundary_gauss(fine)
        self._values = evaluate_fe_many(self.fn.values, self.fn.dofmap, tris[:, None], bary)
        edge, offset = np.divmod(np.arange(fine.n_boundary_edges)[:, None], r)
        self._coarse_tris = coarse.boundary_edges[edge, 0]
        self._coarse_bary = fem._edge_bary(coarse.boundary_edges[edge, 1],
                                           (offset + fem.EDGE_GAUSS_POINTS) / r)


def transfer_reference(fn: FeFunction, coarse_mesh: Mesh) -> TransferredTrace:
    """View a fine reference function from a coarse mesh of the same grid.

    Raises
    ------
    NestingError
        If ``coarse_mesh`` covers another domain or its level does not
        divide the level of the mesh of ``fn``.

    Examples
    --------
    A linear function, given by its vertex values, has equal P1 traces:

    >>> slit = DomainSpec("slit")
    >>> u, ref = (FeFunction(m, build_dof_map(m, P1), 1.0 + m.vertices @ [2.0, -1.0])
    ...           for m in (generate_mesh(slit, 4), generate_mesh(slit, 12)))
    >>> round(boundary_l2_error(u, transfer_reference(ref, u.mesh)), 14)
    0.0
    """
    return TransferredTrace(fn=fn, coarse_mesh=coarse_mesh)


def _paired_boundary_values(u: FeFunction, ref) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature weights and paired trace values of ``u`` and ``ref``.

    Dispatches on the reference type; all quadrature happens on the finest
    partition available so that every integrand is piecewise polynomial on
    every quadrature cell.  A finite element reference pairs as its ratio-1 transfer.
    """
    if isinstance(ref, FeFunction):
        if u.mesh.level != ref.mesh.level or u.mesh.domain.kind != ref.mesh.domain.kind:
            raise ValueError("functions live on different meshes; transfer one first")
        ref = TransferredTrace(ref, u.mesh)
    if isinstance(ref, TransferredTrace):
        coarse = ref.coarse_mesh
        if u.mesh.level != coarse.level or u.mesh.domain.kind != coarse.domain.kind:
            raise ValueError("function lives on a different mesh than the transferred trace")
        u_vals = evaluate_fe_many(u.values, u.dofmap, ref._coarse_tris, ref._coarse_bary)
        return ref._weights, u_vals, ref._values
    tris, bary, weights, points, side = _boundary_gauss(u.mesh)
    ref_vals = as_point_function(ref)(points[..., 0], points[..., 1], side[:, None])
    return weights, evaluate_fe_many(u.values, u.dofmap, tris[:, None], bary), ref_vals


def boundary_l2_error(u, ref) -> float:
    """Boundary L2 distance between a function and a reference.

    Symmetric in its arguments when both are finite element functions; a
    :class:`TransferredTrace` may appear on either side.
    """
    if isinstance(u, TransferredTrace) and not isinstance(ref, TransferredTrace):
        u, ref = ref, u
    weights, u_vals, ref_vals = _paired_boundary_values(u, ref)
    return float(math.sqrt((weights * (u_vals - ref_vals) ** 2).sum()))


def align_sign(u: FeFunction, ref) -> FeFunction:
    """Flip the sign of ``u`` so its boundary inner product with ``ref`` is positive.

    Raises
    ------
    AmbiguousAlignmentError
        If the inner product is below 1e-12 in absolute value, which signals
        a mismatched eigenpair rather than a sign ambiguity.
    """
    weights, u_vals, ref_vals = _paired_boundary_values(u, ref)
    ip = float((weights * u_vals * ref_vals).sum())
    if abs(ip) < 1e-12:
        raise AmbiguousAlignmentError(
            f"boundary inner product {ip:.3e} is too small to fix a sign")
    return u if ip > 0.0 else u.negated()


def convergence_ratio(coarse_error: float, fine_error: float) -> float:
    """The observed order ``log2(coarse/fine)`` for one refinement step."""
    if not (coarse_error > 0.0 and fine_error > 0.0) or not (
            math.isfinite(coarse_error) and math.isfinite(fine_error)):
        raise UndefinedRatioError(
            f"convergence ratio needs positive finite errors, got {coarse_error!r}, {fine_error!r}")
    return math.log2(coarse_error / fine_error)


@dataclass(frozen=True)
class ReferenceSpec:
    """How a study obtains its reference eigenvalue and eigenfunction.

    ``mode`` is ``"bracket"`` (midpoint of a tabulated enclosure),
    ``"richardson"`` (extrapolation from the three finest conforming
    eigenvalues at the theoretical rate), or ``"auto"`` (bracket when one is
    tabulated, otherwise richardson).  ``level`` is the reference mesh level
    for the eigenfunction trace.
    """

    mode: str = "auto"
    level: int = 512

    def __post_init__(self) -> None:
        if self.mode not in ("bracket", "richardson", "auto"):
            raise ValueError(f"unknown reference mode {self.mode!r}")

    def resolve_mode(self, domain: DomainSpec, eig_index: int) -> str:
        if self.mode == "auto":
            return "bracket" if (domain.kind, eig_index) in REFERENCE_INTERVALS else "richardson"
        return self.mode


@dataclass
class ReferenceSolution:
    """A conforming eigenfunction on the reference mesh, sign-normalized."""

    domain: DomainSpec
    level: int
    eig_index: int
    fn: FeFunction
    lambda_h: float


def _multigrid_levels(domain: DomainSpec, level: int) -> list[int]:
    """The reference level, then its halvings while they are valid levels >= 8."""
    levels = [level]
    while levels[-1] % 2 == 0 and levels[-1] // 2 >= MULTIGRID_COARSEST_LEVEL:
        try:
            _validate_level(domain, levels[-1] // 2)
        except InvalidLevelError:
            break
        levels.append(levels[-1] // 2)
    return levels


def _block_width(eigenvalues: np.ndarray, k: int) -> int:
    """LOBPCG block width for ``k`` wanted pairs, from ascending start-level eigenvalues.

    The smallest ``m >= k`` with ``lambda_{m+1} >= REFERENCE_GAP_RATIO *
    lambda_m``, so that the block's slowest column still converges at the
    rate of a gap; ``k + REFERENCE_SPARE_COLUMNS`` if no such gap shows
    among the ``k + REFERENCE_SPARE_COLUMNS`` eigenvalues given.

    Examples
    --------
    >>> _block_width(np.array([0.5, 1.0, 1.6, 2.0, 2.6]), 2)
    2
    >>> _block_width(np.array([0.5, 1.0, 1.0, 1.4, 2.3]), 2)
    4
    >>> _block_width(np.array([0.5, 1.0, 1.2, 1.4, 1.6]), 2)
    5
    """
    for m in range(k, k + REFERENCE_SPARE_COLUMNS):
        if eigenvalues[m] >= REFERENCE_GAP_RATIO * eigenvalues[m - 1]:
            return m
    return k + REFERENCE_SPARE_COLUMNS


def _solve_mesh(mesh: Mesh, family: str, coeff: CoefficientField, k: int, tol: float,
                seed: int, factor_free: bool = False) -> tuple[DofMap, EigenSolution]:
    """Dof map and ``k`` smallest eigenpairs of the pencil of ``mesh``.

    The pencil is solved directly (:func:`~.eigen.solve_pencil`) unless
    ``factor_free`` is set and an allowed start level has one P1 boundary
    dof, so one boundary edge, for each of the ``k + REFERENCE_SPARE_COLUMNS``
    pairs of the start solve.  Then no matrix of this level is factored: the
    stiffness matrix is SPD by construction, so a multigrid hierarchy of
    halved P1 levels preconditions LOBPCG, started from the prolonged
    eigenvectors of that direct solve on the deepest such level (Xu & Zhou's
    two-grid idea, Math. Comp. 70, 2001; see the module docstring).
    """
    _check_tol(tol)
    levels = _multigrid_levels(mesh.domain, mesh.level) if factor_free else [mesh.level]
    dofmap = build_dof_map(mesh, family)
    _check_k(k, dofmap.n_dofs)
    pencil = Pencil(assemble_stiffness(mesh, dofmap, coeff), assemble_boundary_mass(mesh, dofmap))
    meshes = [mesh] + [generate_mesh(mesh.domain, lvl) for lvl in levels[1:]]
    start_index = min(MULTIGRID_START_HALVINGS, len(levels) - 1)
    while start_index and meshes[start_index].n_boundary_edges < k + REFERENCE_SPARE_COLUMNS:
        start_index -= 1
    if not start_index:
        return dofmap, solve_pencil(pencil, k, tol=tol, seed=seed)
    prolongations = [_prolongation(coarse, fine) for fine, coarse in zip(meshes, meshes[1:])]
    coarse = _solve_mesh(meshes[start_index], P1, coeff, k + REFERENCE_SPARE_COLUMNS, tol,
                         seed)[1]
    start = coarse.eigenvectors[:, :_block_width(coarse.eigenvalues, k)]
    del meshes, coarse
    for p in reversed(prolongations[:start_index]):
        start = p @ start
    return dofmap, _multigrid_eigenpairs(pencil, prolongations, start, k, tol)


def _solve_study_level(mesh: Mesh, family: str, coeff: CoefficientField, k: int, tol: float,
                       seed: int) -> tuple[DofMap, EigenSolution]:
    """:func:`_solve_mesh` on a study level, factor-free where that is faster.

    That is a P1 level of at least ``STUDY_FACTOR_FREE_LEVEL`` with at most
    ``STUDY_FACTOR_FREE_PAIRS`` pairs; if its LOBPCG does not converge, the
    level is solved directly.
    """
    if family == P1 and mesh.level >= STUDY_FACTOR_FREE_LEVEL and k <= STUDY_FACTOR_FREE_PAIRS:
        try:
            return _solve_mesh(mesh, P1, coeff, k, tol, seed, factor_free=True)
        except ConvergenceFailureError:
            pass  # the direct path below
    return _solve_mesh(mesh, family, coeff, k, tol, seed)


def _check_eig_index(eig_index: int) -> None:
    if eig_index < 1:
        raise ValueError(f"eig_index must be at least 1, got {eig_index}")


def compute_reference(domain: DomainSpec, level: int, eig_index: int = 2,
                      coeff: CoefficientField = UNIT_COEFFICIENTS,
                      tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED) -> ReferenceSolution:
    """Solve the conforming P1 problem on the reference mesh.

    The solve factors no matrix of the reference level (see
    :func:`_solve_mesh`).  The eigenfunction sign is normalized so
    that its largest-magnitude boundary dof value is positive, making the
    reference deterministic.
    """
    _check_eig_index(eig_index)
    mesh = generate_mesh(domain, level)
    dofmap, sol = _solve_mesh(mesh, P1, coeff, eig_index, tol, seed, factor_free=True)
    values = sol.eigenvectors[:, eig_index - 1].copy()
    bvals = values[dofmap.boundary_dofs]
    if bvals[np.argmax(np.abs(bvals))] < 0.0:
        values = -values
    return ReferenceSolution(domain=domain, level=level, eig_index=eig_index,
                             fn=FeFunction(mesh, dofmap, values),
                             lambda_h=float(sol.eigenvalues[eig_index - 1]))


def _richardson_fit(levels: Sequence[int], lambdas: Sequence[float], rate: float) -> float:
    """Least-squares fit of ``lambda_h = lambda + C h**rate``."""
    h = np.array([SQRT2 / n for n in levels])
    design = np.column_stack([np.ones_like(h), h**rate])
    coefs, *_ = np.linalg.lstsq(design, np.asarray(lambdas, dtype=float), rcond=None)
    return float(coefs[0])


@dataclass
class ConvergenceRow:
    """One study level: eigenvalue, boundary trace error, and observed orders."""

    level: int
    h: float
    lambda_h: float
    lambda_error: float
    lambda_ratio: float | None
    u_error: float
    u_ratio: float | None


@dataclass
class ConvergenceTable:
    """The outcome of a convergence study, with serialization helpers."""

    domain: DomainSpec
    family: str
    eig_index: int
    reference_mode: str
    reference_level: int
    reference_lambda: float
    rows: list[ConvergenceRow]
    warnings: list[str]

    @property
    def expected_lambda_rate(self) -> float:
        return 2.0 * self.domain.expected_r

    @property
    def expected_u_rate(self) -> float:
        return self.domain.expected_r + 0.5

    def _cells(self) -> list[list[str]]:
        """Each row's printed cells: h, lambda, its ratio, the trace error, its ratio."""
        def cell(value: float | None) -> str:
            return "" if value is None else f"{value:.8f}"
        return [[f"sqrt2/{row.level}", cell(row.lambda_h), cell(row.lambda_ratio),
                 cell(row.u_error), cell(row.u_ratio)] for row in self.rows]

    def to_csv(self) -> str:
        lines = ["h,lambda,ratio_lambda,err_boundary,ratio_u"]
        return "\n".join(lines + [",".join(cells) for cells in self._cells()]) + "\n"

    def to_markdown(self) -> str:
        head = (f"| h | lambda_{self.eig_index} | ratio | err(u_{self.eig_index}) | ratio |\n"
                "|---|---|---|---|---|\n")
        return head + "\n".join(f"| {' | '.join(cells)} |" for cells in self._cells()) + "\n"


def _validate_levels(levels: Sequence[int], reference_level: int) -> list[int]:
    levels = [int(n) for n in levels]
    if not levels:
        raise ValueError("a study needs at least one level")
    for a, b in zip(levels, levels[1:]):
        if b != 2 * a:
            raise ValueError(f"study levels must double: {a} is followed by {b}")
    top = levels[-1]
    if reference_level <= top:
        raise ValueError(
            f"reference level {reference_level} must exceed the finest study level {top}")
    if 2 ** round(math.log2(reference_level / top)) * top != reference_level:
        raise ValueError(
            f"reference level {reference_level} must be a power-of-two multiple of {top}")
    return levels


def run_convergence_study(domain: DomainSpec, family: str, levels: Sequence[int],
                          eig_index: int = 2,
                          coeff: CoefficientField = UNIT_COEFFICIENTS,
                          reference: ReferenceSpec = ReferenceSpec(),
                          tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED,
                          reference_solution: ReferenceSolution | None = None) -> ConvergenceTable:
    """Reproduce one eigenvalue/eigenfunction convergence table.

    Each level is meshed, solved and measured in one pass: the pencil is
    solved for ``eig_index + 1`` pairs, the target eigenfunction is
    sign-aligned to the transferred reference, and the boundary L2 error is
    measured on the reference partition.  A Richardson reference fits the
    conforming eigenvalues of the three finest levels, which a CR study
    solves in the same pass.  Fine P1 levels with few pairs are solved
    without a factor (:func:`_solve_study_level`).  Ratios compare a level
    with the next finer one and sit on the coarser row; the finest row has
    none.

    Parameters
    ----------
    levels : sequence of int
        Ascending, each double the previous.
    reference_solution : ReferenceSolution, optional
        Reuse of a precomputed reference (its domain, level, and eigenvalue
        index must match; it must have been computed with the same
        coefficients).
    """
    _check_eig_index(eig_index)
    levels = _validate_levels(levels, reference.level)
    # Settings that cannot give a reference eigenvalue fail before any solve.
    mode = reference.resolve_mode(domain, eig_index)
    if mode == "bracket":
        try:
            lo, hi = REFERENCE_INTERVALS[(domain.kind, eig_index)]
        except KeyError:
            raise ValueError(
                f"no reference enclosure for ({domain.kind}, eigenvalue {eig_index}); "
                "use richardson") from None
        reference_lambda = 0.5 * (lo + hi)
    elif len(levels) < 3:
        raise ValueError("richardson extrapolation needs at least three study levels")
    warnings: list[str] = []

    if reference_solution is None:
        reference_solution = compute_reference(domain, reference.level, eig_index,
                                               coeff=coeff, tol=tol, seed=seed)
    else:
        ok = (reference_solution.domain.kind == domain.kind
              and reference_solution.level == reference.level
              and reference_solution.eig_index == eig_index)
        if not ok:
            raise ValueError("reference solution does not match the study configuration")

    fit_levels = levels[-3:] if mode == "richardson" else []
    lambda_hs: list[float] = []
    u_errors: list[float] = []
    fit_lambdas: list[float] = []
    for lvl in levels:
        mesh = generate_mesh(domain, lvl)
        dofmap, sol = _solve_study_level(mesh, family, coeff, eig_index + 1, tol, seed)
        lam = sol.eigenvalues
        target = float(lam[eig_index - 1])
        for nb in (eig_index - 2, eig_index):
            if 0 <= nb < len(lam):
                gap = abs(target - float(lam[nb])) / max(abs(target), 1.0)
                if gap < CLUSTER_GAP_TOL:
                    warnings.append(
                        f"level {lvl}: eigenvalue {eig_index} sits in a cluster "
                        f"(relative gap {gap:.2e}); pairing with the reference may be unstable")
        u_h = FeFunction(mesh, dofmap, sol.eigenvectors[:, eig_index - 1])
        trace = transfer_reference(reference_solution.fn, mesh)
        u_errors.append(boundary_l2_error(align_sign(u_h, trace), trace))
        lambda_hs.append(target)
        if lvl in fit_levels:
            del dofmap, sol, u_h, trace  # a CR solution is freed before its P1 twin is solved
            fit_lambdas.append(target if family == P1 else float(_solve_study_level(
                mesh, P1, coeff, eig_index + 1, tol, seed)[1].eigenvalues[eig_index - 1]))
    if fit_levels:
        reference_lambda = _richardson_fit(fit_levels, fit_lambdas, 2.0 * domain.expected_r)

    def ratio(lvl: int, what: str, errors: list[float]) -> float | None:
        """The observed order between ``errors[0]`` and the next finer ``errors[1]``."""
        if len(errors) < 2:
            return None
        try:
            return convergence_ratio(*errors)
        except UndefinedRatioError:
            warnings.append(f"level {lvl}: {what} ratio undefined (zero error)")
            return None

    lambda_errors = [abs(lh - reference_lambda) for lh in lambda_hs]
    rows = [ConvergenceRow(level=lvl, h=SQRT2 / lvl, lambda_h=lambda_hs[i],
                           lambda_error=lambda_errors[i],
                           lambda_ratio=ratio(lvl, "eigenvalue", lambda_errors[i:i + 2]),
                           u_error=u_errors[i],
                           u_ratio=ratio(lvl, "trace error", u_errors[i:i + 2]))
            for i, lvl in enumerate(levels)]
    return ConvergenceTable(domain=domain, family=family, eig_index=eig_index,
                            reference_mode=mode, reference_level=reference.level,
                            reference_lambda=reference_lambda, rows=rows,
                            warnings=warnings)
