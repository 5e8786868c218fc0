"""Generalized eigensolvers for the pencil ``A u = lambda B u``.

``A`` is symmetric positive definite, ``B`` symmetric positive semidefinite
and supported on the few boundary dofs, so the finite eigenpairs are those
of the boundary pencil ``S x = lambda B_bb x``, where ``S`` is the Schur
complement of ``A`` on the boundary dofs (the discrete Poincare-Steklov, or
Dirichlet-to-Neumann, map) and ``B_bb`` the boundary block of ``B``.  The
iterative solver finds the ``k`` smallest of them with implicitly restarted
Lanczos (ARPACK, see Lehoucq, Sorensen & Yang, *ARPACK Users' Guide*, SIAM
1998) in shift-invert mode on that boundary pencil, with vectors of boundary
length only, then polishes the harmonic extensions of its vectors with
Rayleigh-Ritz sweeps of inverse subspace iteration on the full pencil until
every residual meets the tolerance.  Lanczos stops at that same
tolerance, not at machine precision, since the sweeps decide convergence.
Both stages apply ``A^{-1}`` through one sparse factorization, and neither
forms ``S``.

Reference solves on fine P1 meshes factor no matrix of their own level, so
their memory stays linear in the number of dofs.  LOBPCG (Knyazev, SIAM J.
Sci. Comput. 23, 2001), preconditioned by a geometric multigrid V-cycle and
started from prolonged coarse eigenvectors, iterates until the wanted pairs
meet the sweeps' own relative residual test; one Rayleigh-Ritz step of the
sweeps then checks and returns them.  The LOBPCG is written for this
pencil: it stores its blocks as rows, so ``A`` and the V-cycle apply to one
contiguous vector at a time, applies ``B`` on the boundary rows only, and
holds no ``B``-image of a block.

Both paths end in :class:`ConvergenceFailureError` when the tolerance is
missed: the factored one after ``MAX_SWEEPS`` sweeps, twice what converging
runs take, the factor-free one after ``LOBPCG_MAXITER`` LOBPCG iterations
and its one Rayleigh-Ritz step.  A Lanczos run that stops short raises it
as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import SymSparse

__all__ = [
    "Pencil",
    "EigenSolution",
    "SpdFactor",
    "NotPositiveDefiniteError",
    "ConvergenceFailureError",
    "factorize_spd",
    "solve_pencil",
    "dense_oracle",
    "DEFAULT_TOL",
    "DEFAULT_SEED",
    "DENSE_ORACLE_MAX_DIM",
]

DEFAULT_TOL = 1e-10
DEFAULT_SEED = 1729
MAX_SWEEPS = 4
# Multigrid reference solves (see _multigrid_eigenpairs).
JACOBI_DAMPING = 0.8
LOBPCG_MAXITER = 40
SVQB_DROP = 1e-12
DENSE_ORACLE_MAX_DIM = 3000


class NotPositiveDefiniteError(Exception):
    """Raised when a matrix required to be SPD is not."""


class ConvergenceFailureError(Exception):
    """Raised when Lanczos stops short or the sweeps exhaust ``MAX_SWEEPS``.

    Carries ``k`` eigenvalue estimates and their residuals: the sweeps' last
    ones, or the Ritz values Lanczos converged, then NaN, with ``inf`` residuals.
    """

    def __init__(self, message: str, eigenvalues: np.ndarray, residuals: np.ndarray):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.residuals = residuals


class Pencil:
    """The matrix pair of a generalized eigenproblem ``A u = lambda B u``.

    Built from the assembled :class:`SymSparse` matrices, it keeps only what
    the solvers read: ``a`` and ``b`` as full symmetric CSR matrices, each
    converted once, the ``boundary`` rows (those of ``B`` that hold entries,
    ascending) and ``b_bb``, the block of ``B`` on them.  Every stored column
    of ``B`` lies in ``boundary`` too, so ``B`` vanishes outside that block.
    No reference to the arguments is kept, so their upper triangles are
    freed once the caller drops them.
    """

    def __init__(self, a: SymSparse, b: SymSparse):
        if a.dimension != b.dimension:
            raise ValueError(f"pencil matrices disagree in size: {a.dimension} vs {b.dimension}")
        if b.nnz == 0:
            raise ValueError("the right-hand matrix of the pencil is zero")
        self.a = a.to_csr()
        self.b = b.to_csr()
        self.boundary = np.flatnonzero(np.diff(self.b.indptr))
        self.b_bb = self.b[self.boundary][:, self.boundary]

    @property
    def dimension(self) -> int:
        return self.a.shape[0]


@dataclass
class EigenSolution:
    """Eigenpairs sorted ascending, with B-normalized eigenvectors.

    ``eigenvectors[:, j]`` satisfies ``u^T B u = 1`` and the pairs are
    B-orthogonal; ``residual_norms[j]`` is ``|A u - lambda B u| / |A u|``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: np.ndarray


class SpdFactor:
    """A sparse Cholesky-type factorization of an SPD matrix, given in full CSR form.

    Uses SuperLU in symmetric mode with diagonal pivoting only.  Definiteness
    is certified before factoring when the matrix is strictly diagonally
    dominant with a positive diagonal (:func:`_diagonally_dominant`), as the
    assembled stiffness matrices are.  Otherwise the factor's pivots certify
    it, since an SPD matrix factors without row pivoting and with positive
    pivots; reading them makes SuperLU build CSC copies of ``L`` and ``U``
    that live as long as the factor, so the cheap test comes first.

    The panel width is 1.  SuperLU's factorization keeps a zeroed, hence
    resident, workspace of about ``3w + ...`` words per row for panel width
    ``w`` (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl.
    20, 1999), and at the default width that transient, not the factor, is
    the peak.  The width changes neither the fill nor the solves.
    """

    def __init__(self, matrix: sp.csr_matrix):
        dominant = _diagonally_dominant(matrix)
        # A symmetric CSR matrix's transpose is its CSC form, sharing the arrays.
        try:
            lu = spla.splu(matrix.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           panel_size=1, options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # exactly singular
            raise NotPositiveDefiniteError(str(exc)) from exc
        if not (lu.perm_r == lu.perm_c).all() or not (dominant or (lu.U.diagonal() > 0.0).all()):
            raise NotPositiveDefiniteError("matrix is not positive definite")
        self._lu = lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for a vector or a block of columns."""
        return self._lu.solve(np.asarray(rhs, dtype=float))


def _diagonally_dominant(csr: sp.csr_matrix) -> bool:
    """Whether a symmetric matrix is SPD by strict diagonal dominance.

    By Gershgorin's theorem every eigenvalue of a symmetric matrix lies in
    some ``[d_i - off_i, d_i + off_i]``, with ``d_i`` the diagonal entry and
    ``off_i = sum_{j != i} |a_ij|``, so ``d_i > off_i`` in every row makes it
    positive definite (Varga, *Gersgorin and His Circles*, Springer 2004).
    The test asks for ``d_i > 0`` and a margin ``d_i - off_i`` above
    ``2 nnz_i eps (d_i + off_i)``, which bounds the rounding of the row sum
    over the row's ``nnz_i`` stored entries.  A row without a stored
    diagonal entry, empty or not, fails it.  O(nnz).

    >>> _diagonally_dominant(sp.csr_matrix([[2.0, -1.0], [-1.0, 2.0]]))
    True
    >>> _diagonally_dominant(sp.csr_matrix([[1.0, 2.0], [2.0, 1.0]]))
    False
    """
    n = csr.shape[0]
    counts = np.diff(csr.indptr)
    magnitudes = np.abs(csr.data)
    magnitudes[csr.indices == np.repeat(np.arange(n, dtype=csr.indices.dtype), counts)] = 0.0
    # The product sums each row's magnitudes in storage order; unlike
    # np.add.reduceat, it reads an empty row as 0.
    off = sp.csr_matrix((magnitudes, csr.indices, csr.indptr), shape=csr.shape) @ np.ones(n)
    diag = csr.diagonal()
    guard = 2.0 * np.finfo(float).eps * counts * (diag + off)
    return bool((diag > 0.0).all() and (diag - off > guard).all())


def factorize_spd(matrix: sp.csr_matrix) -> SpdFactor:
    """Factor an SPD matrix given as a full symmetric CSR matrix."""
    return SpdFactor(matrix)


def _sym(m):
    return 0.5 * (m + m.T)


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")


def _check_tol(tol: float) -> None:
    if not 0.0 < tol <= 1e-6:
        raise ValueError(f"tol must lie in (0, 1e-6], got {tol!r}")


def _start_block(factor: SpdFactor, pencil: Pencil, k: int, tol: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Start block of the sweeps: ``A^{-1} B X``, ``X`` on the boundary dofs.

    ``X`` holds ``k`` dominant eigenvectors of ``A^{-1} B`` from Lanczos, or
    a full Gaussian block on small boundaries.

    The ``nb`` boundary dofs are the pencil's ``boundary`` rows.  With ``R``
    the restriction to them, ``S^{-1} = R A^{-1} R^T`` applies through
    ``factor.solve`` on a scattered vector.  Lanczos runs in ARPACK's
    shift-invert mode (mode 3, shift 0) on ``S x = lambda B_bb x``: it applies
    ``S^{-1}`` and ``B_bb``, never ``S`` or ``A``, orthogonalizes vectors of
    length ``nb`` instead of ``n``, and returns the smallest ``lambda``
    (spectral transformation Lanczos: Ericsson & Ruhe, Math. Comp. 35, 1980;
    Nour-Omid, Parlett, Ericsson & Jensen, Math. Comp. 48, 1987).  Its
    vectors, zero-padded to ``n`` rows, go through ``A^{-1} B`` once, which
    maps them to the ``A``-harmonic extensions that span the Krylov space of
    Lanczos on ``A^{-1} B`` itself.

    For Crouzeix-Raviart elements ``B_bb`` is only semidefinite, and Lanczos
    in a semidefinite inner product loses orthogonality once many Ritz pairs
    converge (on slit CR level 64 with ``k = 48`` it returned negative
    ``lambda`` from every start).  ``B_bb`` therefore enters with its
    diagonal raised by one rounding unit, which makes the inner product
    definite and changes the pencil by no more than its own rounding.  Its
    kernel still carries only an inner product of rounding size, and a
    Krylov space that exhausts the range of ``B_bb`` turns to it (on CR
    levels 4 to 8 this broke Lanczos from ``2k + 1 >= 0.56 nb`` on).  So when
    the ``2k + 1`` Lanczos vectors would fill a third of the boundary space
    or more, the block is a full Gaussian one on the boundary dofs, which
    the first sweep resolves exactly.  ``A^{-1} B`` spreads its columns over
    the whole spectrum, so they are orthonormalized (thin QR) before the
    sweeps form their ``A``-Gram matrix, which would otherwise square that
    spread and lose digits.

    Lanczos stops once its Ritz pairs meet ``tol`` relative to their Ritz
    values, not at machine precision, since the sweeps enforce ``tol`` on
    the full pencil.  The harmonic extensions are solved one column at a
    time into a C-ordered ``n x k`` block, so no block right-hand side is
    held next to the result and the sweeps' sparse products need no copy of
    a Fortran-ordered block.

    The start vector and any restart vector come from ``rng``, so the block
    is deterministic.  If Lanczos stops short, ``ConvergenceFailureError``
    carries the Ritz values it did converge.
    """
    n, bd = pencil.dimension, pencil.boundary
    nb = bd.size

    # Every stored column of B lies in bd, in order, so B[:, bd] @ block sums
    # the same products as B @ (block zero-padded to n rows), without the padding.
    b_cols = pencil.b[:, bd]

    if nb <= 3 * (2 * k + 1):
        return np.linalg.qr(factor.solve(b_cols @ rng.standard_normal((nb, nb))))[0]

    def schur_inv(r: np.ndarray) -> np.ndarray:
        x = np.zeros(n)
        x[bd] = r
        return factor.solve(x)[bd]

    b_bb = pencil.b_bb + sp.diags(np.finfo(float).eps * pencil.b_bb.diagonal())
    # Mode 3 never applies S: it reads only the shape of its first argument.
    schur = spla.LinearOperator((nb, nb), matvec=None, dtype=float)
    try:
        block = spla.eigsh(schur, k, M=b_bb, sigma=0.0, which="LM",
                           OPinv=spla.LinearOperator((nb, nb), matvec=schur_inv, dtype=float),
                           v0=rng.standard_normal(nb), tol=tol, rng=rng)[1]
    except spla.ArpackNoConvergence as exc:
        eigenvalues = np.full(k, np.nan)
        eigenvalues[:exc.eigenvalues.size] = exc.eigenvalues
        raise ConvergenceFailureError(
            f"shift-invert Lanczos (ARPACK) stopped with {exc.eigenvalues.size} of {k} "
            f"eigenpairs converged", eigenvalues, np.full(k, np.inf)) from exc
    z = np.empty((n, k))
    for j in range(k):
        z[:, j] = factor.solve(b_cols @ block[:, j])
    return z


def solve_pencil(pencil: Pencil, k: int, tol: float = DEFAULT_TOL,
                 seed: int = DEFAULT_SEED) -> EigenSolution:
    """Compute the ``k`` smallest eigenpairs of ``A u = lambda B u``.

    Lanczos on the boundary dofs, started from a fixed-seed Gaussian
    vector and stopped at ``tol``, gives a block of ``k`` vectors;
    Rayleigh-Ritz sweeps of inverse subspace iteration on that block then
    run until every requested pair reaches the relative residual tolerance.
    At least one sweep always runs, since raw Lanczos vectors can miss a
    tolerance near round-off.  Sweeps after the first apply ``A^{-1}`` as a
    factor solve plus one step of iterative refinement, so they do not
    repeat the factor's own solve error.  Results are deterministic for
    fixed inputs and seed.

    Raises
    ------
    NotPositiveDefiniteError
        If ``A`` fails to factor as SPD.
    ConvergenceFailureError
        If Lanczos stops short, or the residuals do not reach ``tol`` within
        ``MAX_SWEEPS`` sweeps.
    """
    _check_k(k, pencil.dimension)
    _check_tol(tol)
    factor = factorize_spd(pencil.a)

    # Passed without a name, so the sweeps can drop the start block after its last use.
    return _rayleigh_ritz_sweeps(pencil,
                                 _start_block(factor, pencil, k, tol, np.random.default_rng(seed)),
                                 k, tol, _refined_inverse(factor, pencil.a))


def _refined_inverse(factor: SpdFactor,
                     a_csr: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    """``A^{-1}`` as a factor solve plus one step of iterative refinement.

    Without the refinement every sweep repeats the factor's solve error, and
    on CR level 512 the residuals stall above tol.  The residual ``b - A x``
    overwrites the argument ``b`` column by column, so ``A`` reads the
    columns of SuperLU's Fortran-ordered solve without a C-ordered copy.
    """

    def a_inv(rhs: np.ndarray) -> np.ndarray:
        x = factor.solve(rhs)
        for j in range(x.shape[1]):
            rhs[:, j] -= a_csr @ x[:, j]
        x += factor.solve(rhs)
        return x

    return a_inv


def _rayleigh_ritz_sweeps(pencil: Pencil, z: np.ndarray, k: int, tol: float,
                          a_inv: Callable[[np.ndarray], np.ndarray] | None) -> EigenSolution:
    """Rayleigh-Ritz on ``span(z)``, then inverse subspace iteration until converged.

    Each sweep after the first replaces the block by ``a_inv(B u)``, where
    ``a_inv`` applies ``A^{-1}`` to a block of columns and may overwrite its
    argument, and projects again; the loop returns as soon as every
    requested pair reaches the relative residual tolerance, and raises
    ``ConvergenceFailureError`` after ``MAX_SWEEPS`` sweeps.  Without
    ``a_inv`` (``None``) only the first sweep runs: the Rayleigh-Ritz step
    checks a block that has already converged.

    Every ``n``-row block is dropped after its last use.  Besides its Ritz
    block a sweep holds at most two ``n x k`` blocks: the candidate vectors
    and their image under ``A``.  ``B u`` vanishes off the boundary rows, so
    the residual ``A u - lambda B u`` is formed on those rows only, and the
    squares of ``A u`` and of the residual overwrite ``A u`` in turn; the
    column norms are summed as ``np.linalg.norm`` sums them, so no bit
    changes.  The ``B``-Gram matrix is summed over the boundary rows too,
    as ``z_bd^T (B_bb z_bd)`` with the pencil's ``b_bb``, so the first sweep
    never applies the full ``B``.  While ``a_inv`` runs, only ``B u`` is alive.
    A caller that passes ``z`` without keeping a name for it lets the first
    sweep free it.
    """
    eigenvalues = np.full(k, np.nan)
    residuals = np.full(k, np.inf)
    a_csr, bd, b_bb = pencil.a, pencil.boundary, pencil.b_bb
    sweeps = MAX_SWEEPS if a_inv else 1

    for sweep in range(sweeps):
        if sweep:
            bx = pencil.b @ x
            del x
            z = a_inv(bx)
            del bx
        az = a_csr @ z
        a_small = _sym(z.T @ az)
        del az
        s, q = sla.eigh(a_small)
        keep = s > max(s.max(), 0.0) * 1e-13
        if not keep.any():
            raise ConvergenceFailureError(
                "iteration block collapsed into the kernel of B", eigenvalues, residuals)
        w = q[:, keep] / np.sqrt(s[keep])
        if w.shape[1] < k:
            raise ValueError(
                f"pencil appears to have fewer than k={k} finite eigenvalues")
        b_small = _sym(w.T @ (z[bd].T @ (b_bb @ z[bd])) @ w)
        mu, v = sla.eigh(b_small)
        mu = mu[::-1]
        v = v[:, ::-1]
        x = z @ (w @ v)
        del z

        lam = 1.0 / mu[:k]
        cand = x[:, :k] / np.sqrt(mu[:k])
        au = a_csr @ cand
        # Off the boundary rows the residual is A u; norm(x, axis=0) is
        # sqrt(add.reduce(x * x, axis=0)).
        r_bd = au[bd] - (b_bb @ cand[bd]) * lam
        np.square(au, out=au)
        scale = np.sqrt(np.add.reduce(au, axis=0))
        au[bd] = np.square(r_bd)
        del r_bd
        res = np.sqrt(np.add.reduce(au, axis=0)) / scale
        eigenvalues, residuals = lam, res
        if (res <= tol).all():
            return EigenSolution(eigenvalues=lam, eigenvectors=cand, residual_norms=res)
        del cand, au

    raise ConvergenceFailureError(
        f"subspace iteration did not reach tol={tol:g} in {sweeps} sweep{'s' * (sweeps > 1)} "
        f"(worst residual {residuals.max():g})", eigenvalues, residuals)


class _VCycle:
    """A symmetric multigrid V-cycle for ``A x = r`` on nested P1 spaces.

    ``prolongations[l]`` maps level ``l + 1`` into level ``l``, finest
    first.  Coarse matrices are the Galerkin products ``P^T A P``, each
    level smooths with one damped-Jacobi step before and one after its
    coarse correction, and the coarsest level is solved through
    :func:`factorize_spd`, so the cycle is a symmetric positive definite
    approximation of ``A^{-1}``.  It applies to one vector: LOBPCG passes
    it one row of a block at a time.  Each level restricts through ``P^T``,
    a CSC view that shares ``P``'s arrays; its products sum in the same
    order as a CSR copy's.  The Galerkin product is formed with a temporary
    CSR transpose, which keeps the coarse matrices' bits (the view there
    changes the rounding).
    The coarsest, ``C``, is factored as its symmetric part ``(C + C^T) / 2``,
    exactly symmetric, as the factor needs, since addition commutes.
    """

    def __init__(self, a_csr: sp.csr_matrix, prolongations: list[sp.csr_matrix]):
        self.levels = []
        for p in prolongations:
            self.levels.append((a_csr, JACOBI_DAMPING / a_csr.diagonal(), p, p.T))
            a_csr = (p.T.tocsr() @ a_csr @ p).tocsr()
        self.coarse = factorize_spd(_sym(a_csr))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        pre = []
        for a, weights, _, restriction in self.levels:
            x = weights * r
            pre.append((r, x))
            r = restriction @ (r - a @ x)
        x = self.coarse.solve(r)
        for (a, weights, p, _), (r, x_pre) in zip(reversed(self.levels), reversed(pre)):
            x = x_pre + p @ x
            x += weights * (r - a @ x)
        return x


def _multigrid_eigenpairs(pencil: Pencil, prolongations: list[sp.csr_matrix],
                          start: np.ndarray, k: int, tol: float) -> EigenSolution:
    """The ``k`` smallest eigenpairs of ``A u = lambda B u``, SPD ``A`` left unfactored.

    LOBPCG on ``B x = mu A x`` (:func:`_lobpcg`), preconditioned by a
    :class:`_VCycle` over ``prolongations`` and started from the block
    ``start`` (at least ``k`` columns, typically prolonged coarse
    eigenvectors), iterates until its ``k`` wanted columns meet ``tol`` in
    the relative residual the sweeps measure.  Each column costs about the
    same, so ``start`` should hold columns past the ``k`` wanted ones only
    as far as it takes to reach a gap after ``lambda_k`` (the reference
    solve reads that width off a coarse spectrum).  One Rayleigh-Ritz step
    of :func:`_rayleigh_ritz_sweeps` on the LOBPCG block then checks and
    returns the pairs.

    Raises
    ------
    ConvergenceFailureError
        If LOBPCG stops at ``LOBPCG_MAXITER`` iterations with a wanted
        residual above ``tol``, so the Rayleigh-Ritz step misses it.
    """
    x = _lobpcg(pencil, start, _VCycle(pencil.a, prolongations), tol, k)
    return _rayleigh_ritz_sweeps(pencil, x, k, tol, None)


def _lobpcg(pencil: Pencil, start: np.ndarray, precond: Callable[[np.ndarray], np.ndarray],
            tol: float, k: int) -> np.ndarray:
    """The dominant eigenvectors of ``B x = mu A x`` by preconditioned LOBPCG.

    LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) runs Rayleigh-Ritz on
    ``span{X, W, P}``: the iterates ``X``, the preconditioned residuals
    ``W = T (B X - A X mu)`` and the previous update directions ``P``.  The
    blocks are the rows of C-contiguous ``(m, n)`` arrays, and ``A`` and
    ``precond`` apply to one row at a time: a sparse product or a V-cycle
    on an ``n x m`` block costs more per column than on one vector.  ``B``
    is nonzero on the pencil's boundary rows only, so its Gram matrices are
    formed there, as ``S_bd (B_bb S_bd^T)``, and no ``B``-image of a block
    is kept.  ``A X`` and the ``A``-image of ``[W, P]`` are formed anew each
    iteration, never updated by recurrence, so the stopping residual is the
    true one: a recurrence drifts near round-off, and a block it passed
    could fail the sweeps that follow.

    As in Duersch, Shao, Yang & Gu (SIAM J. Sci. Comput. 40, 2018),
    ``[W, P]`` is ``A``-orthogonalized against ``X`` and orthonormalized by
    SVQB, the eigendecomposition of its diagonally scaled ``A``-Gram matrix,
    dropping the directions below ``SVQB_DROP`` of its largest eigenvalue,
    which carry no digits.  Only the small Gram matrices of that basis are
    formed.  The start block goes through SVQB too, so a rank-deficient one
    narrows the block instead of breaking a Cholesky factorization.  A
    column whose residual meets ``tol`` leaves the active set (soft locking:
    it stays in ``X`` but gets no more ``W`` or ``P`` rows).  The test is the
    relative residual of the Rayleigh-Ritz sweeps, ``|r_i| <= tol mu_i |A
    x_i|`` for ``A``-normalized rows, so it scales with the pair and holds
    for the sweeps' step that follows.  The iteration stops when the first
    ``k`` columns, the wanted ones, have met ``tol``, or after
    ``LOBPCG_MAXITER`` iterations; the spare columns past them only widen
    the block's gap and iterate while a wanted column does.  It returns
    ``X`` as the columns of a C-ordered block, descending in ``mu``.
    """
    a_csr, bd, b_bb = pencil.a, pencil.boundary, pencil.b_bb

    def a_rows(s: np.ndarray) -> np.ndarray:
        a_s = np.empty_like(s)
        for i, row in enumerate(s):
            a_s[i] = a_csr @ row
        return a_s

    def rayleigh_ritz(x: np.ndarray, a_x: np.ndarray, s: np.ndarray,
                      width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The top Ritz values on span{x, s} and their vectors' coefficients on
        # the rows of x and of s.  s is A-orthogonalized against x in place,
        # and only the Gram matrices of its SVQB basis t @ s are formed.
        s -= (s @ a_x.T) @ x
        a_s = a_rows(s)
        gram = _sym(s @ a_s.T)
        d = 1.0 / np.sqrt(gram.diagonal())
        theta, v = sla.eigh(d[:, None] * gram * d)
        keep = theta > SVQB_DROP * theta[-1]
        t = (d[:, None] * v[:, keep] / np.sqrt(theta[keep])).T
        cross = (x @ a_s.T) @ t.T
        g_a = np.block([[x @ a_x.T, cross], [cross.T, t @ gram @ t.T]])
        y_bd = np.vstack([x[:, bd], t @ s[:, bd]])
        mu, c = sla.eigh(_sym(y_bd @ (b_bb @ y_bd.T)), _sym(g_a))
        c = c[:, :-width - 1:-1]
        return mu[:-width - 1:-1], c[:len(x)], t.T @ c[len(x):]

    s = np.array(start.T, order="C")
    x = np.empty((0, s.shape[1]))
    mu, _, c_s = rayleigh_ritz(x, x, s, s.shape[0])
    x = c_s.T @ s
    width = x.shape[0]
    active = np.ones(width, dtype=bool)
    p = None
    for _ in range(LOBPCG_MAXITER):
        a_x = a_rows(x)
        r = a_x * -mu[:, None]
        r[:, bd] += (b_bb @ x[:, bd].T).T
        a_norms = np.sqrt(np.einsum("ij,ij->i", a_x, a_x))
        active &= np.sqrt(np.einsum("ij,ij->i", r, r)) > tol * mu * a_norms
        if not active[:k].any():
            break
        n_w = active.sum()
        s = np.empty((n_w if p is None else 2 * n_w, x.shape[1]))
        for i, row in enumerate(r[active]):
            s[i] = precond(row)
        if p is not None:
            s[n_w:] = p[active]
        del r, p
        mu, c_x, c_s = rayleigh_ritz(x, a_x, s, width)
        del a_x
        p = c_s.T @ s
        del s
        x = c_x.T @ x + p
    return np.ascontiguousarray(x.T)


def dense_oracle(pencil: Pencil, k: int) -> EigenSolution:
    """Dense reference solver for small problems (cross-checking only).

    Solves ``B y = mu A y`` with LAPACK for the ``k`` largest ``mu``; the
    pencil eigenvalues are their reciprocals.
    """
    n = pencil.dimension
    if n > DENSE_ORACLE_MAX_DIM:
        raise ValueError(f"dense oracle limited to dimension {DENSE_ORACLE_MAX_DIM}, got {n}")
    _check_k(k, n)
    a = pencil.a.toarray()
    b = pencil.b.toarray()
    try:
        mu, y = sla.eigh(b, a, subset_by_index=[n - k, n - 1])
    except np.linalg.LinAlgError as exc:
        # scipy calls the second matrix of eigh(b, a) "B"; here it is the pencil's A.
        raise NotPositiveDefiniteError(str(exc).replace(" of B ", " of A ")) from exc
    mu, y = mu[::-1], y[:, ::-1]
    if mu[-1] <= max(mu[0], 0.0) * 1e-12:
        raise ValueError(f"pencil has fewer than k={k} finite eigenvalues (rank of B too small)")
    u = y / np.sqrt(mu)  # y'Ay = 1, so u'Bu = 1
    lam = 1.0 / mu
    au = a @ u
    bu = b @ u
    res = np.linalg.norm(au - bu * lam, axis=0) / np.linalg.norm(au, axis=0)
    return EigenSolution(eigenvalues=lam, eigenvectors=u, residual_norms=res)
