"""Generalized eigensolvers for the pencil ``A u = lambda B u``.

``A`` is symmetric positive definite, ``B`` symmetric positive semidefinite
with a large kernel (only boundary dofs couple), so the small eigenvalues of
the pencil are the reciprocals of the large eigenvalues of ``A^{-1} B``.
The iterative solver finds that dominant subspace with implicitly restarted
Lanczos (ARPACK, see Lehoucq, Sorensen & Yang, *ARPACK Users' Guide*, SIAM
1998) on ``A^{-1} B`` in the ``A`` inner product, then polishes it with
Rayleigh-Ritz sweeps of inverse subspace iteration until every residual meets
the tolerance.  Both stages apply ``A^{-1}`` through one sparse factorization.
The kernel of ``B`` corresponds to ``mu = 0`` and never mixes into the
dominant subspace, so no deflation is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

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
MAX_SWEEPS = 500
DENSE_ORACLE_MAX_DIM = 3000


class NotPositiveDefiniteError(Exception):
    """Raised when a matrix required to be SPD is not."""


class ConvergenceFailureError(Exception):
    """Raised when the iterative solver exhausts its sweep budget.

    Carries the best eigenvalue estimates and their residuals.
    """

    def __init__(self, message: str, eigenvalues: np.ndarray, residuals: np.ndarray):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.residuals = residuals


@dataclass
class Pencil:
    """The matrix pair of a generalized eigenproblem ``A u = lambda B u``."""

    a: SymSparse
    b: SymSparse

    def __post_init__(self) -> None:
        if self.a.dimension != self.b.dimension:
            raise ValueError(
                f"pencil matrices disagree in size: {self.a.dimension} vs {self.b.dimension}"
            )
        if self.b.nnz == 0:
            raise ValueError("the right-hand matrix of the pencil is zero")

    @property
    def dimension(self) -> int:
        return self.a.dimension


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
    """A sparse Cholesky-type factorization of an SPD matrix.

    Uses SuperLU in symmetric mode with diagonal pivoting only; the
    factorization doubles as the definiteness certificate, since an SPD
    matrix factors without row pivoting and with positive pivots.
    """

    def __init__(self, matrix: SymSparse):
        csc = sp.csc_matrix(matrix.to_csr())
        try:
            lu = spla.splu(csc, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # exactly singular
            raise NotPositiveDefiniteError(str(exc)) from exc
        if not (lu.perm_r == lu.perm_c).all() or not (lu.U.diagonal() > 0.0).all():
            raise NotPositiveDefiniteError("matrix is not positive definite")
        self._lu = lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for a vector or a block of columns."""
        return self._lu.solve(np.asarray(rhs, dtype=float))


def factorize_spd(matrix: SymSparse) -> SpdFactor:
    """Factor an SPD matrix."""
    return SpdFactor(matrix)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _start_block(factor: SpdFactor, a_csr: sp.csr_matrix, b_csr: sp.csr_matrix, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Start block of the sweeps: the ``k`` dominant eigenvectors of ``A^{-1} B``.

    Lanczos (``eigsh``) on ``B x = mu A x`` in the ``A`` inner product,
    applying ``A^{-1}`` through ``factor.solve``; its start vector and any
    restart vector come from ``rng``, so the block is deterministic.  For
    ``k >= n - 1`` the Lanczos basis would span the whole space, so the block
    is a full Gaussian one, which the first sweep resolves exactly.  If
    Lanczos stops short, the vectors it did converge are kept and filled up
    with Gaussian columns to ``k + 3``: the sweeps are then plain subspace
    iteration, and the three guard columns keep it converging when
    ``lambda_k`` and ``lambda_{k+1}`` are close.
    """
    n = a_csr.shape[0]
    if k >= n - 1:
        return rng.standard_normal((n, n))
    a_inv = spla.LinearOperator((n, n), matvec=factor.solve, dtype=float)
    try:
        return spla.eigsh(b_csr, k, M=a_csr, Minv=a_inv, which="LA",
                          v0=rng.standard_normal(n), rng=rng)[1]
    except spla.ArpackNoConvergence as exc:
        found = exc.eigenvectors
    return np.hstack([found, rng.standard_normal((n, min(k + 3, n) - found.shape[1]))])


def solve_pencil(pencil: Pencil, k: int, tol: float = DEFAULT_TOL,
                 seed: int = DEFAULT_SEED, max_sweeps: int = MAX_SWEEPS) -> EigenSolution:
    """Compute the ``k`` smallest eigenpairs of ``A u = lambda B u``.

    Lanczos on ``A^{-1} B``, started from a fixed-seed Gaussian vector,
    gives a block of ``k`` vectors; Rayleigh-Ritz sweeps of inverse subspace
    iteration on that block then run until every requested pair reaches the
    relative residual tolerance.  At least one sweep always runs, since raw
    Lanczos vectors can miss a tolerance near round-off.  Results are
    deterministic for fixed inputs and seed.

    Raises
    ------
    NotPositiveDefiniteError
        If ``A`` fails to factor as SPD.
    ConvergenceFailureError
        If the residuals do not reach ``tol`` within ``max_sweeps`` sweeps.
    """
    n = pencil.dimension
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    if not 0.0 < tol <= 1e-6:
        raise ValueError(f"tol must lie in (0, 1e-6], got {tol!r}")
    factor = factorize_spd(pencil.a)
    a_csr = pencil.a.to_csr()
    b_csr = pencil.b.to_csr()

    x = _start_block(factor, a_csr, b_csr, k, np.random.default_rng(seed))

    eigenvalues = np.full(k, np.nan)
    vectors = np.zeros((n, k))
    residuals = np.full(k, np.inf)

    for _ in range(max_sweeps):
        z = factor.solve(b_csr @ x)
        az = a_csr @ z
        a_small = _sym(z.T @ az)
        s, q = sla.eigh(a_small)
        keep = s > max(s.max(), 0.0) * 1e-13
        if not keep.any():
            raise ConvergenceFailureError(
                "iteration block collapsed into the kernel of B", eigenvalues, residuals)
        w = q[:, keep] / np.sqrt(s[keep])
        if w.shape[1] < k:
            raise ValueError(
                f"pencil appears to have fewer than k={k} finite eigenvalues")
        b_small = _sym(w.T @ (z.T @ (b_csr @ z)) @ w)
        mu, v = sla.eigh(b_small)
        mu = mu[::-1]
        v = v[:, ::-1]
        u = z @ (w @ v)
        x = u

        if mu[k - 1] <= 0.0:
            continue  # subspace has not yet locked onto k boundary modes
        lam = 1.0 / mu[:k]
        cand = u[:, :k] / np.sqrt(mu[:k])
        au = a_csr @ cand
        bu = b_csr @ cand
        res = np.linalg.norm(au - bu * lam, axis=0) / np.linalg.norm(au, axis=0)
        eigenvalues, vectors, residuals = lam, cand, res
        if (res <= tol).all():
            return EigenSolution(eigenvalues=lam.copy(), eigenvectors=cand.copy(),
                                 residual_norms=res.copy())

    raise ConvergenceFailureError(
        f"subspace iteration did not reach tol={tol:g} in {max_sweeps} sweeps "
        f"(worst residual {residuals.max():g})", eigenvalues, residuals)


def dense_oracle(pencil: Pencil, k: int) -> EigenSolution:
    """Dense reference solver for small problems (cross-checking only).

    Forms ``C = L^{-1} B L^{-T}`` with the dense Cholesky factor ``L`` of
    ``A`` and diagonalizes it; the pencil eigenvalues are the reciprocals of
    the top eigenvalues of ``C``.
    """
    n = pencil.dimension
    if n > DENSE_ORACLE_MAX_DIM:
        raise ValueError(f"dense oracle limited to dimension {DENSE_ORACLE_MAX_DIM}, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    a = pencil.a.to_dense()
    b = pencil.b.to_dense()
    try:
        ell = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    half = sla.solve_triangular(ell, b, lower=True)
    c = sla.solve_triangular(ell, half.T, lower=True)
    mu, y = np.linalg.eigh(_sym(c))
    mu = mu[::-1][:k]
    y = y[:, ::-1][:, :k]
    if mu[-1] <= max(mu[0], 0.0) * 1e-12:
        raise ValueError(f"pencil has fewer than k={k} finite eigenvalues (rank of B too small)")
    u = sla.solve_triangular(ell.T, y, lower=False) / np.sqrt(mu)
    lam = 1.0 / mu
    au = a @ u
    bu = b @ u
    res = np.linalg.norm(au - bu * lam, axis=0) / np.linalg.norm(au, axis=0)
    return EigenSolution(eigenvalues=lam, eigenvectors=u, residual_norms=res)
