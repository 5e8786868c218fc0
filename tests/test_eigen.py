import copy
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from steklovfem import (
    CR,
    CoefficientField,
    ConvergenceFailureError,
    DomainSpec,
    EigenSolution,
    NotPositiveDefiniteError,
    P1,
    Pencil,
    UNIT_COEFFICIENTS,
    affine,
    assemble_boundary_mass,
    assemble_stiffness,
    build_dof_map,
    compute_reference,
    dense_oracle,
    factorize_spd,
    generate_mesh,
    solve_pencil,
)
from steklovfem import analysis, eigen
from steklovfem.eigen import DEFAULT_TOL, DENSE_ORACLE_MAX_DIM, SpdFactor

from _utils import sym_sparse


COEFFICIENTS = {"unit": UNIT_COEFFICIENTS,
                "affine": CoefficientField(alpha=affine(1.0, 0.5, 0.25),
                                           beta=affine(2.0, -0.5, 0.5))}


class NoProducts:
    """A sparse matrix that can be sliced but not applied: any product with it raises."""

    __array_ufunc__ = None  # ndarray @ NoProducts defers to __rmatmul__

    def __init__(self, matrix):
        self._matrix = matrix

    def __getitem__(self, key):
        return self._matrix[key]

    def __matmul__(self, other):
        raise AssertionError("B applied to an n-row operand")

    __rmatmul__ = __matmul__


def diag_sparse(values):
    values = np.asarray(values, dtype=float)
    idx = np.arange(len(values))
    return sym_sparse(len(values), idx, idx, values)


def dense_spd_sparse(a):
    rows, cols = np.triu_indices(a.shape[0])
    return sym_sparse(a.shape[0], rows, cols, a[rows, cols])


class TestSolveSpd:
    def test_scalar(self):
        assert (factorize_spd(diag_sparse([4.0]).to_csr()).solve(np.array([8.0]))
                == pytest.approx([2.0]))

    def test_round_trip_on_stiffness(self, get_pencil):
        a = get_pencil("lshape", 8, P1).a
        ones = np.ones(a.shape[0])
        x = factorize_spd(a).solve(a @ ones)
        assert x == pytest.approx(ones, abs=1e-12)

    def test_random_spd_system(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((10, 10))
        a = m.T @ m + np.eye(10)
        rhs = rng.standard_normal(10)
        x = factorize_spd(dense_spd_sparse(a).to_csr()).solve(rhs)
        assert np.linalg.norm(a @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("family", (P1, CR))
    def test_factoring_leaves_the_matrix_unchanged(self, get_mesh, get_dofmap, family):
        # The factor reads the full CSR arrays, through their CSC transpose.
        a = assemble_stiffness(get_mesh("slit", 8), get_dofmap("slit", 8, family))
        csr = a.to_csr()
        before = [arr.copy() for arr in (csr.indptr, csr.indices, csr.data)]
        factorize_spd(a.to_csr())
        assert a.to_csr() is csr
        for got, want in zip((csr.indptr, csr.indices, csr.data), before):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_no_factor_outlives_solve_pencil(self, get_pencil, monkeypatch):
        # Nothing keeps the factor once the solve returns, so its memory goes
        # back without the cyclic collector.
        pencil, factorize, factors = get_pencil("lshape", 4, P1), eigen.factorize_spd, []

        def tracked(matrix):
            factor = factorize(matrix)
            factors.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(eigen, "factorize_spd", tracked)
        enabled = gc.isenabled()
        gc.disable()
        try:
            solve_pencil(pencil, 2)
            assert len(factors) == 1
            assert factors[0]() is None
        finally:
            if enabled:
                gc.enable()

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            factorize_spd(diag_sparse([1.0, -1.0]).to_csr())

    def test_semidefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            factorize_spd(sym_sparse(2, [0], [0], [1.0]).to_csr())


class RecordingLU:
    """Passes a SuperLU factor through, recording reads of any attribute
    beyond ``solve``, ``perm_r``, ``perm_c`` and ``nnz`` (such as ``L`` or ``U``)."""

    def __init__(self, lu, reads):
        self.solve, self.perm_r, self.perm_c, self.nnz = lu.solve, lu.perm_r, lu.perm_c, lu.nnz
        self._lu, self._reads = lu, reads

    def __getattr__(self, name):
        self._reads.append(name)
        return getattr(self._lu, name)


@pytest.fixture
def lu_reads(monkeypatch):
    """The attributes read off the factors built while the test runs, one list per factor."""
    splu, reads = spla.splu, []

    def recorded(*args, **kwargs):
        reads.append([])
        return RecordingLU(splu(*args, **kwargs), reads[-1])

    monkeypatch.setattr(eigen.spla, "splu", recorded)
    return reads


class TestDefinitenessCertificate:
    """Assembled stiffness matrices are certified SPD without the factor's L/U copies."""

    @pytest.mark.parametrize("coeff_id", COEFFICIENTS)
    @pytest.mark.parametrize("family", (P1, CR))
    @pytest.mark.parametrize("kind", ("square", "lshape", "slit"))
    def test_solve_pencil_reads_no_triangular_factor(self, get_mesh, get_dofmap, lu_reads,
                                                     kind, family, coeff_id):
        mesh, dm = get_mesh(kind, 16), get_dofmap(kind, 16, family)
        solve_pencil(Pencil(assemble_stiffness(mesh, dm, COEFFICIENTS[coeff_id]),
                            assemble_boundary_mass(mesh, dm)), 3)
        assert lu_reads == [[]]

    def test_reference_reads_no_triangular_factor(self, lu_reads):
        # Factors of the coarse solve and of the V-cycle's coarsest level.
        compute_reference(DomainSpec("lshape"), 32)
        assert len(lu_reads) >= 2 and not any(lu_reads)

    def test_positive_definite_without_dominance(self, lu_reads):
        a = np.full((3, 3), 0.9) + 0.1 * np.eye(3)
        rhs = np.array([1.0, 2.0, 3.0])
        x = factorize_spd(dense_spd_sparse(a).to_csr()).solve(rhs)
        assert lu_reads == [["U"]]
        assert np.linalg.norm(a @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_indefinite_with_positive_diagonal(self, lu_reads):
        with pytest.raises(NotPositiveDefiniteError):
            factorize_spd(dense_spd_sparse(np.array([[1.0, 2.0], [2.0, 1.0]])).to_csr())
        assert lu_reads == [["U"]]

    @pytest.mark.parametrize("coupling, definite", ((np.nextafter(1.0, 0.0), True),
                                                    (np.nextafter(1.0, 2.0), False)))
    def test_margin_below_rounding_guard(self, lu_reads, coupling, definite):
        # Margins of +eps/2 and -eps: the certificate cannot decide, the pivots do.
        a = sym_sparse(2, [0, 1, 0], [0, 1, 1], [1.0, 1.0, -coupling]).to_csr()
        assert not eigen._diagonally_dominant(a)
        if definite:
            factorize_spd(a)
        else:
            with pytest.raises(NotPositiveDefiniteError):
                factorize_spd(a)
        assert lu_reads == [["U"]]

    @pytest.mark.parametrize("missing", (1, 2))
    def test_empty_row(self, missing):
        # np.add.reduceat would misread an empty row, and fail on a trailing one.
        kept = [i for i in range(3) if i != missing]
        a = sym_sparse(3, kept, kept, [1.0, 1.0]).to_csr()
        assert not eigen._diagonally_dominant(a)
        with pytest.raises(NotPositiveDefiniteError):
            factorize_spd(a)


class TestFactorSettings:
    """SuperLU factors with panel width 1, which shrinks the workspace of
    its factorization and changes neither the fill nor, beyond rounding,
    the solves.  tracemalloc cannot see SuperLU's own allocations, so the
    arguments are pinned instead of the memory."""

    def test_splu_arguments(self, get_pencil, monkeypatch):
        splu, calls = spla.splu, []

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return splu(*args, **kwargs)

        monkeypatch.setattr(eigen.spla, "splu", recorded)
        factorize_spd(get_pencil("slit", 8, CR).a)
        assert calls == [dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, panel_size=1,
                              options=dict(SymmetricMode=True))]

    @pytest.mark.parametrize("kind, family", (("slit", CR), ("lshape", P1)))
    def test_same_fill_and_solves_as_the_default_panel(self, get_pencil, kind, family):
        a = get_pencil(kind, 32, family).a
        lean = factorize_spd(a)._lu
        default = spla.splu(a.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options=dict(SymmetricMode=True))
        assert lean.nnz == default.nnz
        rhs = np.random.default_rng(5).standard_normal((a.shape[0], 4))
        got, want = lean.solve(rhs), default.solve(rhs)
        assert (np.linalg.norm(got - want, axis=0) <= 1e-10 * np.linalg.norm(want, axis=0)).all()


class TestSolvePencilSmall:
    def test_two_by_two_example(self):
        pencil = Pencil(diag_sparse([2.0, 3.0]),
                        sym_sparse(2, [0], [0], [1.0]))
        sol = solve_pencil(pencil, 1)
        assert sol.eigenvalues == pytest.approx([2.0])
        assert abs(sol.eigenvectors[0, 0]) == pytest.approx(1.0)
        assert sol.eigenvectors[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_dense_oracle_identity(self):
        pencil = Pencil(diag_sparse([1.0, 1.0]), diag_sparse([1.0, 1.0]))
        sol = dense_oracle(pencil, 2)
        assert sol.eigenvalues == pytest.approx([1.0, 1.0])
        assert sol.residual_norms == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_pencil_dimension_mismatch(self):
        with pytest.raises(ValueError, match="disagree in size"):
            Pencil(diag_sparse([1.0, 2.0]), diag_sparse([1.0]))

    def test_pencil_zero_b(self):
        with pytest.raises(ValueError, match="zero"):
            Pencil(diag_sparse([1.0, 2.0]), sym_sparse(2, [], [], []))

    def test_pencil_frees_its_inputs(self):
        # The pencil keeps the full CSR forms only, so the upper triangles go
        # back without the cyclic collector.
        enabled = gc.isenabled()
        gc.disable()
        try:
            a, b = diag_sparse([1.0, 2.0]), diag_sparse([1.0, 1.0])
            inputs = [weakref.ref(a), weakref.ref(b)]
            pencil = Pencil(a, b)
            del a, b
            assert all(ref() is None for ref in inputs)
            assert pencil.dimension == 2
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("k", (0, 3))
    def test_k_out_of_range(self, k):
        pencil = Pencil(diag_sparse([1.0, 2.0]), diag_sparse([1.0, 1.0]))
        with pytest.raises(ValueError, match="k must be"):
            solve_pencil(pencil, k)

    @pytest.mark.parametrize("tol", (0.0, -1e-10, 1e-5))
    def test_tol_out_of_range(self, tol):
        pencil = Pencil(diag_sparse([1.0, 2.0]), diag_sparse([1.0, 1.0]))
        with pytest.raises(ValueError, match="tol"):
            solve_pencil(pencil, 1, tol=tol)

    def test_convergence_failure_carries_state(self, get_pencil):
        pencil = get_pencil("square", 2, P1)
        with pytest.raises(ConvergenceFailureError) as excinfo:
            solve_pencil(pencil, 2, tol=1e-300)
        assert excinfo.value.eigenvalues.shape == (2,)
        assert excinfo.value.residuals.shape == (2,)

    def test_not_positive_definite_a(self):
        pencil = Pencil(diag_sparse([1.0, -1.0]), diag_sparse([1.0, 1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            solve_pencil(pencil, 1)
        with pytest.raises(NotPositiveDefiniteError, match=" of A ") as excinfo:
            dense_oracle(pencil, 1)
        assert " of B " not in str(excinfo.value)

    def test_k_beyond_rank_of_b(self, get_pencil):
        # The slit CR boundary mass at level 4 has rank 37 on 58 dofs.
        pencil = get_pencil("slit", 4, CR)
        with pytest.raises(ValueError, match="fewer than k"):
            solve_pencil(pencil, 40)
        with pytest.raises(ValueError, match="fewer than k"):
            dense_oracle(pencil, 40)

    def test_dense_oracle_needs_a_positive_k(self, get_pencil):
        with pytest.raises(ValueError, match="k must be between 1 and"):
            dense_oracle(get_pencil("square", 2, P1), 0)

    @pytest.mark.parametrize("k", (3, 4))
    def test_too_small_for_lanczos(self, k):
        # k >= n - 1 skips ARPACK and starts from a full Gaussian block.
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4))
        pencil = Pencil(dense_spd_sparse(m.T @ m + np.eye(4)),
                        dense_spd_sparse(np.diag([1.0, 2.0, 0.5, 1.5])))
        sol = solve_pencil(pencil, k)
        ref = dense_oracle(pencil, k)
        assert sol.eigenvalues == pytest.approx(ref.eigenvalues, rel=1e-12)
        gram = sol.eigenvectors.T @ (pencil.b @ sol.eigenvectors)
        assert gram == pytest.approx(np.eye(k), abs=1e-12)
        assert (sol.residual_norms <= DEFAULT_TOL).all()

    def test_zero_block_collapses_into_the_kernel_of_b(self, get_pencil):
        def no_inverse(rhs):
            raise AssertionError("the first sweep applies no inverse")

        pencil = get_pencil("square", 4, P1)
        with pytest.raises(ConvergenceFailureError, match="collapsed into the kernel of B"):
            eigen._rayleigh_ritz_sweeps(pencil, np.zeros((pencil.dimension, 2)), 2,
                                        DEFAULT_TOL, no_inverse)

    def test_dense_oracle_dimension_cap(self):
        big = diag_sparse(np.ones(DENSE_ORACLE_MAX_DIM + 1))
        with pytest.raises(ValueError, match="dense oracle"):
            dense_oracle(Pencil(big, big), 1)


class TestSolvePencilFem:
    def test_solution_contract(self, get_pencil):
        pencil = get_pencil("lshape", 8, P1)
        sol = solve_pencil(pencil, 5)
        lam, u = sol.eigenvalues, sol.eigenvectors
        # Ascending order.
        assert (np.diff(lam) >= -1e-12).all()
        # B-orthonormal columns.
        gram = u.T @ (pencil.b @ u)
        assert gram == pytest.approx(np.eye(5), abs=10 * DEFAULT_TOL)
        # Rayleigh quotients agree with the eigenvalues.
        rayleigh = np.einsum("ij,ij->j", u, pencil.a @ u)
        assert np.abs(rayleigh - lam).max() <= 1e-10 * lam.max()
        # Stored residuals are genuine and below tolerance.
        au = pencil.a @ u
        res = np.linalg.norm(au - (pencil.b @ u) * lam, axis=0) / np.linalg.norm(au, axis=0)
        assert res == pytest.approx(sol.residual_norms, abs=1e-13)
        assert (sol.residual_norms <= DEFAULT_TOL).all()

    def test_deterministic(self, get_pencil):
        pencil = get_pencil("lshape", 4, P1)
        a = solve_pencil(pencil, 3)
        b = solve_pencil(pencil, 3)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_factor_solve_work_bound(self, get_mesh, get_dofmap, monkeypatch):
        # Lanczos plus the polishing sweep: 43 solve columns here (35 Lanczos
        # solves and the 8 start-block columns), where Lanczos converged to
        # machine precision took 53 and inverse iteration with a k + 3 block 506.
        mesh, dm = get_mesh("slit", 32), get_dofmap("slit", 32, CR)
        pencil = Pencil(assemble_stiffness(mesh, dm), assemble_boundary_mass(mesh, dm))
        assert pencil.dimension == 3152
        solve, columns = SpdFactor.solve, []

        def counted(factor, rhs):
            columns.append(1 if rhs.ndim == 1 else rhs.shape[1])
            return solve(factor, rhs)

        monkeypatch.setattr(SpdFactor, "solve", counted)
        sol = solve_pencil(pencil, 8)
        assert (sol.residual_norms <= DEFAULT_TOL).all()
        assert 0 < sum(columns) <= 45

    @pytest.mark.parametrize("tol", (DEFAULT_TOL, 1e-8))
    def test_lanczos_stops_at_the_solve_tolerance(self, get_pencil, monkeypatch, tol):
        eigsh, tols = spla.eigsh, []

        def recorded(*args, **kwargs):
            tols.append(kwargs["tol"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", recorded)
        pencil = get_pencil("lshape", 16, P1)
        sol = solve_pencil(pencil, 4) if tol == DEFAULT_TOL else solve_pencil(pencil, 4, tol=tol)
        assert tols == [tol]
        assert (sol.residual_norms <= tol).all()

    @pytest.mark.parametrize("tol", (DEFAULT_TOL, 1e-8))
    @pytest.mark.parametrize("k", (2, 8))
    @pytest.mark.parametrize("family", (P1, CR))
    @pytest.mark.parametrize("kind", ("square", "lshape", "slit"))
    def test_lanczos_at_tol_converges_in_the_first_sweep(self, get_pencil, monkeypatch,
                                                          kind, family, k, tol):
        # Sweeps after the first apply A^{-1}; here none runs.
        def forbidden(factor, a_csr):
            def a_inv(rhs):
                raise AssertionError("a second sweep ran")

            return a_inv

        monkeypatch.setattr(eigen, "_refined_inverse", forbidden)
        pencil = get_pencil(kind, 16, family)
        sol = solve_pencil(pencil, k, tol=tol)
        assert (sol.residual_norms <= tol).all()
        assert sol.eigenvalues == pytest.approx(dense_oracle(pencil, k).eigenvalues, rel=10 * tol)

    @pytest.mark.parametrize("k", (2, 8))
    @pytest.mark.parametrize("family", (P1, CR))
    @pytest.mark.parametrize("kind", ("square", "lshape", "slit"))
    def test_first_sweep_takes_the_b_gram_on_the_boundary_rows(self, get_pencil, kind,
                                                                family, k):
        # These start blocks converge in the first sweep, which then never
        # applies the full B: its Gram matrix and residual use B_bb.
        pencil = get_pencil(kind, 16, family)
        boundary_only = copy.copy(pencil)
        boundary_only.b = NoProducts(pencil.b)
        sol = solve_pencil(boundary_only, k)
        assert (sol.residual_norms <= DEFAULT_TOL).all()
        assert sol.eigenvalues == pytest.approx(dense_oracle(pencil, k).eigenvalues,
                                                rel=10 * DEFAULT_TOL)

    @pytest.mark.parametrize("converged", (0, 2))
    def test_lanczos_no_convergence_raises(self, get_pencil, monkeypatch, converged):
        # No retry and no sweeps: the error carries the Ritz values Lanczos
        # did converge, then NaN, and infinite residuals.
        pencil = get_pencil("lshape", 8, P1)
        eigsh, calls = spla.eigsh, []

        def stalled(*args, **kwargs):
            calls.append(1)
            mu, x = eigsh(*args, **kwargs)
            raise spla.ArpackNoConvergence("stalled", mu[:converged], x[:, :converged])

        def forbidden(*args):
            raise AssertionError("the sweeps ran")

        monkeypatch.setattr(spla, "eigsh", stalled)
        monkeypatch.setattr(eigen, "_rayleigh_ritz_sweeps", forbidden)
        with pytest.raises(ConvergenceFailureError,
                           match=f"Lanczos.* {converged} of 4") as excinfo:
            solve_pencil(pencil, 4)
        assert calls == [1]
        assert isinstance(excinfo.value.__cause__, spla.ArpackNoConvergence)
        lam = excinfo.value.eigenvalues
        assert lam.shape == (4,)
        assert lam[:converged] == pytest.approx(dense_oracle(pencil, 4).eigenvalues[:converged],
                                                rel=1e-9)
        assert np.isnan(lam[converged:]).all()
        assert bits(excinfo.value.residuals) == bits(np.full(4, np.inf))

    @pytest.mark.parametrize("path", ("direct", "multigrid"))
    def test_unreachable_tolerance_runs_the_whole_budget(self, get_mesh, get_pencil,
                                                         monkeypatch, path):
        # Every sweep after the first makes one solve of A.  The multigrid
        # path runs LOBPCG to its cap, each of its 3 rows preconditioned in
        # every iteration, then checks the block in one sweep with no solve.
        sweeps, run, preconditioned = eigen._rayleigh_ritz_sweeps, [], []

        def counted(pencil, z, k, tol, a_inv):
            def counted_inverse(rhs):
                run.append(1)
                return a_inv(rhs)

            run.append(1)
            return sweeps(pencil, z, k, tol, a_inv and counted_inverse)

        def counted_cycle(a_csr, prolongations):
            cycle = vcycle(a_csr, prolongations)

            def apply(r):
                preconditioned.append(1)
                return cycle(r)

            return apply

        pencil, vcycle = get_pencil("lshape", 16, P1), eigen._VCycle
        monkeypatch.setattr(eigen, "_rayleigh_ritz_sweeps", counted)
        monkeypatch.setattr(eigen, "_VCycle", counted_cycle)
        budget = eigen.MAX_SWEEPS if path == "direct" else 1
        with pytest.raises(ConvergenceFailureError,
                           match=rf"in {budget} sweeps? ") as excinfo:
            if path == "direct":
                solve_pencil(pencil, 2, tol=1e-300)
            else:
                p = analysis._prolongation(get_mesh("lshape", 8), get_mesh("lshape", 16))
                start = p @ solve_pencil(get_pencil("lshape", 8, P1), 3).eigenvectors
                run.clear()
                eigen._multigrid_eigenpairs(pencil, [p], start, 2, tol=1e-300)
        assert len(run) == budget
        assert len(preconditioned) == (0 if path == "direct" else 3 * eigen.LOBPCG_MAXITER)
        assert eigen.MAX_SWEEPS == 4 and eigen.LOBPCG_MAXITER == 40
        assert np.isfinite(excinfo.value.eigenvalues).all()
        assert (excinfo.value.residuals > 1e-300).all()

    @pytest.mark.parametrize("kind, family", (("lshape", P1), ("slit", CR)))
    def test_lanczos_runs_on_the_boundary_dofs(self, get_pencil, get_dofmap, monkeypatch,
                                               kind, family):
        pencil, dm = get_pencil(kind, 8, family), get_dofmap(kind, 8, family)
        eigsh, shapes = spla.eigsh, []

        def recorded(operator, *args, **kwargs):
            shapes.append(operator.shape)
            return eigsh(operator, *args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", recorded)
        sol = solve_pencil(pencil, 4)
        assert shapes == [(len(dm.boundary_dofs),) * 2]
        assert sol.eigenvalues == pytest.approx(dense_oracle(pencil, 4).eigenvalues, rel=1e-9)
        assert (sol.residual_norms <= DEFAULT_TOL).all()

    def test_small_boundary_skips_lanczos(self, get_pencil, monkeypatch):
        # 9 dofs, 8 of them on the boundary: a Lanczos basis would fill the
        # boundary space, so the sweeps start from a Gaussian boundary block.
        pencil = get_pencil("square", 2, P1)
        assert pencil.dimension == 9

        def forbidden(*args, **kwargs):
            raise AssertionError("eigsh called")

        monkeypatch.setattr(spla, "eigsh", forbidden)
        sol = solve_pencil(pencil, 7)
        ref = dense_oracle(pencil, 7)
        assert sol.eigenvalues == pytest.approx(ref.eigenvalues, rel=1e-9)
        gram = sol.eigenvectors.T @ (pencil.b @ sol.eigenvectors)
        assert gram == pytest.approx(ref.eigenvectors.T @ (pencil.b @ ref.eigenvectors),
                                     abs=1e-12)
        assert gram == pytest.approx(np.eye(7), abs=1e-12)

    @pytest.mark.parametrize("kind", ("square", "lshape"))
    def test_gaussian_start_keeps_digits(self, get_pencil, kind):
        # 32 boundary dofs take the full Gaussian start.  With its thin QR the
        # gap measures 1.1e-13 / 1.4e-13 and the defect 2.6e-15 / 4.0e-15;
        # without it, 1.75e-12 / 7.9e-13 and 1.7e-12 / 9.5e-13.
        pencil = get_pencil(kind, 8, P1)
        sol = solve_pencil(pencil, 5)
        ref = dense_oracle(pencil, 5)
        gap = np.abs(sol.eigenvalues - ref.eigenvalues) / ref.eigenvalues
        gram = sol.eigenvectors.T @ (pencil.b @ sol.eigenvectors)
        assert gap.max() <= 5e-13
        assert np.abs(gram - np.eye(5)).max() <= 1e-13

    @pytest.mark.parametrize("kind, level, k", (("square", 16, 24), ("slit", 6, 27),
                                                ("slit", 8, 39)))
    def test_many_pairs_with_semidefinite_boundary_mass(self, get_pencil, kind, level, k):
        # CR boundary masses are singular.  Lanczos in that inner product
        # returned negative eigenvalues for the first case, and once its
        # Krylov space filled the range of B_bb it missed pairs or stopped
        # with an ARPACK error in the other two.
        pencil = get_pencil(kind, level, CR)
        sol = solve_pencil(pencil, k)
        assert sol.eigenvalues == pytest.approx(dense_oracle(pencil, k).eigenvalues, rel=1e-9)
        assert (sol.residual_norms <= DEFAULT_TOL).all()

    def test_matches_dense_oracle(self, get_pencil):
        pencil = get_pencil("square", 4, CR)
        sol = solve_pencil(pencil, 4)
        ref = dense_oracle(pencil, 4)
        assert sol.eigenvalues == pytest.approx(ref.eigenvalues, rel=1e-9)

    def test_vectors_match_dense_oracle_up_to_sign(self, get_pencil):
        # lambda_2 on the L-shape is simple, so vectors must agree up to sign.
        pencil = get_pencil("lshape", 4, P1)
        sol = solve_pencil(pencil, 2)
        ref = dense_oracle(pencil, 2)
        ip = sol.eigenvectors[:, 1] @ (pencil.b @ ref.eigenvectors[:, 1])
        assert abs(ip) == pytest.approx(1.0, abs=1e-9)

    def test_joint_coefficient_scaling(self, get_mesh, get_dofmap):
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, P1)
        b = assemble_boundary_mass(mesh, dm)
        lam1 = solve_pencil(Pencil(assemble_stiffness(
            mesh, dm, CoefficientField(affine(1.0), affine(1.0))), b), 3).eigenvalues
        lam2 = solve_pencil(Pencil(assemble_stiffness(
            mesh, dm, CoefficientField(affine(2.0), affine(2.0))), b), 3).eigenvalues
        assert lam2 == pytest.approx(2.0 * lam1, rel=1e-9)

    @pytest.mark.parametrize("kind", ("square", "lshape", "slit"))
    def test_reaction_shift_increases_eigenvalues(self, get_mesh, get_dofmap, kind):
        mesh = get_mesh(kind, 4)
        dm = get_dofmap(kind, 4, P1)
        b = assemble_boundary_mass(mesh, dm)
        base = solve_pencil(Pencil(assemble_stiffness(
            mesh, dm, CoefficientField(affine(1.0), affine(1.0))), b), 4).eigenvalues
        shifted = solve_pencil(Pencil(assemble_stiffness(
            mesh, dm, CoefficientField(affine(1.0), affine(2.0))), b), 4).eigenvalues
        assert (shifted > base).all()

    def test_conforming_eigenvalues_decrease_under_refinement(self, get_pencil):
        coarse = solve_pencil(get_pencil("lshape", 4, P1), 2).eigenvalues[1]
        fine = solve_pencil(get_pencil("lshape", 8, P1), 2).eigenvalues[1]
        assert fine <= coarse + 1e-12

    @pytest.mark.parametrize("kind", ("lshape", "slit"))
    def test_nonconforming_below_conforming(self, get_pencil, kind):
        p1 = solve_pencil(get_pencil(kind, 8, P1), 2).eigenvalues[1]
        cr = solve_pencil(get_pencil(kind, 8, CR), 2).eigenvalues[1]
        assert cr < p1

    def test_slit_cr_level_512_converges(self):
        # Built without the get_mesh/get_dofmap caches, which would hold the
        # level-512 arrays for the rest of the test run.  With plain factor solves every
        # sweep repeated the solve error: the worst residual stayed at 3.6e-10
        # and all 500 sweeps of the budget then in force ran before
        # ConvergenceFailureError.  Refined, it takes two sweeps.
        mesh = generate_mesh(DomainSpec("slit"), 512)
        dm = build_dof_map(mesh, CR)
        pencil = Pencil(assemble_stiffness(mesh, dm), assemble_boundary_mass(mesh, dm))
        del mesh, dm
        sol = solve_pencil(pencil, 2)
        assert (sol.residual_norms <= DEFAULT_TOL).all()
        assert sol.eigenvalues == pytest.approx([0.19433588, 0.73370327], rel=1e-7)


class TestMultigridReference:
    """The factor-free reference solve against the direct one on the same pencil."""

    # lshape 36: the hierarchy [36, 18] stops where the next half, 9, is no
    # valid L-shape level.
    @pytest.mark.parametrize("kind, level", (("lshape", 32), ("slit", 64), ("square", 128),
                                             ("lshape", 256), ("slit", 256), ("slit", 6),
                                             ("lshape", 36)))
    @pytest.mark.parametrize("coeff_id", COEFFICIENTS)
    def test_matches_direct_solve(self, get_mesh, get_dofmap, solve_mesh_calls, kind, level,
                                  coeff_id):
        coeff = COEFFICIENTS[coeff_id]
        mesh, dm = get_mesh(kind, level), get_dofmap(kind, level, P1)
        _, sol = analysis._solve_mesh(mesh, P1, coeff, 3, DEFAULT_TOL, eigen.DEFAULT_SEED,
                                      factor_free=True)
        assert solve_mesh_calls[0][4] == ("direct" if level == 6 else "factor-free")
        pencil = Pencil(assemble_stiffness(mesh, dm, coeff), assemble_boundary_mass(mesh, dm))
        direct = solve_pencil(pencil, 3)
        assert sol.eigenvalues == pytest.approx(direct.eigenvalues, rel=1e-10)
        assert (sol.residual_norms <= DEFAULT_TOL).all()
        u, v = sol.eigenvectors, direct.eigenvectors
        signs = np.sign(np.einsum("ij,ij->j", u, pencil.b @ v))
        assert np.abs(u * signs - v).max() <= 1e-8

    @pytest.fixture(scope="class")
    def direct_64(self, get_mesh, get_dofmap):
        cache = {}

        def get(kind, coeff_id):
            if (kind, coeff_id) not in cache:
                mesh, dm = get_mesh(kind, 64), get_dofmap(kind, 64, P1)
                pencil = Pencil(assemble_stiffness(mesh, dm, COEFFICIENTS[coeff_id]),
                                assemble_boundary_mass(mesh, dm))
                cache[kind, coeff_id] = pencil, solve_pencil(pencil, 6)
            return cache[kind, coeff_id]

        return get

    @pytest.mark.parametrize("eig_index", range(1, 7))
    @pytest.mark.parametrize("kind", ("square", "lshape", "slit"))
    @pytest.mark.parametrize("coeff_id", COEFFICIENTS)
    def test_each_index_matches_direct_solve(self, direct_64, coeff_id, kind, eig_index):
        # unit-slit-6: lambda_7 / lambda_8 differ by 5%, and a block with one
        # fixed spare column ending in that cluster ran out of sweeps.
        pencil, direct = direct_64(kind, coeff_id)
        ref = compute_reference(DomainSpec(kind), 64, eig_index, coeff=COEFFICIENTS[coeff_id])
        assert ref.lambda_h == pytest.approx(direct.eigenvalues[eig_index - 1], rel=1e-10)
        u, v = ref.fn.values, direct.eigenvectors[:, eig_index - 1]
        assert np.abs(np.sign(u @ (pencil.b @ v)) * u - v).max() <= 1e-8

    @pytest.mark.parametrize("kind, width", (("lshape", 2), ("slit", 2), ("square", 4)))
    def test_block_width_follows_the_spectrum(self, monkeypatch, kind, width):
        # At eig_index 2, lambda_3 >= 1.5 lambda_2 on the L-shape and the slit
        # square, so LOBPCG needs no spare column.  The square's lambda_2 and
        # lambda_3 nearly coincide and its lambda_4 / lambda_3 is 1.40, so the
        # block runs on to the gap after lambda_4.
        lobpcg, widths = eigen._lobpcg, []

        def recorded(pencil, start, *args):
            widths.append(start.shape[1])
            return lobpcg(pencil, start, *args)

        monkeypatch.setattr(eigen, "_lobpcg", recorded)
        compute_reference(DomainSpec(kind), 64)
        assert widths == [width]

    def test_lobpcg_block_passes_the_first_sweep(self, solve_mesh_calls):
        # LOBPCG stops on the sweeps' own residual test, on its true residual,
        # so the one Rayleigh-Ritz step passes and no reference falls back.
        # L-shape 512 eig_index 4 needed 7 more solves of A when A P was
        # carried by recurrence instead.
        cases = [(kind, 128, eig_index) for kind in ("square", "lshape", "slit")
                 for eig_index in range(1, 7)] + [("lshape", 512, 4)]
        for kind, level, eig_index in cases:
            solve_mesh_calls.clear()
            compute_reference(DomainSpec(kind), level, eig_index)
            assert solve_mesh_calls[0][4:] == ("factor-free", 0), (kind, level, eig_index)

    def test_no_factor_of_the_reference_dimension(self, monkeypatch):
        # Also, no factor outlives the solve without the cyclic collector.
        factorize, dimensions, factors = eigen.factorize_spd, [], []

        def tracked(matrix):
            dimensions.append(matrix.shape[0])
            factor = factorize(matrix)
            factors.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(eigen, "factorize_spd", tracked)
        enabled = gc.isenabled()
        gc.disable()
        try:
            ref = compute_reference(DomainSpec("lshape"), 64)
            assert dimensions and max(dimensions) < ref.fn.dofmap.n_dofs
            assert all(f() is None for f in factors)
        finally:
            if enabled:
                gc.enable()

    def test_builds_no_sym_sparse(self, monkeypatch):
        # SymSparse is the form assembly returns; the solver works on CSR only.
        def forbidden(*args, **kwargs):
            raise AssertionError("the solver built a SymSparse")

        monkeypatch.setattr(eigen, "SymSparse", forbidden)
        ref = compute_reference(DomainSpec("lshape"), 64)
        assert ref.lambda_h > 0.0

    def test_unreachable_tolerance_raises(self, get_mesh, get_pencil):
        fine, coarse = get_mesh("lshape", 16), get_mesh("lshape", 8)
        p = analysis._prolongation(coarse, fine)
        start = p @ solve_pencil(get_pencil("lshape", 8, P1), 3).eigenvectors
        pencil = get_pencil("lshape", 16, P1)
        with pytest.raises(ConvergenceFailureError) as excinfo:
            eigen._multigrid_eigenpairs(pencil, [p], start, 2, tol=1e-300)
        assert excinfo.value.eigenvalues.shape == (2,)
        assert (excinfo.value.residuals > 1e-300).all()


class TestLobpcg:
    """The LOBPCG of the multigrid reference, on slit P1 level 16 with its V-cycle."""

    @pytest.fixture(scope="class")
    def problem(self, get_mesh, get_pencil):
        p = analysis._prolongation(get_mesh("slit", 8), get_mesh("slit", 16))
        start = p @ solve_pencil(get_pencil("slit", 8, P1), 3).eigenvectors
        pencil = get_pencil("slit", 16, P1)
        a_csr, b_csr = pencil.a, pencil.b
        return pencil, a_csr, b_csr, [p], eigen._VCycle(a_csr, [p]), start

    def test_matches_dense_oracle(self, problem):
        pencil, a_csr, b_csr, _, vcycle, start = problem
        x = eigen._lobpcg(pencil, start, vcycle, 1e-12, 3)
        assert x.shape == start.shape
        gram = x.T @ (a_csr @ x)
        assert np.abs(gram - np.eye(3)).max() <= 1e-12
        lam = np.diag(gram) / np.einsum("ij,ij->j", x, b_csr @ x)
        assert lam == pytest.approx(dense_oracle(pencil, 3).eigenvalues, rel=1e-10)

    def test_tolerance_is_the_callers(self, problem, monkeypatch):
        # LOBPCG tests the sweeps' relative residual itself, so it gets the
        # caller's tol unscaled, and the number of wanted columns.
        pencil, _, _, prolongations, _, start = problem
        calls = []

        class Entered(Exception):
            pass

        def entered(pencil, start, precond, tol, k):
            calls.append((tol, k))
            raise Entered

        monkeypatch.setattr(eigen, "_lobpcg", entered)
        with pytest.raises(Entered):
            eigen._multigrid_eigenpairs(pencil, prolongations, start, 2, DEFAULT_TOL)
        assert calls == [(DEFAULT_TOL, 2)]

    def test_stops_on_the_wanted_columns(self, problem):
        # With k = 1 the iteration ends once the first row meets tol, while a
        # spare row is still above it; with k = 3 every row meets it.
        pencil, a_csr, b_csr, _, vcycle, start = problem
        for k in (1, 3):
            x = eigen._lobpcg(pencil, start, vcycle, 1e-12, k)
            ax, bx = a_csr @ x, b_csr @ x
            mu = np.einsum("ij,ij->j", x, bx)
            relative = np.linalg.norm(bx - ax * mu, axis=0) / (mu * np.linalg.norm(ax, axis=0))
            assert (relative[:k] <= 1e-12).all()
            assert (relative[k:] > 1e-12).any() == (k == 1)

    def test_repeated_start_column(self, problem):
        # SVQB drops the repeated direction; the Ritz block narrows to two
        # columns, and the sweeps decide the pairs.
        pencil, a_csr, b_csr, prolongations, vcycle, start = problem
        start = start[:, [0, 1, 1]]
        assert eigen._lobpcg(pencil, start, vcycle, 1e-12, 2).shape == (len(start), 2)
        sol = eigen._multigrid_eigenpairs(pencil, prolongations, start, 2, DEFAULT_TOL)
        assert (sol.residual_norms <= DEFAULT_TOL).all()
        assert sol.eigenvalues == pytest.approx(dense_oracle(pencil, 2).eigenvalues, rel=1e-10)


class TestVCycle:
    """The V-cycle restricts through transpose views of its prolongations.

    The oracle restricts through explicit CSR copies of ``P^T``.
    """

    @staticmethod
    def hierarchy(get_mesh, kind):
        meshes = [get_mesh(kind, level) for level in (64, 32, 16, 8)]
        return [analysis._prolongation(coarse, fine) for fine, coarse in zip(meshes, meshes[1:])]

    @staticmethod
    def oracle(a_csr, prolongations):
        """The cycle's coarse matrices and its application, with copied restrictions.

        The coarsest matrix is given as the matrix that is factored, the
        symmetric part of the Galerkin product.
        """
        levels, matrices = [], []
        for p in prolongations:
            restriction = p.T.tocsr()
            levels.append((a_csr, eigen.JACOBI_DAMPING / a_csr.diagonal(), p, restriction))
            a_csr = (restriction @ a_csr @ p).tocsr()
            matrices.append(a_csr)
        coarsest = 0.5 * (a_csr + a_csr.T)
        coarse = factorize_spd(coarsest)

        def apply(r):
            pre = []
            for a, weights, _, restriction in levels:
                x = weights * r
                pre.append((r, x))
                r = restriction @ (r - a @ x)
            x = coarse.solve(r)
            for (a, weights, p, _), (r, x_pre) in zip(reversed(levels), reversed(pre)):
                x = x_pre + p @ x
                x = x + weights * (r - a @ x)
            return x

        return matrices[:-1] + [coarsest], apply

    @pytest.mark.parametrize("kind", ("lshape", "slit"))
    def test_restrictions_share_the_prolongation_arrays(self, get_mesh, get_pencil, kind):
        prolongations = self.hierarchy(get_mesh, kind)
        vcycle = eigen._VCycle(get_pencil(kind, 64, P1).a, prolongations)
        assert len(vcycle.levels) == len(prolongations) == 3
        for (_, _, p, restriction), given in zip(vcycle.levels, prolongations):
            assert p is given
            assert np.shares_memory(restriction.indices, p.indices)
            assert np.shares_memory(restriction.data, p.data)

    @pytest.mark.parametrize("kind", ("lshape", "slit"))
    def test_matches_copied_restriction_oracle(self, get_mesh, get_pencil, monkeypatch, kind):
        prolongations, a_csr = self.hierarchy(get_mesh, kind), get_pencil(kind, 64, P1).a
        factorize, coarsest = eigen.factorize_spd, []

        def recorded(matrix):
            coarsest.append(matrix)
            return factorize(matrix)

        monkeypatch.setattr(eigen, "factorize_spd", recorded)
        vcycle = eigen._VCycle(a_csr, prolongations)
        matrices, apply = self.oracle(a_csr, prolongations)
        got = [a for a, *_ in vcycle.levels[1:]] + [coarsest.pop()]
        for g, w in zip(got, matrices, strict=True):
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(g, attr), getattr(w, attr))
        for r in np.random.default_rng(5).standard_normal((3, a_csr.shape[0])):
            assert np.array_equal(vcycle(r), apply(r))

    @pytest.mark.parametrize("kind", ("lshape", "slit"))
    def test_factored_matrix_is_exactly_symmetric(self, get_mesh, get_pencil, monkeypatch, kind):
        # The Galerkin product itself is symmetric only up to rounding.
        prolongations, a_csr = self.hierarchy(get_mesh, kind), get_pencil(kind, 64, P1).a
        factorize, coarsest = eigen.factorize_spd, []

        def recorded(matrix):
            coarsest.append(matrix)
            return factorize(matrix)

        monkeypatch.setattr(eigen, "factorize_spd", recorded)
        eigen._VCycle(a_csr, prolongations)
        (matrix,) = coarsest
        assert matrix.shape == (prolongations[-1].shape[1],) * 2
        assert (matrix != matrix.T).nnz == 0


def reference_sweeps(pencil, z, k, tol, a_inv):
    """Oracle: the sweeps with every block kept until its name is rebound.

    The residual is formed out of place and the results are copied.
    """
    a_csr, b_csr = pencil.a, pencil.b
    eigenvalues = np.full(k, np.nan)
    residuals = np.full(k, np.inf)
    x = z
    sweeps = eigen.MAX_SWEEPS if a_inv else 1

    for sweep in range(sweeps):
        if sweep:
            z = a_inv(b_csr @ x)
        az = a_csr @ z
        a_small = eigen._sym(z.T @ az)
        s, q = sla.eigh(a_small)
        keep = s > max(s.max(), 0.0) * 1e-13
        if not keep.any():
            raise ConvergenceFailureError(
                "iteration block collapsed into the kernel of B", eigenvalues, residuals)
        w = q[:, keep] / np.sqrt(s[keep])
        if w.shape[1] < k:
            raise ValueError(
                f"pencil appears to have fewer than k={k} finite eigenvalues")
        b_small = eigen._sym(w.T @ (z.T @ (b_csr @ z)) @ w)
        mu, v = sla.eigh(b_small)
        mu = mu[::-1]
        v = v[:, ::-1]
        u = z @ (w @ v)
        x = u

        lam = 1.0 / mu[:k]
        cand = u[:, :k] / np.sqrt(mu[:k])
        au = a_csr @ cand
        bu = b_csr @ cand
        res = np.linalg.norm(au - bu * lam, axis=0) / np.linalg.norm(au, axis=0)
        eigenvalues, residuals = lam, res
        if (res <= tol).all():
            return EigenSolution(eigenvalues=lam.copy(), eigenvectors=cand.copy(),
                                 residual_norms=res.copy())

    raise ConvergenceFailureError(
        f"subspace iteration did not reach tol={tol:g} in {sweeps} sweep{'s' * (sweeps > 1)} "
        f"(worst residual {residuals.max():g})", eigenvalues, residuals)


def padded_harmonic(factor, b_csr, block):
    """Oracle: ``A^{-1} B`` on ``block`` zero-padded from the boundary dofs to ``n`` rows."""
    bd = np.flatnonzero(np.diff(b_csr.indptr))
    lifted = np.zeros((b_csr.shape[0], block.shape[1]))
    lifted[bd] = block
    return factor.solve(b_csr @ lifted)


def bits(a):
    return a.shape, a.dtype, np.ascontiguousarray(a).tobytes()


def assert_same_bits(got, want):
    for name in ("eigenvalues", "eigenvectors", "residual_norms"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name


class TestSweepsBitIdentity:
    """Freeing blocks early changes no bit of the eigenpairs."""

    @staticmethod
    def oracle_inverse(factor, a_csr, calls):
        """A refined solve that keeps its argument; ``calls`` gets one entry per solve."""

        def a_inv(rhs):
            calls.append(1)
            x = factor.solve(rhs)
            x += factor.solve(rhs - a_csr @ x)
            return x

        return a_inv

    def oracle(self, pencil, k, calls):
        """``solve_pencil`` with the oracle sweeps and :meth:`oracle_inverse`."""
        factor = factorize_spd(pencil.a)
        z = eigen._start_block(factor, pencil, k, DEFAULT_TOL,
                               np.random.default_rng(eigen.DEFAULT_SEED))
        return reference_sweeps(pencil, z, k, DEFAULT_TOL,
                                self.oracle_inverse(factor, pencil.a, calls))

    @pytest.mark.parametrize("kind", ("square", "lshape", "slit"))
    @pytest.mark.parametrize("family, level", ((P1, 32), (CR, 16)))
    def test_solve_pencil_matches_oracle(self, get_pencil, kind, family, level):
        pencil = get_pencil(kind, level, family)
        sol = solve_pencil(pencil, 6)
        assert_same_bits(sol, self.oracle(pencil, 6, []))
        assert sol.eigenvectors.base is None and sol.eigenvectors.flags.owndata

    @pytest.mark.parametrize("kind, family, level", (("lshape", P1, 32), ("slit", CR, 16),
                                                     ("square", P1, 4)))
    def test_start_block_matches_padded_harmonic(self, get_pencil, monkeypatch,
                                                  kind, family, level):
        # square P1 level 4 has 16 boundary dofs and takes the Gaussian start.
        pencil, k = get_pencil(kind, level, family), 4
        factor, b_csr = factorize_spd(pencil.a), pencil.b
        eigsh, blocks = spla.eigsh, []

        def recorded(*args, **kwargs):
            result = eigsh(*args, **kwargs)
            blocks.append(result[1])
            return result

        monkeypatch.setattr(spla, "eigsh", recorded)
        got = eigen._start_block(factor, pencil, k, DEFAULT_TOL, np.random.default_rng(7))
        if level == 4:
            assert not blocks
            nb = np.count_nonzero(np.diff(b_csr.indptr))
            gaussian = np.random.default_rng(7).standard_normal((nb, nb))
            want = np.linalg.qr(padded_harmonic(factor, b_csr, gaussian))[0]
        else:
            want = padded_harmonic(factor, b_csr, blocks[0])
            assert got.flags.c_contiguous
        assert bits(got) == bits(want)

    def test_many_refined_sweeps_match_oracle(self, get_pencil, monkeypatch):
        # From the harmonic extension of a Gaussian k + 3 boundary block the
        # sweeps are plain subspace iteration: 35 sweeps, past MAX_SWEEPS.
        monkeypatch.setattr(eigen, "MAX_SWEEPS", 500)
        pencil, k, calls = get_pencil("lshape", 16, P1), 4, []
        factor, a_csr, b_csr = factorize_spd(pencil.a), pencil.a, pencil.b
        rng, nb = np.random.default_rng(eigen.DEFAULT_SEED), np.count_nonzero(np.diff(b_csr.indptr))
        start = padded_harmonic(factor, b_csr, rng.standard_normal((nb, k + 3)))
        sol = eigen._rayleigh_ritz_sweeps(pencil, start.copy(), k, DEFAULT_TOL,
                                          eigen._refined_inverse(factor, a_csr))
        assert_same_bits(sol, reference_sweeps(pencil, start, k, DEFAULT_TOL,
                                               self.oracle_inverse(factor, a_csr, calls)))
        assert len(calls) >= 3

    def test_multigrid_reference_matches_oracle(self, monkeypatch):
        runs = {}
        for name, impl in (("lean", eigen._rayleigh_ritz_sweeps), ("oracle", reference_sweeps)):
            runs[name] = solutions = []

            def recorded(*args, impl=impl, solutions=solutions):
                solutions.append(impl(*args))
                return solutions[-1]

            monkeypatch.setattr(eigen, "_rayleigh_ritz_sweeps", recorded)
            compute_reference(DomainSpec("slit"), 64)
        # The direct solve at the start level, then the multigrid sweeps.
        assert len(runs["lean"]) == len(runs["oracle"]) == 2
        for got, want in zip(runs["lean"], runs["oracle"]):
            assert_same_bits(got, want)

    def test_multigrid_block_wider_than_k_matches_oracle(self, monkeypatch):
        # At eig_index 4 on the L-shape LOBPCG runs 7 columns, so the
        # candidates are the first k columns of a wider Ritz block.
        sweeps, calls = eigen._rayleigh_ritz_sweeps, []

        def recorded(pencil, z, k, tol, a_inv):
            calls.append(((pencil, z.copy(), k, tol, a_inv), sweeps(pencil, z, k, tol, a_inv)))
            return calls[-1][1]

        monkeypatch.setattr(eigen, "_rayleigh_ritz_sweeps", recorded)
        compute_reference(DomainSpec("lshape"), 64, eig_index=4)
        # The direct solve at the start level, then the multigrid sweeps.
        assert len(calls) == 2
        args, got = calls[-1]
        assert args[1].shape[1] == 7 and args[2] == 4
        assert_same_bits(got, reference_sweeps(*args))


class TestSweepsMemory:
    """Each ``n``-row block of the sweeps is dropped after its last use.

    tracemalloc sees numpy's data buffers.  The start block is passed
    without a name, so the sweeps can free it, and the peak is taken above
    the traced memory at entry, which holds the start block.
    """

    @staticmethod
    def peak_blocks(pencil, make_start, k, a_inv):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            starts = [make_start()]
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            sol = eigen._rayleigh_ritz_sweeps(pencil, starts.pop(), k, DEFAULT_TOL, a_inv)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            if started:
                tracemalloc.stop()
        assert (sol.residual_norms <= DEFAULT_TOL).all()
        return peak / (pencil.dimension * k * 8)

    def test_first_sweep_from_the_start_block(self, get_pencil):
        # 2.3 blocks: the Ritz block, the candidates and their image under A,
        # which the squared residual overwrites, less the freed start block;
        # the rest is boundary-row blocks (B u, the residual there).  With the
        # dense B u block and a norm's temporary: 4.0.  With every block kept
        # until its name was rebound: 7.0.
        pencil, k = get_pencil("slit", 64, CR), 8
        factor = factorize_spd(pencil.a)

        def forbidden(rhs):
            raise AssertionError("a second sweep ran")

        blocks = self.peak_blocks(
            pencil,
            lambda: eigen._start_block(factor, pencil, k, DEFAULT_TOL, np.random.default_rng(1)),
            k, forbidden)
        assert blocks <= 2.5

    def test_refined_sweeps_from_a_random_block(self, get_pencil, monkeypatch):
        # 47 sweeps, past MAX_SWEEPS.  The peak is in the refined solve: B u,
        # its solve and the second solve's Fortran-ordered copy of the
        # residual, three (k + 3)-column blocks: 2.77-2.79 blocks above the
        # start block, by what the process allocated before.  A residual taken
        # as one block product, which copies the Fortran-ordered solve into C
        # order, reads 4.15-4.16; a boundary residual kept alive into the next
        # sweep 4.22-4.24.  With every block kept until its name was rebound: 11.3.
        monkeypatch.setattr(eigen, "MAX_SWEEPS", 500)
        pencil, k, calls = get_pencil("slit", 64, CR), 8, []
        factor = factorize_spd(pencil.a)
        rng, refined = np.random.default_rng(3), eigen._refined_inverse(factor, pencil.a)

        def a_inv(rhs):
            calls.append(1)
            return refined(rhs)

        blocks = self.peak_blocks(pencil, lambda: rng.standard_normal((pencil.dimension, k + 3)),
                                  k, a_inv)
        assert len(calls) >= 3
        assert blocks <= 3.0
