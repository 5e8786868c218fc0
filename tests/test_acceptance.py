"""Acceptance gate: one test and one reported pass/fail line per criterion.

Criteria 1-3 reproduce the frozen eigenvalue and ratio columns of the second
Steklov eigenvalue on the L-shaped and slit domains (P1, bracket reference
with the trace at level 1024).  Criterion 4 checks the Crouzeix-Raviart
rates, 5 cross-checks the sparse solver against the dense oracle, 6 the
matrix invariants, 7 the boundary interpolation rates, 8 the convex-domain
rate, and 9 times the end-to-end command-line reproduction.  Expected rates
are ``h**(2r)`` for eigenvalues and ``h**(r + 1/2)`` for boundary traces,
with r = 2/3 (lshape), 1/2 (slit), 1 (square).  Tolerances are stated
inline; the reported lines are replayed in the terminal summary.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from steklovfem import (
    CR,
    DomainSpec,
    FeFunction,
    NotPositiveDefiniteError,
    P1,
    Pencil,
    ReferenceSpec,
    assemble_boundary_mass,
    assemble_stiffness,
    boundary_l2_error,
    build_dof_map,
    compute_reference,
    convergence_ratio,
    dense_oracle,
    factorize_spd,
    generate_mesh,
    interpolate_cr,
    run_convergence_study,
    singular_model,
    solve_pencil,
)
from steklovfem.interp import as_point_function
from steklovfem.mesh import LOCAL_EDGES

REFERENCE_LEVEL = 1024
PERIMETERS = {"square": 4.0, "lshape": 4.0, "slit": 5.0}

# Frozen expected columns for levels 8, 16, 32, 64, 128 (lambda_2) and the
# four level pairs in between (ratios).
LSHAPE_LAMBDA = (0.92115806, 0.90400049, 0.89758582, 0.89516258, 0.89423511)
LSHAPE_RATIO_U = (1.12103345, 1.12243165, 1.13940548, 1.16362010)
SLIT_LAMBDA = (0.79372467, 0.76310065, 0.74852962, 0.74146094, 0.73798634)
SLIT_RATIO_LAMBDA = (1.05162089, 1.03053027, 1.01703653, 1.00934037)


def _gate(report, criterion: int, ok: bool, detail: str) -> None:
    report(criterion, ok, detail)
    assert ok, f"acceptance criterion {criterion} failed: {detail}"


@pytest.fixture(scope="session")
def studies():
    """Bracket-reference convergence tables for the two concave domains.

    P1 studies run levels 8..128 and CR studies 8..64: the reference trace
    is a conforming eigenfunction, so a nonconforming study's boundary
    errors bottom out at the reference's own error, and keeping the finest
    CR level four halvings below the reference keeps that floor negligible
    next to the measured error.  Both level-1024 references are computed in
    this process: their multigrid solves factor no level-1024 matrix, and
    each, run alone, peaked at 0.42 GB (L-shape) and 0.53 GB (slit) of RSS.
    """
    spec = ReferenceSpec(mode="bracket", level=REFERENCE_LEVEL)
    tables = {}
    for kind in ("lshape", "slit"):
        reference = compute_reference(DomainSpec(kind), REFERENCE_LEVEL, 2)
        for family, top in ((P1, 128), (CR, 64)):
            levels = [8, 16, 32, 64, 128]
            levels = levels[: levels.index(top) + 1]
            tables[kind, family] = run_convergence_study(
                DomainSpec(kind), family, levels,
                reference=spec, reference_solution=reference)
        del reference
    return tables


def test_criterion_1_lshape_eigenvalue_column(acceptance_report):
    """lambda_2 on the L-shape matches the frozen column, decreasing, fast."""
    start = time.perf_counter()
    computed = []
    for level in (8, 16, 32, 64, 128):
        mesh = generate_mesh(DomainSpec("lshape"), level)
        dofmap = build_dof_map(mesh, P1)
        pencil = Pencil(assemble_stiffness(mesh, dofmap),
                        assemble_boundary_mass(mesh, dofmap))
        computed.append(float(solve_pencil(pencil, 2).eigenvalues[1]))
    elapsed = time.perf_counter() - start
    worst = max(abs(c - e) for c, e in zip(computed, LSHAPE_LAMBDA))
    monotone = all(a > b for a, b in zip(computed, computed[1:]))
    ok = worst <= 2e-3 and monotone and elapsed <= 120.0
    _gate(acceptance_report, 1, ok,
          f"lshape P1 lambda_2, levels 8..128: max deviation {worst:.2e} "
          f"(tol 2e-3), monotone decreasing {monotone}, "
          f"runtime {elapsed:.1f}s (limit 120s)")


def test_criterion_2_lshape_rates(studies, acceptance_report):
    """L-shape P1 ratios: lambda near the 1.35-1.41 band, traces as frozen."""
    table = studies["lshape", P1]
    rlam = [row.lambda_ratio for row in table.rows[:-1]]
    ru = [row.u_ratio for row in table.rows[:-1]]
    in_band = all(1.35 - 0.05 <= v <= 1.41 + 0.05 for v in rlam)
    trending = all(a > b for a, b in zip(rlam, rlam[1:])) and rlam[-1] > 4.0 / 3.0
    worst_u = max(abs(a - b) for a, b in zip(ru, LSHAPE_RATIO_U))
    ok = in_band and trending and worst_u <= 0.1 and ru[-1] >= 1.1
    _gate(acceptance_report, 2, ok,
          f"lshape P1: ratio(lambda) in [1.30, 1.46] {in_band}, decreasing "
          f"toward 4/3 {trending}; ratio(u) max deviation {worst_u:.3f} "
          f"(tol 0.1), finest pair {ru[-1]:.3f} >= 1.1")


def test_criterion_3_slit_rates(studies, acceptance_report):
    """Slit P1: frozen lambda column, ratio(lambda) near 1, traces near 1."""
    table = studies["slit", P1]
    lams = [row.lambda_h for row in table.rows]
    rlam = [row.lambda_ratio for row in table.rows[:-1]]
    ru = [row.u_ratio for row in table.rows[:-1]]
    worst_lam = max(abs(a - b) for a, b in zip(lams, SLIT_LAMBDA))
    # The first pair sits 0.0516 above 1.0 even in the frozen expected
    # column, so the pairs are compared against that column; every later
    # pair must also be within 0.05 of 2r = 1 exactly.
    worst_ratio = max(abs(a - b) for a, b in zip(rlam, SLIT_RATIO_LAMBDA))
    near_one = all(abs(v - 1.0) <= 0.05 for v in rlam[1:])
    worst_u = max(abs(v - 1.0) for v in ru[-2:])
    above_old = all(v > 0.75 for v in ru)
    ok = (worst_lam <= 2e-3 and worst_ratio <= 0.05 and near_one
          and worst_u <= 0.1 and above_old)
    _gate(acceptance_report, 3, ok,
          f"slit P1: max lambda deviation {worst_lam:.2e} (tol 2e-3); "
          f"ratio(lambda) max deviation {worst_ratio:.3f} (tol 0.05), near 1 "
          f"after first pair {near_one}; ratio(u) within {worst_u:.3f} of 1 "
          f"at two finest pairs (tol 0.1), all above 0.75 {above_old}")


def test_criterion_4_cr_rates(studies, acceptance_report):
    """CR rates at the two finest pairs sit in the h^{2r} / h^{r+1/2} bands."""
    details = []
    ok = True
    for kind, r in (("lshape", 2.0 / 3.0), ("slit", 0.5)):
        table = studies[kind, CR]
        rlam = [row.lambda_ratio for row in table.rows[:-1]]
        ru = [row.u_ratio for row in table.rows[:-1]]
        lam_ok = all(abs(v - 2.0 * r) <= 0.15 for v in rlam[-2:])
        u_ok = all(abs(v - (r + 0.5)) <= 0.15 for v in ru[-2:])
        ok = ok and lam_ok and u_ok
        details.append(
            f"{kind}: ratio(lambda) {rlam[-2]:.3f}/{rlam[-1]:.3f} vs "
            f"{2.0 * r:.3f}, ratio(u) {ru[-2]:.3f}/{ru[-1]:.3f} vs {r + 0.5:.3f}")
    _gate(acceptance_report, 4, ok,
          "CR two finest pairs within 0.15 of targets -- " + "; ".join(details))


def test_criterion_5_oracle_equivalence(get_pencil, acceptance_report):
    """Sparse eigenvalues match the dense oracle; eigenvectors B-orthonormal."""
    worst_val = 0.0
    worst_orth = 0.0
    for kind in ("square", "lshape", "slit"):
        for family in (P1, CR):
            pencil = get_pencil(kind, 8, family)
            sparse = solve_pencil(pencil, 5)
            dense = dense_oracle(pencil, 5)
            rel = np.abs(sparse.eigenvalues - dense.eigenvalues)
            rel /= np.abs(dense.eigenvalues)
            worst_val = max(worst_val, float(rel.max()))
            gram = sparse.eigenvectors.T @ (pencil.b @ sparse.eigenvectors)
            worst_orth = max(worst_orth, float(np.abs(gram - np.eye(5)).max()))
    ok = worst_val <= 1e-9 and worst_orth <= 1e-8
    _gate(acceptance_report, 5, ok,
          f"first 5 eigenvalues, 3 domains x 2 families at level 8: max "
          f"relative gap vs dense oracle {worst_val:.2e} (tol 1e-9), max "
          f"B-orthonormality defect {worst_orth:.2e} (tol 1e-8)")


_GAUSS_T = (0.5 * (1.0 - 1.0 / math.sqrt(3.0)), 0.5 * (1.0 + 1.0 / math.sqrt(3.0)))


def _trace_matrix(mesh, dofmap) -> np.ndarray:
    """Dense basis-trace samples at two Gauss points per boundary edge.

    Traces are linear on each edge, so two distinct points per edge span the
    trace of every basis function and the matrix rank is the number of
    independent boundary traces.
    """
    rows = []
    for tri, local_edge in mesh.boundary_edges:
        a, b = LOCAL_EDGES[local_edge]
        for t in _GAUSS_T:
            bary = np.zeros(3)
            bary[a], bary[b] = 1.0 - t, t
            basis = bary if dofmap.family == P1 else 1.0 - 2.0 * bary
            row = np.zeros(dofmap.n_dofs)
            row[dofmap.cell_dofs[tri]] = basis
            rows.append(row)
    return np.array(rows)


def test_criterion_6_matrix_invariants(get_mesh, get_dofmap, acceptance_report):
    """Stiffness is SPD at study levels; boundary-mass rank and b(1,1) check."""
    chol_failures = []
    cases = [(kind, family, level)
             for kind in ("square", "lshape", "slit")
             for family in (P1, CR)
             for level in (8, 16, 32, 64, 128)]
    cases += [("lshape", P1, 256), ("slit", P1, 256)]
    for kind, family, level in cases:
        mesh = generate_mesh(DomainSpec(kind), level)
        dofmap = build_dof_map(mesh, family)
        try:
            factorize_spd(assemble_stiffness(mesh, dofmap).to_csr())
        except NotPositiveDefiniteError:
            chol_failures.append((kind, family, level))

    rank_failures = []
    worst_perimeter = 0.0
    for kind in ("square", "lshape", "slit"):
        mesh = get_mesh(kind, 8)
        for family in (P1, CR):
            dofmap = get_dofmap(kind, 8, family)
            b = assemble_boundary_mass(mesh, dofmap)
            rank = np.linalg.matrix_rank(b.to_csr().toarray())
            if family == P1:
                predicted = len(dofmap.boundary_dofs)
            else:
                predicted = np.linalg.matrix_rank(_trace_matrix(mesh, dofmap))
            if rank != predicted:
                rank_failures.append((kind, family, rank, predicted))
            ones = np.ones(b.dimension)
            gap = abs(float(ones @ (b.to_csr() @ ones)) - PERIMETERS[kind])
            worst_perimeter = max(worst_perimeter, gap)

    ok = not chol_failures and not rank_failures and worst_perimeter <= 1e-12
    _gate(acceptance_report, 6, ok,
          f"stiffness Cholesky at {len(cases)} domain/family/level cases "
          f"(failures {chol_failures or 'none'}); boundary-mass rank matches "
          f"prediction at level 8 (failures {rank_failures or 'none'}); "
          f"max |b(1,1) - perimeter| = {worst_perimeter:.2e} (tol 1e-12)")


def test_criterion_7_interpolation_rates(acceptance_report):
    """Edge-average interpolation converges at r + 1/2 on the boundary."""
    def rates(kind, f):
        errors = []
        for level in (8, 16, 32, 64, 128):
            mesh = generate_mesh(DomainSpec(kind), level)
            dofmap = build_dof_map(mesh, CR)
            fn = FeFunction(mesh, dofmap, interpolate_cr(mesh, dofmap, f))
            errors.append(boundary_l2_error(fn, f))
        return [convergence_ratio(a, b) for a, b in zip(errors, errors[1:])]

    singular = rates("lshape", singular_model(DomainSpec("lshape")))
    smooth = rates("square", as_point_function(
        lambda x, y: np.cos(x) * np.cosh(y)))
    worst = max(abs(v - 7.0 / 6.0) for v in singular[-2:])
    ok = worst <= 0.1 and all(v >= 1.45 for v in smooth[-2:])
    _gate(acceptance_report, 7, ok,
          f"lshape singular-model rate within {worst:.3f} of 7/6 at two "
          f"finest pairs (tol 0.1); smooth square rates "
          f"{smooth[-2]:.3f}/{smooth[-1]:.3f} >= 1.45")


def test_criterion_8_square_rates(acceptance_report):
    """Convex-domain sanity: eigenvalue ratios 2.0 +- 0.1 on the square."""
    table = run_convergence_study(
        DomainSpec("square"), P1, [8, 16, 32, 64],
        reference=ReferenceSpec(mode="richardson", level=128))
    rlam = [row.lambda_ratio for row in table.rows[:-1]]
    worst = max(abs(v - 2.0) for v in rlam)
    ok = worst <= 0.1
    _gate(acceptance_report, 8, ok,
          f"square P1 ratio(lambda) = {', '.join(f'{v:.3f}' for v in rlam)}; "
          f"max deviation from 2.0 is {worst:.3f} (tol 0.1)")


def test_criterion_9_cli_reproduction(tmp_path, acceptance_report, package_env):
    """Full command-line study on both concave domains within 15 minutes."""
    start = time.perf_counter()
    failures = []
    for kind in ("lshape", "slit"):
        out = tmp_path / f"{kind}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "steklovfem", "study", "--domain", kind,
             "--element", "p1", "--min-level", "8", "--max-level", "256",
             "--ref-level", "512", "--out", str(out)],
            capture_output=True, text=True, timeout=900, env=package_env)
        if proc.returncode != 0:
            failures.append(f"{kind}: exit {proc.returncode}\n{proc.stderr}")
        elif len(out.read_text().strip().splitlines()) != 7:
            failures.append(f"{kind}: expected 7 csv lines")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed <= 900.0
    _gate(acceptance_report, 9, ok,
          f"study through level 256 (reference 512) on both concave domains: "
          f"{elapsed:.0f}s wall (limit 900s); failures {failures or 'none'}")
