"""The three benchmark workloads, run through the public ``steklovfem`` API.

Each pass returns its wall time, the outputs that are checked, and the
operations it attempted and failed.  An operation is one solve or one
assembly; it fails if it raises or if its output differs from the value
recorded in ``expected.json`` by more than the tolerance below.

- ``study``: the paper's L-shape P1 table, levels 8..256 against a level-512
  reference.  Factorization-bound; the only workload that reaches
  ``analysis`` and ``mesh.refine``; factor memory sets its peak RSS.
- ``spectrum``: eight eigenpairs of the slit square, Crouzeix-Raviart, level
  256.  Iteration-bound: a wide block and many sweeps on a cheap factor.
- ``assemble``: mesh, dof map, stiffness with affine coefficients, boundary
  mass and full CSR for {lshape, slit} x {p1, cr} at level 512.  No solve,
  so a solver change must leave it unchanged.

The seed is the solver's start-block seed; ``assemble`` has no solver and
ignores it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import steklovfem as sk

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

STUDY_LEVELS = [8, 16, 32, 64, 128, 256]
STUDY_REFERENCE_LEVEL = 512
SPECTRUM_K = 8
SPECTRUM_LEVEL = 256
ASSEMBLE_LEVEL = 512
STUDY_OPERATIONS = 1 + len(STUDY_LEVELS)  # the reference solve and one per level
SPECTRUM_OPERATIONS = 1
ASSEMBLE_CASES = [("lshape", sk.P1), ("lshape", sk.CR), ("slit", sk.P1), ("slit", sk.CR)]

# Tolerances of the output checks.
VALUE_TOL = 1e-8        # eigenvalues and boundary errors, absolute
RESIDUAL_TOL = 1e-10    # relative residual of every spectrum eigenpair
CHECKSUM_RTOL = 1e-10   # matrix value checksums, relative


@dataclass
class Pass:
    wall_s: float
    attempted: int
    values: dict
    failures: list[str] = field(default_factory=list)


def load_expected() -> dict:
    """The recorded outputs per workload, or ``{}`` before any are recorded."""
    if not os.path.exists(EXPECTED_PATH):
        return {}
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def _study(seed: int) -> Pass:
    domain = sk.DomainSpec("lshape")
    start = time.perf_counter()
    ref = sk.compute_reference(domain, STUDY_REFERENCE_LEVEL, 2, seed=seed)
    table = sk.run_convergence_study(
        domain, sk.P1, STUDY_LEVELS, reference=sk.ReferenceSpec("bracket", STUDY_REFERENCE_LEVEL),
        seed=seed, reference_solution=ref)
    wall = time.perf_counter() - start
    values = {"reference_lambda_h": ref.lambda_h,
              "lambda_h": [r.lambda_h for r in table.rows],
              "u_error": [r.u_error for r in table.rows]}
    return Pass(wall, STUDY_OPERATIONS, values)


def _check_study(values: dict, expected: dict) -> list[str]:
    failures = []
    if abs(values["reference_lambda_h"] - expected["reference_lambda_h"]) > VALUE_TOL:
        failures.append(f"reference lambda_h {values['reference_lambda_h']!r} "
                        f"!= {expected['reference_lambda_h']!r}")
    for i, level in enumerate(STUDY_LEVELS):
        for col in ("lambda_h", "u_error"):
            got, want = values[col][i], expected[col][i]
            if abs(got - want) > VALUE_TOL:
                failures.append(f"level {level}: {col} {got!r} != {want!r}")
                break
    return failures


def _spectrum(seed: int) -> Pass:
    start = time.perf_counter()
    mesh = sk.generate_mesh(sk.DomainSpec("slit"), SPECTRUM_LEVEL)
    dofmap = sk.build_dof_map(mesh, sk.CR)
    pencil = sk.Pencil(sk.assemble_stiffness(mesh, dofmap), sk.assemble_boundary_mass(mesh, dofmap))
    sol = sk.solve_pencil(pencil, SPECTRUM_K, seed=seed)
    wall = time.perf_counter() - start
    return Pass(wall, SPECTRUM_OPERATIONS, {"eigenvalues": sol.eigenvalues.tolist(),
                                            "residuals": sol.residual_norms.tolist()})


def _check_spectrum(values: dict, expected: dict) -> list[str]:
    got, want = np.array(values["eigenvalues"]), np.array(expected["eigenvalues"])
    res = np.array(values["residuals"])
    if got.shape != want.shape or np.abs(got - want).max() > VALUE_TOL or res.max() > RESIDUAL_TOL:
        return [f"eigenvalues {got.tolist()} (residuals {res.tolist()}) != {want.tolist()}"]
    return []


def _checksum(csr) -> float:
    """Sum of values weighted by a fixed function of their position."""
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    weights = 1.0 + ((rows * 31 + csr.indices.astype(np.int64) * 17) % 97) / 97.0
    return float(csr.data @ weights)


def _assemble(seed: int) -> Pass:
    coeff = sk.CoefficientField(alpha=sk.affine(1.0, 0.5, 0.25), beta=sk.affine(2.0, -0.5, 0.5))
    wall = 0.0
    values = {}
    for kind, family in ASSEMBLE_CASES:
        start = time.perf_counter()
        mesh = sk.generate_mesh(sk.DomainSpec(kind), ASSEMBLE_LEVEL)
        dofmap = sk.build_dof_map(mesh, family)
        stiffness = sk.assemble_stiffness(mesh, dofmap, coeff).to_csr()
        mass = sk.assemble_boundary_mass(mesh, dofmap).to_csr()
        wall += time.perf_counter() - start
        values[f"{kind}/{family}"] = {
            "dofs": dofmap.n_dofs, "stiffness_nnz": stiffness.nnz, "mass_nnz": mass.nnz,
            "stiffness_checksum": _checksum(stiffness), "mass_checksum": _checksum(mass)}
        del mesh, dofmap, stiffness, mass
    return Pass(wall, len(ASSEMBLE_CASES), values)


def _check_assemble(values: dict, expected: dict) -> list[str]:
    failures = []
    for case, want in expected.items():
        got = values[case]
        exact = all(got[k] == want[k] for k in ("dofs", "stiffness_nnz", "mass_nnz"))
        close = all(abs(got[k] - want[k]) <= CHECKSUM_RTOL * abs(want[k])
                    for k in ("stiffness_checksum", "mass_checksum"))
        if not (exact and close):
            failures.append(f"{case}: {got} != {want}")
    return failures


# name: (pass, check, operations per pass)
WORKLOADS = {
    "study": (_study, _check_study, STUDY_OPERATIONS),
    "spectrum": (_spectrum, _check_spectrum, SPECTRUM_OPERATIONS),
    "assemble": (_assemble, _check_assemble, len(ASSEMBLE_CASES)),
}


def run_pass(name: str, seed: int) -> Pass:
    """Run one pass of a workload and check its outputs.

    An exception fails every operation of the pass; the wall time is then
    the time until the exception.  Without recorded values every operation
    fails too, but the outputs are still returned so they can be recorded.
    """
    run, check, operations = WORKLOADS[name]
    start = time.perf_counter()
    try:
        result = run(seed)
    except Exception as exc:  # a failed pass is reported, not fatal
        return Pass(time.perf_counter() - start, operations, {},
                    [f"{type(exc).__name__}: {exc}"] * operations)
    expected = load_expected().get(name)
    result.failures = (check(result.values, expected) if expected is not None
                       else [f"no recorded values for {name}"] * operations)
    return result
