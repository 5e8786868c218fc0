import os

import pytest

import steklovfem
from steklovfem import (
    DomainSpec,
    Pencil,
    assemble_boundary_mass,
    assemble_stiffness,
    build_dof_map,
    generate_mesh,
)

KINDS = ("square", "lshape", "slit")

_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collect one pass/fail line per acceptance criterion.

    The lines are replayed in the terminal summary so they stay visible in a
    plain ``pytest -v`` run regardless of output capturing.
    """

    def report(criterion: int, passed: bool, detail: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        _acceptance_lines.append(f"criterion {criterion}: {verdict}  {detail}")

    return report


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def get_mesh():
    cache = {}

    def get(kind, level):
        key = (kind, level)
        if key not in cache:
            cache[key] = generate_mesh(DomainSpec(kind), level)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def get_dofmap(get_mesh):
    cache = {}

    def get(kind, level, family):
        key = (kind, level, family)
        if key not in cache:
            cache[key] = build_dof_map(get_mesh(kind, level), family)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def get_pencil(get_mesh, get_dofmap):
    cache = {}

    def get(kind, level, family):
        key = (kind, level, family)
        if key not in cache:
            mesh = get_mesh(kind, level)
            dofmap = get_dofmap(kind, level, family)
            cache[key] = Pencil(assemble_stiffness(mesh, dofmap),
                                assemble_boundary_mass(mesh, dofmap))
        return cache[key]

    return get


@pytest.fixture
def solve_mesh_calls(monkeypatch):
    """Each ``_solve_mesh`` call as ``(domain, level, family, k, factor_free, depth)``.

    ``depth`` is 0 for a call from outside and 1 for the start solve that the
    factor-free path makes through itself.  The CLI's name is recorded too.
    """
    from steklovfem import analysis, cli

    solve_mesh, calls, depth = analysis._solve_mesh, [], [0]

    def recorded(mesh, family, coeff, k, tol, seed, factor_free=False):
        calls.append((mesh.domain.kind, mesh.level, family, k, factor_free, depth[0]))
        depth[0] += 1
        try:
            return solve_mesh(mesh, family, coeff, k, tol, seed, factor_free=factor_free)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(analysis, "_solve_mesh", recorded)
    monkeypatch.setattr(cli, "_solve_mesh", recorded)
    return calls


@pytest.fixture(scope="session")
def package_env():
    """Environment for a child ``python -m steklovfem``: it imports the package
    the tests import, installed or not."""
    src = os.path.dirname(os.path.dirname(steklovfem.__file__))
    paths = (src, os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
