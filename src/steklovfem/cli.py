"""Command line front end: mesh generation, assembly, solves, and studies.

Exit codes: 0 on success, 1 for usage errors (bad flags, invalid levels or
coefficients, an ``--out`` path that cannot be written), 2 for numerical
failures (factorization or convergence).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .analysis import ReferenceSpec, _solve_mesh, run_convergence_study
from .eigen import ConvergenceFailureError, DEFAULT_SEED, DEFAULT_TOL, NotPositiveDefiniteError
from .fem import (_FAMILIES, CoefficientField, affine, assemble_boundary_mass,
                  assemble_stiffness, build_dof_map, write_matrix)
from .mesh import _KINDS, DomainSpec, generate_mesh, write_mesh

__all__ = ["main"]

BASE_STUDY_LEVEL = 8


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_affine(text: str) -> tuple[float, ...]:
    """One or three comma-separated numbers: the arguments of :func:`affine`.

    >>> _parse_affine("2")
    (2.0,)
    >>> _parse_affine("1,0.5,-0.25")
    (1.0, 0.5, -0.25)
    >>> _parse_affine("1,2")
    Traceback (most recent call last):
    argparse.ArgumentTypeError: expected C0 or C0,CX,CY but got '1,2'
    """
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if len(values) not in (1, 3):
        raise argparse.ArgumentTypeError(f"expected C0 or C0,CX,CY but got {text!r}")
    return values


def _coefficient_field(args) -> CoefficientField:
    """The coefficients named by ``--alpha`` and ``--beta``."""
    return CoefficientField(alpha=affine(*args.alpha), beta=affine(*args.beta))


@contextmanager
def _open_out(path: str | None):
    """The output stream for ``--out``: stdout for None or ``-``, else the file."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", newline="\n") as stream:
        yield stream


def _write_text(path: str | None, text: str) -> None:
    with _open_out(path) as stream:
        stream.write(text)


def cmd_mesh(args) -> int:
    mesh = generate_mesh(DomainSpec(args.domain), args.level)
    with _open_out(args.out) as stream:
        write_mesh(mesh, stream)
    return 0


def cmd_assemble(args) -> int:
    mesh = generate_mesh(DomainSpec(args.domain), args.level)
    dofmap = build_dof_map(mesh, args.element)
    coeff = _coefficient_field(args)
    if args.which == "stiffness":
        matrix = assemble_stiffness(mesh, dofmap, coeff)
    else:
        matrix = assemble_boundary_mass(mesh, dofmap)
    with _open_out(args.out) as stream:
        write_matrix(matrix, stream)
    return 0


def cmd_solve(args) -> int:
    mesh = generate_mesh(DomainSpec(args.domain), args.level)
    _, solution = _solve_mesh(mesh, args.element, _coefficient_field(args), args.k, args.tol,
                              args.seed)
    lines = []
    for j, (lam, res) in enumerate(zip(solution.eigenvalues, solution.residual_norms), start=1):
        lines.append(f"lambda_{j} = {lam:.8f}   residual = {res:.8e}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_study(args) -> int:
    coeff = _coefficient_field(args)
    for name, lvl in (("min-level", args.min_level), ("max-level", args.max_level)):
        if lvl < BASE_STUDY_LEVEL or lvl & (lvl - 1):
            raise ValueError(
                f"--{name} must be {BASE_STUDY_LEVEL} times a power of two, got {lvl}")
    if args.min_level > args.max_level:
        raise ValueError("--min-level must not exceed --max-level")
    if args.max_level >= args.ref_level:
        raise ValueError("--ref-level must exceed --max-level")
    if args.eig_index < 1:
        raise ValueError("--eig-index must be at least 1")
    levels = [args.min_level]
    while levels[-1] < args.max_level:
        levels.append(2 * levels[-1])
    table = run_convergence_study(
        DomainSpec(args.domain), args.element, levels, eig_index=args.eig_index, coeff=coeff,
        reference=ReferenceSpec(args.reference, args.ref_level), tol=args.tol, seed=args.seed)
    _write_text(args.out, table.to_csv() if args.format == "csv" else table.to_markdown())

    finest = table.rows[-2] if len(table.rows) > 1 else None
    report = [f"reference lambda_{args.eig_index} = {table.reference_lambda:.8f} "
              f"({table.reference_mode}, trace level {table.reference_level})"]
    if finest is not None and finest.lambda_ratio is not None:
        report.append(f"observed ratio(lambda) at finest pair = {finest.lambda_ratio:.8f}   "
                      f"target 2r = {table.expected_lambda_rate:.8f}")
    if finest is not None and finest.u_ratio is not None:
        # r is capped at 1 on the convex square, whose smooth traces converge faster.
        bound = " (lower bound)" if table.domain.kind == "square" else ""
        report.append(f"observed ratio(u) at finest pair      = {finest.u_ratio:.8f}   "
                      f"target r + 1/2 = {table.expected_u_rate:.8f}{bound}")
    for warning in table.warnings:
        report.append(f"warning: {warning}")
    print("\n".join(report))
    return 0


# Every flag once; each subcommand below lists the flags it takes, in help order.
_FLAGS = {
    "domain": dict(choices=_KINDS, required=True),
    "level": dict(type=int, required=True),
    "element": dict(choices=_FAMILIES, required=True),
    "which": dict(choices=("stiffness", "boundary-mass"), default="stiffness"),
    "k": dict(type=int, default=5, help="number of eigenpairs"),
    "min-level": dict(type=int, default=8),
    "max-level": dict(type=int, default=128),
    "ref-level": dict(type=int, default=512,
                      help="reference trace level (must exceed --max-level)"),
    "eig-index": dict(type=int, default=2),
    "reference": dict(choices=("auto", "bracket", "richardson"), default="auto",
                      help="reference eigenvalue mode: tabulated enclosure "
                           "midpoint or Richardson extrapolation"),
    "tol": dict(type=float, default=DEFAULT_TOL),
    "seed": dict(type=int, default=DEFAULT_SEED),
    "alpha": dict(type=_parse_affine, default=(1.0,), metavar="C0[,CX,CY]",
                  help="diffusion coefficient c0 + cx*x1 + cy*x2 (default 1)"),
    "beta": dict(type=_parse_affine, default=(1.0,), metavar="C0[,CX,CY]",
                 help="reaction coefficient c0 + cx*x1 + cy*x2 (default 1)"),
    "format": dict(choices=("csv", "markdown"), default="csv"),
    "out": dict(default=None, help="output path (default stdout)"),
}

_COMMANDS = (
    ("mesh", "generate a mesh and write its dump", cmd_mesh, ("domain", "level", "out")),
    ("assemble", "assemble a matrix and write its dump", cmd_assemble,
     ("domain", "level", "element", "which", "alpha", "beta", "out")),
    ("solve", "solve the eigenproblem", cmd_solve,
     ("domain", "level", "element", "k", "tol", "seed", "alpha", "beta", "out")),
    ("study", "run a convergence study", cmd_study,
     ("domain", "element", "min-level", "max-level", "ref-level", "eig-index", "reference",
      "tol", "seed", "alpha", "beta", "format", "out")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="steklovfem",
                     description="P1/Crouzeix-Raviart discretization of Steklov "
                                 "eigenvalue problems with convergence studies.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, flags in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flag in flags:
            command.add_argument(f"--{flag}", **_FLAGS[flag])
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # invalid levels and coefficients are ValueErrors
        print(f"steklovfem: error: {exc}", file=sys.stderr)
        return 1
    except (NotPositiveDefiniteError, ConvergenceFailureError) as exc:
        print(f"steklovfem: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
