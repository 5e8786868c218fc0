"""Steklov eigenvalue problems with P1 and Crouzeix-Raviart finite elements.

The package triangulates the unit square, an L-shaped domain, and a slit
square with uniform right-triangle meshes, assembles the bilinear forms of
the Steklov problem

    -div(alpha grad u) + beta u = 0   in the domain,
    alpha du/dn = lambda u            on the boundary,

solves the resulting sparse generalized eigenproblem, and runs convergence
studies of the eigenvalues (rate ``h**(2r)``) and of the boundary traces of
eigenfunctions (rate ``h**(r + 1/2)``), where ``r`` is the corner regularity
exponent of the domain.
"""

from .mesh import (DomainSpec, InvalidLevelError, Mesh, NestingError,
                   Refinement, ancestor_map, edge_slit_sides, generate_mesh,
                   refine, write_mesh)
from .fem import (CR, CoefficientField, DofMap, InvalidCoefficientError, P1,
                  SymSparse, UNIT_COEFFICIENTS, affine, assemble_boundary_mass,
                  assemble_stiffness, build_dof_map, write_matrix)
from .eigen import (ConvergenceFailureError, EigenSolution,
                    NotPositiveDefiniteError, Pencil, SpdFactor, dense_oracle,
                    factorize_spd, solve_pencil)
from .interp import (PointFunction, as_point_function, interpolate_cr,
                     interpolate_p1, singular_model)
from .analysis import (AmbiguousAlignmentError, ConvergenceRow,
                       ConvergenceTable, FeFunction, ReferenceSolution,
                       ReferenceSpec, TransferredTrace, UndefinedRatioError,
                       align_sign, boundary_l2_error, compute_reference,
                       convergence_ratio, run_convergence_study,
                       transfer_reference)

__version__ = "0.1.0"
