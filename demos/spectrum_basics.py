"""First Steklov eigenvalues on the unit square, P1 vs Crouzeix-Raviart.

Assembles the stiffness form a(u, v) = (alpha grad u, grad v) + (beta u, v)
and the boundary-mass form b(u, v) = <u, v> on the boundary, solves the
generalized eigenproblem A u = lambda B u for the five smallest eigenvalues
with both element families, and cross-checks the small case against the
dense oracle.  Also shows how the coefficients move the spectrum: scaling
(alpha, beta) jointly scales every eigenvalue, and increasing beta increases
every eigenvalue.
"""

import numpy as np

from steklovfem import (CR, CoefficientField, DomainSpec, P1, Pencil, affine,
                        assemble_boundary_mass, assemble_stiffness, build_dof_map,
                        dense_oracle, generate_mesh, solve_pencil)


def pencil(mesh, family, coeff=None):
    dofmap = build_dof_map(mesh, family)
    kwargs = {} if coeff is None else {"coeff": coeff}
    return Pencil(assemble_stiffness(mesh, dofmap, **kwargs),
                  assemble_boundary_mass(mesh, dofmap))


mesh = generate_mesh(DomainSpec("square"), 16)
print(f"unit square, level 16: {mesh.n_triangles} triangles")
for family in (P1, CR):
    sol = solve_pencil(pencil(mesh, family), 5)
    values = "  ".join(f"{v:.6f}" for v in sol.eigenvalues)
    print(f"{family:>3}: lambda_1..5 = {values}")
print("(conforming P1 approaches the true values from above; the")
print(" nonconforming values sit below the conforming ones here)")

# On a coarse mesh the sparse iteration and a dense factorization must agree
# to near machine precision.
coarse = generate_mesh(DomainSpec("square"), 4)
p = pencil(coarse, P1)
gap = np.abs(solve_pencil(p, 5).eigenvalues - dense_oracle(p, 5).eigenvalues)
print(f"\nlevel 4 sparse vs dense oracle: max |gap| = {gap.max():.2e}")

# Coefficient effects.
base = solve_pencil(pencil(mesh, P1), 3).eigenvalues
doubled = solve_pencil(pencil(mesh, P1, CoefficientField(affine(2.0), affine(2.0))), 3).eigenvalues
shifted = solve_pencil(pencil(mesh, P1, CoefficientField(affine(1.0), affine(4.0))), 3).eigenvalues
print("\ncoefficient effects on lambda_1..3:")
print("  alpha = beta = 1:", "  ".join(f"{v:.6f}" for v in base))
print("  alpha = beta = 2:", "  ".join(f"{v:.6f}" for v in doubled),
      "(exactly doubled)")
print("  beta = 4:        ", "  ".join(f"{v:.6f}" for v in shifted),
      "(each strictly larger)")
