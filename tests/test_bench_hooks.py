"""The benchmark's tracer still finds every name it hooks in the package.

``bench/tracing.py`` wraps the package from the outside and resolves private
names to do so: ``mesh.refine``, ``eigen.factorize_spd``, ``SymSparse._csr``,
a factor's ``_lu`` and ``analysis._boundary_gauss``.  The benchmark's own
tests are not part of this suite, so this one runs a small traced pass in a
child process, where the wrappers cannot leak into other tests, and checks
that every counter moved.
"""

import json
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

TRACED_PASS = """
import json
import sys

sys.path.insert(0, sys.argv[1])
import steklovfem as sk
import tracing

tracer = tracing.Tracer()
tracer.install(sk)
domain = sk.DomainSpec("lshape")
mesh = sk.generate_mesh(domain, 8)
dofmap = sk.build_dof_map(mesh, sk.P1)
pencil = sk.Pencil(sk.assemble_stiffness(mesh, dofmap), sk.assemble_boundary_mass(mesh, dofmap))
sol = sk.solve_pencil(pencil, 2)
ref = sk.compute_reference(domain, 32)
u = sk.FeFunction(mesh, dofmap, sol.eigenvectors[:, 1])
sk.boundary_l2_error(u, sk.transfer_reference(ref.fn, mesh))
print(json.dumps({"counters": tracer.counters,
                  "spans": sorted({s["name"] for s in tracer.spans}),
                  "metrics": tracer.layer_metrics(1.0)}))
"""


def test_traced_pass_moves_every_counter(package_env):
    proc = subprocess.run([sys.executable, "-c", TRACED_PASS, str(BENCH)],
                          capture_output=True, text=True, env=package_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["counters"] and all(v > 0 for v in out["counters"].values()), out["counters"]
    assert {"generate_mesh", "build_dof_map", "factorize_spd", "solve_pencil",
            "SymSparse.to_csr", "transfer_reference", "boundary_l2_error"} <= set(out["spans"])
    assert out["metrics"]["eigen.factor_s"] > 0.0
