"""Spans and work counters around the public calls into each layer.

The tracer wraps the package's functions from the outside: it replaces every
module attribute bound to a traced function (``steklovfem.analysis`` imports
``generate_mesh`` by name, for instance) with a wrapper that records a span
and the counters measured at that boundary.  Nothing inside the package
changes, so an untraced pass runs exactly the shipped code.

A span is a dict with an ``id``, the ``parent`` span's id, a ``name``, a
``layer``, and ``start``/``end`` in seconds of ``time.perf_counter``.  Spans
stay in memory and the caller writes them out when the pass ends.  A call's
time is the self time of its spans: duration minus the part covered by child
spans, so a ``to_csr`` made inside ``factorize_spd`` counts for ``fem`` and
not for ``eigen``, and ``refine`` keeps only the parent map: the fine mesh
it builds through ``generate_mesh`` counts for ``mesh.generate_s`` and
``mesh.triangles``.

Counters come from the objects the program hands back or works on: L+U
nonzeros of each new factor, block solves through the factor's ``solve``,
and ``analysis.quad_points``, the weights of every boundary quadrature that
``analysis`` sets up (its private ``_boundary_gauss``, wrapped without a
span), so caching or moving that quadrature shows in the count.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

# (module, function, layer, metric that receives the span's self time).
TRACED_CALLS = (
    ("mesh", "generate_mesh", "mesh", "mesh.generate_s"),
    ("mesh", "refine", "mesh", "mesh.refine_s"),
    ("fem", "build_dof_map", "fem", "fem.dofmap_s"),
    ("fem", "assemble_stiffness", "fem", "fem.stiffness_s"),
    ("fem", "assemble_boundary_mass", "fem", "fem.boundary_mass_s"),
    ("eigen", "factorize_spd", "eigen", "eigen.factor_s"),
    ("eigen", "solve_pencil", "eigen", "eigen.iterate_s"),
    ("analysis", "transfer_reference", "analysis", "analysis.transfer_s"),
    ("analysis", "align_sign", "analysis", "analysis.align_s"),
    ("analysis", "boundary_l2_error", "analysis", "analysis.error_s"),
)
TO_CSR_METRIC = "fem.to_csr_s"
TIME_METRICS = tuple(m for *_, m in TRACED_CALLS) + (TO_CSR_METRIC,)
COUNTERS = ("mesh.triangles", "fem.dofs", "fem.nnz", "eigen.factor_fill",
            "eigen.block_solves", "eigen.solve_columns", "analysis.quad_points")


def maxrss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records the spans and counters of one pass; call :meth:`install` once."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open: list[int] = []

    def install(self, package) -> None:
        """Wrap the traced calls of ``package``, the imported ``steklovfem``."""
        prefix = package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        # Probes run before a call (their result is handed on) and after it.
        before = {"factorize_spd": lambda matrix, *_: getattr(matrix, "_spd_factor", None)}
        after = {
            "generate_mesh": lambda _, mesh, *a: self._count("mesh.triangles", mesh.n_triangles),
            "build_dof_map": lambda _, dofmap, *a: self._count("fem.dofs", dofmap.n_dofs),
            "factorize_spd": self._after_factor,
        }
        for mod_name, attr, layer, metric in TRACED_CALLS:
            original = getattr(sys.modules[f"{prefix}.{mod_name}"], attr)
            wrapped = self._wrap(attr, layer, metric, original,
                                 before.get(attr), after.get(attr))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        analysis = sys.modules[f"{prefix}.analysis"]
        analysis._boundary_gauss = self._counted_gauss(analysis._boundary_gauss)
        sym = package.SymSparse
        sym.to_csr = self._wrap("SymSparse.to_csr", "fem", TO_CSR_METRIC, sym.to_csr,
                                lambda matrix: matrix._csr is None, self._after_to_csr)

    def _wrap(self, name, layer, metric, fn, before, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                    "name": name, "layer": layer, "metric": metric,
                    "rss_before_mb": maxrss_mb(), "start": time.perf_counter()}
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                state = before(*args) if before else None
                out = fn(*args, **kwargs)
                if after:
                    after(state, out, *args)
                return out
            finally:
                span["end"] = time.perf_counter()
                span["rss_after_mb"] = maxrss_mb()
                self._open.pop()
        return wrapper

    def _count(self, name: str, amount: int) -> None:
        self.counters[name] += int(amount)

    def _after_to_csr(self, fresh, csr, matrix) -> None:
        if fresh:
            self._count("fem.nnz", csr.nnz)

    def _after_factor(self, cached_before, factor, matrix) -> None:
        if cached_before is not None:
            return
        self._count("eigen.factor_fill", factor._lu.nnz)  # nonzeros of L plus U
        solve = factor.solve

        def counted_solve(rhs):
            self._count("eigen.block_solves", 1)
            self._count("eigen.solve_columns", 1 if rhs.ndim == 1 else rhs.shape[1])
            return solve(rhs)

        factor.solve = counted_solve

    def _counted_gauss(self, boundary_gauss):
        """Count the boundary quadrature points each call sets up; no span."""
        @functools.wraps(boundary_gauss)
        def counted(mesh):
            out = boundary_gauss(mesh)
            _, _, weights, _, _ = out
            self._count("analysis.quad_points", weights.size)
            return out
        return counted

    def layer_metrics(self, pass_wall_s: float) -> dict[str, float]:
        """Self time per traced call, the counters, eigen RSS growth, coverage.

        ``eigen.rss_growth_mb`` sums the rise of the peak RSS over the
        outermost eigen spans, i.e. the part of the pass's peak that the
        factor and the iteration set.  ``trace.coverage`` is the time inside
        top-level spans over the pass's wall time.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(TIME_METRICS, 0.0)
        covered = rss_growth = 0.0
        for s in self.spans:
            duration = s["end"] - s["start"]
            out[s["metric"]] += duration - child_time[s["id"]]
            parent = None if s["parent"] is None else self.spans[s["parent"]]
            if parent is None:
                covered += duration
            if s["layer"] == "eigen" and (parent is None or parent["layer"] != "eigen"):
                rss_growth += s["rss_after_mb"] - s["rss_before_mb"]
        out.update({k: float(v) for k, v in self.counters.items()})
        out["eigen.rss_growth_mb"] = rss_growth
        out["trace.coverage"] = covered / pass_wall_s
        return out
