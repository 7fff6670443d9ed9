"""Which nconvex functions the traced run wraps, and the per-layer metrics.

Every ``*_s`` metric is summed *self* time of the spans named next to it,
so time spent in a wrapped callee is charged to the callee's layer and the
self times of a pass add up to its wall time.  Counts are per pass.
"""

from __future__ import annotations

import statistics

import nconvex.barriers
import nconvex.cli
import nconvex.cone
import nconvex.discretize
import nconvex.geometry
import nconvex.selftest
import nconvex.solver
import nconvex.symfun
import nconvex.woperator

# (module, attribute) of each wrapped public function; the span is "<module>.<attr>"
WRAPPED = (
    (nconvex.solver, "newton_solve"),
    (nconvex.solver, "residual_vector"),
    (nconvex.solver, "assemble_jacobian"),
    (nconvex.solver, "ellipticity_margin"),
    (nconvex.solver, "bound_monitors"),
    (nconvex.discretize, "sample_problem"),
    (nconvex.discretize, "hessian_batch"),
    (nconvex.discretize, "interior_residual"),
    (nconvex.discretize, "robin_residual"),
    (nconvex.woperator, "batch_det_w"),
    (nconvex.woperator, "batch_linearization"),
    (nconvex.woperator, "batch_min_lift_eig"),
    (nconvex.woperator, "assemble_w"),
    (nconvex.woperator, "det_w"),
    (nconvex.woperator, "linearization"),
    (nconvex.woperator, "concavity_probe"),
    (nconvex.geometry, "project_to_boundary_batch"),
    (nconvex.geometry, "pinching_check"),
    (nconvex.barriers, "recipe_params"),
    (nconvex.barriers, "verify_h_inequality"),
    (nconvex.barriers, "verify_sub_barrier"),
    (nconvex.barriers, "verify_super_barrier"),
    (nconvex.cli, "write_solution_dump"),
    (nconvex.selftest, "run_all"),
    (nconvex.symfun, "check_identities"),
    (nconvex.symfun, "newton_maclaurin_margin"),
    (nconvex.cone, "lift_spectrum"),
    (nconvex.cone, "in_gamma_k"),
    (nconvex.cone, "m_convexity"),
)
GRID_SPAN = "discretize.Grid.__init__"
FACTOR_SPAN = "solver.splu"
LU_SOLVE_SPAN = "solver.splu.solve"

SELF_TIME = {
    "solver.factor_s": (FACTOR_SPAN,),
    "solver.jacobian_s": ("solver.assemble_jacobian",),
    "solver.lu_solve_s": (LU_SOLVE_SPAN,),
    "solver.residual_s": ("solver.residual_vector", "discretize.interior_residual",
                          "discretize.robin_residual"),
    "solver.margin_s": ("solver.ellipticity_margin",),
    "solver.monitors_s": ("solver.bound_monitors",),
    "solver.newton_self_s": ("solver.newton_solve",),
    "discretize.grid_s": (GRID_SPAN,),
    "discretize.sample_s": ("discretize.sample_problem",),
    "discretize.hessian_batch_s": ("discretize.hessian_batch",),
    "woperator.det_s": ("woperator.batch_det_w",),
    "woperator.linearization_s": ("woperator.batch_linearization",),
    "woperator.min_eig_s": ("woperator.batch_min_lift_eig",),
    "woperator.scalar_s": ("woperator.assemble_w", "woperator.det_w",
                           "woperator.linearization", "woperator.concavity_probe"),
    "geometry.project_s": ("geometry.project_to_boundary_batch",),
    "geometry.pinching_s": ("geometry.pinching_check",),
    "barriers.recipe_s": ("barriers.recipe_params",),
    "barriers.h_inequality_s": ("barriers.verify_h_inequality",),
    "barriers.sub_s": ("barriers.verify_sub_barrier",),
    "barriers.super_s": ("barriers.verify_super_barrier",),
    "cli.dump_s": ("cli.write_solution_dump",),
    "selftest.self_s": ("selftest.run_all",),
    "symfun.check_identities_s": ("symfun.check_identities",),
    "symfun.newton_maclaurin_s": ("symfun.newton_maclaurin_margin",),
    "cone.lift_spectrum_s": ("cone.lift_spectrum",),
    "cone.in_gamma_k_s": ("cone.in_gamma_k",),
    "cone.m_convexity_s": ("cone.m_convexity",),
}

# (name, unit) in the order the runner prints them
PER_LAYER = (
    ("solver.factor_s", "s"),
    ("solver.factor_count", "count"),
    ("solver.factor_p50_s", "s"),
    ("solver.lu_fill", "count"),
    ("solver.jac_nnz", "count"),
    ("solver.newton_solves", "count"),
    ("solver.rejected_steps", "count"),
    ("solver.newton_iters", "count"),
    ("solver.line_search_trials", "count"),
    ("solver.step_acceptance", "ratio"),
    ("solver.jacobian_s", "s"),
    ("solver.lu_solve_s", "s"),
    ("solver.residual_s", "s"),
    ("solver.margin_s", "s"),
    ("solver.monitors_s", "s"),
    ("solver.newton_self_s", "s"),
    ("discretize.grid_s", "s"),
    ("discretize.sample_s", "s"),
    ("discretize.n_unknowns", "count"),
    ("discretize.mls_nnz", "count"),
    ("discretize.closure_nnz", "count"),
    ("discretize.hessian_batch_s", "s"),
    ("woperator.det_s", "s"),
    ("woperator.linearization_s", "s"),
    ("woperator.min_eig_s", "s"),
    ("woperator.hessians", "count"),
    ("woperator.hessians_per_s", "1/s"),
    ("woperator.scalar_s", "s"),
    ("geometry.project_s", "s"),
    ("geometry.project_points", "count"),
    ("geometry.pinching_s", "s"),
    ("geometry.pinching_calls", "count"),
    ("barriers.recipe_s", "s"),
    ("barriers.h_inequality_s", "s"),
    ("barriers.sub_s", "s"),
    ("barriers.super_s", "s"),
    ("barriers.strip_points", "count"),
    ("cli.dump_s", "s"),
    ("cli.dump_bytes", "bytes"),
    ("selftest.self_s", "s"),
    ("symfun.check_identities_s", "s"),
    ("symfun.newton_maclaurin_s", "s"),
    ("cone.lift_spectrum_s", "s"),
    ("cone.in_gamma_k_s", "s"),
    ("cone.m_convexity_s", "s"),
    ("solve_s", "s"),
    ("verify_s", "s"),
    ("sup_error", "abs"),
    ("trace.run_s", "s"),
    ("trace.spans", "count"),
)


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is a span; everything else passes through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Instrument:
    """Patches the layers onto a tracer and keeps the per-pass counters."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts: dict[str, int] = {}
        self._errors_at_start: dict[str, int] = {}

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def _max(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), int(value))

    def install(self):
        t = self.tracer
        hooks = {
            "assemble_jacobian": lambda a, jac: self._max("jac_nnz", jac.nnz),
            "batch_det_w": lambda a, r: self._add("hessians", a[0].shape[0]),
            "batch_linearization": lambda a, r: self._add("hessians", a[0].shape[0]),
            "batch_min_lift_eig": lambda a, r: self._add("hessians", a[0].shape[0]),
            "project_to_boundary_batch":
                lambda a, r: self._add("project_points", r[0].shape[0]),
            "verify_h_inequality": lambda a, r: self._add("strip_points", r.strip_points),
            "write_solution_dump": lambda a, r: self._add(
                "dump_bytes", sum(p.stat().st_size for p in r.iterdir())),
        }
        for module, attr in WRAPPED:
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            t.patch_function(getattr(module, attr), name, hooks.get(attr))

        def on_grid(args, _):
            grid = args[0]
            self._add("n_unknowns", grid.n_unknowns)
            self._add("mls_nnz", grid.W1.nnz + grid.W2.nnz)
            self._add("closure_nnz", grid.C.nnz)

        t.patch_method(nconvex.discretize.Grid, "__init__", GRID_SPAN, on_grid)

        def on_factor(args, lu):
            self._max("lu_fill", lu.L.nnz + lu.U.nnz)
            return _TracedLU(lu, t.wrap(LU_SOLVE_SPAN, lu.solve))

        t.patch_function(nconvex.solver.splu, FACTOR_SPAN, on_factor)

    def begin_pass(self):
        self.counts = {}
        self._errors_at_start = dict(self.tracer.errors)

    def pass_metrics(self, root: int) -> dict:
        """Per-layer metrics of the pass whose span index is ``root``."""
        self_t, calls, durations = self.tracer.self_times(root)
        errors = {k: v - self._errors_at_start.get(k, 0) for k, v in self.tracer.errors.items()}
        c = self.counts
        out = {name: sum(self_t.get(s, 0.0) for s in spans)
               for name, spans in SELF_TIME.items()}
        factors = durations.get(FACTOR_SPAN, [])
        newton = calls.get("solver.newton_solve", 0)
        iters = calls.get("solver.assemble_jacobian", 0)
        trials = (calls.get("solver.residual_vector", 0) - newton
                  - calls.get("solver.bound_monitors", 0))
        kernel_s = out["woperator.det_s"] + out["woperator.linearization_s"] \
            + out["woperator.min_eig_s"]
        out.update({
            "solver.factor_count": len(factors),
            "solver.factor_p50_s": statistics.median(factors) if factors else 0.0,
            "solver.lu_fill": c.get("lu_fill", 0),
            "solver.jac_nnz": c.get("jac_nnz", 0),
            "solver.newton_solves": newton,
            "solver.rejected_steps": errors.get("solver.newton_solve", 0),
            "solver.newton_iters": iters,
            "solver.line_search_trials": trials,
            "solver.step_acceptance": iters / trials if trials else 0.0,
            "discretize.n_unknowns": c.get("n_unknowns", 0),
            "discretize.mls_nnz": c.get("mls_nnz", 0),
            "discretize.closure_nnz": c.get("closure_nnz", 0),
            "woperator.hessians": c.get("hessians", 0),
            "woperator.hessians_per_s": c.get("hessians", 0) / kernel_s if kernel_s else 0.0,
            "geometry.project_points": c.get("project_points", 0),
            "geometry.pinching_calls": calls.get("geometry.pinching_check", 0),
            "barriers.strip_points": c.get("strip_points", 0),
            "cli.dump_bytes": c.get("dump_bytes", 0),
            "trace.spans": sum(calls.values()),
        })
        return out


def median_metrics(passes: list[dict]) -> dict:
    """Median over passes of every metric; counts of identical passes stay exact."""
    keys = passes[0].keys()
    return {k: statistics.median(p[k] for p in passes) for k in keys}

