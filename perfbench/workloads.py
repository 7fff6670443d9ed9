"""Seeded inputs, workloads and per-operation correctness checks.

Every workload is rebuilt from ``--seed``; the solver only ever sees the
generated ``DomainSpec`` / ``ProblemSpec``.  One operation is one case set
up, solved, verified and dumped (the same public calls ``nconvex solve``
makes), or one seed of the self-test battery.  A failed check marks the
operation failed; it never aborts the run.

Why these workloads:

* ``manufactured-17`` -- 30 small LU factorisations over 11 accepted rows:
  per-Newton-iteration cost in ``solver`` dominates.
* ``manufactured-25`` -- 6 large factorisations: LU fill and memory
  dominate rather than per-iteration overhead.
* ``verify-sweep`` -- exact-quadratic cases, so Newton takes no iteration
  and nothing is factorised: grid build, ellipsoid projection, pinching
  gate, batch ``woperator`` kernels and ``barriers`` take the time.  It
  bypasses any change to the linear solve.
* ``selftest-battery`` -- the only user of ``symfun`` and ``cone``, and of
  the scalar general-p lift in ``woperator``.
"""

from __future__ import annotations

import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# The layers are called through their modules, so that the traced run's
# patches on those modules see every call.
from nconvex import barriers, cli, discretize, geometry, selftest, solver
from nconvex.cli import named_case
from nconvex.discretize import ProblemSpec
from nconvex.geometry import DomainSpec

MANUFACTURED_AMPLITUDE = 0.05
ELLIPSOID_ECCENTRICITY = (0.03, 0.07)  # c in (1, 1, 1+c); inside the pinching gate
SELFTEST_SEEDS_PER_PASS = 3
NEWTON_TOL = 1e-10
EXACT_ERROR_BOUND = 1e-10  # exact-quadratic cases stay at round-off


@dataclass(frozen=True)
class Case:
    """One PDE solve: generated inputs plus what its result must satisfy."""

    label: str
    domain: DomainSpec
    problem: ProblemSpec
    exact: Callable[[np.ndarray], np.ndarray]
    resolution: int
    homotopy_steps: int
    error_bound: float
    expected_error: str | None = None  # printed sup error the inputs must reproduce
    barrier_gate: bool = False  # check the criterion-9 barrier conditions


# -- seeded input generator --------------------------------------------------


def manufactured_direction(seed: int) -> np.ndarray:
    """Unit direction w of u* = |x|^2/2 + a exp(w.x); seed 0 gives e1."""
    if seed == 0:
        return np.array([1.0, 0.0, 0.0])
    w = np.random.default_rng(seed).standard_normal(3)
    return w / np.linalg.norm(w)


def manufactured_problem(domain: DomainSpec, w: np.ndarray, name: str):
    """(problem, u*) for u* = |x|^2/2 + a exp(w.x) on ``domain``.

    D2u* = I + a exp(w.x) w w^T has lifted spectrum (2+b, 2+b, 2) with
    b = a exp(w.x), so f = 2 (2+b)^2.  The arithmetic mirrors the
    ``ball-manufactured-exp`` named case, so w = e1 reproduces its
    samples bit for bit.
    """
    amp = MANUFACTURED_AMPLITUDE
    w = np.asarray(w, dtype=float)

    def u_star(pts):
        return 0.5 * np.sum(pts**2, axis=1) + amp * np.exp(pts @ w)

    def f(pts):
        b = amp * np.exp(pts @ w)
        return 2.0 * (2.0 + b) ** 2

    def phi(pts):
        _, nu, _ = geometry.project_to_boundary_batch(domain, pts)
        grad = pts + (amp * np.exp(pts @ w))[:, None] * w
        return np.einsum("ij,ij->i", grad, nu) + u_star(pts)

    return ProblemSpec(n=3, f=f, phi=phi, name=name), u_star


def ellipsoid_axes(seed: int) -> tuple:
    """Seeded permutation of (1, 1, 1+c); seed 0 gives the named (1, 1, 1.05)."""
    if seed == 0:
        return (1.0, 1.0, 1.05)
    rng = np.random.default_rng(seed)
    c = rng.uniform(*ELLIPSOID_ECCENTRICITY)
    return tuple(float(a) for a in rng.permutation([1.0, 1.0, 1.0 + c]))


def manufactured_case(seed: int, resolution: int, steps: int, error_bound: float,
                      seed0_error: str) -> Case:
    domain = DomainSpec.ball(1.0, n=3)
    problem, u_star = manufactured_problem(domain, manufactured_direction(seed),
                                           f"manufactured-{resolution}")
    return Case(
        label=f"manufactured {resolution}^3",
        domain=domain,
        problem=problem,
        exact=u_star,
        resolution=resolution,
        homotopy_steps=steps,
        error_bound=error_bound,
        expected_error=seed0_error if seed == 0 else None,
    )


def exact_case(name: str, resolution: int, domain: DomainSpec | None = None) -> Case:
    domain, problem, exact = named_case(name, domain=domain)
    return Case(
        label=f"{name} {resolution}^3",
        domain=domain,
        problem=problem,
        exact=exact,
        resolution=resolution,
        homotopy_steps=10,
        error_bound=EXACT_ERROR_BOUND,
        barrier_gate=True,
    )


PDE_WORKLOADS = {
    "manufactured-17": lambda seed: [
        manufactured_case(seed, 17, 10, 3.9e-4, "3.3780e-04")],
    "manufactured-25": lambda seed: [
        manufactured_case(seed, 25, 2, 1.9e-4, "1.6445e-04")],
    "verify-sweep": lambda seed: [
        exact_case("ball-constant", 33),
        exact_case("ellipsoid-near-sphere", 41, DomainSpec.ellipsoid(ellipsoid_axes(seed))),
    ],
}
WORKLOADS = (*PDE_WORKLOADS, "selftest-battery")


def selftest_seeds(seed: int) -> list[int]:
    return [seed * SELFTEST_SEEDS_PER_PASS + k for k in range(SELFTEST_SEEDS_PER_PASS)]


# -- operations ----------------------------------------------------------------


@dataclass
class OpResult:
    """Timings, outputs and failed checks of one operation."""

    label: str
    setup_s: float = 0.0
    solve_s: float = 0.0
    verify_s: float = 0.0
    sup_error: float = 0.0
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _phase(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def set_up(case: Case, tracer=None):
    """The set-up of one case: grid build plus sampling of the data."""
    with _phase(tracer, "setup"):
        grid = discretize.Grid(case.domain, case.resolution)
        problem = discretize.sample_problem(case.problem, grid)
    return grid, problem


def _barrier_problems(section: dict) -> list:
    """Criterion-9 conditions on a barrier section."""
    sub, sup, h_ineq = section["sub"], section["super"], section["h_inequality"]
    bad = []
    if not sub["strip_extreme"] >= -1e-8:
        bad.append(f"sub barrier strip minimum {sub['strip_extreme']:.3g} < 0")
    if not sup["strip_extreme"] <= 1e-8:
        bad.append(f"super barrier strip maximum {sup['strip_extreme']:.3g} > 0")
    if not max(sub["boundary_max_abs"], sup["boundary_max_abs"]) < 1e-9:
        bad.append("barrier boundary values are not at round-off")
    if not (h_ineq["min_value"] > 0.0 and h_ineq["strip_points"] > 0):
        bad.append(f"h inequality fails (min {h_ineq['min_value']:.3g}, "
                   f"{h_ineq['strip_points']} strip points)")
    return bad


def run_case(case: Case, scratch: Path, tracer=None) -> OpResult:
    """Set up, solve, verify and dump one case; check what it produced."""
    res = OpResult(label=case.label)
    t0 = time.perf_counter()
    grid, problem = set_up(case, tracer)
    t1 = time.perf_counter()
    config = solver.SolverConfig(newton_tol=NEWTON_TOL, homotopy_steps=case.homotopy_steps)
    with _phase(tracer, "solve"):
        state, report = solver.continuation(problem, grid, config)
    t2 = time.perf_counter()
    with _phase(tracer, "verify"):
        params = barriers.recipe_params(case.domain, state, grid, problem)
        section = barriers.barrier_section(case.domain, state, grid, problem, params)
    t3 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        with _phase(tracer, "dump"):
            dump = cli.write_solution_dump(Path(tmp) / "solution", grid, state.field, state.t)
        sizes = {p.name: p.stat().st_size for p in dump.iterdir()}
    res.setup_s, res.solve_s, res.verify_s = t1 - t0, t2 - t1, t3 - t2
    res.sup_error = float(np.max(np.abs(state.field.values - case.exact(grid.active_pts))))
    res.counts = {
        "rows": len(report.rows),
        "n_unknowns": grid.n_unknowns,
        "strip_points": section["h_inequality"]["strip_points"],
        "dump_bytes": sum(sizes.values()),
    }
    bad = res.problems
    if state.t != 1.0:
        bad.append(f"continuation stopped at t={state.t}")
    if not report.rows[-1]["residual"] <= NEWTON_TOL:
        bad.append(f"final residual {report.rows[-1]['residual']:.3g} > {NEWTON_TOL:g}")
    if not min(row["margin"] for row in report.rows) > 0.0:
        bad.append("an accepted row has a non-positive ellipticity margin")
    if not res.sup_error <= case.error_bound:
        bad.append(f"sup error {res.sup_error:.4e} above {case.error_bound:.1e}")
    if case.expected_error is not None and f"{res.sup_error:.4e}" != case.expected_error:
        bad.append(f"sup error {res.sup_error:.4e} != expected {case.expected_error}")
    if case.barrier_gate:
        bad.extend(_barrier_problems(section))
    array_bytes = {
        "values.bin": 8 * grid.n_active,
        "trace.bin": 8 * grid.n_colloc,
        "active_idx.bin": 8 * grid.n_active,
        "colloc_y.bin": 8 * grid.n * grid.n_colloc,
    }
    for name, size in array_bytes.items():
        if sizes.get(name) != size:
            bad.append(f"dump file {name} holds {sizes.get(name)} bytes, expected {size}")
    return res


def run_selftest(seed: int, tracer=None) -> OpResult:
    res = OpResult(label=f"selftest seed {seed}")
    t0 = time.perf_counter()
    with _phase(tracer, "solve"):
        results = selftest.run_all(seed=seed)
    res.solve_s = time.perf_counter() - t0
    res.counts = {"suites": len(results)}
    res.problems = [r.line() for r in results if not r.passed]
    return res
