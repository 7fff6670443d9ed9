"""Damped Newton inside homotopy continuation for the discrete problem.

The interior equation is linearized through the gradient of det(W) with
respect to the Hessian entries, contracted with the stencil coefficients;
the Robin rows are linear and precomputed on the grid.  Every accepted
iterate must keep the ellipticity margin tr(D2u) - lambda_max(D2u), the
smallest eigenvalue of M = tr(D2u) I - D2u and hence of W, positive at all
active points (the discrete ellipticity certificate), which the line
search enforces alongside plain residual decrease.

Each Newton step eliminates the trace unknowns exactly (the Robin block
on them is a multiple of the identity) and solves the remaining system on
the active points by GMRES, preconditioned with one LU of the seed
Jacobian that is kept for the whole continuation; a step GMRES cannot
finish falls back to a direct factorization of the current system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres, splu

from nconvex import woperator
from nconvex.discretize import (
    DiscreteField,
    Grid,
    SampledProblem,
    gradient_batch,
    hessian_batch,
    hessian_contraction,
    interior_residual,
    normal_derivative,
    robin_residual,
    second_normal_derivative,
)
from nconvex.geometry import pinching_check

__all__ = [
    "SolverConfig",
    "BoundMonitors",
    "HomotopyState",
    "PathReport",
    "CondensedSolver",
    "StepFailure",
    "ContinuationFailure",
    "residual_vector",
    "assemble_jacobian",
    "ellipticity_margin",
    "bound_monitors",
    "newton_solve",
    "quadratic_seed",
    "continuation",
]

REPORT_COLUMNS = ("t", "residual", "margin", "sup_u", "sup_du", "sup_d2u", "N", "ratio")

# GMRES on the condensed Newton system.  With the seed LU as preconditioner
# a step takes 5-7 iterations along the manufactured paths, so these caps
# only bound the work spent on a stalled solve before the direct fallback.
GMRES_RTOL = 1e-12
GMRES_RESTART = 30
GMRES_MAX_RESTARTS = 2


class StepFailure(RuntimeError):
    """A Newton solve at fixed t did not converge; the caller shrinks dt."""


class ContinuationFailure(RuntimeError):
    """The homotopy step size underflowed; carries the last good state."""

    def __init__(self, message, state=None, report=None):
        super().__init__(message)
        self.state = state
        self.report = report


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton_iters: int = 30
    homotopy_steps: int = 10
    min_step: float = 1.0 / 1280.0
    damping: float = 0.5
    line_search_floor: float = 1e-8

    def __post_init__(self):
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if self.homotopy_steps < 1:
            raise ValueError("homotopy_steps must be at least 1")
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")


@dataclass(frozen=True)
class BoundMonitors:
    """Solution-norm monitors tracked along the homotopy path."""

    sup_u: float
    sup_du: float
    sup_d2u: float
    sup_unn: float  # N: largest |u_nunu| over the boundary

    @property
    def ratio(self) -> float:
        return self.sup_d2u / (1.0 + self.sup_unn)


@dataclass
class HomotopyState:
    t: float
    field: DiscreteField
    residual_norm: float
    ellipticity_margin: float
    monitors: BoundMonitors


@dataclass
class PathReport:
    """One row per accepted homotopy parameter, plus optional barrier data."""

    rows: list = field(default_factory=list)
    barriers: dict | None = None
    config_digest: str | None = None
    exact_error: float | None = None  # sup |u - reference| when one is known
    krylov_iters: list = field(default_factory=list)  # GMRES iterations per Newton step
    direct_fallbacks: int = 0  # Newton steps solved by a direct factorization instead

    def add(self, state: HomotopyState):
        m = state.monitors
        self.rows.append(
            {
                "t": state.t,
                "residual": state.residual_norm,
                "margin": state.ellipticity_margin,
                "sup_u": m.sup_u,
                "sup_du": m.sup_du,
                "sup_d2u": m.sup_d2u,
                "N": m.sup_unn,
                "ratio": m.ratio,
            }
        )

    def to_csv(self) -> str:
        lines = [",".join(REPORT_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(repr(row[c]) for c in REPORT_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "rows": self.rows,
            "krylov_iters": self.krylov_iters,
            "direct_fallbacks": self.direct_fallbacks,
        }
        if self.config_digest is not None:
            payload["config_digest"] = self.config_digest
        if self.exact_error is not None:
            payload["exact_error"] = self.exact_error
        if self.barriers is not None:
            payload["barriers"] = self.barriers
        return json.dumps(payload, indent=2, sort_keys=True)


def residual_vector(x: np.ndarray, t: float, grid: Grid,
                    problem: SampledProblem) -> np.ndarray:
    """Stacked interior and Robin residuals for the packed unknown vector."""
    fld = DiscreteField.unpack(x, grid)
    return np.concatenate(
        [
            interior_residual(fld, grid, problem, t),
            robin_residual(fld, grid, problem, t),
        ]
    )


def ellipticity_margin(fld: DiscreteField, grid: Grid) -> float:
    """Smallest tr(D2u) - lambda_max(D2u) over all active points."""
    d2 = hessian_batch(fld, grid)
    return float(np.min(woperator.batch_min_lift_eig(d2)))


def assemble_jacobian(x: np.ndarray, t: float, grid: Grid,
                      problem: SampledProblem) -> sp.csr_matrix:
    """Sparse Jacobian of the stacked residual at the packed state.

    Interior rows contract the det(W) gradient with the Hessian stencil
    (closure neighbors route through the grid's extension map); Robin rows
    are the constant operator stored on the grid.
    """
    fld = DiscreteField.unpack(x, grid)
    coef = woperator.batch_linearization(hessian_batch(fld, grid))  # (N, n, n)
    return sp.vstack([hessian_contraction(coef, grid), grid.robin_jac], format="csc")


class CondensedSolver:
    """Newton-step solver for one continuation: condensed system, frozen LU.

    The Jacobian is J = [[A, B], [R, d I]], because the Robin rows touch
    each trace unknown only through its own value; d is read off
    ``grid.robin_jac``.  The trace unknowns are eliminated exactly:
    S du = g1 - B g2 / d on the active points with S = A - B R / d, then
    db = (g2 - R du) / d.

    The Jacobian does not depend on t, and every continuation starts at the
    quadratic seed, so the first system handed to ``solve`` is the seed's.
    Its S is factorized then, once, and preconditions GMRES on every later
    step.  A step GMRES does not finish is solved by a direct factorization
    of its own S.  GMRES iterations and fallbacks are recorded on ``report``.
    """

    def __init__(self, grid: Grid, report: PathReport):
        self.n_active = grid.n_active
        self.d = grid.robin_jac[0, grid.n_active]
        self.robin_u = grid.robin_jac[:, : grid.n_active]
        self.report = report
        self._seed_lu = None

    def solve(self, jac: sp.spmatrix, rhs: np.ndarray, t: float) -> np.ndarray:
        """Solve jac @ delta = rhs; raises StepFailure if no path succeeds."""
        n, d = self.n_active, self.d
        jac = sp.csr_matrix(jac)
        a, b = jac[:n, :n], jac[:n, n:]
        schur = (a - b @ self.robin_u / d).tocsc()
        g1, g2 = rhs[:n], rhs[n:]
        rhs_u = g1 - b @ g2 / d
        if self._seed_lu is None:
            self._seed_lu = _factor(schur, t)
        iters = 0

        def count(_):
            nonlocal iters
            iters += 1

        precond = LinearOperator(schur.shape, matvec=self._seed_lu.solve)
        du, info = gmres(schur, rhs_u, rtol=GMRES_RTOL, atol=0.0, restart=GMRES_RESTART,
                         maxiter=GMRES_MAX_RESTARTS, M=precond, callback=count,
                         callback_type="pr_norm")
        self.report.krylov_iters.append(iters)
        if info != 0 or not np.all(np.isfinite(du)):
            self.report.direct_fallbacks += 1
            du = _factor(schur, t).solve(rhs_u)
            if not np.all(np.isfinite(du)):
                raise StepFailure(f"singular Jacobian at t={t:.6g}")
        return np.concatenate([du, (g2 - self.robin_u @ du) / d])


def _factor(matrix: sp.csc_matrix, t: float):
    try:
        return splu(matrix)
    except RuntimeError as exc:
        raise StepFailure(f"Jacobian factorization failed at t={t:.6g}: {exc}")


def bound_monitors(fld: DiscreteField, grid: Grid) -> BoundMonitors:
    """Norm monitors: sup|u|, sup|Du|, sup|D2u| and the boundary N."""
    fld.check(grid)
    sup_u = max(float(np.max(np.abs(fld.values))), float(np.max(np.abs(fld.trace))))
    grads = gradient_batch(fld, grid)
    sup_du = float(np.max(np.linalg.norm(grads, axis=1)))
    sup_du = max(sup_du, float(np.max(np.abs(normal_derivative(fld, grid)))))
    d2 = hessian_batch(fld, grid)
    sup_d2u = float(np.max(np.abs(np.linalg.eigvalsh(d2))))
    sup_unn = float(np.max(np.abs(second_normal_derivative(fld, grid))))
    return BoundMonitors(sup_u=sup_u, sup_du=sup_du, sup_d2u=sup_d2u, sup_unn=sup_unn)


def _make_state(t: float, fld: DiscreteField, grid: Grid,
                problem: SampledProblem) -> HomotopyState:
    r = residual_vector(fld.pack(), t, grid, problem)
    return HomotopyState(
        t=t,
        field=fld,
        residual_norm=float(np.max(np.abs(r))),
        ellipticity_margin=ellipticity_margin(fld, grid),
        monitors=bound_monitors(fld, grid),
    )


def newton_solve(state: HomotopyState, grid: Grid, problem: SampledProblem,
                 config: SolverConfig,
                 linear: CondensedSolver | None = None) -> HomotopyState:
    """Damped Newton at fixed t with the cone guard in the line search.

    Each step solves the Jacobian system with ``linear`` (a fresh
    CondensedSolver when none is passed, frozen at this start state) and
    backtracks until the trial iterate both decreases the sup-norm residual
    and keeps the ellipticity margin positive at every active point.  Raises
    StepFailure when the iteration budget, the line-search floor, or the
    linear solve gives out.
    """
    if state.ellipticity_margin <= 0.0:
        raise ValueError(
            f"inadmissible start: ellipticity margin {state.ellipticity_margin:.3g} <= 0"
        )
    if linear is None:
        linear = CondensedSolver(grid, PathReport())
    t = state.t
    x = state.field.pack()
    r = residual_vector(x, t, grid, problem)
    rnorm = float(np.max(np.abs(r)))
    for _ in range(config.max_newton_iters):
        if rnorm <= config.newton_tol:
            return _make_state(t, DiscreteField.unpack(x, grid), grid, problem)
        delta = linear.solve(assemble_jacobian(x, t, grid, problem), -r, t)
        alpha = 1.0
        while True:
            trial = x + alpha * delta
            trial_fld = DiscreteField.unpack(trial, grid)
            trial_r = residual_vector(trial, t, grid, problem)
            trial_norm = float(np.max(np.abs(trial_r)))
            if trial_norm < rnorm and ellipticity_margin(trial_fld, grid) > 0.0:
                x, r, rnorm = trial, trial_r, trial_norm
                break
            alpha *= config.damping
            if alpha < config.line_search_floor:
                raise StepFailure(
                    f"line search floor reached at t={t:.6g} (residual {rnorm:.3g})"
                )
    if rnorm <= config.newton_tol:
        return _make_state(t, DiscreteField.unpack(x, grid), grid, problem)
    raise StepFailure(
        f"Newton did not reach tol {config.newton_tol:.1e} at t={t:.6g} "
        f"(residual {rnorm:.3g} after {config.max_newton_iters} iterations)"
    )


def quadratic_seed(grid: Grid) -> DiscreteField:
    """The exact homotopy-start field u = |x|^2 / 2."""
    return DiscreteField.from_function(grid, lambda pts: 0.5 * np.sum(pts**2, axis=1))


def continuation(problem: SampledProblem, grid: Grid, config: SolverConfig,
                 force: bool = False):
    """March t from 0 to 1 with adaptive halving; returns (state, report).

    The curvature-pinching gate runs first unless ``force`` is set; the
    start iterate is the exact t = 0 solution.  One CondensedSolver serves
    every Newton step, so the seed LU is built at most once per call and
    only when some step needs a linear solve.  On persistent step failure
    raises ContinuationFailure carrying the last accepted state and report.
    """
    if not force:
        gate = pinching_check(grid.domain)
        if not gate.passes:
            raise ValueError(
                "domain rejected: curvature spread exceeds the pinching bound "
                f"H / (2(n-1)(n-2)) (margin {gate.margin_min:.4g} at sampled point "
                f"{np.round(gate.worst_point, 6)}); pass force=True to override"
            )
    report = PathReport()
    linear = CondensedSolver(grid, report)
    state = _make_state(0.0, quadratic_seed(grid), grid, problem)
    if state.ellipticity_margin <= 0.0:
        raise ValueError("quadratic seed is not admissible on this grid")
    state = newton_solve(state, grid, problem, config, linear)
    report.add(state)
    dt_init = 1.0 / config.homotopy_steps
    dt = dt_init
    while state.t < 1.0:
        t_next = state.t + dt
        if t_next >= 1.0 - 1e-12:
            t_next = 1.0
        candidate = HomotopyState(
            t=t_next,
            field=state.field.copy(),
            residual_norm=state.residual_norm,
            ellipticity_margin=state.ellipticity_margin,
            monitors=state.monitors,
        )
        try:
            state = newton_solve(candidate, grid, problem, config, linear)
        except StepFailure as exc:
            dt *= 0.5
            if dt < config.min_step:
                raise ContinuationFailure(
                    f"step size underflow below {config.min_step:.3g} at "
                    f"t={state.t:.6g}: {exc}",
                    state=state,
                    report=report,
                ) from exc
            continue
        report.add(state)
        dt = min(dt * 2.0, dt_init)
    return state, report
