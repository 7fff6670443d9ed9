"""Damped Newton inside homotopy continuation for the discrete problem.

The interior equation is linearized through the gradient of det(W) with
respect to the Hessian entries, contracted with the stencil coefficients;
the Robin rows are linear and precomputed on the grid.  Every accepted
iterate must keep the ellipticity margin tr(D2u) - lambda_max(D2u), the
smallest eigenvalue of M = tr(D2u) I - D2u and hence of W, positive at all
active points (the discrete ellipticity certificate), which the line
search enforces alongside plain residual decrease.

Each Newton step eliminates the trace unknowns exactly (the Robin block
on them is a multiple of the identity) through a map that is constant for
the whole continuation, and solves the remaining system on the active
points by GMRES, preconditioned with one incomplete LU of the seed system,
with its round-off entries pruned, that is also kept for the whole
continuation; a step GMRES cannot finish falls back to a direct
factorization of the current system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres, spilu, splu

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
    "prune_roundoff",
    "StepFailure",
    "ContinuationFailure",
    "residual_vector",
    "assemble_jacobian",
    "full_jacobian",
    "condensed_map",
    "ellipticity_margin",
    "bound_monitors",
    "newton_solve",
    "quadratic_seed",
    "continuation",
]

REPORT_COLUMNS = ("t", "residual", "margin", "sup_u", "sup_du", "sup_d2u", "N", "ratio")

# GMRES on the condensed Newton system.  With the seed ILU as preconditioner
# a manufactured-path step takes 8-9 iterations at 17^3, 12 at 25^3, 15-16
# at 33^3 and 22-23 at 49^3, so a restart of 60 finishes in one cycle and the
# caps only bound the work spent on a stalled solve before the direct
# fallback.  The tolerance sits above the round-off floor of the true
# residual (about 1e-12 at 33^3), which GMRES cannot certify.  A cycle ends
# on the preconditioned residual, and each restart tightens that target by
# only 4x, so a step whose true residual lands just above the tolerance can
# need a third cycle of one or two iterations.
GMRES_RTOL = 1e-10
GMRES_RESTART = 60
GMRES_MAX_RESTARTS = 3

# Seed preconditioner: entries below ROUNDOFF_REL of their row maximum are
# round-off (at the seed M = 2I the off-diagonal linearization terms vanish
# in exact arithmetic) and are dropped before the incomplete LU.
ROUNDOFF_REL = 1e-12
ILU_DROP_TOL = 1e-3
ILU_FILL_FACTOR = 10
ILU_PERMC = "MMD_AT_PLUS_A"


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
    """Stencil matrix K of the interior linearization at the packed state.

    K contracts the det(W) gradient with the Hessian stencil and acts on
    the extended vector [values; closure values] (``hessian_contraction``).
    """
    fld = DiscreteField.unpack(x, grid)
    coef = woperator.batch_linearization(hessian_batch(fld, grid))  # (N, n, n)
    return hessian_contraction(coef, grid)


def full_jacobian(x: np.ndarray, t: float, grid: Grid,
                  problem: SampledProblem) -> sp.csc_matrix:
    """Sparse Jacobian of ``residual_vector``: [[K @ extension], [Robin rows]]."""
    return sp.vstack([assemble_jacobian(x, t, grid, problem) @ grid.extension,
                      grid.robin_jac], format="csc")


def condensed_map(grid: Grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The extension with the trace eliminated through the Robin rows: (E, L).

    The Robin rows R_u u + d b = g fix b = (g - R_u u) / d (d =
    ``grid.robin_diag``), so ``extension @ [u; b]`` = E u + L g with
    E = [I; C_u - C_b R_u / d] and L = [0; C_b] / d, where [C_u, C_b] = C.
    """
    n = grid.n_active
    ext = grid.extension.tocsc()
    lift = (ext[:, n:] / grid.robin_diag).tocsr()
    return (ext[:, :n] - lift @ grid.robin_jac[:, :n]).tocsr(), lift


class CondensedSolver:
    """Newton-step solver for one continuation: condensed system, frozen ILU.

    ``solve`` takes K from ``assemble_jacobian`` and the right side [g1; g2]
    of the full system and eliminates the trace unknowns exactly:
    S du = g1 - K L g2 on the active points with S = K E, (E, L) from
    ``condensed_map``, then db = (g2 - R_u du) / d.  E and L are built on
    the first step, together with the seed ILU.

    The Jacobian does not depend on t, and every continuation starts at the
    quadratic seed, so the first system handed to ``solve`` is the seed's.
    An incomplete LU of its S, pruned of round-off entries, is built then,
    once, and preconditions GMRES on every step; GMRES always solves the
    full S.  A step GMRES does not finish is solved by a direct
    factorization of its own S.  GMRES iterations and fallbacks are
    recorded on ``report``.
    """

    def __init__(self, grid: Grid, report: PathReport):
        self.grid = grid
        self.report = report
        self._condensed = None
        self._seed_ilu = None

    def solve(self, stencil: sp.csr_matrix, rhs: np.ndarray, t: float) -> np.ndarray:
        """Solve the full Newton system for delta; raises StepFailure if no path succeeds."""
        grid = self.grid
        if self._condensed is None:
            self._condensed = condensed_map(grid)
        emap, lift = self._condensed
        g1, g2 = rhs[:grid.n_active], rhs[grid.n_active:]
        schur = stencil @ emap
        rhs_u = g1 - stencil @ (lift @ g2)
        if self._seed_ilu is None:
            self._seed_ilu = _seed_preconditioner(schur, t)
        iters = 0

        def count(_):
            nonlocal iters
            iters += 1

        precond = LinearOperator(schur.shape, matvec=self._seed_ilu.solve)
        du, info = gmres(schur, rhs_u, rtol=GMRES_RTOL, atol=0.0, restart=GMRES_RESTART,
                         maxiter=GMRES_MAX_RESTARTS, M=precond, callback=count,
                         callback_type="pr_norm")
        self.report.krylov_iters.append(iters)
        if info != 0 or not np.all(np.isfinite(du)):
            self.report.direct_fallbacks += 1
            du = _factor(schur, t).solve(rhs_u)
            if not np.all(np.isfinite(du)):
                raise StepFailure(f"singular Jacobian at t={t:.6g}")
        r_du = grid.robin_jac @ np.concatenate([du, np.zeros_like(g2)])  # R_u du
        return np.concatenate([du, (g2 - r_du) / grid.robin_diag])


def prune_roundoff(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Copy of ``matrix`` without the entries below ROUNDOFF_REL of their row maximum."""
    out = sp.csr_matrix(matrix, copy=True)
    row_max = abs(out).max(axis=1).toarray().ravel()
    small = np.abs(out.data) < ROUNDOFF_REL * np.repeat(row_max, np.diff(out.indptr))
    out.data[small] = 0.0
    out.eliminate_zeros()
    return out


def _seed_preconditioner(schur: sp.csr_matrix, t: float):
    try:
        return spilu(prune_roundoff(schur).tocsc(), drop_tol=ILU_DROP_TOL,
                     fill_factor=ILU_FILL_FACTOR, permc_spec=ILU_PERMC)
    except RuntimeError as exc:
        raise StepFailure(f"seed preconditioner failed at t={t:.6g}: {exc}")


def _factor(matrix: sp.spmatrix, t: float):
    try:
        return splu(matrix.tocsc())
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

    The start state's margin and monitors are trusted to describe its field.
    The result reuses the line search's residual and margin of the accepted
    iterate, and evaluates the monitors once if a step was taken.
    """
    if state.ellipticity_margin <= 0.0:
        raise ValueError(
            f"inadmissible start: ellipticity margin {state.ellipticity_margin:.3g} <= 0"
        )
    if linear is None:
        linear = CondensedSolver(grid, PathReport())
    t = state.t
    fld, margin, monitors = state.field, state.ellipticity_margin, state.monitors
    x = fld.pack()
    r = residual_vector(x, t, grid, problem)
    rnorm = float(np.max(np.abs(r)))
    for _ in range(config.max_newton_iters):
        if rnorm <= config.newton_tol:
            break
        delta = linear.solve(assemble_jacobian(x, t, grid, problem), -r, t)
        alpha = 1.0
        while True:
            trial = x + alpha * delta
            trial_r = residual_vector(trial, t, grid, problem)
            trial_norm = float(np.max(np.abs(trial_r)))
            if trial_norm < rnorm:
                trial_fld = DiscreteField.unpack(trial, grid)
                trial_margin = ellipticity_margin(trial_fld, grid)
                if trial_margin > 0.0:
                    x, r, rnorm = trial, trial_r, trial_norm
                    fld, margin, monitors = trial_fld, trial_margin, None
                    break
            alpha *= config.damping
            if alpha < config.line_search_floor:
                raise StepFailure(
                    f"line search floor reached at t={t:.6g} (residual {rnorm:.3g})"
                )
    if rnorm > config.newton_tol:
        raise StepFailure(
            f"Newton did not reach tol {config.newton_tol:.1e} at t={t:.6g} "
            f"(residual {rnorm:.3g} after {config.max_newton_iters} iterations)"
        )
    if monitors is None:
        monitors = bound_monitors(fld, grid)
    return HomotopyState(t=t, field=fld, residual_norm=rnorm,
                         ellipticity_margin=margin, monitors=monitors)


def quadratic_seed(grid: Grid) -> DiscreteField:
    """The exact homotopy-start field u = |x|^2 / 2."""
    return DiscreteField.from_function(grid, lambda pts: 0.5 * np.sum(pts**2, axis=1))


def continuation(problem: SampledProblem, grid: Grid, config: SolverConfig,
                 force: bool = False):
    """March t from 0 to 1 with adaptive halving; returns (state, report).

    The curvature-pinching gate runs first unless ``force`` is set; the
    start iterate is the exact t = 0 solution, whose margin and monitors are
    evaluated once here, and each later Newton solve starts from the last
    accepted state, whose margin and monitors still describe its field.  One
    CondensedSolver serves every Newton step, so the seed ILU is built at
    most once per call and only when some step needs a linear solve.  On
    persistent step failure raises ContinuationFailure carrying the last
    accepted state and report.
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
    seed = quadratic_seed(grid)
    margin = ellipticity_margin(seed, grid)
    if margin <= 0.0:
        raise ValueError("quadratic seed is not admissible on this grid")
    state = HomotopyState(t=0.0, field=seed, residual_norm=float("nan"),
                          ellipticity_margin=margin, monitors=bound_monitors(seed, grid))
    state = newton_solve(state, grid, problem, config, linear)
    report.add(state)
    dt_init = 1.0 / config.homotopy_steps
    dt = dt_init
    while state.t < 1.0:
        t_next = state.t + dt
        if t_next >= 1.0 - 1e-12:
            t_next = 1.0
        candidate = replace(state, t=t_next, field=state.field.copy())
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
