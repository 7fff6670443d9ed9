"""Damped Newton inside homotopy continuation for the discrete problem.

The interior equation is linearized through the gradient of det(W) with
respect to the Hessian entries, contracted with the stencil coefficients;
the Robin rows are linear and precomputed on the grid.  Every accepted
iterate must keep the ellipticity margin tr(D2u) - lambda_max(D2u), the
smallest eigenvalue of M = tr(D2u) I - D2u and hence of W, positive at all
active points (the discrete ellipticity certificate), which the line
search enforces alongside plain residual decrease.  Each iterate's Hessian
stack is formed once and gives its det W, its margin and the next Jacobian;
one eigendecomposition of it gives both the margin and the monitors'
sup|D2u|.  The accepted state carries the stack and its eigenvalues.

Each Newton step eliminates the trace unknowns exactly (the Robin block
on them is a multiple of the identity) through a map that is constant for
the whole continuation, and solves the remaining system on the active
points by GMRES, preconditioned with one incomplete LU of the seed system.
At the quadratic seed the det W gradient is exactly (n-1)^n I, so that
system is the grid's scaled Laplacian composed with the map, and it is
built from the grid alone.  A step GMRES cannot finish replaces the
preconditioner with an incomplete LU of its own system and fails, so the
continuation retries it: from x_k if it began at the prediction below, else
at half the step.

Once two states are accepted, the continuation starts each Newton solve
from the polynomial through the last accepted states, in Newton form: the
secant x_k + (t_{k+1} - t_k)/(t_k - t_{k-1}) (x_k - x_{k-1}) and, once a
third state is accepted, the correction (t_{k+1} - t_k)(t_{k+1} - t_{k-1})
D2, with D2 the second divided difference of x_k, x_{k-1} and x_{k-2}.
One Hessian stack of the prediction gives its margin and det W; a
prediction with margin <= 0, or one from which Newton fails, gives way to
a start from x_k at the same t.  On an exact path x_k = x_{k-1} and no
prediction is formed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres, spilu
from scipy.sparse.linalg import splu  # noqa: F401 (unused here; perfbench wraps this binding)

from nconvex import woperator
from nconvex.discretize import (
    DiscreteField,
    Grid,
    SampledProblem,
    gradient_batch,
    hessian_batch,
    hessian_contraction,
    homotopy_constant,
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
# caps only bound the work spent on a stalled solve before the step fails.
# The tolerance sits above the round-off floor of the true residual (about
# 1e-12 at 33^3), which GMRES cannot certify.  A cycle ends on the
# preconditioned residual, and each restart tightens that target by only 4x,
# so a step whose true residual lands just above the tolerance can need a
# third cycle of one or two iterations.
GMRES_RTOL = 1e-10
GMRES_RESTART = 60
GMRES_MAX_RESTARTS = 3

ILU_DROP_TOL = 1e-3
ILU_FILL_FACTOR = 10
ILU_PERMC = "MMD_AT_PLUS_A"

# The line search gives up on a Newton step once alpha falls below this.
LINE_SEARCH_FLOOR = 1e-8


class StepFailure(RuntimeError):
    """A Newton solve at fixed t did not converge; the caller shrinks dt."""


class ContinuationFailure(RuntimeError):
    """The homotopy failed; carries the last good state, if any, and the report."""

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

    def __post_init__(self):
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0.0):
            raise ValueError(f"newton_tol must be finite and positive, got {self.newton_tol}")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be at least 1")
        if self.homotopy_steps < 1:
            raise ValueError("homotopy_steps must be at least 1")
        if not (np.isfinite(self.min_step) and 0.0 < self.min_step <= 1.0):
            raise ValueError(f"min_step must lie in (0, 1], got {self.min_step}")
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
    monitors: BoundMonitors | None  # None only on a predicted start (``continuation``)
    det_w: np.ndarray  # det W(D2u) at every active point of the field
    hessians: np.ndarray  # D2u at every active point of the field (``hessian_batch``)
    eigenvalues: np.ndarray  # np.linalg.eigvalsh(hessians): the margin and sup|D2u| read it


@dataclass
class PathReport:
    """One row per accepted homotopy parameter, plus optional barrier data."""

    rows: list = field(default_factory=list)
    barriers: dict | None = None
    config_digest: str | None = None
    exact_error: float | None = None  # sup |u - reference| when one is known
    krylov_iters: list = field(default_factory=list)  # GMRES iterations per Newton step
    ilu_rebuilds: int = 0  # GMRES stalls, each answered by an ILU of the stalled step's S
    predicted_starts: int = 0  # accepted steps whose Newton solve began at the prediction
    predictor_fallbacks: int = 0  # predictions refused by the guard or failed, retried from x_k
    # sup-norm residual at the start of each Newton solve begun at a prediction
    predicted_start_residuals: list = field(default_factory=list)

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
            "ilu_rebuilds": self.ilu_rebuilds,
            "predicted_starts": self.predicted_starts,
            "predictor_fallbacks": self.predictor_fallbacks,
            "predicted_start_residuals": self.predicted_start_residuals,
        }
        if self.config_digest is not None:
            payload["config_digest"] = self.config_digest
        if self.exact_error is not None:
            payload["exact_error"] = self.exact_error
        if self.barriers is not None:
            payload["barriers"] = self.barriers
        return json.dumps(payload, indent=2, sort_keys=True)


def residual_vector(x: np.ndarray, t: float, grid: Grid, problem: SampledProblem,
                    det: np.ndarray | None = None) -> np.ndarray:
    """Stacked interior and Robin residuals for the packed unknown vector.

    ``det``, when given, is det W(D2u) at x and is not recomputed.
    """
    fld = DiscreteField.unpack(x, grid)
    return np.concatenate(
        [
            interior_residual(fld, grid, problem, t, det),
            robin_residual(fld, grid, problem, t),
        ]
    )


def ellipticity_margin(hessians: np.ndarray, eigenvalues: np.ndarray | None = None) -> float:
    """Smallest tr(D2u) - lambda_max(D2u) over a Hessian stack (``hessian_batch``).

    ``eigenvalues``, when given, is ``np.linalg.eigvalsh(hessians)`` and is not recomputed.
    """
    return float(np.min(woperator.batch_min_lift_eig(hessians, eigenvalues)))


def assemble_jacobian(hessians: np.ndarray, grid: Grid) -> sp.csr_matrix:
    """Stencil matrix K of the interior linearization at a Hessian stack.

    K contracts the det(W) gradient with the Hessian stencil and acts on
    the extended vector [values; closure values] (``hessian_contraction``).
    """
    return hessian_contraction(woperator.batch_linearization(hessians), grid)


def full_jacobian(x: np.ndarray, t: float, grid: Grid,
                  problem: SampledProblem) -> sp.csc_matrix:
    """Sparse Jacobian of ``residual_vector``: [[K @ extension], [R_u, d I]].

    The Robin rows are formed here from ``grid.robin_u`` and ``grid.robin_diag``.
    """
    d2 = hessian_batch(DiscreteField.unpack(x, grid), grid)
    robin = sp.hstack([grid.robin_u, grid.robin_diag * sp.identity(grid.n_colloc, format="csr")],
                      format="csr")
    return sp.vstack([assemble_jacobian(d2, grid) @ grid.extension, robin], format="csc")


def condensed_map(grid: Grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The extension with the trace eliminated through the Robin rows: (E, L).

    The Robin rows R_u u + d b = g (R_u = ``grid.robin_u``, d =
    ``grid.robin_diag``) fix b = (g - R_u u) / d, so ``extension @ [u; b]``
    = E u + L g with E = [I; C_u - C_b R_u / d] and L = [0; C_b] / d, where
    [C_u, C_b] = C.
    """
    n = grid.n_active
    ext = grid.extension.tocsc()
    lift = (ext[:, n:] / grid.robin_diag).tocsr()
    return (ext[:, :n] - lift @ grid.robin_u).tocsr(), lift


class CondensedSolver:
    """Newton-step solver for one continuation: condensed system, one ILU.

    ``solve`` takes K from ``assemble_jacobian`` and the right side [g1; g2]
    of the full system and eliminates the trace unknowns exactly:
    S du = g1 - K L g2 on the active points with S = K E, (E, L) from
    ``condensed_map``, then db = (g2 - R_u du) / d.

    At the quadratic seed D2u = I and M = (n-1) I, so the det W gradient is
    c0 I with c0 = ``homotopy_constant(n)``, and the seed's S is
    ``hessian_contraction(c0 I) @ E``, known from the grid alone.  The first
    step builds E, L and an incomplete LU of that S; it preconditions GMRES
    on every step, and GMRES always solves the step's full S.  A step GMRES
    does not finish replaces the preconditioner with an incomplete LU of its
    own S and raises StepFailure, so the caller retries with a smaller step.
    GMRES iterations and rebuilds are recorded on ``report``.
    """

    def __init__(self, grid: Grid, report: PathReport):
        self.grid = grid
        self.report = report
        self._map = None  # (E, L), built by the first step
        self._ilu = None  # the preconditioner: the seed S's ILU, or a stalled step's

    def solve(self, stencil: sp.csr_matrix, rhs: np.ndarray, t: float) -> np.ndarray:
        """Solve the full Newton system for delta; raises StepFailure if GMRES stalls."""
        grid = self.grid
        if self._map is None:
            emap, lift = condensed_map(grid)
            seed_grad = np.broadcast_to(homotopy_constant(grid.n) * np.eye(grid.n),
                                        (grid.n_active, grid.n, grid.n))
            self._ilu = _incomplete_lu(hessian_contraction(seed_grad, grid) @ emap)
            self._map = emap, lift
        emap, lift = self._map
        g1, g2 = rhs[:grid.n_active], rhs[grid.n_active:]
        schur = stencil @ emap
        rhs_u = g1 - stencil @ (lift @ g2)
        norms = []  # GMRES's preconditioned residual norm, one per iteration
        precond = LinearOperator(schur.shape, matvec=self._ilu.solve)
        du, info = gmres(schur, rhs_u, rtol=GMRES_RTOL, atol=0.0, restart=GMRES_RESTART,
                         maxiter=GMRES_MAX_RESTARTS, M=precond, callback=norms.append,
                         callback_type="pr_norm")
        iters = len(norms)
        self.report.krylov_iters.append(iters)
        if info != 0 or not np.all(np.isfinite(du)):
            stall = f"GMRES stalled at t={t:.6g} after {iters} iterations"
            try:
                self._ilu = _incomplete_lu(schur)
            except StepFailure as exc:
                raise StepFailure(f"{stall}; rebuilding the preconditioner: {exc}")
            self.report.ilu_rebuilds += 1
            raise StepFailure(f"{stall}; preconditioner rebuilt from this step's system")
        return np.concatenate([du, (g2 - grid.robin_u @ du) / grid.robin_diag])


def _incomplete_lu(schur: sp.csr_matrix):
    try:
        return spilu(schur.tocsc(), drop_tol=ILU_DROP_TOL,
                     fill_factor=ILU_FILL_FACTOR, permc_spec=ILU_PERMC)
    except RuntimeError as exc:
        raise StepFailure(f"incomplete LU failed: {exc}")


def bound_monitors(fld: DiscreteField, eigenvalues: np.ndarray, grid: Grid) -> BoundMonitors:
    """Norm monitors: sup|u|, sup|Du|, sup|D2u| and the boundary N.

    ``eigenvalues`` is ``np.linalg.eigvalsh`` of the field's Hessian stack
    (``hessian_batch``), the one its ellipticity margin was read from.
    """
    fld.check(grid)
    sup_u = max(float(np.max(np.abs(fld.values))), float(np.max(np.abs(fld.trace))))
    grads = gradient_batch(fld, grid)
    sup_du = float(np.max(np.linalg.norm(grads, axis=1)))
    sup_du = max(sup_du, float(np.max(np.abs(normal_derivative(fld, grid)))))
    sup_d2u = float(np.max(np.abs(eigenvalues)))
    sup_unn = float(np.max(np.abs(second_normal_derivative(fld, grid))))
    return BoundMonitors(sup_u=sup_u, sup_du=sup_du, sup_d2u=sup_d2u, sup_unn=sup_unn)


def newton_solve(state: HomotopyState, grid: Grid, problem: SampledProblem,
                 config: SolverConfig,
                 linear: CondensedSolver | None = None) -> HomotopyState:
    """Damped Newton at fixed t with the cone guard in the line search.

    Each step solves the Jacobian system with ``linear`` (a fresh
    CondensedSolver when none is passed) and backtracks until the trial
    iterate both decreases the sup-norm residual and keeps the ellipticity
    margin positive at every active point.  Raises StepFailure when the
    iteration budget, the line-search floor, or the linear solve gives out.

    The start state's Hessian stack, its eigenvalues, margin, monitors and
    det W are trusted to describe its field.  A trial's stack gives its det W
    and, if the trial decreases the residual, one eigendecomposition for its
    margin; once accepted, the stack gives the next Jacobian.  The result
    reuses the accepted iterate's stack, eigenvalues, residual, margin and
    det W, and evaluates the monitors from those eigenvalues once if a step
    was taken or the start carries none (a prediction, whose start residual
    is recorded on the report).
    """
    if state.ellipticity_margin <= 0.0:
        raise ValueError(
            f"inadmissible start: ellipticity margin {state.ellipticity_margin:.3g} <= 0"
        )
    if linear is None:
        linear = CondensedSolver(grid, PathReport())
    t = state.t
    fld, margin, monitors = state.field, state.ellipticity_margin, state.monitors
    det, d2, eig = state.det_w, state.hessians, state.eigenvalues
    x = fld.pack()
    r = residual_vector(x, t, grid, problem, det)
    rnorm = float(np.max(np.abs(r)))
    if monitors is None:
        linear.report.predicted_start_residuals.append(rnorm)
    for _ in range(config.max_newton_iters):
        if rnorm <= config.newton_tol:
            break
        delta = linear.solve(assemble_jacobian(d2, grid), -r, t)
        alpha = 1.0
        while True:
            trial = x + alpha * delta
            trial_fld = DiscreteField.unpack(trial, grid)
            trial_d2 = hessian_batch(trial_fld, grid)
            trial_det = woperator.batch_det_w(trial_d2)
            trial_r = residual_vector(trial, t, grid, problem, trial_det)
            trial_norm = float(np.max(np.abs(trial_r)))
            if trial_norm < rnorm:
                trial_eig = np.linalg.eigvalsh(trial_d2)
                trial_margin = ellipticity_margin(trial_d2, trial_eig)
                if trial_margin > 0.0:
                    x, r, rnorm, det, d2 = trial, trial_r, trial_norm, trial_det, trial_d2
                    fld, margin, monitors, eig = trial_fld, trial_margin, None, trial_eig
                    break
            alpha *= config.damping
            if alpha < LINE_SEARCH_FLOOR:
                raise StepFailure(
                    f"line search floor reached at t={t:.6g} (residual {rnorm:.3g})"
                )
    if rnorm > config.newton_tol:
        raise StepFailure(
            f"Newton did not reach tol {config.newton_tol:.1e} at t={t:.6g} "
            f"(residual {rnorm:.3g} after {config.max_newton_iters} iterations)"
        )
    if monitors is None:
        monitors = bound_monitors(fld, eig, grid)
    return HomotopyState(t=t, field=fld, residual_norm=rnorm, ellipticity_margin=margin,
                         monitors=monitors, det_w=det, hessians=d2, eigenvalues=eig)


def quadratic_seed(grid: Grid) -> DiscreteField:
    """The exact homotopy-start field u = |x|^2 / 2."""
    return DiscreteField.from_function(grid, lambda pts: 0.5 * np.sum(pts**2, axis=1))


def _predicted_start(state: HomotopyState, earlier: tuple, t_next: float,
                     grid: Grid) -> HomotopyState | None:
    """The start at t_next predicted from ``state`` and the states before it.

    ``earlier`` holds (t, packed field) of up to two states accepted before
    ``state`` = (t_k, x_k), newest first.  The prediction is the polynomial
    through them in Newton form: the secant
    x_k + (t_next - t_k)/(t_k - t_{k-1}) (x_k - x_{k-1}) and, when
    ``earlier`` holds two states, (t_next - t_k)(t_next - t_{k-1}) D2, with
    D2 the second divided difference of x_k, x_{k-1} and x_{k-2}.  Returns
    None when there is no secant: no earlier state, or an exact path, where
    x_k - x_{k-1} is exactly 0.  Otherwise one Hessian stack of the
    prediction gives its det W and, through one eigendecomposition, its
    margin; the monitors are left to the field that Newton accepts.
    """
    if not earlier:
        return None
    t_1, x_1 = earlier[0]
    x = state.field.pack()
    secant = x - x_1
    if not np.any(secant):
        return None
    step = t_next - state.t
    predicted = x + step / (state.t - t_1) * secant
    if len(earlier) == 2:
        t_2, x_2 = earlier[1]
        curvature = (secant / (state.t - t_1) - (x_1 - x_2) / (t_1 - t_2)) / (state.t - t_2)
        predicted += step * (t_next - t_1) * curvature
    fld = DiscreteField.unpack(predicted, grid)
    d2 = hessian_batch(fld, grid)
    eig = np.linalg.eigvalsh(d2)
    return HomotopyState(t=t_next, field=fld, residual_norm=float("nan"),
                         ellipticity_margin=ellipticity_margin(d2, eig), monitors=None,
                         det_w=woperator.batch_det_w(d2), hessians=d2, eigenvalues=eig)


def _advance(state: HomotopyState, earlier: tuple, t_next: float, grid: Grid,
             problem: SampledProblem, config: SolverConfig,
             linear: CondensedSolver) -> HomotopyState:
    """Newton at t_next from the predicted start, or from ``state``.

    ``earlier`` is as in ``_predicted_start``.  A prediction is used only
    when its margin is positive.  If it is refused, or Newton fails from it,
    the solve is retried once from ``state`` at the same t; a StepFailure of
    that retry propagates.
    """
    report = linear.report
    predicted = _predicted_start(state, earlier, t_next, grid)
    if predicted is not None:
        if predicted.ellipticity_margin > 0.0:
            try:
                out = newton_solve(predicted, grid, problem, config, linear)
            except StepFailure:
                pass
            else:
                report.predicted_starts += 1
                return out
        report.predictor_fallbacks += 1
    return newton_solve(replace(state, t=t_next), grid, problem, config, linear)


def continuation(problem: SampledProblem, grid: Grid, config: SolverConfig,
                 force: bool = False):
    """March t from 0 to 1 with adaptive halving; returns (state, report).

    The curvature-pinching gate runs first unless ``force`` is set; the
    start iterate is the exact t = 0 solution, whose margin, det W and
    monitors are read from one Hessian stack and one eigendecomposition
    here.  Once two states are accepted, each Newton solve starts from the
    prediction through the last two or three of them (``_predicted_start``)
    when its margin is positive, and otherwise, or when Newton fails from
    it, from the last accepted state, whose stack, eigenvalues, margin,
    monitors and det W still describe its field.  Only the t and packed
    field of the two states before it are kept for the prediction, and no
    earlier Hessian stack.  One CondensedSolver serves every Newton
    step, so the seed ILU is built at most once per call and only when some
    step needs a linear solve; a GMRES stall rebuilds it from the stalled
    step.  A step that fails from the last accepted state halves dt.  On
    persistent step failure raises ContinuationFailure carrying the last
    accepted state and report; a failure of the t = 0 solve raises it
    with no state.
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
    d2 = hessian_batch(seed, grid)
    eig = np.linalg.eigvalsh(d2)
    margin = ellipticity_margin(d2, eig)
    if margin <= 0.0:
        raise ValueError("quadratic seed is not admissible on this grid")
    state = HomotopyState(t=0.0, field=seed, residual_norm=float("nan"),
                          ellipticity_margin=margin, monitors=bound_monitors(seed, eig, grid),
                          det_w=woperator.batch_det_w(d2), hessians=d2, eigenvalues=eig)
    try:
        state = newton_solve(state, grid, problem, config, linear)
    except StepFailure as exc:
        # no state is accepted yet, so there is no step to halve
        raise ContinuationFailure(str(exc), state=None, report=report) from exc
    report.add(state)
    earlier = ()  # (t, packed field) of up to two states accepted before ``state``, newest first
    dt_init = 1.0 / config.homotopy_steps
    dt = dt_init
    while state.t < 1.0:
        t_next = state.t + dt
        if t_next >= 1.0 - 1e-12:
            t_next = 1.0
        try:
            accepted = _advance(state, earlier, t_next, grid, problem, config, linear)
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
        earlier, state = ((state.t, state.field.pack()),) + earlier[:1], accepted
        report.add(state)
        dt = min(dt * 2.0, dt_init)
    return state, report
