"""Damped Newton inside homotopy continuation for the discrete problem.

The unknowns are the active values u alone: the linear Robin rows fix the
trace at t (``discretize.field_at``), and the residual is the interior
equation, linearized through the gradient of det(W) with respect to the
Hessian entries, contracted with the stencil coefficients.  Every accepted
iterate must keep the ellipticity margin tr(D2u) - lambda_max(D2u), the
smallest eigenvalue of M = tr(D2u) I - D2u and hence of W, positive at all
active points (the discrete ellipticity certificate), which the line
search enforces alongside plain residual decrease.  Every homotopy state
(the seed, a path start, a line-search trial) is built by
``evaluate_state``: one Hessian stack of its field gives its det W, its
residual at its own t and the next Jacobian, and one batched Cholesky
of M, shifted a little, decides whether its margin is positive
(``_admissible``).  Only a state that Newton returns is eigen-decomposed:
one spectrum of its stack (``woperator.batch_eigvalsh``) gives both its
margin and the monitors' sup|D2u|.

Each Newton step solves S du = -r, S = K E the stencil matrix times the
map E of u to [values; closure values] with the trace eliminated (constant
for the whole continuation), by GCROT(m,k).  The seed's det W gradient is
(n-1)^n I, so its S is the grid's scaled Laplacian composed with E, and
every step is preconditioned with one fast Poisson solve on the bounding
box of the active points (two sine transforms), scaled by the diagonal of
the step's own K.  S is applied as v -> K (E v) and never formed, and one
recycled Krylov subspace is carried from each Newton solve of the
continuation to the next.  A step the Krylov solve cannot finish empties
the recycled subspace and fails, so it is retried with the same
preconditioner: from u_k if it began at the prediction below, else at half
the step.

Once two states are accepted, the continuation starts each Newton solve
from the polynomial through the last accepted states, in Newton form: the
secant u_k + (t_{k+1} - t_k)/(t_k - t_{k-1}) (u_k - u_{k-1}) and, once a
third state is accepted, the correction (t_{k+1} - t_k)(t_{k+1} - t_{k-1})
D2, with D2 the second divided difference of u_k, u_{k-1} and u_{k-2}.
Without a usable prediction (none on an exact path, where u_k = u_{k-1}),
or when Newton fails from it, the start is u_k itself if it still solves
the problem at t_{k+1}, else one tangent step from it (``_tangent_start``).

The path sets its own step (``continuation``): the first is
1/``homotopy_steps``, each acceptance grows dt by 2 or, after at most two
Newton iterations, by 4, and each rejected step halves it, down to
``MIN_STEP``.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gcrotmk
from scipy.sparse.linalg import splu  # noqa: F401 (unused here; perfbench wraps this binding)

from nconvex import woperator
from nconvex.discretize import (
    DiscreteField,
    Grid,
    SampledProblem,
    field_at,
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
    "evaluate_state",
    "newton_solve",
    "quadratic_seed",
    "continuation",
]

REPORT_COLUMNS = ("t", "residual", "margin", "sup_u", "sup_du", "sup_d2u", "N", "ratio")

# GCROT(m,k) (Hicken & Zingg, SIAM J. Sci. Comput. 32 (2010)) on the
# condensed Newton system, with one recycled subspace of KRYLOV_RECYCLED
# vectors carried across every solve of a continuation (Parks, de Sturler et
# al., SIAM J. Sci. Comput. 28 (2006)): the path's systems are close, so the
# subspace one solve leaves starts the next.  Its C vectors are recomputed
# from S at each solve, because S changes.  A manufactured-path solve takes
# 9-14 box-preconditioner applications at 9^3, 12-18 at 17^3, 13-20 at 25^3,
# 16-23 at 33^3 and 20-28 at 65^3, the first solves the most, so the outer
# cap only bounds the work spent on a stalled solve (about 180 applications)
# before the step fails.  The tolerance is tested on the true residual and
# sits above its round-off floor (about 1e-12 at 33^3).
KRYLOV_RTOL = 1e-10
KRYLOV_INNER = 40
KRYLOV_RECYCLED = 20
KRYLOV_MAX_OUTER = 4

# The admissibility gate factors M - tau I by Cholesky, tau = GATE_SHIFT
# tr(H) / n at each point (``_admissible``).  For an admissible H every
# eigenvalue of M lies in (0, (n-1) tr H], so tau is at least
# 1e-10 / (n (n-1)) of |M|, some 10^5 times the round-off of a Cholesky or
# of ``batch_eigvalsh``: a factorization that succeeds proves a margin that
# the eigenvalues read as positive too.
GATE_SHIFT = 1e-10

# Newton's step budget at one t, the line search's factor on alpha and the
# alpha it gives up below, and the smallest homotopy step.
MAX_NEWTON_ITERS = 30
LINE_SEARCH_DAMPING = 0.5
LINE_SEARCH_FLOOR = 1e-8
MIN_STEP = 1.0 / 1280.0


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
    """The sup-norm residual Newton must reach, and the first step 1/homotopy_steps."""

    newton_tol: float = 1e-10
    homotopy_steps: int = 10

    def __post_init__(self):
        tol, steps = self.newton_tol, self.homotopy_steps
        if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and np.isfinite(tol)
                                         and tol > 0.0):
            raise ValueError(f"newton_tol must be finite and positive, got {tol!r}")
        if isinstance(steps, bool) or not (isinstance(steps, numbers.Integral) and steps >= 1):
            raise ValueError(f"homotopy_steps must be an integer of at least 1, got {steps!r}")


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
    """One point of the homotopy path, built by ``evaluate_state``.

    ``admissible`` is whether its ellipticity margin is positive
    (``_admissible``).  The margin itself and the monitors are None until
    ``newton_solve`` returns the state, and then both read one
    ``woperator.batch_eigvalsh`` of its stack.
    """

    t: float
    field: DiscreteField
    residual: np.ndarray  # interior residual of the field at t
    admissible: bool  # ellipticity_margin(hessians) > 0
    ellipticity_margin: float | None
    monitors: BoundMonitors | None
    det_w: np.ndarray  # det W(D2u) at every active point of the field
    hessians: np.ndarray  # D2u at every active point of the field (``hessian_batch``)

    @property
    def residual_norm(self) -> float:
        return float(np.max(np.abs(self.residual)))


@dataclass
class PathReport:
    """One row per accepted homotopy parameter, plus optional barrier data."""

    rows: list = field(default_factory=list)
    barriers: dict | None = None
    config_digest: str | None = None
    exact_error: float | None = None  # sup |u - reference| when one is known
    krylov_iters: list = field(default_factory=list)  # preconditioner applications per Newton step
    predicted_starts: int = 0  # accepted steps whose Newton solve began at the prediction
    predictor_fallbacks: int = 0  # predictions refused by the guard or failed, retried from u_k
    # sup-norm residual at the start of each Newton solve begun at a prediction
    predicted_start_residuals: list = field(default_factory=list)
    # (t, dt, StepFailure text) of each homotopy step that failed and halved dt
    rejected_steps: list = field(default_factory=list)

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
            "predicted_starts": self.predicted_starts,
            "predictor_fallbacks": self.predictor_fallbacks,
            "predicted_start_residuals": self.predicted_start_residuals,
            "rejected_steps": self.rejected_steps,
        }
        if self.config_digest is not None:
            payload["config_digest"] = self.config_digest
        if self.exact_error is not None:
            payload["exact_error"] = self.exact_error
        if self.barriers is not None:
            payload["barriers"] = self.barriers
        return json.dumps(payload, indent=2, sort_keys=True)


def residual_vector(u: np.ndarray, t: float, grid: Grid,
                    problem: SampledProblem) -> np.ndarray:
    """Interior residual of the active values u at t, their trace from ``field_at``."""
    return interior_residual(field_at(u, t, grid, problem), grid, problem, t)


def ellipticity_margin(hessians: np.ndarray, eigenvalues: np.ndarray | None = None) -> float:
    """Smallest tr(D2u) - lambda_max(D2u) over a Hessian stack (``hessian_batch``).

    ``eigenvalues``, when given, is ``woperator.batch_eigvalsh(hessians)``.
    """
    return float(np.min(woperator.batch_min_lift_eig(hessians, eigenvalues)))


def _admissible(hessians: np.ndarray) -> bool:
    """Whether ``ellipticity_margin(hessians) > 0``, mostly without eigenvalues.

    The Cholesky factorization of M - tau I (``GATE_SHIFT``), run entry by
    entry over the whole stack at once, says yes when every pivot is
    positive.  It refuses where tr H <= 0, as M - tau I then has no positive
    trace.  When it refuses, either some margin is not positive or every one
    is but some is within tau; the eigenvalue margin then decides.
    """
    n = hessians.shape[-1]
    # entries first: h[i, j] holds entry (i, j) of every Hessian, contiguous
    h = np.ascontiguousarray(np.moveaxis(hessians, (-2, -1), (0, 1)))
    shift = np.trace(h) * (1.0 - GATE_SHIFT / n)
    low = {}  # (i, j) -> that entry of the factor of M - tau I, M = tr(H) I - H
    for j in range(n):
        pivot = shift - h[j, j]
        for k in range(j):
            pivot -= low[j, k] ** 2
        if not np.all(pivot > 0.0):
            return ellipticity_margin(hessians) > 0.0
        root = np.sqrt(pivot)
        for i in range(j + 1, n):
            entry = -h[i, j]
            for k in range(j):
                entry -= low[i, k] * low[j, k]
            low[i, j] = entry / root
    return True


def assemble_jacobian(hessians: np.ndarray, grid: Grid) -> sp.csr_matrix:
    """Stencil matrix K of the interior linearization at a Hessian stack.

    K contracts the det(W) gradient with the Hessian stencil and acts on
    the extended vector [values; closure values] (``hessian_contraction``).
    """
    return hessian_contraction(woperator.batch_linearization(hessians), grid)


def full_jacobian(u: np.ndarray, t: float, grid: Grid,
                  problem: SampledProblem) -> sp.csc_matrix:
    """Sparse Jacobian K E of ``residual_vector`` in the active values u."""
    d2 = hessian_batch(field_at(u, t, grid, problem), grid)
    return (assemble_jacobian(d2, grid) @ condensed_map(grid)).tocsc()


def condensed_map(grid: Grid) -> sp.csr_matrix:
    """E = [I; C [I; -R_u / d]], canonical: how the extended vector moves with u
    when the Robin rows fix the trace, b = (g - R_u u) / d (``field_at``)."""
    eye = sp.identity(grid.n_active, format="csr")
    closure = grid.C @ sp.vstack([eye, grid.robin_u / -grid.robin_diag], format="csr")
    return sp.vstack([eye, closure.sorted_indices()], format="csr")


class CondensedSolver:
    """Newton-step solver for one continuation: S du = r, S = K E.

    ``solve`` takes K (``assemble_jacobian``) and r and returns du; E is
    ``condensed_map``.  At the seed the det W gradient is c0 I (c0 =
    ``homotopy_constant(n)``), so its S is c0 times the grid Laplacian
    composed with E.  The first step builds E and a fast Poisson solver on
    the box of the active points (``_BoxPoisson``), and each solve
    preconditions GCROT(m,k) with v -> R (c0 Lap_box)^-1 R^T (v / s), s the
    diagonal of its own K over that of the seed's, so 1 at the seed.  S
    itself is applied as v -> K (E v) without forming it.  The solver owns
    the recycled subspace ``recycled`` (scipy's ``CU`` list) that each solve
    leaves to the next.  A step the Krylov solve does not finish empties it
    and raises StepFailure, so the caller retries the step with the same box.
    Preconditioner applications per solve go on ``report``, a fresh one when
    none is given.
    """

    def __init__(self, grid: Grid, report: PathReport | None = None):
        self.grid = grid
        self.report = PathReport() if report is None else report
        self.recycled = []  # GCROT's (c, u) pairs, carried from one solve to the next
        self._map = None  # E, built by the first step
        self._box = None  # the box Poisson solver, built by the first step

    def solve(self, stencil: sp.csr_matrix, rhs: np.ndarray, t: float) -> np.ndarray:
        """Solve S du = rhs for du; raises StepFailure if the Krylov solve stalls."""
        grid = self.grid
        if self._map is None:
            self._map = condensed_map(grid)
            self._box = _BoxPoisson(grid)
        emap = self._map
        shape = (grid.n_active, grid.n_active)
        schur = LinearOperator(shape, matvec=lambda v: stencil @ (emap @ v), dtype=float)
        inverse = self._box.inverse(stencil)
        applications = 0

        def precondition(v):
            nonlocal applications
            applications += 1
            return inverse(v)

        du, info = gcrotmk(schur, rhs, rtol=KRYLOV_RTOL, atol=0.0, maxiter=KRYLOV_MAX_OUTER,
                           M=LinearOperator(shape, matvec=precondition, dtype=float),
                           m=KRYLOV_INNER, k=KRYLOV_RECYCLED, CU=self.recycled,
                           discard_C=True)
        self.report.krylov_iters.append(applications)
        if info != 0 or not np.all(np.isfinite(du)):
            # a stalled solve may have left non-finite vectors in the subspace
            self.recycled.clear()
            raise StepFailure(f"Krylov solve stalled at t={t:.6g} after {applications} "
                              "preconditioner applications")
        return du


class _BoxPoisson:
    """Fast solve of c0 Lap_box x = b on the bounding box of the active points.

    Lap_box is the 2n+1-point Laplacian with zero Dirichlet values on the
    layer just outside the box, which lies inside ``Grid.shape`` because
    ``Grid._classify_points`` keeps every stencil there.  It is diagonal in
    the type-I sine basis, so ``solve`` scatters the active values into the
    box (R^T), applies two ``scipy.fft.dstn`` around the inverse symbol and
    gathers the active values back (R): a fictitious-domain fast Poisson
    solver (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8 (1971);
    Borgers & Widlund, SIAM J. Numer. Anal. 27 (1990)).
    """

    def __init__(self, grid: Grid):
        # loaded here, not at import: runs that solve nothing never need it
        from scipy.fft import dstn
        self._dstn = dstn
        n = grid.n
        active_k = np.column_stack(np.unravel_index(grid.active_idx, grid.shape))
        low = active_k.min(axis=0)
        self.box_shape = tuple(int(m) for m in active_k.max(axis=0) - low + 1)
        self.box_low = low
        self.flat = np.ravel_multi_index(tuple((active_k - low).T), self.box_shape)
        # the Laplacian's eigenvalues sum_d (2 cos(pi k_d / (m_d + 1)) - 2) / h^2, and
        # the 2 (m_d + 1) that two unnormalized type-I transforms multiply by
        symbol = np.zeros(self.box_shape)
        factor = homotopy_constant(n)
        for d, m in enumerate(self.box_shape):
            axis = (2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1)) - 2.0) / grid.h ** 2
            symbol += axis.reshape((-1,) + (1,) * (n - 1 - d))
            factor *= 2.0 * (m + 1)
        self.inverse_symbol = 1.0 / (factor * symbol)
        # the diagonal of the seed's K, the contraction of c0 I with the centre weight
        self.seed_diagonal = (homotopy_constant(n) * np.eye(n)).ravel() @ grid.hess_coef[0]

    def scale(self, stencil: sp.csr_matrix) -> np.ndarray:
        """s = diag(K) / diag(K_seed) at every active point; exactly 1 at the seed."""
        return stencil.diagonal() / self.seed_diagonal

    def inverse(self, stencil: sp.csr_matrix):
        """The preconditioner v -> ``solve(v / s)``, s = ``scale(stencil)``."""
        scale = self.scale(stencil)
        return lambda v: self.solve(v / scale)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """R (c0 Lap_box)^-1 R^T rhs."""
        box = np.zeros(self.box_shape)
        box.ravel()[self.flat] = rhs
        spectrum = self._dstn(box, type=1, overwrite_x=True)
        spectrum *= self.inverse_symbol
        return self._dstn(spectrum, type=1, overwrite_x=True).ravel()[self.flat]


def bound_monitors(fld: DiscreteField, eigenvalues: np.ndarray, grid: Grid) -> BoundMonitors:
    """Norm monitors: sup|u|, sup|Du|, sup|D2u| and the boundary N.

    ``eigenvalues`` is ``woperator.batch_eigvalsh`` of the field's Hessian
    stack (``hessian_batch``), the one its ellipticity margin was read from.
    """
    fld.check(grid)
    sup_u = max(float(np.max(np.abs(fld.values))), float(np.max(np.abs(fld.trace))))
    grads = gradient_batch(fld, grid)
    sup_du = float(np.max(np.linalg.norm(grads, axis=1)))
    sup_du = max(sup_du, float(np.max(np.abs(normal_derivative(fld, grid)))))
    sup_d2u = float(np.max(np.abs(eigenvalues)))
    sup_unn = float(np.max(np.abs(second_normal_derivative(fld, grid))))
    return BoundMonitors(sup_u=sup_u, sup_du=sup_du, sup_d2u=sup_d2u, sup_unn=sup_unn)


def evaluate_state(u: np.ndarray, t: float, grid: Grid,
                   problem: SampledProblem) -> HomotopyState:
    """The homotopy state of the active values u at t, with no margin or
    monitors yet.

    One Hessian stack of its field ``field_at(u, t)`` gives its det W, read
    by the residual, and whether it is admissible (``_admissible``)."""
    fld = field_at(u, t, grid, problem)
    d2 = hessian_batch(fld, grid)
    det = woperator.batch_det_w(d2)
    return HomotopyState(t=t, field=fld, residual=interior_residual(fld, grid, problem, t, det),
                         admissible=_admissible(d2), ellipticity_margin=None, monitors=None,
                         det_w=det, hessians=d2)


def newton_solve(state: HomotopyState, grid: Grid, problem: SampledProblem,
                 config: SolverConfig,
                 linear: CondensedSolver | None = None) -> HomotopyState:
    """Damped Newton at fixed t with the cone guard in the line search.

    Each step solves S du = -``state.residual``, S the Jacobian at the
    state's Hessian stack, with ``linear`` (a fresh CondensedSolver when none
    is passed), and backtracks until the trial state (``evaluate_state`` of
    u + alpha du) both decreases the sup-norm residual and is admissible,
    its ellipticity margin positive at every active point; that trial
    becomes the state.  Raises StepFailure when ``MAX_NEWTON_ITERS``, the
    line-search floor, or the linear solve gives out.

    The start state is trusted to describe its field at its t.  The result
    is the last accepted state.  If it carries no monitors, one
    ``woperator.batch_eigvalsh`` of its stack gives its margin and its monitors.
    """
    if not state.admissible:
        raise ValueError("inadmissible start: ellipticity margin "
                         f"{ellipticity_margin(state.hessians):.3g} <= 0")
    if linear is None:
        linear = CondensedSolver(grid)
    t, rnorm = state.t, state.residual_norm
    for _ in range(MAX_NEWTON_ITERS):
        if rnorm <= config.newton_tol:
            break
        du = linear.solve(assemble_jacobian(state.hessians, grid), -state.residual, t)
        alpha = 1.0
        while True:
            trial = evaluate_state(state.field.values + alpha * du, t, grid, problem)
            trial_norm = trial.residual_norm
            if trial_norm < rnorm and trial.admissible:
                state, rnorm = trial, trial_norm
                break
            alpha *= LINE_SEARCH_DAMPING
            if alpha < LINE_SEARCH_FLOOR:
                raise StepFailure(
                    f"line search floor reached at t={t:.6g} (residual {rnorm:.3g})"
                )
    if rnorm > config.newton_tol:
        raise StepFailure(
            f"Newton did not reach tol {config.newton_tol:.1e} at t={t:.6g} "
            f"(residual {rnorm:.3g} after {MAX_NEWTON_ITERS} iterations)"
        )
    if state.monitors is None:
        eig = woperator.batch_eigvalsh(state.hessians)
        state = replace(state, ellipticity_margin=ellipticity_margin(state.hessians, eig),
                        monitors=bound_monitors(state.field, eig, grid))
    return state


def quadratic_seed(grid: Grid) -> DiscreteField:
    """The exact homotopy-start field u = |x|^2 / 2."""
    return DiscreteField.from_function(grid, lambda pts: 0.5 * np.sum(pts**2, axis=1))


def _predicted_start(state: HomotopyState, earlier: tuple, t_next: float, grid: Grid,
                     problem: SampledProblem) -> HomotopyState | None:
    """The start at t_next predicted from ``state`` and the states before it.

    ``earlier`` holds (t, active values) of up to two states accepted before
    ``state`` = (t_k, u_k), newest first.  The prediction is the polynomial
    through them in Newton form: the secant
    u_k + (t_next - t_k)/(t_k - t_{k-1}) (u_k - u_{k-1}) and, when
    ``earlier`` holds two states, (t_next - t_k)(t_next - t_{k-1}) D2, with
    D2 the second divided difference of u_k, u_{k-1} and u_{k-2}.  Returns
    None when there is no secant: no earlier state, or an exact path, where
    u_k - u_{k-1} is exactly 0.  Otherwise the prediction is evaluated at
    t_next (``evaluate_state``); the monitors are left to the field that
    Newton accepts.
    """
    if not earlier:
        return None
    t_1, u_1 = earlier[0]
    u = state.field.values
    secant = u - u_1
    if not np.any(secant):
        return None
    step = t_next - state.t
    predicted = u + step / (state.t - t_1) * secant
    if len(earlier) == 2:
        t_2, u_2 = earlier[1]
        curvature = (secant / (state.t - t_1) - (u_1 - u_2) / (t_1 - t_2)) / (state.t - t_2)
        predicted += step * (t_next - t_1) * curvature
    return evaluate_state(predicted, t_next, grid, problem)


def _tangent_start(state: HomotopyState, t_next: float, grid: Grid, problem: SampledProblem,
                   config: SolverConfig, linear: CondensedSolver) -> HomotopyState:
    """The start at t_next from ``state`` = (t_k, u_k), taken whole like a prediction.

    r and rr are the interior and Robin residuals of the state's field at
    t_next.  If both are within ``newton_tol`` the state is the start, else
    u_k + du after one tangent step S du = -(r - K [0; C [0; rr / d]]), K at
    its stack: Newton's first step with the trace unknown (u_k's trace derived
    at t_next would take all of rr).  Raises StepFailure if it is not admissible.
    """
    residual = interior_residual(state.field, grid, problem, t_next, state.det_w)
    robin = robin_residual(state.field, grid, problem, t_next)
    if max(np.max(np.abs(residual)), np.max(np.abs(robin))) <= config.newton_tol:
        return replace(state, t=t_next, residual=residual)
    stencil = assemble_jacobian(state.hessians, grid)
    zeros = np.zeros(grid.n_active)
    closure_move = grid.C @ np.concatenate([zeros, robin / grid.robin_diag])
    du = linear.solve(stencil, stencil @ np.concatenate([zeros, closure_move]) - residual, t_next)
    start = evaluate_state(state.field.values + du, t_next, grid, problem)
    if not start.admissible:
        raise StepFailure(f"tangent start at t={t_next:.6g} has ellipticity margin "
                          f"{ellipticity_margin(start.hessians):.3g} <= 0")
    return start


def _advance(state: HomotopyState, earlier: tuple, t_next: float, grid: Grid,
             problem: SampledProblem, config: SolverConfig,
             linear: CondensedSolver) -> HomotopyState:
    """Newton at t_next from the predicted start, or else from ``_tangent_start``.

    ``earlier`` is as in ``_predicted_start``.  A prediction is used only
    when it is admissible, and its residual norm is then recorded on
    the report.  If it is refused, or Newton fails from it, the solve is
    retried once; a StepFailure of the retry propagates.
    """
    report = linear.report
    predicted = _predicted_start(state, earlier, t_next, grid, problem)
    if predicted is not None:
        if predicted.admissible:
            report.predicted_start_residuals.append(predicted.residual_norm)
            try:
                out = newton_solve(predicted, grid, problem, config, linear)
            except StepFailure:
                pass
            else:
                report.predicted_starts += 1
                return out
        report.predictor_fallbacks += 1
    start = _tangent_start(state, t_next, grid, problem, config, linear)
    return newton_solve(start, grid, problem, config, linear)


def continuation(problem: SampledProblem, grid: Grid, config: SolverConfig,
                 force: bool = False):
    """March t from 0 to 1 with an adaptive step; returns (state, report).

    The curvature-pinching gate runs first unless ``force`` is set; the
    start state is the exact t = 0 solution (``evaluate_state`` of
    ``quadratic_seed``), and its monitors come from the Newton solve at
    t = 0.  Once two states are accepted, each Newton solve starts from the
    prediction through the last two or three of them (``_predicted_start``)
    when it is admissible, and otherwise, or when Newton fails from
    it, from the last accepted state (``_tangent_start``).  Only the t and
    active values of the two states before it are kept for the prediction,
    and no earlier Hessian stack.  One CondensedSolver serves every Newton
    step, so the box preconditioner is built at most once per call and only
    when some step needs a linear solve; a step retried after a Krylov stall
    uses it too.

    The first step is 1/``config.homotopy_steps``.  After an accepted step
    dt doubles, or quadruples if that step made at most two linear solves
    (``report.krylov_iters`` entries), and stays as it is if the step before
    was rejected; a step that would pass t = 1 is cut to end there.  A step
    that fails from the last accepted state halves the step it tried, and
    (t, dt, message) goes on ``report.rejected_steps``.  When dt falls below
    ``MIN_STEP`` raises ContinuationFailure carrying the last accepted state
    and report; a failure of the t = 0 solve raises it with no state.
    Problem data sampled on another grid raises ValueError up front.
    """
    counts = (problem.f_active.size, problem.phi_colloc.size)
    if counts != (grid.n_active, grid.n_colloc):
        raise ValueError(f"problem data has {counts[0]} f and {counts[1]} phi values, but the "
                         f"grid has {grid.n_active} active and {grid.n_colloc} collocation points")
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
    state = evaluate_state(quadratic_seed(grid).values, 0.0, grid, problem)
    if not state.admissible:
        raise ValueError("quadratic seed is not admissible on this grid")
    try:
        state = newton_solve(state, grid, problem, config, linear)
    except StepFailure as exc:
        # no state is accepted yet, so there is no step to halve
        raise ContinuationFailure(str(exc), state=None, report=report) from exc
    report.add(state)
    earlier = ()  # (t, active values) of up to two states accepted before ``state``, newest first
    dt = 1.0 / config.homotopy_steps
    grow = True  # False on the acceptance that follows a rejected step
    while state.t < 1.0:
        t_next = state.t + dt
        if t_next >= 1.0 - 1e-12:
            t_next, dt = 1.0, 1.0 - state.t
        solves = len(report.krylov_iters)
        try:
            accepted = _advance(state, earlier, t_next, grid, problem, config, linear)
        except StepFailure as exc:
            report.rejected_steps.append((state.t, dt, str(exc)))
            dt *= 0.5
            grow = False
            if dt < MIN_STEP:
                raise ContinuationFailure(
                    f"step size underflow below {MIN_STEP:.3g} at "
                    f"t={state.t:.6g}: {exc}",
                    state=state,
                    report=report,
                ) from exc
            continue
        earlier, state = ((state.t, state.field.values),) + earlier[:1], accepted
        report.add(state)
        if grow:
            dt *= 4.0 if len(report.krylov_iters) - solves <= 2 else 2.0
        grow = True
    return state, report
