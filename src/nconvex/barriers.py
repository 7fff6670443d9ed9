"""Numeric verification of the boundary barrier machinery.

Three diagnostics evaluated on a converged solution over the boundary
strip: the strip function h = -d + K3 d^2 must push the linearized
operator above gamma kappa0 (1 + trace F), the sub barrier
P = g (Du.nu + u - phi) - (A + sigma N) h must stay nonnegative, and the
super barrier P-bar (same with +G) must stay nonpositive.  The reports
never abort a solve; they attach to the path report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from nconvex import woperator
from nconvex.discretize import (
    DiscreteField,
    Grid,
    SampledProblem,
    gradient_batch,
    hessian_batch,  # noqa: F401 (unused here; perfbench wraps this binding too)
    robin_residual,
    second_normal_derivative,
    seed_datum,
)
from nconvex.geometry import (
    DomainSpec,
    _barrier_hessian,
    _distance_hessian_at,
    mean_curvature_range,
    strip_mu_max,
)

__all__ = [
    "BarrierParams",
    "HBarrierReport",
    "BarrierReport",
    "recipe_params",
    "verify_h_inequality",
    "verify_sub_barrier",
    "verify_super_barrier",
    "barrier_section",
]


@dataclass(frozen=True)
class BarrierParams:
    """Constants of the barrier construction; see `recipe_params`."""

    k3: float
    beta: float
    cap_a: float
    sigma: float
    mu: float
    gamma: float
    epsilon: float

    def validate(self, domain: DomainSpec):
        if self.k3 <= 0 or self.beta <= 0 or self.cap_a <= 0:
            raise ValueError("K3, beta and A must be positive")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("sigma must lie in (0, 1]")
        if not 0.5 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [1/2, 1)")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        cap = strip_mu_max(domain, self.k3, self.gamma)
        if self.mu > cap * (1.0 + 1e-12):
            raise ValueError(f"strip width mu={self.mu:.4g} exceeds the admissible {cap:.4g}")
        if self.beta * self.mu / 2.0 > self.epsilon * (1.0 + 1e-12):
            raise ValueError("need beta * mu / 2 <= epsilon so that 1 <= g <= 1+epsilon")


def _kappa0_range(domain: DomainSpec):
    """Range of kappa0 = H / (n-1) over the boundary; on a ball ((n-1)/r)/(n-1),
    which is 1/r when n-1 is a power of two and within one ulp of it otherwise."""
    h_min, h_max = mean_curvature_range(domain)
    return h_min / (domain.n - 1), h_max / (domain.n - 1)


def recipe_params(domain: DomainSpec, state, grid: Grid, problem: SampledProblem,
                  gamma: float = 0.5, sigma: float = 0.5,
                  epsilon: float = 0.45) -> BarrierParams:
    """Barrier constants assembled from the computed solution's norms.

    K3 grows like 1/(1 - gamma); beta uses the curvature branch of its
    defining maximum (the alternative branch scales like a power of the
    norm ratio over epsilon and produces strips far below any desk-scale
    grid); A takes the largest of its three lower bounds with the unnamed
    constants estimated numerically from the solution.  The residual bound
    reads Du.nu + u - phi_t at the strip's active points
    (``_strip_data``), so a strip that holds none raises ValueError, as
    does problem data that is not callable.
    """
    n = domain.n
    k0_min, k0_max = _kappa0_range(domain)
    f_min = float(np.min(problem.f_active))
    f_max = float(np.max(problem.f_active))
    delta0 = 0.5 * (1.0 - gamma)
    k3 = max(
        1.0,
        gamma * k0_max * f_max ** (1.0 / n) / (n * f_min),
        1.0 / ((n - 1) * delta0 * k0_min),
    )
    beta = 4.0 * n * domain.kappa_max_global + 1.0
    mu = min(
        strip_mu_max(domain, k3, gamma),
        2.0 * epsilon / beta,
        epsilon / (2.0 * k3),
    )
    mon = state.monitors
    c1 = 1.0 + mon.sup_u + mon.sup_du
    c2 = (1.0 + mon.sup_u + mon.sup_du) * (1.0 + domain.kappa_max_global) / epsilon
    core = _strip_core(state.field, grid, problem, state.t, _strip_data(grid, mu))
    c3 = (1.0 + epsilon) * float(np.max(np.abs(core)))
    cap_a = max(
        3.0 * beta * c2,
        (beta * c1 + 2.0 * domain.kappa_max_global * n * f_max) / (gamma * k0_min),
        4.0 * c3 / mu,
        1.0,
    )
    params = BarrierParams(k3=k3, beta=beta, cap_a=cap_a, sigma=sigma, mu=mu,
                           gamma=gamma, epsilon=epsilon)
    params.validate(domain)
    return params


def _strip_data(grid: Grid, mu: float):
    """Projection data for strip active points; errors when the strip is empty.

    The grid keeps each active point's depth d and normal nu from its own
    projection, so the closest boundary point is y = x + d nu.
    """
    mask = grid.strip_mask(mu)
    if not np.any(mask):
        raise ValueError(
            f"boundary strip of width {mu:.4g} holds no active grid point "
            f"(h = {grid.h:.4g}); refine the grid or widen the strip"
        )
    pts = grid.active_pts[mask]
    d = grid.active_d[mask]
    nu = grid.active_nu[mask]
    return mask, pts, d, pts + d[:, None] * nu, nu


def _strip_core(field: DiscreteField, grid: Grid, problem: SampledProblem, t: float,
                strip):
    """Du.nu + u - phi_t at the points of a strip from `_strip_data`.

    phi_t = t phi + (1-t)(x.nu + |x|^2/2) is the homotopy boundary datum
    extended along normal rays; it needs callable problem data.
    """
    if problem.spec is None:
        raise ValueError("barrier verification needs callable problem data")
    mask, pts, _, _, nu = strip
    du = gradient_batch(field, grid)[mask]
    data = t * np.asarray(problem.spec.phi(pts), dtype=float) + (1.0 - t) * seed_datum(pts, nu)
    return np.einsum("ij,ij->i", du, nu) + field.values[mask] - data


@dataclass(frozen=True)
class HBarrierReport:
    """Pointwise check of F^ij h_ij >= gamma kappa0 (1 + trace F)."""

    min_value: float
    violations: int
    strip_points: int


def verify_h_inequality(domain: DomainSpec, state, grid: Grid,
                        params: BarrierParams) -> HBarrierReport:
    """Evaluate the strip inequality for h on the solution's linearization.

    The linearization is read off the state's Hessian stack.
    """
    params.validate(domain)
    mask, _, d, y, nu = _strip_data(grid, params.mu)
    fij = woperator.batch_linearization(state.hessians[mask])
    trace_f = np.trace(fij, axis1=1, axis2=2)
    d2d, kappa = _distance_hessian_at(domain, y, d)
    contracted = np.einsum("kij,kij->k", fij, _barrier_hessian(params.k3, d, nu, d2d))
    kappa0 = np.mean(kappa, axis=1)  # H / (n-1)
    values = contracted - params.gamma * kappa0 * (1.0 + trace_f)
    return HBarrierReport(
        min_value=float(np.min(values)),
        violations=int(np.sum(values < 0.0)),
        strip_points=int(values.size),
    )


@dataclass(frozen=True)
class BarrierReport:
    """Strip/boundary extrema of a barrier plus the implied normal bound."""

    kind: str  # "sub" or "super"
    strip_extreme: float  # min P over the strip, or max P-bar
    boundary_max_abs: float
    strip_points: int
    sup_unn: float
    inf_unn: float
    sigma_n: float
    implied_c: float


def _barrier_values(domain, state, grid, problem, params):
    """P and P-bar on the strip, the Robin residual and u_nunu on the boundary.

    P = g core - G and P-bar = g core + G share g, the core Du.nu + u - phi_t
    and G = (A + sigma N) h, all from one strip evaluation.
    """
    field = state.field
    strip = _strip_data(grid, params.mu)
    core = _strip_core(field, grid, problem, state.t, strip)
    d = strip[2]
    h_val = -d + params.k3 * d * d
    g_core = (1.0 - params.beta * h_val) * core
    big_g = (params.cap_a + params.sigma * state.monitors.sup_unn) * h_val
    return (g_core - big_g, g_core + big_g, robin_residual(field, grid, problem, state.t),
            second_normal_derivative(field, grid))


def _barrier_reports(domain, state, grid, problem, params):
    """The sub and super `BarrierReport`s from one `_barrier_values` evaluation."""
    params.validate(domain)
    sub_vals, super_vals, bvals, unn = _barrier_values(domain, state, grid, problem, params)
    sup_unn, inf_unn = float(np.max(unn)), float(np.min(unn))
    sigma_n = params.sigma * state.monitors.sup_unn
    shared = dict(boundary_max_abs=float(np.max(np.abs(bvals))),
                  strip_points=int(sub_vals.size), sup_unn=sup_unn, inf_unn=inf_unn,
                  sigma_n=sigma_n)
    return (
        BarrierReport(kind="sub", strip_extreme=float(np.min(sub_vals)),
                      implied_c=sup_unn - sigma_n, **shared),
        BarrierReport(kind="super", strip_extreme=float(np.max(super_vals)),
                      implied_c=-inf_unn - sigma_n, **shared),
    )


def verify_sub_barrier(domain: DomainSpec, state, grid: Grid,
                       problem: SampledProblem, params: BarrierParams) -> BarrierReport:
    """P = g (Du.nu + u - phi_t) - G: expected >= 0 in the strip, 0 on the boundary.

    ``implied_c`` is the constant the double-normal bound
    sup u_nunu <= C + sigma N would need, read off the solution.
    """
    return _barrier_reports(domain, state, grid, problem, params)[0]


def verify_super_barrier(domain: DomainSpec, state, grid: Grid,
                         problem: SampledProblem, params: BarrierParams) -> BarrierReport:
    """P-bar = g (Du.nu + u - phi_t) + G: expected <= 0 in the strip."""
    return _barrier_reports(domain, state, grid, problem, params)[1]


def barrier_section(domain: DomainSpec, state, grid: Grid, problem: SampledProblem,
                    params: BarrierParams) -> dict:
    """All three verifier reports in JSON-ready form; sub and super share one strip."""
    h_report = verify_h_inequality(domain, state, grid, params)
    sub, sup = _barrier_reports(domain, state, grid, problem, params)
    return {
        "params": {
            "K3": params.k3,
            "beta": params.beta,
            "A": params.cap_a,
            "sigma": params.sigma,
            "mu": params.mu,
            "gamma": params.gamma,
            "epsilon": params.epsilon,
        },
        "h_inequality": asdict(h_report),
        "sub": asdict(sub),
        "super": asdict(sup),
    }
