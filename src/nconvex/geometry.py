"""Strictly convex computational domains: balls and axis-aligned ellipsoids.

Everything needed near the boundary is derived from closest-point
projection: signed distance, the outward normal extended along normal rays,
the distance Hessian in the principal frame, boundary curvatures, and the
curvature-pinching gate the solver checks before a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainSpec",
    "PinchingReport",
    "distance",
    "signed_distance",
    "project_to_boundary",
    "project_to_boundary_batch",
    "normal_field",
    "distance_hessian",
    "barrier_h",
    "boundary_samples",
    "mean_curvature_range",
    "pinching_check",
    "strip_mu_max",
]


@dataclass(frozen=True)
class DomainSpec:
    """A ball or axis-aligned ellipsoid with smooth, strictly convex boundary.

    The semi-axes alone fix the shape: equal axes make a ball, and ``n``,
    ``kind`` and ``is_ball`` are read from them.  ``mu0`` is the width of
    the boundary strip on which the distance function stays smooth; we take
    the minimal focal distance 1 / max(principal curvature), which is exact
    for both supported shapes.
    """

    center: tuple
    semi_axes: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if len(self.center) != self.n:
            raise ValueError("center length must match the number of semi-axes")
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not all(math.isfinite(a) and a > 0.0 for a in self.semi_axes):
            raise ValueError(f"semi-axes must be finite and positive, got {self.semi_axes}")

    @classmethod
    def ball(cls, radius: float, center=None, n: int = 3) -> "DomainSpec":
        return cls.ellipsoid((radius,) * n, center=center)

    @classmethod
    def ellipsoid(cls, semi_axes, center=None) -> "DomainSpec":
        axes = tuple(float(a) for a in semi_axes)
        if center is None:
            center = (0.0,) * len(axes)
        return cls(center=tuple(float(c) for c in center), semi_axes=axes)

    @property
    def n(self) -> int:
        return len(self.semi_axes)

    @property
    def is_ball(self) -> bool:
        return all(a == self.semi_axes[0] for a in self.semi_axes)

    @property
    def kind(self) -> str:
        return "ball" if self.is_ball else "ellipsoid"

    @property
    def radius(self) -> float:
        return self.semi_axes[0]

    @property
    def kappa_max_global(self) -> float:
        """Largest principal curvature anywhere on the boundary."""
        a = self.semi_axes
        return max(a) / min(a) ** 2

    @property
    def kappa_min_global(self) -> float:
        a = self.semi_axes
        return min(a) / max(a) ** 2

    @property
    def mu0(self) -> float:
        return 1.0 / self.kappa_max_global


def _center_ellipsoid_roots(domain: DomainSpec, x: np.ndarray):
    """Lagrange parameter of the closest boundary point, vectorized.

    Solves sum_i (a_i x_i / (a_i^2 + t))^2 = 1 per row by bisection on the
    monotone branch; t < 0 inside, t > 0 outside, t = 0 on the boundary.
    The bisection stops once an iteration leaves every bracket unchanged,
    since each later one would repeat it.
    """
    a2 = np.asarray(domain.semi_axes) ** 2
    ax = np.asarray(domain.semi_axes) * x
    # a zero coordinate's term is 0 at every t; moving its pole out of reach
    # keeps it an exact zero where t = -a_i^2 would give 0/0
    poles = np.where(ax != 0.0, a2, np.finfo(float).max)

    def g(t):
        return np.sum((ax / (poles + t[:, None])) ** 2, axis=1) - 1.0

    npts = x.shape[0]
    level = np.sum(x ** 2 / a2, axis=1)
    inside = level < 1.0
    # pole of g nearest to zero among axes with a nonzero coordinate
    pole = np.where(np.abs(x) > 1e-14 * math.sqrt(max(a2)), a2, np.inf).min(axis=1)
    lo = np.where(inside, -pole * (1.0 - 1e-12), 0.0)
    hi = np.full(npts, 0.0)
    # outside points: grow the bracket until g goes negative
    out = ~inside
    if np.any(out):
        width = np.full(npts, max(a2))
        for _ in range(80):
            bad = out & (g(hi) > 0.0)
            if not np.any(bad):
                break
            hi = np.where(bad, hi + width, hi)
            width = np.where(bad, width * 2.0, width)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        pos = g(mid) > 0.0
        new_lo = np.where(pos, mid, lo)
        new_hi = np.where(pos, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def project_to_boundary_batch(domain: DomainSpec, pts: np.ndarray):
    """Closest boundary point, outward normal and signed distance per row.

    Signed distance is positive inside the domain.  Works for points inside
    or outside; the domain center itself (where the projection is not
    unique) resolves to the endpoint of a shortest semi-axis.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    c = np.asarray(domain.center)
    x = pts - c
    if domain.is_ball:
        r = np.linalg.norm(x, axis=1)
        safe = np.where(r > 1e-300, r, 1.0)
        nu = x / safe[:, None]
        deg = r <= 1e-14 * domain.radius
        if np.any(deg):
            nu[deg] = 0.0
            nu[deg, 0] = 1.0
        y = c + domain.radius * nu
        d = domain.radius - r
        return y, nu, d
    a2 = np.asarray(domain.semi_axes) ** 2
    t = _center_ellipsoid_roots(domain, x)
    y = a2 * x / (a2 + t[:, None])
    deg = np.all(np.abs(x) <= 1e-14 * math.sqrt(max(a2)), axis=1)
    if np.any(deg):
        jmin = int(np.argmin(domain.semi_axes))
        y[deg] = 0.0
        y[deg, jmin] = domain.semi_axes[jmin]
    grad = y / a2
    nu = grad / np.linalg.norm(grad, axis=1)[:, None]
    gap = np.linalg.norm(x - y, axis=1)
    level = np.sum(x ** 2 / a2, axis=1)
    d = np.where(level <= 1.0, gap, -gap)
    return y + c, nu, d


def project_to_boundary(domain: DomainSpec, x):
    y, nu, d = project_to_boundary_batch(domain, np.asarray(x, dtype=float))
    return y[0], nu[0], float(d[0])


def signed_distance(domain: DomainSpec, x) -> float:
    """Distance to the boundary, positive inside and negative outside."""
    _, _, d = project_to_boundary(domain, x)
    return d


def distance(domain: DomainSpec, x) -> float:
    """Distance to the boundary for a point of the closed domain."""
    d = signed_distance(domain, x)
    if d < -1e-12 * max(domain.semi_axes):
        raise ValueError(f"point {np.asarray(x)} lies outside the domain")
    return max(d, 0.0)


def normal_field(domain: DomainSpec, x) -> np.ndarray:
    """Outward unit normal extended along normal rays into the strip.

    Defined where the distance function is smooth, i.e. for interior points
    with d(x) < mu0.
    """
    _, nu, d = project_to_boundary(domain, x)
    if d < -1e-12 * max(domain.semi_axes):
        raise ValueError("normal field queried outside the domain")
    if d >= domain.mu0:
        raise ValueError(
            f"normal field queried at depth {d:.3g} >= mu0 = {domain.mu0:.3g}"
        )
    return nu


def _frame_at(domain: DomainSpec, y: np.ndarray):
    """Principal frames at boundary points y of shape (N, n).

    Returns kappa (N, n-1) ascending, the principal directions (N, n-1, n)
    as rows, and the outward normals (N, n).
    """
    z = y - np.asarray(domain.center)
    if domain.is_ball:
        nu = z / np.linalg.norm(z, axis=1)[:, None]
        kappa = np.full((y.shape[0], domain.n - 1), 1.0 / domain.radius)
        return kappa, _tangent_basis(nu), nu
    a2 = np.asarray(domain.semi_axes) ** 2
    grad = 2.0 * z / a2
    gnorm = np.linalg.norm(grad, axis=1)
    nu = grad / gnorm[:, None]
    tang = _tangent_basis(nu)
    # shape operator of a level set: tangential part of Hess(F)/|grad F|
    shape_op = np.einsum("pik,k,pjk->pij", tang, 2.0 / a2, tang) / gnorm[:, None, None]
    kappa, vecs = np.linalg.eigh(0.5 * (shape_op + np.swapaxes(shape_op, 1, 2)))
    return kappa, np.swapaxes(vecs, 1, 2) @ tang, nu


def _tangent_basis(nu: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal tangent bases (N, n-1, n), rows = vectors."""
    n = nu.shape[1]
    # Householder reflection taking e_1 to nu
    v = nu.copy()
    v[:, 0] += np.where(nu[:, 0] < 0.0, -1.0, 1.0)
    v /= np.linalg.norm(v, axis=1)[:, None]
    house = np.eye(n) - 2.0 * v[:, :, None] * v[:, None, :]
    return np.swapaxes(house[:, :, 1:], 1, 2)


def _strip_projection(domain: DomainSpec, x, what: str):
    """(x is one point, y, nu, d) for one point or a stack; rejects outside points."""
    pts = np.asarray(x, dtype=float)
    y, nu, d = project_to_boundary_batch(domain, pts)
    if np.any(d < -1e-12 * max(domain.semi_axes)):
        raise ValueError(f"{what} queried outside the domain")
    return pts.ndim == 1, y, nu, d


def _distance_hessian_at(domain: DomainSpec, y: np.ndarray, d: np.ndarray):
    """Distance Hessians (N, n, n) at depths d below boundary points y.

    Eigenvalues are -kappa_i / (1 - kappa_i d) along the principal
    directions and 0 along the normal.  Also returns the principal
    curvatures at y.
    """
    kappa, dirs, _ = _frame_at(domain, y)
    denom = 1.0 - kappa * d[:, None]
    if np.any(denom <= 0.0):
        raise ValueError(
            f"focal point reached: kappa*d = {np.max(kappa * d[:, None]):.3g} >= 1"
        )
    return -np.einsum("pk,pki,pkj->pij", kappa / denom, dirs, dirs), kappa


def _barrier_hessian(k3: float, d: np.ndarray, nu: np.ndarray, d2d: np.ndarray):
    """Hessians of h = -d + K3 d^2 from the distance Hessians d2d; Dd = -nu."""
    return ((-1.0 + 2.0 * k3 * d)[:, None, None] * d2d
            + 2.0 * k3 * nu[:, :, None] * nu[:, None, :])


def distance_hessian(domain: DomainSpec, x) -> np.ndarray:
    """Hessian of the distance function at a strip point, or (N, n, n) at N points.

    Eigenvalues are -kappa_i / (1 - kappa_i d) along the principal
    directions of the projected boundary point and 0 along the normal.
    """
    single, y, _, d = _strip_projection(domain, x, "distance Hessian")
    hess, _ = _distance_hessian_at(domain, y, d)
    return hess[0] if single else hess


def barrier_h(domain: DomainSpec, k3: float, x):
    """Strip barrier h = -d + K3 d^2 with gradient and Hessian.

    The gradient is (-1 + 2 K3 d) Dd, the Hessian has eigenvalues
    (1 - 2 K3 d) kappa_i / (1 - kappa_i d) tangentially and 2 K3 along the
    normal; all positive while 2 K3 d < 1, so h is strictly convex there.
    Takes one point (n,) or a stack (N, n).
    """
    single, y, nu, d = _strip_projection(domain, x, "barrier")
    value = -d + k3 * d * d
    grad = (1.0 - 2.0 * k3 * d)[:, None] * nu  # (-1 + 2 K3 d) Dd with Dd = -nu
    hess = _barrier_hessian(k3, d, nu, _distance_hessian_at(domain, y, d)[0])
    if single:
        return float(value[0]), grad[0], hess[0]
    return value, grad, hess


def _fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _tensor_sphere(n: int, count: int) -> np.ndarray:
    """Deterministic near-uniform directions on S^{n-1} via angle grids."""
    per_axis = max(4, int(round(count ** (1.0 / (n - 1)))))
    grids = []
    for k in range(n - 1):
        if k < n - 2:
            grids.append(np.linspace(0.0, math.pi, per_axis))
        else:
            grids.append(np.linspace(0.0, 2.0 * math.pi, 2 * per_axis, endpoint=False))
    mesh = np.meshgrid(*grids, indexing="ij")
    angles = np.stack([m.ravel() for m in mesh], axis=1)
    pts = np.empty((angles.shape[0], n))
    sin_prod = np.ones(angles.shape[0])
    for k in range(n - 1):
        pts[:, k] = sin_prod * np.cos(angles[:, k])
        sin_prod = sin_prod * np.sin(angles[:, k])
    pts[:, n - 1] = sin_prod
    norm = np.linalg.norm(pts, axis=1)
    return pts[norm > 1e-12] / norm[norm > 1e-12, None]


def boundary_samples(domain: DomainSpec, count: int = 10000):
    """Deterministic boundary sample points with their principal curvatures.

    Directions come from a Fibonacci sphere for n = 3 and tensor angle
    grids for n >= 4; the semi-axis endpoints (where ellipsoid curvature
    extremes sit) are always appended.  Returns (points, kappa, normals) as
    arrays (N, n), (N, n-1) ascending and (N, n); H is ``kappa.sum(axis=1)``.
    """
    n = domain.n
    if n == 3:
        dirs = _fibonacci_sphere(count)
    else:
        dirs = _tensor_sphere(n, count)
    axes_pts = []
    for j in range(n):
        for sgn in (1.0, -1.0):
            e = np.zeros(n)
            e[j] = sgn
            axes_pts.append(e)
    dirs = np.vstack([dirs, np.array(axes_pts)])
    pts = np.asarray(domain.center) + dirs * np.asarray(domain.semi_axes)
    kappa, _, nu = _frame_at(domain, pts)
    return pts, kappa, nu


def mean_curvature_range(domain: DomainSpec) -> tuple[float, float]:
    """Smallest and largest mean curvature H = kappa_1 + ... + kappa_{n-1}.

    Exact on a ball, where H = (n-1) / radius; sampled on an ellipsoid
    (``boundary_samples`` with 4000 directions).
    """
    if domain.is_ball:
        h = (domain.n - 1) / domain.radius
        return h, h
    hs = boundary_samples(domain, 4000)[1].sum(axis=1)
    return float(hs.min()), float(hs.max())


@dataclass(frozen=True)
class PinchingReport:
    """Outcome of the curvature-pinching gate over boundary samples."""

    passes: bool
    margin_min: float  # min over samples of H/(2(n-1)(n-2)) - (kmax - kmin)
    worst_point: np.ndarray
    kappa_spread_max: float
    bound_min: float
    n: int
    corollary_passes: bool | None = None  # n = 3 variant kmax < 5/3 kmin
    corollary_agrees: bool | None = None

    def summary(self) -> str:
        verdict = "PASS" if self.passes else "FAIL"
        return (
            f"pinching {verdict}: min margin {self.margin_min:.6g}, "
            f"max spread {self.kappa_spread_max:.6g}, bound min {self.bound_min:.6g}"
        )


def pinching_check(domain: DomainSpec, count: int = 10000) -> PinchingReport:
    """Check kappa_max - kappa_min < H / (2(n-1)(n-2)) over the boundary.

    For n = 3 the equivalent form kappa_max < (5/3) kappa_min is evaluated
    alongside and compared pointwise.
    """
    n = domain.n
    if n < 3:
        raise ValueError("pinching gate is defined for n >= 3")
    denom = 2.0 * (n - 1) * (n - 2)
    if domain.is_ball:
        h = (n - 1) / domain.radius
        margin = h / denom
        report = PinchingReport(
            passes=True,
            margin_min=margin,
            worst_point=np.asarray(domain.center) + np.eye(n)[0] * domain.radius,
            kappa_spread_max=0.0,
            bound_min=margin,
            n=n,
            corollary_passes=True if n == 3 else None,
            corollary_agrees=True if n == 3 else None,
        )
        return report
    pts, kappa, _ = boundary_samples(domain, count)
    spreads = kappa[:, -1] - kappa[:, 0]
    bounds = np.sum(kappa, axis=1) / denom
    margins = bounds - spreads
    worst = int(np.argmin(margins))
    coro_pass = agrees = None
    if n == 3:
        coro = kappa[:, -1] < (5.0 / 3.0) * kappa[:, 0]
        coro_pass = bool(np.all(coro))
        agrees = bool(np.all((margins > 0.0) == coro))
    return PinchingReport(
        passes=bool(margins[worst] > 0.0),
        margin_min=float(margins[worst]),
        worst_point=pts[worst],
        kappa_spread_max=float(np.max(spreads)),
        bound_min=float(np.min(bounds)),
        n=n,
        corollary_passes=coro_pass,
        corollary_agrees=agrees,
    )


def strip_mu_max(domain: DomainSpec, k3: float, gamma: float) -> float:
    """Largest admissible strip width for the barrier machinery."""
    if k3 <= 0.0:
        raise ValueError("K3 must be positive")
    if not 0.5 <= gamma < 1.0:
        raise ValueError("gamma must lie in [1/2, 1)")
    return min(
        1.0 / (4.0 * k3),
        (2.0 - gamma) / (2.0 * k3),
        1.0 / (2.0 * domain.kappa_min_global),
        domain.mu0,
    )
