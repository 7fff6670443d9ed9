"""Strictly convex computational domains: balls and axis-aligned ellipsoids.

Near the boundary everything starts from one batched closest-point
projection, ``project_to_boundary_batch``: the closest point, the outward
normal extended along normal rays, and the signed distance d.  The grid
projects its points once and keeps d and the normal; the strip kernels
``_distance_hessian_at`` and ``_barrier_hessian`` turn them into the
Hessians of d and of the barrier h = -d + K3 d^2 in the principal frame.
The module also samples boundary curvatures for the curvature-pinching gate
the solver checks before a run, and bounds the barrier strip's width.  The
principal frames come from the shape operator, a 2 x 2 matrix at n = 3
whose spectrum and eigenvectors are closed forms (``_principal_2x2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainSpec",
    "PinchingReport",
    "project_to_boundary_batch",
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


# Safeguarded Newton iterations a projection row may take.  Rows converge in
# at most a few; one still live after this many is an error, not a result.
_ROOT_ITERATIONS = 100


def _center_ellipsoid_roots(domain: DomainSpec, x: np.ndarray):
    """Lagrange parameter t of the closest boundary point, vectorized.

    The closest point of a centred x is y_i = a_i^2 x_i / (a_i^2 + t), where
    t is the root of g(t) = sum_i (a_i x_i / (a_i^2 + t))^2 = 1 on
    [-min a_i^2, inf): t < 0 inside, t > 0 outside, t = 0 on the boundary.
    g is convex and decreasing there.  The root lies above every one-term
    root a_i |x_i| - a_i^2, where that term alone is 1, and below
    |a x| - min a_i^2 (and 0 inside).  Safeguarded Newton starts at the
    root of the ball through x of radius a, a^2 (sqrt(L) - 1) with
    L = sum_i x_i^2 / a_i^2 and a^2 = |x|^2 / L, clipped into that bracket,
    and takes a bisection step whenever a Newton step would leave it.  A row
    stops when g = 1 or its Newton step or its bracket is below
    4 eps max(max a_i^2, |t|), so a boundary point stops after one
    iteration, and its root does not depend on the rest of the batch.  The
    |t| term matters far outside, where t grows like a |x| and its float
    spacing passes eps max a_i^2.  A row still live after
    ``_ROOT_ITERATIONS`` raises RuntimeError.  The terms are held axis by
    axis, (n, N), so each sum over the axes is n - 1 vector additions.

    A coordinate below 1e-14 max a_i counts as zero: its term vanishes at
    every t.  When every coordinate on a shortest axis is zero and
    g(-min a_i^2) <= 1 (a point of that axis plane inside the evolute), the
    root is t = -min a_i^2 exactly and the closest point leaves the plane.
    """
    a = np.asarray(domain.semi_axes)[:, None]
    a2 = a * a
    xt = np.ascontiguousarray(x.T)
    ax = np.where(np.abs(xt) > 1e-14 * a.max(), a * np.abs(xt), 0.0)
    # a zero term is 0/inf = 0 at every t, also at t = -a_i^2
    poles = np.where(ax > 0.0, a2, np.inf)
    eps4 = 4.0 * np.finfo(float).eps
    # the largest one-term root; a zero term on a shortest axis gives -min a_i^2
    lo = np.max(ax - a2, axis=0)
    level = np.sum(xt ** 2 / a2, axis=0)
    # g(t) <= |a x|^2 / (min a_i^2 + t)^2, and g(0) < 1 inside
    hi = np.sqrt(np.sum(ax * ax, axis=0)) - a2.min()
    hi = np.maximum(lo, np.where(level < 1.0, np.minimum(hi, 0.0), hi))
    # the centre has level 0 and lo = hi, so it never iterates
    ball = np.divide(np.sum(xt ** 2, axis=0), level, out=np.zeros_like(level), where=level > 0.0)
    t = np.clip(ball * (np.sqrt(level) - 1.0), lo, hi)
    live = np.flatnonzero(lo < hi)
    for _ in range(_ROOT_ITERATIONS):
        if live.size == 0:
            break
        tl = t[live]
        den = np.take(poles, live, axis=1) + tl
        r2 = (np.take(ax, live, axis=1) / den) ** 2
        g = np.sum(r2, axis=0)
        lol = np.where(g > 1.0, tl, lo[live])
        hil = np.where(g < 1.0, tl, hi[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (g - 1.0) / (2.0 * np.sum(r2 / den, axis=0))
        nxt = tl + step
        lo[live], hi[live] = lol, hil
        t[live] = np.where((nxt >= lol) & (nxt <= hil), nxt, 0.5 * (lol + hil))
        tol = eps4 * np.maximum(a2.max(), np.abs(tl))
        # g = 1 gives a zero step; a NaN step keeps its row live
        live = live[~((np.abs(step) <= tol) | (hil - lol <= tol))]
    if live.size:
        raise RuntimeError(
            f"closest-point projection did not converge in {_ROOT_ITERATIONS} iterations "
            f"at {live.size} points; the first is row {live[0]}, "
            f"{x[live[0]]} from the centre")
    return t


def project_to_boundary_batch(domain: DomainSpec, pts: np.ndarray):
    """Closest boundary point, outward normal and signed distance per row.

    Signed distance is positive inside the domain.  Works for points inside
    or outside; where the closest point is not unique (the domain center, or
    a point on a principal axis inside the evolute) one of them is returned:
    the center resolves to the endpoint of a shortest semi-axis.  A
    non-finite point raises ValueError naming the first such row.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if not np.isfinite(pts).all():
        i = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
        raise ValueError(f"cannot project a non-finite point: row {i} is {pts[i]}")
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
    a = np.asarray(domain.semi_axes)
    a2 = a * a
    t = _center_ellipsoid_roots(domain, x)
    den = a2 + t[:, None]
    # zero coordinates stay exact zeros, also where t lands on -a_i^2
    y = np.divide(a2 * x, den, out=np.zeros_like(x), where=(den > 0.0) & (x != 0.0))
    flat = den <= 0.0
    rows = np.flatnonzero(flat.any(axis=1))
    if rows.size:
        # t = -min a_i^2: the shortest axes share the level set's remainder,
        # along the point's own direction in their plane, else the first axis
        rest = np.sqrt(np.maximum(0.0, 1.0 - np.sum((y[rows] / a) ** 2, axis=1)))
        lateral = np.where(flat[rows], x[rows], 0.0)
        norm = np.linalg.norm(lateral, axis=1)
        first = np.argmax(flat[rows], axis=1)
        lateral[norm == 0.0, first[norm == 0.0]] = 1.0
        lateral /= np.linalg.norm(lateral, axis=1)[:, None]
        y[rows] += (a.min() * rest)[:, None] * lateral
    # a2 + t is small deep inside an eccentric ellipsoid and magnifies the
    # round-off in t; rescaling puts y back on the level set
    y /= np.sqrt(np.sum(y ** 2 / a2, axis=1))[:, None]
    grad = y / a2
    nu = grad / np.linalg.norm(grad, axis=1)[:, None]
    gap = np.linalg.norm(x - y, axis=1)
    level = np.sum(x ** 2 / a2, axis=1)
    d = np.where(level <= 1.0, gap, -gap)
    return y + c, nu, d


def _frame_at(domain: DomainSpec, y: np.ndarray):
    """Principal frames at boundary points y of shape (N, n).

    Returns kappa (N, n-1) ascending, the principal directions (N, n-1, n)
    as rows, and the outward normals (N, n).  At an umbilic point any
    orthonormal tangent pair is returned.
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
    shape_op = 0.5 * (shape_op + np.swapaxes(shape_op, 1, 2))
    if domain.n == 3:
        kappa, rows = _principal_2x2(shape_op)
    else:
        kappa, vecs = np.linalg.eigh(shape_op)
        rows = np.swapaxes(vecs, 1, 2)
    return kappa, rows @ tang, nu


def _principal_2x2(shape_op: np.ndarray):
    """Ascending eigenvalues (N, 2) and eigenvector rows (N, 2, 2) of symmetric 2 x 2 matrices.

    The eigenvalues are mid -+ hypot(half, off), half = (s00 - s11) / 2 and
    off = s01.  The eigenvector of the larger is (half + r, off) when
    half >= 0 and (off, r - half) otherwise, whichever adds no cancellation;
    the other is its rotation by a right angle.  At an umbilic point, where
    r = 0 and every direction is principal, the rows are e_2 and e_1.
    """
    s00, s01, s11 = shape_op[:, 0, 0], shape_op[:, 0, 1], shape_op[:, 1, 1]
    mid, half = 0.5 * (s00 + s11), 0.5 * (s00 - s11)
    rad = np.hypot(half, s01)
    x = np.where(half >= 0.0, half + rad, s01)
    y = np.where(half >= 0.0, s01, rad - half)
    size = np.hypot(x, y)
    umbilic = size == 0.0
    size[umbilic] = 1.0
    x = np.where(umbilic, 1.0, x / size)
    y /= size
    kappa = np.stack([mid - rad, mid + rad], axis=1)
    return kappa, np.stack([np.stack([-y, x], axis=1), np.stack([x, y], axis=1)], axis=1)


def _tangent_basis(nu: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal tangent bases (N, n-1, n), rows = vectors."""
    n = nu.shape[1]
    # Householder reflection taking e_1 to nu
    v = nu.copy()
    v[:, 0] += np.where(nu[:, 0] < 0.0, -1.0, 1.0)
    v /= np.linalg.norm(v, axis=1)[:, None]
    house = np.eye(n) - 2.0 * v[:, :, None] * v[:, None, :]
    return np.swapaxes(house[:, :, 1:], 1, 2)


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
    """Hessians of h = -d + K3 d^2 from the distance Hessians d2d; Dd = -nu.

    The eigenvalues are (1 - 2 K3 d) kappa_i / (1 - kappa_i d) tangentially
    and 2 K3 along the normal: all positive while 2 K3 d < 1, so h is
    strictly convex there.
    """
    return ((-1.0 + 2.0 * k3 * d)[:, None, None] * d2d
            + 2.0 * k3 * nu[:, :, None] * nu[:, None, :])


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


# Boundary sample directions the pinching gate checks on an ellipsoid.
_PINCHING_SAMPLES = 10000


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


def pinching_check(domain: DomainSpec) -> PinchingReport:
    """Check kappa_max - kappa_min < H / (2(n-1)(n-2)) over the boundary.

    An ellipsoid is checked at ``boundary_samples`` of ``_PINCHING_SAMPLES``
    directions.  For n = 3 the equivalent form kappa_max < (5/3) kappa_min
    is evaluated alongside and compared pointwise.
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
    pts, kappa, _ = boundary_samples(domain, _PINCHING_SAMPLES)
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
