"""Cartesian-grid discretization with boundary-trace collocation.

Unknowns are the field values at active grid points (strictly inside, depth
greater than h/2) plus boundary trace values at collocation points, which
are the closest-point projections of the stencil neighbors that fall
outside the active set.  Those outside neighbors ("closure" points) are not
unknowns: each lies on the normal ray through its collocation point, so its
value is the quadratic along that ray determined by the trace and two
interpolated interior ray values.  The construction is exact for quadratic
fields, which pins the discrete problem to the continuum one at the
homotopy start.

The interior equation is det W(D2u) = det(tr(D2u) I - D2u) = f, the lift at
m = n - 1 evaluated through its n x n form M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from nconvex import woperator
from nconvex.geometry import DomainSpec, project_to_boundary_batch

__all__ = [
    "Grid",
    "DiscreteField",
    "ProblemSpec",
    "SampledProblem",
    "sample_problem",
    "homotopy_constant",
    "seed_datum",
    "hessian_batch",
    "gradient_batch",
    "interior_residual",
    "robin_residual",
    "normal_derivative",
    "second_normal_derivative",
]


def homotopy_constant(n: int) -> float:
    """Interior value det(W) takes on the quadratic seed u = |x|^2 / 2.

    Each lifted eigenvalue of the identity Hessian is m = n-1, and the
    lift has dimension n, so the constant is (n-1)^n.
    """
    return float((n - 1) ** n)


@dataclass(frozen=True)
class ProblemSpec:
    """Problem data: positive right-hand side f and boundary datum phi.

    Both are vectorized callables mapping (N, n) point arrays to (N,)
    values; phi must be defined on the closed domain (the barrier
    diagnostics evaluate it on the boundary strip).
    """

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("PDE problems need n >= 3")


@dataclass(frozen=True)
class SampledProblem:
    """Problem data pinned to a grid: f at active points, phi at collocation.

    Construction rejects data the solver cannot use: f must be finite and
    positive and phi finite, and the error names the first bad index.
    """

    n: int
    f_active: np.ndarray
    phi_colloc: np.ndarray
    spec: ProblemSpec | None = None

    def __post_init__(self):
        bad_f = np.flatnonzero(~(np.isfinite(self.f_active) & (self.f_active > 0.0)))
        if bad_f.size:
            i = int(bad_f[0])
            raise ValueError(f"right-hand side must be finite and positive; "
                             f"f at active point {i} is {self.f_active[i]}")
        bad_phi = np.flatnonzero(~np.isfinite(self.phi_colloc))
        if bad_phi.size:
            i = int(bad_phi[0])
            raise ValueError(f"boundary datum must be finite; "
                             f"phi at collocation point {i} is {self.phi_colloc[i]}")


def sample_problem(problem: ProblemSpec, grid: "Grid") -> SampledProblem:
    if problem.n != grid.n:
        raise ValueError(f"problem dimension {problem.n} != grid dimension {grid.n}")
    f_vals = np.asarray(problem.f(grid.active_pts), dtype=float)
    if f_vals.shape != (grid.n_active,):
        raise ValueError("f must return one value per active point")
    phi_vals = np.asarray(problem.phi(grid.colloc_y), dtype=float)
    if phi_vals.shape != (grid.n_colloc,):
        raise ValueError("phi must return one value per collocation point")
    return SampledProblem(n=grid.n, f_active=f_vals, phi_colloc=phi_vals, spec=problem)


def seed_datum(pts: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Robin datum x.nu + |x|^2/2 that makes the seed u = |x|^2/2 exact."""
    return np.einsum("ij,ij->i", pts, nu) + 0.5 * np.sum(pts**2, axis=1)


def _stencil_offsets(n: int) -> np.ndarray:
    """Offsets used by the centered Hessian stencil: 0, +-e_i, +-e_i +- e_j."""
    offsets = [np.zeros(n, dtype=np.int64)]
    for i in range(n):
        for s in (1, -1):
            e = np.zeros(n, dtype=np.int64)
            e[i] = s
            offsets.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    e = np.zeros(n, dtype=np.int64)
                    e[i] = si
                    e[j] = sj
                    offsets.append(e)
    return np.stack(offsets)


def _quad_basis(xi: np.ndarray) -> np.ndarray:
    """Monomials up to degree two at scaled coordinates, constant first."""
    npts, n = xi.shape
    cols = [np.ones(npts)]
    for i in range(n):
        cols.append(xi[:, i])
    for i in range(n):
        for j in range(i, n):
            cols.append(xi[:, i] * xi[:, j])
    return np.stack(cols, axis=1)


def _wls_value_row(nbr_pts: np.ndarray, p: np.ndarray, h: float, rho: float):
    """Weights lam with u(p) ~= lam . u(neighbors), exact for quadratics.

    Weighted least squares with a Wendland-style weight; returns None when
    the local design matrix is rank deficient (caller widens the search).
    """
    q = 1 + p.size + p.size * (p.size + 1) // 2
    if nbr_pts.shape[0] < q + 2:
        return None
    xi = (nbr_pts - p) / h
    basis = _quad_basis(xi)
    r2 = np.sum((nbr_pts - p) ** 2, axis=1) / rho**2
    w = np.maximum(0.0, 1.0 - r2) ** 2
    sw = np.sqrt(w)
    design = basis * sw[:, None]
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-1] <= 1e-9 * s[0]:
        return None
    # value row of the weighted pseudoinverse: lam = sqrt(W) U S^-1 (V^T)[:,0]
    lam = (u @ (vt[:, 0] / s)) * sw
    return lam


class Grid:
    """Uniform Cartesian grid over a strictly convex domain.

    Built once per (domain, resolution); everything downstream (residuals,
    Jacobians, barrier evaluation) reads the precomputed index maps and
    sparse operators stored here.
    """

    def __init__(self, domain: DomainSpec, resolution: int):
        if resolution < 7:
            raise ValueError("resolution must be at least 7")
        self.domain = domain
        self.n = domain.n
        self.resolution = int(resolution)
        a = np.asarray(domain.semi_axes)
        c = np.asarray(domain.center)
        self.h = 2.0 * float(np.max(a)) / (resolution - 1)
        half_counts = np.ceil(a / self.h).astype(np.int64) + 2
        self.origin = c - half_counts * self.h
        self.shape = tuple(int(2 * k + 1) for k in half_counts)
        self.box_size = int(np.prod(self.shape))
        self.strides = np.array(
            [int(np.prod(self.shape[i + 1:])) for i in range(self.n)], dtype=np.int64
        )
        self._classify_points()
        self._build_collocation()
        self._build_stencil_maps()

    # -- construction --------------------------------------------------------

    def _classify_points(self):
        ks = np.indices(self.shape).reshape(self.n, -1).T.astype(np.int64)
        pts = self.origin + ks * self.h
        _, _, d = project_to_boundary_batch(self.domain, pts)
        active_mask = d > 0.5 * self.h
        offsets = _stencil_offsets(self.n)
        self.offsets = offsets
        active_lin = np.flatnonzero(active_mask)
        active_k = ks[active_lin]
        # stencil neighbors that are not active become closure (ghost) points
        ghost_flags = np.zeros(self.box_size, dtype=bool)
        for off in offsets[1:]:
            tgt_k = active_k + off
            if np.any(tgt_k < 0) or np.any(tgt_k >= np.asarray(self.shape)):
                raise AssertionError("stencil leaves the padded box")
            tgt_lin = tgt_k @ self.strides
            ghost_flags[tgt_lin[~active_mask[tgt_lin]]] = True
        ghost_lin = np.flatnonzero(ghost_flags)
        self.active_idx = active_lin
        self.active_k = active_k
        self.active_pts = pts[active_lin]
        self.active_d = d[active_lin]
        self.ghost_idx = ghost_lin
        self.ghost_pts = pts[ghost_lin]
        self.n_active = active_lin.size
        self.n_ghost = ghost_lin.size
        col = np.full(self.box_size, -1, dtype=np.int64)
        col[active_lin] = np.arange(self.n_active)
        self._box_to_active = col
        gcol = np.full(self.box_size, -1, dtype=np.int64)
        gcol[ghost_lin] = np.arange(self.n_ghost)
        self._box_to_ghost = gcol

    def _build_collocation(self):
        y, nu, d = project_to_boundary_batch(self.domain, self.ghost_pts)
        tol = 1e-9 * max(self.domain.semi_axes)
        keys = np.round(y / tol).astype(np.int64)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        self.colloc_y = y[first]
        self.colloc_nu = nu[first]
        self.n_colloc = int(first.size)
        self.ghost_colloc = inverse
        self.ghost_s = -d  # signed ray coordinate: positive outside
        self.colloc_quad = seed_datum(self.colloc_y, self.colloc_nu)
        self.delta = self.h
        tree = cKDTree(self.active_pts)
        rows1, cols1, vals1 = [], [], []
        rows2, cols2, vals2 = [], [], []
        for j in range(self.n_colloc):
            for depth, (rows, cols, vals) in ((1, (rows1, cols1, vals1)),
                                              (2, (rows2, cols2, vals2))):
                p = self.colloc_y[j] - depth * self.delta * self.colloc_nu[j]
                lam, idx = self._interp_weights(tree, p)
                rows.extend([j] * len(idx))
                cols.extend(idx)
                vals.extend(lam)
        shape = (self.n_colloc, self.n_active)
        self.W1 = sp.csr_matrix((vals1, (rows1, cols1)), shape=shape)
        self.W2 = sp.csr_matrix((vals2, (rows2, cols2)), shape=shape)
        # closure: ghost value = quadratic along its ray through the trace
        dl = self.delta
        s = self.ghost_s
        l0 = (s + dl) * (s + 2 * dl) / (2 * dl * dl)
        l1 = -s * (s + 2 * dl) / (dl * dl)
        l2 = s * (s + dl) / (2 * dl * dl)
        pick = sp.csr_matrix(
            (np.ones(self.n_ghost), (np.arange(self.n_ghost), self.ghost_colloc)),
            shape=(self.n_ghost, self.n_colloc),
        )
        c_u = sp.diags(l1) @ pick @ self.W1 + sp.diags(l2) @ pick @ self.W2
        c_b = sp.diags(l0) @ pick
        self.C = sp.hstack([c_u, c_b], format="csr")
        # constant Jacobian of the Robin rows: u_nu + u(y)
        ident = sp.identity(self.n_colloc, format="csr")
        robin_u = (-4.0 * self.W1 + self.W2) / (2.0 * dl)
        robin_b = (3.0 / (2.0 * dl) + 1.0) * ident
        self.robin_jac = sp.hstack([robin_u, robin_b], format="csr")

    def _interp_weights(self, tree, p):
        rho = 2.5 * self.h
        for _ in range(5):
            idx = sorted(tree.query_ball_point(p, rho))
            if idx:
                lam = _wls_value_row(self.active_pts[idx], p, self.h, rho)
                if lam is not None:
                    return lam, idx
            rho *= 1.4
        raise ValueError(
            "boundary collocation stencil is rank deficient; the grid is too "
            "coarse for this domain"
        )

    def _build_stencil_maps(self):
        h2 = self.h * self.h
        terms = []
        for off in self.offsets:
            nz = np.flatnonzero(off)
            if nz.size == 0:
                terms.append([(i, i, -2.0 / h2) for i in range(self.n)])
            elif nz.size == 1:
                i = int(nz[0])
                terms.append([(i, i, 1.0 / h2)])
            else:
                i, j = int(nz[0]), int(nz[1])
                c = off[i] * off[j] / (4.0 * h2)
                terms.append([(i, j, c), (j, i, c)])
        self.offset_hess_terms = terms
        grad_terms = []
        for off in self.offsets:
            nz = np.flatnonzero(off)
            if nz.size == 1:
                i = int(nz[0])
                grad_terms.append([(i, off[i] / (2.0 * self.h))])
            else:
                grad_terms.append([])
        self.offset_grad_terms = grad_terms
        tgt = np.empty((len(self.offsets), self.n_active), dtype=np.int64)
        for s_idx, off in enumerate(self.offsets):
            tgt[s_idx] = (self.active_k + off) @ self.strides
        self.tgt_idx = tgt
        covered = (self._box_to_active[tgt] >= 0) | (self._box_to_ghost[tgt] >= 0)
        if not np.all(covered):
            raise AssertionError("active stencil neighbor is neither active nor closure")

    # -- field plumbing ------------------------------------------------------

    @property
    def n_unknowns(self) -> int:
        return self.n_active + self.n_colloc

    def box_values(self, field: "DiscreteField") -> np.ndarray:
        """Full box value array with closure points filled from the field."""
        field.check(self)
        v = np.zeros(self.box_size)
        v[self.active_idx] = field.values
        if self.n_ghost:
            v[self.ghost_idx] = self.C @ field.pack()
        return v

    def strip_mask(self, mu: float) -> np.ndarray:
        """Active-point mask for the boundary strip of width mu."""
        return self.active_d < mu


@dataclass
class DiscreteField:
    """Grid unknowns: values at active points, trace values at collocation."""

    values: np.ndarray
    trace: np.ndarray

    def check(self, grid: Grid):
        if self.values.shape != (grid.n_active,) or self.trace.shape != (grid.n_colloc,):
            raise ValueError("field length does not match the grid masks")
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.trace))):
            raise ValueError("field contains non-finite values")

    def pack(self) -> np.ndarray:
        return np.concatenate([self.values, self.trace])

    @classmethod
    def unpack(cls, x: np.ndarray, grid: Grid) -> "DiscreteField":
        return cls(values=x[: grid.n_active].copy(), trace=x[grid.n_active:].copy())

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "DiscreteField":
        return cls(
            values=np.asarray(fn(grid.active_pts), dtype=float),
            trace=np.asarray(fn(grid.colloc_y), dtype=float),
        )

    def copy(self) -> "DiscreteField":
        return DiscreteField(values=self.values.copy(), trace=self.trace.copy())


def hessian_batch(field: DiscreteField, grid: Grid) -> np.ndarray:
    """Centered-stencil Hessians at every active point, (N, n, n)."""
    v = grid.box_values(field)
    slot = v[grid.tgt_idx]
    d2 = np.zeros((grid.n_active, grid.n, grid.n))
    for s_idx, terms in enumerate(grid.offset_hess_terms):
        for i, j, c in terms:
            d2[:, i, j] += c * slot[s_idx]
    return d2


def gradient_batch(field: DiscreteField, grid: Grid) -> np.ndarray:
    """Centered first differences at every active point, (N, n)."""
    v = grid.box_values(field)
    slot = v[grid.tgt_idx]
    g = np.zeros((grid.n_active, grid.n))
    for s_idx, terms in enumerate(grid.offset_grad_terms):
        for i, c in terms:
            g[:, i] += c * slot[s_idx]
    return g


def normal_derivative(field: DiscreteField, grid: Grid) -> np.ndarray:
    """Outward normal derivative at collocation points (one-sided, 3 nodes)."""
    field.check(grid)
    dl = grid.delta
    return (3.0 * field.trace - 4.0 * (grid.W1 @ field.values)
            + grid.W2 @ field.values) / (2.0 * dl)


def second_normal_derivative(field: DiscreteField, grid: Grid) -> np.ndarray:
    """Double normal derivative u_nunu at collocation points."""
    field.check(grid)
    dl = grid.delta
    return (field.trace - 2.0 * (grid.W1 @ field.values)
            + grid.W2 @ field.values) / (dl * dl)


def interior_residual(field: DiscreteField, grid: Grid, problem: SampledProblem,
                      t: float) -> np.ndarray:
    """det(W(D2u)) - t f - (1-t) c0 at every active point."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"homotopy parameter t={t} outside [0, 1]")
    d2 = hessian_batch(field, grid)
    det = woperator.batch_det_w(d2)
    c0 = homotopy_constant(grid.n)
    return det - t * problem.f_active - (1.0 - t) * c0


def robin_residual(field: DiscreteField, grid: Grid, problem: SampledProblem,
                   t: float) -> np.ndarray:
    """u_nu + u - t phi - (1-t)(y.nu + |y|^2/2) at collocation points."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"homotopy parameter t={t} outside [0, 1]")
    data = t * problem.phi_colloc + (1.0 - t) * grid.colloc_quad
    return normal_derivative(field, grid) + field.trace - data
