"""Cartesian-grid discretization with boundary-trace collocation.

Unknowns are the field values at active grid points (strictly inside, depth
greater than h/2); the trace values at collocation points, the
closest-point projections of the stencil neighbors outside the active set,
follow from them and t through the Robin rows (``field_at``).  Those
outside neighbors ("closure" points) are not unknowns: each lies on the
normal ray through its collocation point, so its value is the quadratic
along that ray determined by the trace and two interpolated interior ray
values.  Those come from moving-least-squares rows (``W1``, ``W2``) built
in one pass over the targets of both depths on the lattice, with no
neighbor search: the candidate nodes of a target are its grid cell's
corner plus the integer offsets of one fixed table per radius, so one
quadratic design at the offsets serves a whole block of targets and only
the weights differ.  Every Gram matrix of a block comes from one matrix
product of the weights with the design's moment table; per target, one
Cholesky factorization of the target-centred Gram matrix (10 x 10 at
n = 3) gives the solve, its one refinement step and a certificate for the
rank test.  Only the targets with too few nodes or a rank-deficient design
are tried again at a wider radius.  The construction is exact for
quadratic fields, which pins the discrete problem to the continuum one at
the homotopy start.

Classification projects every point of the box that can be active once,
and the grid keeps each active point's depth and normal from it; the
barrier strip reads them instead of projecting again.

The stencil is held as data on the Grid: an index ``nbr`` of each stencil
neighbor into the extended vector [active values; closure values], the
sparse ``extension`` map from the field [values; trace] to that vector,
and Hessian and gradient coefficient matrices with one row per offset.
Hessians and gradients are one gather and one matrix product, and the
same coefficients contracted with the det W gradient give the stencil
matrix of the Newton linearization on the extended vector.  The one-sided
normal derivative and the Robin rows share one stored block, ``robin_u``
on the active values; each row touches its own trace value alone, with the
scalar 3/(2 delta) in u_nu and ``robin_diag`` = 3/(2 delta) + 1 in u_nu + u.

The interior equation is det W(D2u) = det(tr(D2u) I - D2u) = f, the lift at
m = n - 1 evaluated through its n x n form M.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from nconvex import woperator
from nconvex.geometry import DomainSpec, project_to_boundary_batch

__all__ = [
    "Grid",
    "DiscreteField",
    "ProblemSpec",
    "SampledProblem",
    "sample_problem",
    "manufactured_problem",
    "homotopy_constant",
    "seed_datum",
    "robin_datum",
    "field_at",
    "hessian_batch",
    "gradient_batch",
    "hessian_contraction",
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
    return SampledProblem(f_active=f_vals, phi_colloc=phi_vals, spec=problem)


def manufactured_problem(domain: DomainSpec, amplitude: float, direction=None,
                         name: str = "manufactured"):
    """(problem, u*) whose exact solution is u* = |x|^2/2 + a exp(w.x) on ``domain``.

    For a unit w (e1 when ``direction`` is None) D2u* = I + b w w^T with
    b = a exp(w.x), whose lift M has spectrum (n-1+b) n-1 times and n-1
    once, so f = (n-1)(n-1+b)^(n-1); phi = Du*.nu + u* with nu the normal
    of the closest boundary point.  a = 0 is the quadratic seed: f is
    ``homotopy_constant(n)`` and u* is |x|^2/2.  A ``direction`` that is
    not a unit vector of length n raises ValueError, since f holds only
    for |w| = 1.
    """
    n = domain.n
    w = np.eye(n)[0] if direction is None else np.asarray(direction, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"direction must have {n} components, got shape {w.shape}")
    norm = float(np.linalg.norm(w))
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"direction must be a unit vector, got norm {norm!r}")

    def u_star(pts):
        return 0.5 * np.sum(pts**2, axis=1) + amplitude * np.exp(pts @ w)

    def f(pts):
        b = amplitude * np.exp(pts @ w)
        return (n - 1) * (n - 1 + b) ** (n - 1)

    def phi(pts):
        _, nu, _ = project_to_boundary_batch(domain, pts)
        grad = pts + (amplitude * np.exp(pts @ w))[:, None] * w
        return np.einsum("ij,ij->i", grad, nu) + u_star(pts)

    return ProblemSpec(n=n, f=f, phi=phi, name=name), u_star


def seed_datum(pts: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Robin datum x.nu + |x|^2/2 that makes the seed u = |x|^2/2 exact."""
    return np.einsum("ij,ij->i", pts, nu) + 0.5 * np.sum(pts**2, axis=1)


def _stencil(n: int, h: float):
    """Centered stencil: offsets 0, +-e_i, +-e_i +- e_j with their coefficients.

    Returns the (q, n) integer offsets, the (q, n*n) Hessian coefficients and
    the (q, n) gradient coefficients: D2u = sum_s u(x + h o_s) hess[s] and
    Du = sum_s u(x + h o_s) grad[s], both exact for quadratics.
    """
    eye = np.eye(n, dtype=np.int64)
    axes = [s * eye[i] for i in range(n) for s in (1, -1)]
    diagonals = [si * eye[i] + sj * eye[j] for i in range(n) for j in range(i + 1, n)
                 for si in (1, -1) for sj in (1, -1)]
    offsets = np.stack([np.zeros(n, dtype=np.int64)] + axes + diagonals)
    outer = offsets[:, :, None] * offsets[:, None, :]
    h2 = h * h
    on_axis, off_axis = slice(1, 1 + 2 * n), slice(1 + 2 * n, None)
    hess = np.empty(outer.shape)
    hess[0] = -2.0 / h2 * eye
    hess[on_axis] = outer[on_axis] / h2
    hess[off_axis] = outer[off_axis] * (1 - eye) / (4.0 * h2)
    grad = np.zeros(offsets.shape)
    grad[on_axis] = offsets[on_axis] / (2.0 * h)
    return offsets, hess.reshape(len(offsets), n * n), grad


def _quad_basis(xi: np.ndarray) -> np.ndarray:
    """Monomials up to degree two at scaled coordinates (..., n), constant first.

    One broadcast product of [1, xi] with itself over the index pairs i <= j:
    the pairs (0, 0), (0, i) and (i, j) give 1, xi_i and xi_i xi_j.  The
    product runs with the monomial axis leading, where picking the pairs
    copies whole planes, and the result is a view with that axis moved last.
    """
    n = xi.shape[-1]
    ext = np.empty((n + 1,) + xi.shape[:-1])
    ext[0] = 1.0
    ext[1:] = np.moveaxis(xi, -1, 0)
    left, right = np.triu_indices(n + 1)
    return np.moveaxis(ext[left] * ext[right], 0, -1)


# Targets per batched MLS block.  A block holds a few (block, K) arrays over
# the K offsets of its radius' table (at most 160 at n = 3 and 2 784 at
# n = 5 for the first radius), smaller than the padded (block, k, q) design
# of per-target neighbor lists with k ~ 40 and 230 nodes.
_MLS_BLOCK = 256

# Rows per BLAS call in the block products.  A product's row is computed the
# same way in every full tile, so a target's MLS row does not depend on the
# block it is built in; one (block, K) x (K, m) product per block would sum
# the rows of a short block in another order.
_MLS_TILE = 16

# A Cholesky factor certifies full rank when ||L^-1||_F^2 tr G stays below
# this; it bounds lambda_max / lambda_min of G from above, and the factor 2
# margin over the 1e12 cut absorbs the round-off in L^-1.
_RANK_CERTIFICATE = 0.5e12


def _inverse_cholesky(gram: np.ndarray) -> np.ndarray:
    """L^-1 for the batched Cholesky factors G = L L^T, by forward substitution.

    Raises ``np.linalg.LinAlgError`` when some G is not numerically positive
    definite.  G^-1 = L^-T L^-1, so two matrix-vector products solve with G.
    """
    chol = np.linalg.cholesky(gram)
    q = gram.shape[-1]
    eye = np.eye(q)
    inv = np.zeros_like(chol)
    for i in range(q):
        inv[:, i, :i + 1] = ((eye[i, :i + 1] - (chol[:, i:i + 1, :i] @ inv[:, :i, :i + 1])[:, 0])
                             / chol[:, i, i, None])
    return inv


@functools.lru_cache(maxsize=None)
def _translation_terms(n: int) -> np.ndarray:
    """S (q, q*q) with T(s) = I + b(-s) S, the translation of ``_translation``.

    [1, x - s] = [1, x] - s_a e_0, so the monomial (a, b) of [1, x - s] is
    (a, b) - s_b (0, a) - s_a (0, b) + s_a s_b (0, 0) in monomials of
    [1, x], with s_0 = 0; -s_a, -s_b and s_a s_b are the monomials
    (0, a), (0, b) and (a, b) of -s.
    """
    left, right = np.triu_indices(n + 1)
    q = left.size
    slot = np.zeros((n + 1, n + 1), dtype=np.int64)
    slot[left, right] = slot[right, left] = np.arange(q)
    terms = np.zeros((q, q, q))
    for m, (a, b) in enumerate(zip(left, right)):
        if b > 0:
            terms[slot[0, b], m, slot[0, a]] += 1.0
        if a > 0:
            terms[slot[0, a], m, slot[0, b]] += 1.0
            terms[m, m, 0] += 1.0
    return terms.reshape(q, q * q)


def _translation(shift: np.ndarray) -> np.ndarray:
    """T (b, q, q) with b(x - s) = T b(x) for the quadratic basis and shifts s (b, n)."""
    b, n = shift.shape
    q = (n + 1) * (n + 2) // 2
    return np.eye(q) + (_quad_basis(-shift) @ _translation_terms(n)).reshape(b, q, q)


def _tiled(rows: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """rows @ shared in stacked tiles of ``_MLS_TILE`` rows, the last one zero-padded."""
    b, k = rows.shape
    pad = -b % _MLS_TILE
    if pad:
        rows = np.concatenate([rows, np.zeros((pad, k))])
    return np.matmul(rows.reshape(-1, _MLS_TILE, k), shared).reshape(-1, shared.shape[1])[:b]


def _design(points: np.ndarray):
    """A quadratic design at the points (K, n) for ``_mls_rows``.

    Returns the basis B (K, q), the table (K, m) of the distinct entries of
    b b^T, which are the monomials of degree at most four, and the (q, q)
    index of each entry of b b^T into that table.
    """
    basis = _quad_basis(points)
    q, n = basis.shape[1], points.shape[1]
    left, right = np.triu_indices(n + 1)
    expo = (np.eye(n + 1, dtype=np.int64)[left] + np.eye(n + 1, dtype=np.int64)[right])[:, 1:]
    pairs = (expo[:, None, :] + expo[None, :, :]).reshape(q * q, n)
    _, first, index = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
    return basis, basis[:, first // q] * basis[:, first % q], index.reshape(q, q)


def _mls_rows(weights: np.ndarray, design, shift: np.ndarray):
    """Weighted least-squares value rows of b targets over one shared design.

    ``design`` is ``_design`` of the K design points x_o, ``weights``
    (b, K) each target's weight on them (0 off its support) and ``shift``
    (b, q, q) the translation T with b(x - p) = T b(x) to each target p.
    Row i is the minimum weighted-norm lam with sum_o lam_o b(x_o - p_i) =
    e0, which makes lam . u(x) exact for quadratics at p_i.  Returns the
    mask of targets with a full-rank design and their rows (b_full, K).

    Every Gram matrix of the block comes from one product, of the weights
    with the design's table of distinct entries of b b^T, and is moved to
    the target-centred basis, G = T (sum_o w_o b b^T) T^T.  One batched
    Cholesky factorization G = L L^T and L^-1 by forward substitution give
    c = G^-1 e0, the row lam = w (B T^T c), and one refinement step on the
    moment conditions.  The design is full rank when lambda_min(G) > 1e-12
    lambda_max(G), the square of a 1e-6 singular-value ratio.
    lambda_min >= 1 / ||L^-1||_F^2 and lambda_max <= tr G certify that for
    most targets; the others, and every target of a block whose
    factorization fails, are decided from the eigenvalues of G.
    """
    basis, entries, index = design
    shift_t = shift.transpose(0, 2, 1)
    gram = shift @ _tiled(weights, entries)[:, index] @ shift_t
    try:
        inv = _inverse_cholesky(gram)
        full = (np.sum(inv ** 2, axis=(1, 2)) * np.trace(gram, axis1=1, axis2=2)
                < _RANK_CERTIFICATE)
    except np.linalg.LinAlgError:
        inv, full = None, np.zeros(gram.shape[0], dtype=bool)
    if not np.all(full):
        eig = np.linalg.eigvalsh(gram[~full])
        full[~full] = eig[:, 0] > 1e-12 * eig[:, -1]
        weights, shift, shift_t = weights[full], shift[full], shift_t[full]
        inv = _inverse_cholesky(gram[full]) if inv is None else inv[full]
    inv_t = inv.transpose(0, 2, 1)
    # G^-1 e0 = L^-T (L^-1 e0), and L^-1 e0 is the first column of L^-1
    coef = (shift_t @ (inv_t @ inv[:, :, :1]))[..., 0]
    resid = -(shift @ _tiled(weights * _tiled(coef, basis.T), basis)[..., None])
    resid[:, 0] += 1.0
    coef += (shift_t @ (inv_t @ (inv @ resid)))[..., 0]
    return full, weights * _tiled(coef, basis.T)


def _offset_table(n: int, reach: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integer offsets within ``reach`` of the unit cell [0, 1]^n, lexicographic.

    Built one coordinate at a time, keeping the partial offsets whose
    distance to the cell stays within reach; coordinate i is kept in
    [lo_i, hi_i].
    """
    table, gap2 = np.zeros((1, 0), dtype=np.int64), np.zeros(1)
    r = int(np.floor(reach))
    for i in range(n):
        ticks = np.arange(max(lo[i], -r), min(hi[i], r + 1) + 1)
        d2 = gap2[:, None] + np.maximum(np.maximum(-ticks, ticks - 1), 0) ** 2
        rows, cols = np.nonzero(d2 <= reach * reach)
        table = np.column_stack([table[rows], ticks[cols]])
        gap2 = d2[rows, cols]
    return table


def _mls_value_rows(grid: "Grid", targets: np.ndarray) -> sp.csr_matrix:
    """Sparse (len(targets), n_active) MLS value rows over the grid's active points.

    A target is origin + h (base + frac) with integer base and frac in
    [0, 1)^n.  Its candidate nodes are base + o for the offsets o of one
    table per radius, in lexicographic order, which is ascending column
    order; a node that is inactive or farther than the radius gets weight
    0.  So the quadratic basis at the offsets, taken about the cell centre,
    is one design shared by every target, and only the weights and the
    translation by frac - 1/2 differ (``_mls_rows``).  The table keeps only
    offsets by which some pending target reaches the box of the active
    points.  A target needs q + 2 nodes within the radius and a full-rank
    design; the radius starts at 2.5 h, and targets whose rows fail go on
    to the next radius, 1.4 times wider, for at most five radii.

    Each block's entries are gathered through one ``flatnonzero`` of its
    node mask, already in column order, and the CSR arrays are laid out
    from the per-row counts; only rows that a wider radius finished, which
    arrive after the others, need a stable sort of the entries by row.
    """
    n = grid.n
    q = 1 + n + n * (n + 1) // 2
    shape = np.asarray(grid.shape)
    strides = np.array([int(np.prod(grid.shape[i + 1:])) for i in range(n)])
    cell = (targets - grid.origin) / grid.h
    base = np.floor(cell).astype(np.int64)
    frac = cell - base
    active_k = np.column_stack(np.unravel_index(grid.active_idx, grid.shape))
    pending = np.arange(targets.shape[0])
    reach = 2.5
    done, lengths, cols, vals = [], [], [], []
    for _ in range(5):
        table = _offset_table(n, reach, active_k.min(0) - base[pending].max(0),
                              active_k.max(0) - base[pending].min(0))
        table_lin, low, high = table @ strides, table.min(0), table.max(0)
        # |o - frac|^2 = [-2 frac, |frac|^2, 1] . [o, 1, |o|^2], over reach^2
        lifted = np.vstack([table.T, np.ones(len(table)), np.sum(table**2, axis=1)]) / reach**2
        design = _design(table - 0.5)
        failed = []
        for start in range(0, pending.size, _MLS_BLOCK):
            blk = pending[start:start + _MLS_BLOCK]
            lin = (base[blk] @ strides)[:, None] + table_lin
            # a target near the box edge clips its offsets to the box faces,
            # which hold no active point
            edge = np.any((base[blk] + low < 0) | (base[blk] + high >= shape), axis=1)
            if np.any(edge):
                nodes = base[blk][edge][:, None] + table
                lin[edge] = np.ravel_multi_index(tuple(np.moveaxis(nodes, -1, 0)), grid.shape,
                                                 mode="clip")
            col = grid.box_col[lin]
            r2 = _tiled(np.column_stack([-2.0 * frac[blk], np.sum(frac[blk]**2, axis=1),
                                         np.ones(len(blk))]), lifted)
            inside = (col >= 0) & (r2 <= 1.0)
            counts = np.count_nonzero(inside, axis=1)
            ok = counts >= q + 2
            keep = np.flatnonzero(ok)
            if keep.size < len(blk):
                inside, col, r2 = inside[keep], col[keep], r2[keep]
            weights = np.subtract(1.0, r2, out=r2)
            weights *= weights
            weights *= inside
            full, lam = _mls_rows(weights, design, _translation(frac[blk[keep]] - 0.5))
            if not np.all(full):
                inside, col = inside[full], col[full]
            ok[keep] = full
            entries = np.flatnonzero(inside)
            done.append(blk[ok])
            lengths.append(counts[ok])
            cols.append(col.ravel()[entries])
            vals.append(lam.ravel()[entries])
            failed.append(blk[~ok])
        pending = np.concatenate(failed)
        if pending.size == 0:
            break
        reach *= 1.4
    else:
        raise ValueError(
            "boundary collocation stencil is rank deficient; the grid is too "
            "coarse for this domain"
        )
    done, lengths = np.concatenate(done), np.concatenate(lengths)
    cols, vals = np.concatenate(cols), np.concatenate(vals)
    if np.any(done[1:] < done[:-1]):
        order = np.argsort(np.repeat(done, lengths), kind="stable")
        cols, vals = cols[order], vals[order]
    indptr = np.zeros(targets.shape[0] + 1, dtype=np.int64)
    indptr[1 + done] = lengths
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((vals, cols, indptr), shape=(targets.shape[0], grid.n_active))


class Grid:
    """Uniform Cartesian grid over a strictly convex domain, with its stencil.

    Built once per (domain, resolution); everything downstream (residuals,
    Jacobians, barrier evaluation) reads the arrays and sparse operators
    stored here.  ``active_pts`` (N, n), ``active_d`` (N,) and ``active_nu``
    (N, n) hold each active point, its distance to the boundary and the
    outward normal at its closest boundary point, which is
    ``active_pts + active_d[:, None] * active_nu``, and ``box_col`` gives
    the active column of each point of the box, -1 for the others.  The
    stencil is data:

    - ``nbr`` (q, N): for each stencil offset and active point, the index
      of the neighbor in the extended vector [active values; closure
      values];
    - ``extension``: the sparse map x -> [values; C x] from a field
      x = [values; trace] to that extended vector;
    - ``hess_coef`` (q, n*n) and ``grad_coef`` (q, n): the Hessian and
      gradient weight of each offset;
    - ``robin_u`` (B, N): the active-value block (-4 W1 + W2)/(2 delta) of
      the one-sided u_nu at collocation points; u_nu adds 3/(2 delta) times
      the trace, and the Robin rows u_nu + u add ``robin_diag`` =
      3/(2 delta) + 1 times the trace, which ``field_at`` solves them for.
    """

    def __init__(self, domain: DomainSpec, resolution: int):
        if not isinstance(resolution, numbers.Integral):
            raise ValueError(f"resolution must be an integer, got {resolution!r}")
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
        self.offsets, self.hess_coef, self.grad_coef = _stencil(self.n, self.h)
        self._classify_points()
        self._build_collocation()

    # -- construction --------------------------------------------------------

    def _classify_points(self):
        ks = np.indices(self.shape).reshape(self.n, -1).T.astype(np.int64)
        pts = self.origin + ks * self.h
        # a point of level > 1 lies outside (d <= 0) and cannot be active, so
        # only the others are projected; each projection is independent of the batch
        level = np.sum((pts - self.domain.center) ** 2 / np.square(self.domain.semi_axes), axis=1)
        near = np.flatnonzero(level <= 1.0)
        _, nu, d = project_to_boundary_batch(self.domain, pts[near])
        keep = d > 0.5 * self.h
        active_lin = near[keep]
        active_mask = np.zeros(pts.shape[0], dtype=bool)
        active_mask[active_lin] = True
        active_k = ks[active_lin]
        if np.any(active_k < 1) or np.any(active_k > np.asarray(self.shape) - 2):
            raise AssertionError("stencil leaves the padded box")
        strides = np.array([int(np.prod(self.shape[i + 1:])) for i in range(self.n)])
        tgt = active_k @ strides + (self.offsets @ strides)[:, None]
        # stencil neighbors that are not active become closure (ghost) points
        ghost_lin = np.unique(tgt[~active_mask[tgt]])
        self.active_idx = active_lin
        self.active_pts = pts[active_lin]
        self.active_d = d[keep]
        self.active_nu = nu[keep]
        self.ghost_pts = pts[ghost_lin]
        self.n_active = active_lin.size
        self.n_ghost = ghost_lin.size
        col = np.full(pts.shape[0], -1, dtype=np.int64)
        col[active_lin] = np.arange(self.n_active)
        col[ghost_lin] = self.n_active + np.arange(self.n_ghost)
        self.nbr = col[tgt]
        self.box_col = np.where(col < self.n_active, col, -1)

    def _build_collocation(self):
        y, nu, d = project_to_boundary_batch(self.domain, self.ghost_pts)
        tol = 1e-9 * max(self.domain.semi_axes)
        keys = np.round(y / tol).astype(np.int64)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        self.colloc_y = y[first]
        self.colloc_nu = nu[first]
        self.n_colloc = int(first.size)
        self.ghost_colloc = inverse
        # signed ray coordinate, positive outside; a ghost within the dedupe
        # tolerance of the boundary is on it, so its closure row is exactly
        # its trace unknown (l0 = 1, l1 = l2 = 0) rather than round-off weights
        self.ghost_s = np.where(np.abs(d) <= tol, 0.0, -d)
        self.colloc_quad = seed_datum(self.colloc_y, self.colloc_nu)
        self.delta = self.h
        # MLS interpolation of the interior ray values at depths delta and
        # 2 delta, built in one pass over the targets of both depths
        w = _mls_value_rows(self, np.concatenate(
            [self.colloc_y - depth * self.delta * self.colloc_nu for depth in (1, 2)]))
        self.W1, self.W2 = w[:self.n_colloc], w[self.n_colloc:]
        del w  # the slices are copies; holding w too would raise the peak of the products below
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
        self.extension = sp.vstack(
            [sp.eye(self.n_active, self.n_unknowns, format="csr"),
             sp.hstack([c_u, c_b], format="csr")], format="csr")
        # one-sided u_nu through the two interior ray values and the trace:
        # the active-value block, shared by u_nu and the Robin rows u_nu + u(y)
        self.robin_u = (-4.0 * self.W1 + self.W2) / (2.0 * dl)
        self.robin_diag = 3.0 / (2.0 * dl) + 1.0  # each trace unknown's own Robin coefficient

    # -- field plumbing ------------------------------------------------------

    @property
    def n_unknowns(self) -> int:
        return self.n_active + self.n_colloc

    @property
    def C(self) -> sp.csr_matrix:
        """Closure map: closure values = C @ [values; trace] (rows of ``extension``)."""
        return self.extension[self.n_active:]

    def strip_mask(self, mu: float) -> np.ndarray:
        """Active-point mask for the boundary strip of width mu."""
        return self.active_d < mu


@dataclass
class DiscreteField:
    """A grid field: values at active points, trace values at collocation."""

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
    def from_function(cls, grid: Grid, fn) -> "DiscreteField":
        return cls(
            values=np.asarray(fn(grid.active_pts), dtype=float),
            trace=np.asarray(fn(grid.colloc_y), dtype=float),
        )


def _stencil_values(field: DiscreteField, grid: Grid, offsets=slice(None)) -> np.ndarray:
    """Field values at the given stencil neighbors of every active point, (q', N)."""
    field.check(grid)
    return (grid.extension @ field.pack())[grid.nbr[offsets]]


def hessian_batch(field: DiscreteField, grid: Grid) -> np.ndarray:
    """Centered-stencil Hessians at every active point, (N, n, n)."""
    return (_stencil_values(field, grid).T @ grid.hess_coef).reshape(-1, grid.n, grid.n)


def gradient_batch(field: DiscreteField, grid: Grid) -> np.ndarray:
    """Centered first differences at every active point, (N, n)."""
    axes = slice(1, 1 + 2 * grid.n)  # the +-e_i offsets, the only ones with a gradient weight
    return _stencil_values(field, grid, axes).T @ grid.grad_coef[axes]


def hessian_contraction(coef: np.ndarray, grid: Grid) -> sp.csr_matrix:
    """Stencil matrix K: v -> sum_ij coef[k, i, j] (D2 v)_ij at each active point k.

    K is (N, N + G) and acts on the extended vector v = [values; closure
    values], so ``K @ grid.extension`` is the same map on a field
    [values; trace].  With coef the gradient of det W at D2u, K is the
    Newton linearization of the interior equation.
    """
    weights = coef.reshape(grid.n_active, -1) @ grid.hess_coef.T  # (N, q)
    q = weights.shape[1]
    return sp.csr_matrix(
        (weights.ravel(), grid.nbr.T.ravel(), np.arange(0, weights.size + 1, q)),
        shape=(grid.n_active, grid.extension.shape[0]),
    )


def normal_derivative(field: DiscreteField, grid: Grid) -> np.ndarray:
    """Outward normal derivative at collocation points (one-sided, 3 nodes)."""
    field.check(grid)
    return grid.robin_u @ field.values + 3.0 / (2.0 * grid.delta) * field.trace


def second_normal_derivative(field: DiscreteField, grid: Grid) -> np.ndarray:
    """Double normal derivative u_nunu at collocation points."""
    field.check(grid)
    dl = grid.delta
    return (field.trace - 2.0 * (grid.W1 @ field.values)
            + grid.W2 @ field.values) / (dl * dl)


def interior_residual(field: DiscreteField, grid: Grid, problem: SampledProblem,
                      t: float, det: np.ndarray | None = None) -> np.ndarray:
    """det(W(D2u)) - t f - (1-t) c0 at every active point.

    ``det``, when given, is det W(D2u) of ``field`` and is not recomputed.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"homotopy parameter t={t} outside [0, 1]")
    if det is None:
        det = woperator.batch_det_w(hessian_batch(field, grid))
    c0 = homotopy_constant(grid.n)
    return det - t * problem.f_active - (1.0 - t) * c0


def robin_datum(grid: Grid, problem: SampledProblem, t: float) -> np.ndarray:
    """Right side t phi + (1-t)(y.nu + |y|^2/2) of the Robin rows at collocation points."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"homotopy parameter t={t} outside [0, 1]")
    return t * problem.phi_colloc + (1.0 - t) * grid.colloc_quad


def robin_residual(field: DiscreteField, grid: Grid, problem: SampledProblem,
                   t: float) -> np.ndarray:
    """u_nu + u - t phi - (1-t)(y.nu + |y|^2/2) at collocation points."""
    data = robin_datum(grid, problem, t)
    field.check(grid)
    return grid.robin_u @ field.values + grid.robin_diag * field.trace - data


def field_at(u: np.ndarray, t: float, grid: Grid, problem: SampledProblem) -> DiscreteField:
    """The field of the active values u at t, its trace b solving the Robin rows
    R_u u + d b = g_t (``grid.robin_u``, ``grid.robin_diag``, ``robin_datum``)."""
    # R_u u cancels terms of size 1/delta; formed in np.longdouble (float64 where
    # that is all there is) and rounded once, b keeps the residual's round-off floor
    ru = grid.robin_u @ u.astype(np.longdouble)
    trace = ((robin_datum(grid, problem, t) - ru) / grid.robin_diag).astype(float)
    return DiscreteField(values=u, trace=trace)
