"""Assembly and calculus of the Hessian lift W.

W acts on the space of m-vectors: its rows and columns are labelled by the
strictly increasing multi-indexes of length m in dictionary order, its
diagonal entries are partial traces of the Hessian, and its off-diagonal
entries are signed single Hessian entries wherever two multi-indexes differ
in exactly one element.  The eigenvalues of W are the m-subset sums of the
Hessian eigenvalues, so det(W) is the product of those sums.

The PDE uses m = n - 1 only.  There W is a signed permutation of
M = tr(H) I - H, and the batched kernels the grid evaluates (det, gradient,
and the ellipticity margin tr H - lambda_max(H), the smallest eigenvalue
of M) work on M without assembling the lift.  At n = 3 they are closed
forms over the entry arrays of the stack, with no LAPACK call per point:
the cofactor det and adjugate of M and a robust trigonometric eigensolver.

The general-m kernels take a leading batch axis too: ``assemble_w``,
``det_w``, ``linearization`` and ``concavity_probe`` accept ``(..., n, n)``
stacks and return one result per Hessian, bit for bit what the
Hessian-by-Hessian calls give.  The selftest battery evaluates one stack
per shape group this way, with seed-for-seed identical output.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from nconvex.cone import _smallest_m_sum

__all__ = [
    "MAX_LIFT_N",
    "MAX_LIFT_DIM",
    "multi_indices",
    "assemble_w",
    "det_w",
    "linearization",
    "concavity_probe",
    "batch_det_w",
    "batch_eigvalsh",
    "batch_min_lift_eig",
    "batch_linearization",
]

# Largest n whose every lift the algebra layer supports, and the lifted
# dimension C(n, m) that bounds: the largest C(6, m), C(6, 3) = 20.
MAX_LIFT_N = 6
MAX_LIFT_DIM = math.comb(MAX_LIFT_N, MAX_LIFT_N // 2)


@lru_cache(maxsize=None)
def multi_indices(n: int, m: int):
    """All strictly increasing one-based index tuples of length m, in dictionary order.

    The tuple at position r labels row and column r of the lift.
    """
    if not 1 <= m <= n:
        raise ValueError(f"subset size m={m} out of range 1..{n}")
    return tuple(combinations(range(1, n + 1), m))


@lru_cache(maxsize=None)
def _descriptors(n: int, m: int):
    """Linear structure of the assembly map (row, col, i, j, sign) over W entries.

    Diagonal entries list one descriptor per element of the multi-index
    (sign +1, Hessian entry (i,i)); an off-diagonal entry exists only when
    the two index sets differ in exactly one element, with sign
    (-1)**|pos_a - pos_b| for the positions of the differing elements inside
    each sorted tuple.  Returns a flat tuple usable for both values and
    derivatives.
    """
    labels = multi_indices(n, m)
    p = len(labels)
    if p > MAX_LIFT_DIM:
        raise ValueError(
            f"lifted dimension C({n},{m})={p} exceeds supported maximum {MAX_LIFT_DIM}"
        )
    out = []
    sets = [frozenset(lbl) for lbl in labels]
    for a in range(p):
        for i in labels[a]:
            out.append((a, a, i - 1, i - 1, 1.0))
    for a in range(p):
        for b in range(p):
            if a == b:
                continue
            diff_a = sets[a] - sets[b]
            if len(diff_a) != 1:
                continue
            ai = next(iter(diff_a))
            bj = next(iter(sets[b] - sets[a]))
            pos_a = labels[a].index(ai)
            pos_b = labels[b].index(bj)
            sign = -1.0 if (pos_a - pos_b) % 2 else 1.0
            out.append((a, b, ai - 1, bj - 1, sign))
    return tuple(out)


def _check_hessian(hess) -> np.ndarray:
    """The Hessian, or each Hessian of a ``(..., n, n)`` stack, checked and symmetrized.

    Raises ValueError when the input is not square, or when any Hessian's
    skew part exceeds 1e-10 times its largest entry (at least 1).
    """
    arr = np.asarray(hess, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"Hessian must be square, got shape {arr.shape}")
    transpose = np.swapaxes(arr, -1, -2)
    scale = np.maximum(1.0, np.max(np.abs(arr), axis=(-2, -1)))
    if np.any(np.max(np.abs(arr - transpose), axis=(-2, -1)) > 1.0e-10 * scale):
        raise ValueError("Hessian must be symmetric")
    return 0.5 * (arr + transpose)


def _assemble(arr: np.ndarray, m: int) -> np.ndarray:
    """The lift of each checked Hessian; rows and columns follow ``multi_indices``."""
    n = arr.shape[-1]
    p = len(multi_indices(n, m))
    # entries first, so that h[i, j] is a float for one Hessian and a column for a stack
    h = np.moveaxis(arr, (-2, -1), (0, 1))
    w = np.zeros((p, p) + arr.shape[:-2])
    for a, b, i, j, s in _descriptors(n, m):
        w[a, b] += s * h[i, j]
    return np.moveaxis(w, (0, 1), (-2, -1))


def _det(arr: np.ndarray, m: int) -> np.ndarray:
    return np.linalg.det(_assemble(arr, m))


def _root(values, exponent: float) -> np.ndarray:
    """values ** exponent entry by entry through the C library's pow.

    numpy's vectorized power loop can differ from it in the last bit, so a
    stack would not give what its Hessians give one at a time.
    """
    arr = np.asarray(values)
    return np.array([v ** exponent for v in arr.ravel().tolist()]).reshape(arr.shape)


def assemble_w(hess, m: int) -> np.ndarray:
    """Assemble the lift of a symmetric Hessian for subset size m."""
    return _assemble(_check_hessian(hess), m)


def det_w(hess, m: int) -> float | np.ndarray:
    """det of the assembled lift (product of m-subset eigenvalue sums)."""
    return _det(_check_hessian(hess), m)


def _cofactors(mat: np.ndarray) -> np.ndarray:
    """Cofactor matrix d det / d mat_ab of each matrix, entries first: (p, p, ...).

    By minors, so exact at any rank; fine for p <= 20.
    """
    p = mat.shape[-1]
    cof = np.ones((p, p) + mat.shape[:-2])
    if p == 1:
        return cof
    for i in range(p):
        sub = np.delete(mat, i, axis=-2)
        for j in range(p):
            minor = np.delete(sub, j, axis=-1)
            cof[i, j] = ((-1.0) ** (i + j)) * np.linalg.det(minor)
    return cof


def linearization(hess, m: int) -> np.ndarray:
    """Gradient of det(W) with respect to the Hessian entries.

    Computed by contracting the adjugate of W with the assembly map: smooth
    in the Hessian entries and valid for repeated eigenvalues, unlike an
    eigenbasis evaluation.  The result G is symmetric and satisfies
    d det(W(H + tE)) / dt = sum_ij G_ij E_ij for symmetric E.
    """
    arr = _check_hessian(hess)
    n = arr.shape[-1]
    cof = _cofactors(_assemble(arr, m))
    grad = np.zeros((n, n) + arr.shape[:-2])
    for a, b, i, j, s in _descriptors(n, m):
        grad[i, j] += s * cof[a, b]
    grad = np.moveaxis(grad, (0, 1), (-2, -1))
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))  # exactly symmetric; kills last-bit skew


def concavity_probe(hess_a, hess_b, m: int) -> float | np.ndarray:
    """Midpoint concavity gap of det(W)^(1/p) between two admissible Hessians.

    Returns det(W((A+B)/2))^(1/p) - (det(W(A))^(1/p) + det(W(B))^(1/p)) / 2,
    p the lifted dimension; nonnegative because W is linear in the Hessian
    and det^(1/p) is concave on positive definite matrices.  For m = n-1
    the exponent is 1/n.  A lift determinant that is not finite and
    positive, which only a wrong lift gives, raises ValueError with their
    count before any root is taken.
    """
    a = _check_hessian(hess_a)
    b = _check_hessian(hess_b)
    if a.shape != b.shape:
        raise ValueError("Hessians must share a dimension")
    for name, h in (("first", a), ("second", b)):
        if not np.all(_smallest_m_sum(np.linalg.eigvalsh(h), m) > 0.0):
            raise ValueError(f"{name} Hessian is not strictly {m}-convex")
    dets = np.array([_det(0.5 * (a + b), m), _det(a, m), _det(b, m)])
    bad = int(np.count_nonzero(~(np.isfinite(dets) & (dets > 0.0))))
    if bad:
        raise ValueError(f"{bad} lift determinants of {dets.size} are not positive")
    mid, root_a, root_b = _root(dets, 1.0 / math.comb(a.shape[-1], m))
    return mid - 0.5 * (root_a + root_b)


# ---------------------------------------------------------------------------
# Batched evaluation at m = n - 1 over (..., n, n) stacks (grid hot paths).
#
# At m = n - 1 the lift W(H) is a signed permutation of M = tr(H) I - H, so
# det W = det M, the lifted eigenvalues are mu_i = tr H - lambda_i(H), and
# d det W / dH = tr(adj M) I - adj M.  These kernels work on the n x n
# matrix M; the scalar functions above stay general in m.
#
# At n = 3 they are closed forms over the entry arrays of the stack rather
# than one LAPACK call per matrix: the cofactor det and adjugate of M, and
# a robust trigonometric eigensolver (``_eigvalsh3``).  They read the upper
# triangle of each Hessian and run ``_BLOCK`` points at a time, so their
# temporaries stay a few hundred kB at any grid size.  Every operation is
# elementwise within a point, so the results do not depend on ``_BLOCK``.
# Other n keep ``np.linalg``.

_BLOCK = 2048

# flat positions of h00, h01, h02, h11, h12, h22 in a row-major 3 x 3 matrix
_UPPER = (0, 1, 2, 4, 5, 8)


def _blockwise(kernel, hessians: np.ndarray, width: int) -> np.ndarray:
    """(N, width) of kernel's columns over the upper entries of each 3 x 3 Hessian."""
    flat = hessians.reshape(-1, 9)
    out = np.empty((flat.shape[0], width))
    for start in range(0, flat.shape[0], _BLOCK):
        rows, block = flat[start:start + _BLOCK], out[start:start + _BLOCK]
        for j, col in enumerate(kernel(*(rows[:, k] for k in _UPPER))):
            block[:, j] = col
    return out


def _adjugate3(h00, h01, h02, h11, h12, h22):
    """Diagonal of M = tr(H) I - H and the upper entries a00, a01, a02, a11, a12, a22 of adj M."""
    m00, m11, m22 = h11 + h22, h00 + h22, h00 + h11
    adj = (m11 * m22 - h12 * h12, h01 * m22 + h02 * h12, h02 * m11 + h01 * h12,
           m00 * m22 - h02 * h02, h12 * m00 + h01 * h02, m00 * m11 - h01 * h01)
    return (m00, m11, m22), adj


def _det3(h00, h01, h02, h11, h12, h22):
    (m00, _, _), (a00, a01, a02, *_) = _adjugate3(h00, h01, h02, h11, h12, h22)
    return (m00 * a00 - h01 * a01 - h02 * a02,)


def _gradient3(h00, h01, h02, h11, h12, h22):
    """tr(adj M) I - adj M, row-major, the same array in (i, j) and (j, i)."""
    _, (a00, a01, a02, a11, a12, a22) = _adjugate3(h00, h01, h02, h11, h12, h22)
    g01, g02, g12 = -a01, -a02, -a12
    return a11 + a22, g01, g02, g01, a00 + a22, g12, g02, g12, a00 + a11


def _eigvalsh3(h00, h01, h02, h11, h12, h22):
    """Ascending eigenvalues of symmetric 3 x 3 matrices from their upper entries.

    Eberly's robust method (Geometric Tools, 2014).  A power of two puts
    the largest entry in [1/2, 1), and the mean q of the diagonal is
    shifted out, leaving B; C = B / p has Frobenius norm sqrt(6), and its
    eigenvalues are 2 cos(theta + 2 pi k / 3), 3 theta = arccos(det(C) / 2).
    The end of C's spectrum on the side of det C's sign lies at least
    sqrt(3) from the other two, so its root is well conditioned.  Its
    eigenvector is the largest cross product of two rows of C - beta I,
    and the other two eigenvalues are those of C projected onto that
    vector's orthogonal complement, mid -+ hypot.  The trigonometric roots
    of a double eigenvalue would be off by sqrt(eps); these are within a
    few eps of the largest entry.  Scaling B by 1 / p rather than det B by
    1 / p^3 keeps the root defined when p^3 underflows (I plus 1e-120
    off the diagonal).
    """
    big = np.maximum(np.maximum(np.maximum(np.abs(h00), np.abs(h01)),
                                np.maximum(np.abs(h02), np.abs(h11))),
                     np.maximum(np.abs(h12), np.abs(h22)))
    _, e = np.frexp(big)  # exact scaling; e = 0 for a zero matrix
    a00, a01, a02, a11, a12, a22 = (np.ldexp(h, -e) for h in (h00, h01, h02, h11, h12, h22))
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    # C = B / p; B = 0 (a multiple of I) stays 0, and its p = 0 zeroes the roots
    inv = 1.0 / np.where(p > 0.0, p, 1.0)
    c00, c01, c02, c11, c12, c22 = (x * inv for x in (b00, a01, a02, b11, a12, b22))
    half = 0.5 * (c00 * (c11 * c22 - c12 * c12) - c01 * (c01 * c22 - c12 * c02)
                  + c02 * (c01 * c12 - c11 * c02))
    beta = np.copysign(2.0 * np.cos(np.arccos(np.minimum(np.abs(half), 1.0)) / 3.0), half)
    # the eigenvector of beta: the largest of the rows' cross products
    r00, r11, r22 = c00 - beta, c11 - beta, c22 - beta
    cross = ((c01 * c12 - c02 * r11, c02 * c01 - r00 * c12, r00 * r11 - c01 * c01),
             (c01 * r22 - c02 * c12, c02 * c02 - r00 * r22, r00 * c12 - c01 * c02),
             (r11 * r22 - c12 * c12, c12 * c02 - c01 * r22, c01 * c12 - r11 * c02))
    w0, w1, w2 = cross[0]
    size = w0 * w0 + w1 * w1 + w2 * w2
    for x0, x1, x2 in cross[1:]:
        other = x0 * x0 + x1 * x1 + x2 * x2
        larger = other > size
        w0, w1, w2 = np.where(larger, x0, w0), np.where(larger, x1, w1), np.where(larger, x2, w2)
        size = np.where(larger, other, size)
    # For a trace-free C, C - beta I has two eigenvalues of size >= sqrt(3),
    # at C = 0 (beta = sqrt(3)) too, so the squared sizes sum to at least 9.
    # q rounds, though, so tr B is a few ulps of q, not 0, and where p is that
    # small too beta can be a double root with no cross product left
    # (diag(c, c - ulp, c)).  Any unit w keeps the eigenvalues within a few p
    # of q there.
    found = size > 0.0
    scale = 1.0 / np.sqrt(np.where(found, size, 1.0))
    w0, w1, w2 = np.where(found, w0 * scale, 1.0), w1 * scale, w2 * scale
    # u, v: orthonormal complement of the unit w; the pivot's square is >= 1/2
    first = np.abs(w0) > np.abs(w1)
    scale = 1.0 / np.sqrt(np.where(first, w0 * w0, w1 * w1) + w2 * w2)
    u0 = np.where(first, -w2 * scale, 0.0)
    u1 = np.where(first, 0.0, w2 * scale)
    u2 = np.where(first, w0, -w1) * scale
    v0, v1, v2 = w1 * u2 - w2 * u1, w2 * u0 - w0 * u2, w0 * u1 - w1 * u0
    cv0 = c00 * v0 + c01 * v1 + c02 * v2
    cv1 = c01 * v0 + c11 * v1 + c12 * v2
    cv2 = c02 * v0 + c12 * v1 + c22 * v2
    p00 = (u0 * (c00 * u0 + c01 * u1 + c02 * u2) + u1 * (c01 * u0 + c11 * u1 + c12 * u2)
           + u2 * (c02 * u0 + c12 * u1 + c22 * u2))
    p01 = u0 * cv0 + u1 * cv1 + u2 * cv2
    p11 = v0 * cv0 + v1 * cv1 + v2 * cv2
    mid = 0.5 * (p00 + p11)
    rad = np.hypot(0.5 * (p00 - p11), p01)
    low, high = mid - rad, mid + rad
    ordered = (np.minimum(low, beta), np.maximum(low, np.minimum(high, beta)),
               np.maximum(high, beta))
    return tuple(np.ldexp(q + p * x, e) for x in ordered)


def batch_det_w(hessians: np.ndarray) -> np.ndarray:
    """det W(H) = det(tr(H) I - H) for each Hessian of the stack (cofactors at n = 3)."""
    if hessians.shape[-1] == 3:
        return _blockwise(_det3, hessians, 1).reshape(hessians.shape[:-2])
    trace = np.trace(hessians, axis1=-2, axis2=-1)
    return np.linalg.det(trace[..., None, None] * np.eye(hessians.shape[-1]) - hessians)


def batch_eigvalsh(hessians: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hessian of the stack.

    At n = 3 from ``_eigvalsh3``, within a few eps of the largest entry.
    Other n take ``np.linalg.eigvalsh``, guarded: entries below 2^-104 of
    their Hessian's largest are zeroed first.  They move no eigenvalue by a
    rounding error, yet LAPACK's eigvalsh can miss the spectrum by 1e-2
    when an off-diagonal is subnormal or 1e-150.
    """
    if hessians.shape[-1] == 3:
        return _blockwise(_eigvalsh3, hessians, 3).reshape(hessians.shape[:-1])
    tiny = 2.0**-104 * np.max(np.abs(hessians), axis=(-2, -1), keepdims=True)
    return np.linalg.eigvalsh(np.where(np.abs(hessians) <= tiny, 0.0, hessians))


def batch_min_lift_eig(hessians: np.ndarray, eigenvalues: np.ndarray | None = None) -> np.ndarray:
    """Smallest lifted eigenvalue tr H - lambda_max(H) per Hessian (the ellipticity quantity).

    ``eigenvalues``, when given, is ``batch_eigvalsh(hessians)`` and is not recomputed.
    """
    if eigenvalues is None:
        eigenvalues = batch_eigvalsh(hessians)
    return np.trace(hessians, axis1=-2, axis2=-1) - eigenvalues[..., -1]


def batch_linearization(hessians: np.ndarray) -> np.ndarray:
    """Gradients tr(adj M) I - adj M of det(W) for a stack of Hessians.

    adj M is written out by cofactors at n = 3.  Other n take the
    Faddeev-LeVerrier recursion: B_1 = I, B_{k+1} = M B_k - tr(M B_k) / k I,
    and adj M = (-1)^(n-1) B_n.  Both are polynomials in M, so they are
    defined at any rank, unlike det(M) inv(M).  The gradient is exactly
    symmetric.
    """
    n = hessians.shape[-1]
    if n == 3:
        return _blockwise(_gradient3, hessians, 9).reshape(hessians.shape)
    eye = np.eye(n)
    m = np.trace(hessians, axis1=-2, axis2=-1)[..., None, None] * eye - hessians
    b = np.broadcast_to(eye, m.shape)
    for k in range(1, n):
        mb = m @ b
        b = mb - (np.trace(mb, axis1=-2, axis2=-1) / k)[..., None, None] * eye
    adj = b if n % 2 else -b
    grad = np.trace(adj, axis1=-2, axis2=-1)[..., None, None] * eye - adj
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))
