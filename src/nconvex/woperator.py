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
of M) work on M without assembling the lift.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from nconvex.cone import Convexity, m_convexity

__all__ = [
    "MAX_LIFT_N",
    "MAX_LIFT_DIM",
    "multi_indices",
    "assemble_w",
    "det_w",
    "linearization",
    "concavity_probe",
    "batch_det_w",
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
    arr = np.asarray(hess, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"Hessian must be square, got shape {arr.shape}")
    scale = max(1.0, float(np.max(np.abs(arr))))
    if np.max(np.abs(arr - arr.T)) > 1.0e-10 * scale:
        raise ValueError("Hessian must be symmetric")
    return 0.5 * (arr + arr.T)


def _assemble(arr: np.ndarray, m: int) -> np.ndarray:
    """The lift of a checked Hessian; rows and columns follow ``multi_indices``."""
    n = arr.shape[0]
    p = len(multi_indices(n, m))
    w = np.zeros((p, p))
    for a, b, i, j, s in _descriptors(n, m):
        w[a, b] += s * arr[i, j]
    return w


def _det(arr: np.ndarray, m: int) -> float:
    return float(np.linalg.det(_assemble(arr, m)))


def assemble_w(hess, m: int) -> np.ndarray:
    """Assemble the lift of a symmetric Hessian for subset size m."""
    return _assemble(_check_hessian(hess), m)


def det_w(hess, m: int) -> float:
    """det of the assembled lift (product of m-subset eigenvalue sums)."""
    return _det(_check_hessian(hess), m)


def _adjugate(mat: np.ndarray) -> np.ndarray:
    """Adjugate by cofactor minors; exact at any rank, fine for p <= 20."""
    p = mat.shape[0]
    if p == 1:
        return np.ones((1, 1))
    cof = np.empty((p, p))
    for i in range(p):
        rows = np.delete(np.arange(p), i)
        sub = mat[rows]
        for j in range(p):
            minor = np.delete(sub, j, axis=1)
            cof[i, j] = ((-1.0) ** (i + j)) * np.linalg.det(minor)
    return cof.T


def linearization(hess, m: int) -> np.ndarray:
    """Gradient of det(W) with respect to the Hessian entries.

    Computed by contracting the adjugate of W with the assembly map: smooth
    in the Hessian entries and valid for repeated eigenvalues, unlike an
    eigenbasis evaluation.  The result G is symmetric and satisfies
    d det(W(H + tE)) / dt = sum_ij G_ij E_ij for symmetric E.
    """
    arr = _check_hessian(hess)
    n = arr.shape[0]
    cof = _adjugate(_assemble(arr, m)).T  # cofactor matrix: d det / d W_ab
    grad = np.zeros((n, n))
    for a, b, i, j, s in _descriptors(n, m):
        grad[i, j] += s * cof[a, b]
    return 0.5 * (grad + grad.T)  # exactly symmetric; kills last-bit skew


def concavity_probe(hess_a, hess_b, m: int) -> float:
    """Midpoint concavity gap of det(W)^(1/p) between two admissible Hessians.

    Returns det(W((A+B)/2))^(1/p) - (det(W(A))^(1/p) + det(W(B))^(1/p)) / 2,
    p the lifted dimension; nonnegative because W is linear in the Hessian
    and det^(1/p) is concave on positive definite matrices.  For m = n-1
    the exponent is 1/n.
    """
    a = _check_hessian(hess_a)
    b = _check_hessian(hess_b)
    if a.shape != b.shape:
        raise ValueError("Hessians must share a dimension")
    for name, h in (("first", a), ("second", b)):
        mu = np.linalg.eigvalsh(h)
        if m_convexity(mu, m) is not Convexity.STRICT:
            raise ValueError(f"{name} Hessian is not strictly {m}-convex")
    p = math.comb(a.shape[0], m)
    root = 1.0 / p
    mid = _det(0.5 * (a + b), m) ** root
    return mid - 0.5 * (_det(a, m) ** root + _det(b, m) ** root)


# ---------------------------------------------------------------------------
# Batched evaluation at m = n - 1 over (..., n, n) stacks (grid hot paths).
#
# At m = n - 1 the lift W(H) is a signed permutation of M = tr(H) I - H, so
# det W = det M, the lifted eigenvalues are mu_i = tr H - lambda_i(H), and
# d det W / dH = tr(adj M) I - adj M.  These kernels work on the n x n
# matrix M; the scalar functions above stay general in m.


def batch_det_w(hessians: np.ndarray) -> np.ndarray:
    """det W(H) = det(tr(H) I - H) for each Hessian of the stack."""
    trace = np.trace(hessians, axis1=-2, axis2=-1)
    return np.linalg.det(trace[..., None, None] * np.eye(hessians.shape[-1]) - hessians)


def batch_min_lift_eig(hessians: np.ndarray) -> np.ndarray:
    """Smallest lifted eigenvalue tr H - lambda_max(H) per Hessian (the ellipticity quantity)."""
    return np.trace(hessians, axis1=-2, axis2=-1) - np.linalg.eigvalsh(hessians)[..., -1]


def batch_linearization(hessians: np.ndarray) -> np.ndarray:
    """Gradients tr(adj M) I - adj M of det(W) for a stack of Hessians.

    adj M comes from the Faddeev-LeVerrier recursion: B_1 = I,
    B_{k+1} = M B_k - tr(M B_k) / k I, and adj M = (-1)^(n-1) B_n.  It is a
    polynomial in M, so it is defined at any rank, unlike det(M) inv(M).
    """
    n = hessians.shape[-1]
    eye = np.eye(n)
    m = np.trace(hessians, axis1=-2, axis2=-1)[..., None, None] * eye - hessians
    b = np.broadcast_to(eye, m.shape)
    for k in range(1, n):
        mb = m @ b
        b = mb - (np.trace(mb, axis1=-2, axis2=-1) / k)[..., None, None] * eye
    adj = b if n % 2 else -b
    grad = np.trace(adj, axis1=-2, axis2=-1)[..., None, None] * eye - adj
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))
