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
    the exponent is 1/n.
    """
    a = _check_hessian(hess_a)
    b = _check_hessian(hess_b)
    if a.shape != b.shape:
        raise ValueError("Hessians must share a dimension")
    for name, h in (("first", a), ("second", b)):
        if not np.all(_smallest_m_sum(np.linalg.eigvalsh(h), m) > 0.0):
            raise ValueError(f"{name} Hessian is not strictly {m}-convex")
    root = 1.0 / math.comb(a.shape[-1], m)
    mid = _root(_det(0.5 * (a + b), m), root)
    return mid - 0.5 * (_root(_det(a, m), root) + _root(_det(b, m), root))


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


def batch_min_lift_eig(hessians: np.ndarray, eigenvalues: np.ndarray | None = None) -> np.ndarray:
    """Smallest lifted eigenvalue tr H - lambda_max(H) per Hessian (the ellipticity quantity).

    ``eigenvalues``, when given, is ``np.linalg.eigvalsh(hessians)`` and is not recomputed.
    """
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvalsh(hessians)
    return np.trace(hessians, axis1=-2, axis2=-1) - eigenvalues[..., -1]


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
