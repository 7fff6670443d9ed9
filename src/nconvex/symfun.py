"""Elementary symmetric functions on eigenvalue tuples.

Provides the S_k machinery the rest of the package is built on: plain and
"deleted" symmetric functions, the classical decomposition identities, and
the Newton-Maclaurin gap between normalized power means.  A spectrum is a
plain float array; every function validates its input and is pure and safe
for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IdentityReport",
    "elementary_symmetric",
    "deleted_symmetric",
    "check_identities",
    "newton_maclaurin_margin",
]


def _spectrum(seq, sort: bool = True) -> np.ndarray:
    """The tuple as a flat float array, sorted descending unless ``sort`` is off.

    Raises ValueError for an empty or non-finite tuple.
    """
    arr = np.asarray(seq, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("eigenvalue tuple must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("eigenvalue tuple must be finite")
    return arr[np.argsort(-arr, kind="stable")] if sort else arr


def _esym(values: np.ndarray, k: int) -> list:
    """[S_0, ..., S_k] of a raw value array from one pass of the coefficient recurrence.

    O(p*k) and numerically stable for the sizes used here; S_i does not
    depend on the cap k.  The exponential subset enumeration lives in the
    test suite as the independent oracle.
    """
    e = [1.0] + [0.0] * k
    for x in values.tolist():
        # update highest degree first so each entry is used once
        for j in range(k, 0, -1):
            e[j] += x * e[j - 1]
    return e


def elementary_symmetric(lam, k: int) -> float:
    """k-th elementary symmetric function of the tuple (S_0 = 1)."""
    vals = _spectrum(lam)
    if not 0 <= k <= vals.size:
        raise ValueError(f"k={k} out of range for a {vals.size}-tuple")
    return _esym(vals, k)[k]


def deleted_symmetric(lam, k: int, omit=()) -> float:
    """S_k with the entries at the omitted positions set to zero.

    ``omit`` holds one-based positions into the tuple as it was supplied
    (so for a descending input, position 1 is the largest entry).  Up to
    two positions may be omitted.
    """
    work = _spectrum(lam, sort=False).copy()
    if not 0 <= k <= work.size:
        raise ValueError(f"k={k} out of range for a {work.size}-tuple")
    idx = [int(i) for i in omit]
    if len(idx) > 2:
        raise ValueError("at most two positions may be omitted")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate omit positions {idx}")
    for i in idx:
        if not 1 <= i <= work.size:
            raise ValueError(f"omit position {i} out of range 1..{work.size}")
    for i in idx:
        work[i - 1] = 0.0
    return _esym(work, k)[k]


@dataclass(frozen=True)
class IdentityReport:
    """Absolute discrepancies of the three S_k decomposition identities.

    ``scale`` is the largest absolute intermediate term encountered, so
    ``max_relative`` is meaningful even when entries nearly cancel.
    """

    k: int
    p: int
    decomposition: float
    weighted_sum: float
    deleted_sum: float
    scale: float

    @property
    def max_absolute(self) -> float:
        return max(self.decomposition, self.weighted_sum, self.deleted_sum)

    @property
    def max_relative(self) -> float:
        return self.max_absolute / max(self.scale, 1.0e-300)


def check_identities(lam, k: int) -> IdentityReport:
    """Evaluate the S_k decomposition identities and report discrepancies.

    Checked for each entry i: S_k = S_k(.|i) + lam_i * S_{k-1}(.|i); and the
    two summed forms  sum_i lam_i S_{k-1}(.|i) = k S_k  and
    sum_i S_k(.|i) = (p-k) S_k.
    """
    vals = _spectrum(lam)
    p = vals.size
    if not 1 <= k <= p:
        raise ValueError(f"k={k} out of range for a {p}-tuple")
    sk = _esym(vals, k)[k]
    scale = abs(sk)
    worst_dec = 0.0
    weighted = 0.0
    deleted = 0.0
    for i in range(p):
        work = vals.copy()
        work[i] = 0.0
        e = _esym(work, k)
        sk_del = e[k]
        term = vals[i] * e[k - 1]
        worst_dec = max(worst_dec, abs(sk - (sk_del + term)))
        weighted += term
        deleted += sk_del
        scale = max(scale, abs(sk_del), abs(term))
    return IdentityReport(
        k=k,
        p=p,
        decomposition=worst_dec,
        weighted_sum=abs(weighted - k * sk),
        deleted_sum=abs(deleted - (p - k) * sk),
        scale=scale,
    )


def newton_maclaurin_margin(lam, k: int, l: int) -> float:
    """Gap (S_l / C(p,l))^(1/l) - (S_k / C(p,k))^(1/k), the l = 0 term read as 1.

    Nonnegative whenever the tuple lies in the k-th Garding cone; the caller
    is responsible for that membership.
    """
    vals = _spectrum(lam)
    p = vals.size
    if not 0 <= l < k <= p:
        raise ValueError(f"need 0 <= l < k <= p, got k={k}, l={l}, p={p}")
    e = _esym(vals, k)
    sk = e[k]
    if sk <= 0.0:
        raise ValueError("S_k must be positive (tuple outside the cone)")
    right = (sk / math.comb(p, k)) ** (1.0 / k)
    if l == 0:
        left = 1.0
    else:
        sl = e[l]
        if sl <= 0.0:
            raise ValueError("S_l must be positive (tuple outside the cone)")
        left = (sl / math.comb(p, l)) ** (1.0 / l)
    return left - right
