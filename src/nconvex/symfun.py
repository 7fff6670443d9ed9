"""Elementary symmetric functions on eigenvalue tuples.

Provides the S_k machinery the rest of the package is built on: plain and
"deleted" symmetric functions, the classical decomposition identities, and
the Newton-Maclaurin gap between normalized power means.  A spectrum is a
plain float array; every function validates its input and is pure and safe
for concurrent use.

The kernels take a leading batch axis: ``_esym``, ``elementary_symmetric``,
``deleted_symmetric``, ``check_identities`` and ``newton_maclaurin_margin``
accept a ``(..., p)`` stack of spectra sharing one k (and l) and return one
value per spectrum, bit for bit what the row-by-row calls give; only the
margin's roots may differ by an ulp, since numpy's vectorised power and
the C library's pow round differently.  The selftest battery evaluates one
stack per (p, k) or (p, k, l) group this way, with seed-for-seed identical
output.
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
    """The tuple, or each tuple of a ``(..., p)`` stack, as floats sorted descending.

    ``sort`` off keeps the supplied order.  Raises ValueError for an empty
    or non-finite tuple.
    """
    arr = np.atleast_1d(np.asarray(seq, dtype=float))
    if arr.shape[-1] == 0:
        raise ValueError("eigenvalue tuple must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("eigenvalue tuple must be finite")
    # negation is exact and the stable sort keeps ties in order, so this is
    # arr[argsort(-arr)] bit for bit, signed zeros included
    return -np.sort(-arr, axis=-1, kind="stable") if sort else arr


def _check_k(vals: np.ndarray, k: int, low: int = 0) -> None:
    if not low <= k <= vals.shape[-1]:
        raise ValueError(f"k={k} out of range for a {vals.shape[-1]}-tuple")


def _entries(values: np.ndarray):
    """Entry i of a 1-d tuple as a Python float, or of every tuple of a stack as an array."""
    return values.tolist() if values.ndim == 1 else np.moveaxis(values, -1, 0)


def _esym(values: np.ndarray, k: int) -> list:
    """[S_0, ..., S_k] of a raw value array from one pass of the coefficient recurrence.

    A 1-d tuple steps through Python floats; a ``(..., p)`` stack steps the
    same recurrence through its columns, so each S_i is an array over the
    stack holding bit for bit the values of the row-by-row passes.  O(p*k)
    and numerically stable for the sizes used here; S_i does not depend on
    the cap k.  The exponential subset enumeration lives in the test suite
    as the independent oracle.
    """
    e = [1.0] + [0.0] * k
    for x in _entries(values):
        # update highest degree first so each entry is used once
        for j in range(k, 0, -1):
            e[j] += x * e[j - 1]
    return e


def elementary_symmetric(lam, k: int) -> float | np.ndarray:
    """k-th elementary symmetric function of the tuple (S_0 = 1)."""
    vals = _spectrum(lam)
    _check_k(vals, k)
    return _esym(vals, k)[k]


def deleted_symmetric(lam, k: int, omit=()) -> float | np.ndarray:
    """S_k with the entries at the omitted positions set to zero.

    ``omit`` holds one-based positions into the tuple as it was supplied
    (so for a descending input, position 1 is the largest entry).  Up to
    two positions may be omitted.
    """
    work = _spectrum(lam, sort=False).copy()
    _check_k(work, k)
    p = work.shape[-1]
    idx = [int(i) for i in omit]
    if len(idx) > 2:
        raise ValueError("at most two positions may be omitted")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate omit positions {idx}")
    for i in idx:
        if not 1 <= i <= p:
            raise ValueError(f"omit position {i} out of range 1..{p}")
    for i in idx:
        work[..., i - 1] = 0.0
    return _esym(work, k)[k]


@dataclass(frozen=True)
class IdentityReport:
    """Absolute discrepancies of the three S_k decomposition identities.

    ``scale`` is the largest absolute intermediate term encountered, so
    ``max_relative`` is meaningful even when entries nearly cancel.  For a
    stack of tuples each field is an array over the stack.
    """

    k: int
    p: int
    decomposition: float
    weighted_sum: float
    deleted_sum: float
    scale: float

    @property
    def max_absolute(self) -> float | np.ndarray:
        return np.maximum(np.maximum(self.decomposition, self.weighted_sum), self.deleted_sum)

    @property
    def max_relative(self) -> float | np.ndarray:
        return self.max_absolute / np.maximum(self.scale, 1.0e-300)


def check_identities(lam, k: int) -> IdentityReport:
    """Evaluate the S_k decomposition identities and report discrepancies.

    Checked for each entry i: S_k = S_k(.|i) + lam_i * S_{k-1}(.|i); and the
    two summed forms  sum_i lam_i S_{k-1}(.|i) = k S_k  and
    sum_i S_k(.|i) = (p-k) S_k.
    """
    vals = _spectrum(lam)
    _check_k(vals, k, low=1)
    p = vals.shape[-1]
    sk = _esym(vals, k)[k]
    cols = _entries(vals)
    weighted = 0.0
    deleted = 0.0
    deleted_sk, terms = [], []
    for i in range(p):
        work = vals.copy()
        work[..., i] = 0.0
        e = _esym(work, k)
        deleted_sk.append(e[k])
        terms.append(cols[i] * e[k - 1])
        weighted += terms[-1]
        deleted += deleted_sk[-1]
    deleted_sk, terms = np.array(deleted_sk), np.array(terms)
    worst_dec = np.max(np.abs(sk - (deleted_sk + terms)), axis=0)
    scale = np.maximum(np.abs(sk), np.max(np.abs([deleted_sk, terms]), axis=(0, 1)))
    return IdentityReport(
        k=k,
        p=p,
        decomposition=worst_dec,
        weighted_sum=np.abs(weighted - k * sk),
        deleted_sum=np.abs(deleted - (p - k) * sk),
        scale=scale,
    )


def newton_maclaurin_margin(lam, k: int, l: int) -> float | np.ndarray:
    """Gap (S_l / C(p,l))^(1/l) - (S_k / C(p,k))^(1/k), the l = 0 term read as 1.

    Nonnegative whenever the tuple lies in the k-th Garding cone; the caller
    is responsible for that membership.  A stack gives one gap per tuple
    and is refused whole if any tuple has S_k or S_l <= 0.
    """
    vals = _spectrum(lam)
    p = vals.shape[-1]
    if not 0 <= l < k <= p:
        raise ValueError(f"need 0 <= l < k <= p, got k={k}, l={l}, p={p}")
    e = _esym(vals, k)
    sk = e[k]
    if np.any(sk <= 0.0):
        raise ValueError("S_k must be positive (tuple outside the cone)")
    right = (sk / math.comb(p, k)) ** (1.0 / k)
    if l == 0:
        left = 1.0
    else:
        sl = e[l]
        if np.any(sl <= 0.0):
            raise ValueError("S_l must be positive (tuple outside the cone)")
        left = (sl / math.comb(p, l)) ** (1.0 / l)
    return left - right
