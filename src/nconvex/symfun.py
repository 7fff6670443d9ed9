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
output.  ``check_identities`` runs the p deleted tuples of every row of a
stack as one ``(p, ..., p)`` stack, in one pass of the recurrence.

One tuple takes a cheaper route where it is called per case, in
``check_identities`` and ``newton_maclaurin_margin``: with ``floats`` on,
``_spectrum`` returns it as a list of Python floats, sorted and checked as
a stack row is, and ``_esym`` and the identity sums run the same
arithmetic on that list, so the values are the row's bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IdentityReport",
    "elementary_symmetric",
    "deleted_symmetric",
    "check_identities",
    "newton_maclaurin_margin",
]


def _spectrum(seq, sort: bool = True, floats: bool = False):
    """The tuple, or each tuple of a ``(..., p)`` stack, as floats sorted descending.

    ``sort`` off keeps the supplied order.  ``floats`` on gives a 1-d or
    0-d input as a list of Python floats in the same order, which the
    recurrence steps through without a numpy call per entry; a stack stays
    an array.  Raises ValueError for an empty or non-finite tuple.
    """
    arr = np.asarray(seq, dtype=float)
    if floats and arr.ndim <= 1:
        vals = arr.tolist() if arr.ndim else [arr.item()]
        _check_finite(len(vals), all(map(math.isfinite, vals)))
        # list.sort is stable under reverse=True as well, so this is the
        # order of the stable sort below, signed zeros included
        return sorted(vals, reverse=True) if sort else vals
    arr = np.atleast_1d(arr)
    _check_finite(arr.shape[-1], bool(np.all(np.isfinite(arr))))
    # negation is exact and the stable sort keeps ties in order, so this is
    # arr[argsort(-arr)] bit for bit, signed zeros included
    return -np.sort(-arr, axis=-1, kind="stable") if sort else arr


def _check_finite(p: int, finite: bool) -> None:
    if p == 0:
        raise ValueError("eigenvalue tuple must be non-empty")
    if not finite:
        raise ValueError("eigenvalue tuple must be finite")


def _length(vals) -> int:
    """The tuple length p of a spectrum; a list is one tuple."""
    return len(vals) if isinstance(vals, list) else vals.shape[-1]


def _check_k(vals, k: int, low: int = 0) -> int:
    """The tuple length p of a spectrum, once low <= k <= p is checked."""
    p = _length(vals)
    if not low <= k <= p:
        raise ValueError(f"k={k} out of range for a {p}-tuple")
    return p


def _entries(values):
    """Entry i of one tuple as a Python float, or of every tuple of a stack as an array.

    A list is taken to be one tuple's Python floats already.
    """
    if isinstance(values, list):
        return values
    return values.tolist() if values.ndim == 1 else np.moveaxis(values, -1, 0)


def _add_in_order(terms):
    """The terms added left to right, starting from 0.

    This is how numpy adds a short row or a stack column by column.  The
    builtin ``sum`` compensates float sums from Python 3.12 on, so a
    one-tuple would round differently from the same row of a stack.
    """
    return functools.reduce(operator.add, terms, 0)


def _esym(values, k: int) -> list:
    """[S_0, ..., S_k] of a raw value array from one pass of the coefficient recurrence.

    A 1-d tuple, or a list of Python floats, steps through Python floats; a
    ``(..., p)`` stack steps the same recurrence through its columns, so
    each S_i is an array over the stack holding bit for bit the values of
    the row-by-row passes.  O(p*k) and numerically stable for the sizes used
    here; S_i does not depend on the cap k.  The exponential subset
    enumeration lives in the test suite as the independent oracle.
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
    p = _check_k(work, k)
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
    vals = _spectrum(lam, floats=True)
    p = _check_k(vals, k, low=1)
    sk = _esym(vals, k)[k]
    if isinstance(vals, list):
        passes = [_esym(vals[:i] + [0.0] + vals[i + 1:], k) for i in range(p)]
        deleted_sk = [e[k] for e in passes]
        terms = [x * e[k - 1] for x, e in zip(vals, passes)]
        worst_dec = max(abs(sk - (d + t)) for d, t in zip(deleted_sk, terms))
        scale = max(abs(sk), max(map(abs, deleted_sk)), max(map(abs, terms)))
    else:
        # the p deleted tuples of every row as one (p, ..., p) stack, tuple i
        # with entry i zeroed; laid out entry-major, so _esym's columns are
        # contiguous
        cols = np.moveaxis(vals, -1, 0)
        work = np.repeat(cols[:, None], p, axis=1)
        diag = np.arange(p)
        work[diag, diag] = 0.0
        e = _esym(np.moveaxis(work, 0, -1), k)
        deleted_sk, terms = e[k], cols * e[k - 1]
        worst_dec = np.max(np.abs(sk - (deleted_sk + terms)), axis=0)
        scale = np.maximum(np.abs(sk), np.max(np.abs([deleted_sk, terms]), axis=(0, 1)))
    return IdentityReport(
        k=k,
        p=p,
        decomposition=worst_dec,
        weighted_sum=abs(_add_in_order(terms) - k * sk),
        deleted_sum=abs(_add_in_order(deleted_sk) - (p - k) * sk),
        scale=scale,
    )


def newton_maclaurin_margin(lam, k: int, l: int) -> float | np.ndarray:
    """Gap (S_l / C(p,l))^(1/l) - (S_k / C(p,k))^(1/k), the l = 0 term read as 1.

    Nonnegative whenever the tuple lies in the k-th Garding cone; the caller
    is responsible for that membership.  A stack gives one gap per tuple
    and is refused whole if any tuple has S_k or S_l <= 0.
    """
    vals = _spectrum(lam, floats=True)
    p = _length(vals)
    if not 0 <= l < k <= p:
        raise ValueError(f"need 0 <= l < k <= p, got k={k}, l={l}, p={p}")
    e = _esym(vals, k)
    sk = e[k]
    if not _all_positive(sk):
        raise ValueError("S_k must be positive (tuple outside the cone)")
    right = (sk / math.comb(p, k)) ** (1.0 / k)
    if l == 0:
        left = 1.0
    else:
        sl = e[l]
        if not _all_positive(sl):
            raise ValueError("S_l must be positive (tuple outside the cone)")
        left = (sl / math.comb(p, l)) ** (1.0 / l)
    return left - right


def _all_positive(values) -> bool:
    """Whether a Python float, or every entry of an array, is positive."""
    return values > 0.0 if isinstance(values, float) else bool(np.all(values > 0.0))
