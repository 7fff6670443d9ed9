"""Cone membership tests for Hessian spectra.

The level-k cone in R^p collects tuples whose first k elementary symmetric
functions are positive.  Lifting a Hessian spectrum to its m-subset sums
pulls those cones back to the generalized cones that define strict and weak
m-convexity.  Spectra are plain float arrays.

The kernels take a leading batch axis: ``lift_spectrum``, ``in_gamma_k``
and the smallest-m-sum test behind ``m_convexity`` accept a ``(..., p)``
stack of spectra and return one result per spectrum, bit for bit what the
row-by-row calls give.  The selftest cone suite evaluates one stack per
(n, m) group this way, with seed-for-seed identical output.

``in_gamma_k`` on one tuple (1-d or 0-d) works on Python floats: the
tuple is sorted, checked and run through the recurrence as a list, with
no numpy call per entry.  The selftest mean-comparison suite takes one
such verdict per draw, since the verdict decides which numbers it draws
next.  Subset sums are added left to right, as numpy adds a stack.
"""

from __future__ import annotations

import enum
from itertools import combinations

import numpy as np

from nconvex.symfun import _add_in_order, _check_k, _entries, _esym, _spectrum

__all__ = [
    "Convexity",
    "lift_spectrum",
    "in_gamma_k",
    "m_convexity",
]


def _check_m(vals: np.ndarray, m: int) -> None:
    if not 1 <= m <= vals.shape[-1]:
        raise ValueError(f"subset size m={m} out of range 1..{vals.shape[-1]}")


def lift_spectrum(mu, m: int) -> np.ndarray:
    """All m-subset sums of the spectrum, sorted descending.

    This is the spectrum of the lifted operator W built from a Hessian with
    eigenvalues ``mu``.  A ``(..., n)`` stack gives a ``(..., C(n, m))`` stack.
    """
    vals = _spectrum(mu)
    _check_m(vals, m)
    cols = _entries(vals)
    sums = [_add_in_order(cols[i] for i in c) for c in combinations(range(len(cols)), m)]
    return _spectrum(np.moveaxis(np.array(sums), 0, -1))


def in_gamma_k(lam, k: int) -> bool | np.ndarray:
    """True iff S_i > 0 for every 1 <= i <= k (level-k cone membership).

    One tuple gives a bool, worked out on Python floats; a ``(..., p)``
    stack gives a boolean array over the stack.
    """
    vals = _spectrum(lam, floats=True)
    _check_k(vals, k, low=1)
    e = _esym(vals, k)
    inside = e[1] > 0.0
    for s in e[2:]:
        inside = inside & (s > 0.0)
    return inside


def _smallest_m_sum(mu, m: int) -> np.ndarray:
    """Sum of the m smallest entries of each spectrum: the smallest m-subset sum.

    Positive exactly when the spectrum is strictly m-convex.  A
    ``(..., n)`` stack gives one sum per spectrum.
    """
    vals = _spectrum(mu)
    _check_m(vals, m)
    return np.sum(vals[..., -m:], axis=-1)


class Convexity(enum.Enum):
    STRICT = "strict"
    WEAK = "weak"
    NONE = "none"


def m_convexity(mu, m: int) -> Convexity:
    """Classify a spectrum by the sign of its smallest m-subset sum.

    Strict means every sum of m eigenvalues is positive, weak means
    nonnegative.  The smallest sum is the sum of the m smallest entries, so
    no enumeration is needed.  Thresholds are exact comparisons on the
    computed value; quantitative margins are a solver concern.
    """
    smallest = float(_smallest_m_sum(mu, m))
    if smallest > 0.0:
        return Convexity.STRICT
    if smallest >= 0.0:
        return Convexity.WEAK
    return Convexity.NONE
