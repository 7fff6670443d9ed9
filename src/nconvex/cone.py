"""Cone membership tests for Hessian spectra.

The level-k cone in R^p collects tuples whose first k elementary symmetric
functions are positive.  Lifting a Hessian spectrum to its m-subset sums
pulls those cones back to the generalized cones that define strict and weak
m-convexity.  Spectra are plain float arrays.
"""

from __future__ import annotations

import enum
from itertools import combinations

import numpy as np

from nconvex.symfun import _esym, _spectrum

__all__ = [
    "Convexity",
    "lift_spectrum",
    "in_gamma_k",
    "m_convexity",
]


def lift_spectrum(mu, m: int) -> np.ndarray:
    """All m-subset sums of the spectrum, sorted descending.

    This is the spectrum of the lifted operator W built from a Hessian with
    eigenvalues ``mu``.
    """
    vals = _spectrum(mu)
    if not 1 <= m <= vals.size:
        raise ValueError(f"subset size m={m} out of range 1..{vals.size}")
    return _spectrum([sum(c) for c in combinations(vals, m)])


def in_gamma_k(lam, k: int) -> bool:
    """True iff S_i > 0 for every 1 <= i <= k (level-k cone membership)."""
    vals = _spectrum(lam)
    if not 1 <= k <= vals.size:
        raise ValueError(f"k={k} out of range for a {vals.size}-tuple")
    return all(s > 0.0 for s in _esym(vals, k)[1:])


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
    vals = _spectrum(mu)
    if not 1 <= m <= vals.size:
        raise ValueError(f"subset size m={m} out of range 1..{vals.size}")
    smallest = float(np.sum(vals[-m:]))
    if smallest > 0.0:
        return Convexity.STRICT
    if smallest >= 0.0:
        return Convexity.WEAK
    return Convexity.NONE
