"""Seeded property battery behind the `selftest` command.

Re-runs the library invariants (symmetric-function identities, cone
nesting, lift conformance, gradients, concavity) with a configurable seed
and reports one result per suite.  Kept separate from the pytest suite so
a deployed install can self-check without test infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nconvex import cone, symfun, woperator

__all__ = ["CheckResult", "run_all"]

SUPPORTED_MAX_N = 6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


def _suite_symfun(rng, cases=2000):
    worst = 0.0
    for _ in range(cases):
        p = int(rng.integers(1, 11))
        lam = rng.standard_normal(p) * rng.uniform(0.1, 10.0)
        k = int(rng.integers(1, p + 1))
        rep = symfun.check_identities(lam, k)
        worst = max(worst, rep.max_relative)
    ok = worst < 1e-12
    return CheckResult(
        name="symmetric-function identities",
        passed=ok,
        detail=f"{cases} tuples, worst relative discrepancy {worst:.3e}",
    )


def _suite_newton_maclaurin(rng, cases=2000):
    worst = np.inf
    tried = 0
    while tried < cases:
        p = int(rng.integers(2, 9))
        k = int(rng.integers(2, p + 1))
        lam = rng.uniform(-1.0, 3.0, size=p)
        if not cone.in_gamma_k(lam, k):
            continue
        tried += 1
        l = int(rng.integers(1, k))
        worst = min(worst, symfun.newton_maclaurin_margin(lam, k, l))
    ok = worst >= -1e-12
    return CheckResult(
        name="mean-comparison margins",
        passed=ok,
        detail=f"{cases} cone samples, smallest margin {worst:.3e}",
    )


def _suite_cone(rng, cases=1500):
    mismatches = 0
    for _ in range(cases):
        n = int(rng.integers(2, SUPPORTED_MAX_N + 1))
        m = int(rng.integers(1, n + 1))
        mu = rng.uniform(-1.0, 2.0, size=n)
        lifted = cone.lift_spectrum(mu, m)
        via_cone = cone.in_gamma_k(lifted, lifted.p) and bool(np.all(lifted.values > 0))
        via_minsum = cone.m_convexity(mu, m) is cone.Convexity.STRICT
        mismatches += via_cone != via_minsum
    return CheckResult(
        name="cone membership cross-check",
        passed=mismatches == 0,
        detail=f"{cases} spectra, {mismatches} route mismatches",
    )


def _reference_w_3d(h):
    return np.array(
        [
            [h[0, 0] + h[1, 1], h[1, 2], -h[0, 2]],
            [h[2, 1], h[0, 0] + h[2, 2], h[0, 1]],
            [-h[2, 0], h[1, 0], h[1, 1] + h[2, 2]],
        ]
    )


def _suite_conformance(rng, cases=100):
    bad = 0
    for _ in range(cases):
        a = rng.standard_normal((3, 3))
        h = 0.5 * (a + a.T)
        got = woperator.assemble_w(h, 2).matrix
        if not np.array_equal(got, _reference_w_3d(h)):
            bad += 1
    return CheckResult(
        name="explicit 3d lift conformance",
        passed=bad == 0,
        detail=f"{cases} random Hessians, {bad} mismatches",
    )


def _suite_spectral(rng, cases=200, max_n=SUPPORTED_MAX_N):
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, max_n + 1))
        m = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, n)) * 2.0
        h = 0.5 * (a + a.T)
        w = woperator.assemble_w(h, m).matrix
        got = np.sort(np.linalg.eigvalsh(w))
        want = np.sort(cone.lift_spectrum(np.linalg.eigvalsh(h), m).values)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst < 1e-9
    return CheckResult(
        name="lift spectral identity",
        passed=ok,
        detail=f"{cases} Hessians up to n={max_n}, worst eigenvalue gap {worst:.3e}",
    )


def _random_admissible(rng, n, m):
    mu = rng.uniform(-0.5, 2.0, size=n)
    smallest = np.sort(mu)[:m].sum()
    if smallest <= 0.1:
        mu += (0.1 - smallest) / m + 0.05
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * mu) @ q.T


def _suite_gradient(rng, cases=100):
    worst = 0.0
    step = 1e-5
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n + 1))
        h = _random_admissible(rng, n, m)
        grad = woperator.linearization(h, m)
        fd = np.zeros_like(grad)
        for i in range(n):
            for j in range(i, n):
                e = np.zeros((n, n))
                e[i, j] = e[j, i] = 1.0
                diff = (
                    woperator.det_w(h + step * e, m) - woperator.det_w(h - step * e, m)
                ) / (2 * step)
                fd[i, j] = fd[j, i] = diff / (2.0 if i != j else 1.0)
        scale = np.max(np.abs(fd)) + 1e-30
        worst = max(worst, float(np.max(np.abs(grad - fd)) / scale))
    ok = worst < 1e-5
    return CheckResult(
        name="determinant gradient vs finite differences",
        passed=ok,
        detail=f"{cases} admissible Hessians, worst relative gap {worst:.3e}",
    )


def _suite_concavity(rng, cases=2000):
    worst = np.inf
    for _ in range(cases):
        n = int(rng.integers(3, 6))
        m = n - 1
        a = _random_admissible(rng, n, m)
        b = _random_admissible(rng, n, m)
        worst = min(worst, woperator.concavity_probe(a, b, m))
    ok = worst >= -1e-10
    return CheckResult(
        name="root-determinant midpoint concavity",
        passed=ok,
        detail=f"{cases} admissible pairs, smallest gap {worst:.3e}",
    )


def run_all(seed: int = 0, max_n: int = SUPPORTED_MAX_N):
    """Run every suite with one RNG stream; returns the result list.

    A suite that raises is reported as failed rather than aborting the
    battery, so one broken kernel cannot hide the other verdicts.
    """
    if max_n > SUPPORTED_MAX_N:
        raise ValueError(
            f"max_n={max_n} exceeds the supported algebra dimension {SUPPORTED_MAX_N}"
        )
    rng = np.random.default_rng(seed)
    suites = (
        ("symmetric-function identities", _suite_symfun, {}),
        ("mean-comparison margins", _suite_newton_maclaurin, {}),
        ("cone membership cross-check", _suite_cone, {}),
        ("explicit 3d lift conformance", _suite_conformance, {}),
        ("lift spectral identity", _suite_spectral, {"max_n": max_n}),
        ("determinant gradient vs finite differences", _suite_gradient, {}),
        ("root-determinant midpoint concavity", _suite_concavity, {}),
    )
    results = []
    for name, suite, kwargs in suites:
        try:
            results.append(suite(rng, **kwargs))
        except Exception as exc:  # a crash is a failed check, with the case shown
            results.append(CheckResult(name=name, passed=False, detail=f"crashed: {exc!r}"))
    return results
