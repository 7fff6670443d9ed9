"""Seeded property battery behind the `selftest` command.

Re-runs the library invariants (symmetric-function identities, cone
nesting, lift conformance, gradients, concavity) with a configurable seed
and reports one result per suite.  Kept separate from the pytest suite so
a deployed install can self-check without test infrastructure.

The algebra kernels take a leading batch axis.  The identity,
mean-comparison, cone, spectral, gradient and concavity suites draw their
cases one by one in a fixed RNG order, group them by shape, and evaluate
one stack per shape group; the output is identical, seed for seed, to
evaluating the cases one at a time.  The mean-comparison suite still takes
each membership verdict per draw, because whether it draws ``l`` depends
on it; only the margins wait for the loop to end.  The conformance suite
compares each lift with its explicit 3x3 form.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from nconvex import cone, symfun, woperator

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


def _suite_symfun(rng, cases=2000):
    groups = defaultdict(list)
    for _ in range(cases):
        p = int(rng.integers(1, 11))
        lam = rng.standard_normal(p) * rng.uniform(0.1, 10.0)
        k = int(rng.integers(1, p + 1))
        groups[p, k].append(lam)
    worst = 0.0
    for (_, k), lams in groups.items():
        rep = symfun.check_identities(np.stack(lams), k)
        worst = max(worst, float(np.max(rep.max_relative)))
    ok = worst < 1e-12
    return CheckResult(
        name="symmetric-function identities",
        passed=ok,
        detail=f"{cases} tuples, worst relative discrepancy {worst:.3e}",
    )


def _suite_newton_maclaurin(rng, cases=2000):
    groups = defaultdict(list)
    tried = 0
    while tried < cases:
        p = int(rng.integers(2, 9))
        k = int(rng.integers(2, p + 1))
        lam = rng.uniform(-1.0, 3.0, size=p)
        if not cone.in_gamma_k(lam, k):
            continue
        tried += 1
        groups[p, k, int(rng.integers(1, k))].append(lam)
    worst = np.inf
    for (_, k, l), lams in groups.items():
        margins = symfun.newton_maclaurin_margin(np.stack(lams), k, l)
        worst = min(worst, float(np.min(margins)))
    ok = worst >= -1e-12
    return CheckResult(
        name="mean-comparison margins",
        passed=ok,
        detail=f"{cases} cone samples, smallest margin {worst:.3e}",
    )


def _suite_cone(rng, cases=1500):
    groups = defaultdict(list)
    for _ in range(cases):
        n = int(rng.integers(2, woperator.MAX_LIFT_N + 1))
        m = int(rng.integers(1, n + 1))
        groups[n, m].append(rng.uniform(-1.0, 2.0, size=n))
    mismatches = 0
    for (_, m), mus in groups.items():
        mu = np.stack(mus)
        lifted = cone.lift_spectrum(mu, m)
        via_cone = cone.in_gamma_k(lifted, lifted.shape[-1]) & np.all(lifted > 0, axis=-1)
        via_minsum = cone._smallest_m_sum(mu, m) > 0.0  # m_convexity's STRICT verdict
        mismatches += int(np.count_nonzero(via_cone != via_minsum))
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
        got = woperator.assemble_w(h, 2)
        if not np.array_equal(got, _reference_w_3d(h)):
            bad += 1
    return CheckResult(
        name="explicit 3d lift conformance",
        passed=bad == 0,
        detail=f"{cases} random Hessians, {bad} mismatches",
    )


def _suite_spectral(rng, cases=200):
    groups = defaultdict(list)
    for _ in range(cases):
        n = int(rng.integers(2, woperator.MAX_LIFT_N + 1))
        m = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, n)) * 2.0
        groups[n, m].append(0.5 * (a + a.T))
    worst = 0.0
    for (_, m), hs in groups.items():
        h = np.stack(hs)
        got = np.sort(np.linalg.eigvalsh(woperator.assemble_w(h, m)), axis=-1)
        want = np.sort(cone.lift_spectrum(np.linalg.eigvalsh(h), m), axis=-1)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst < 1e-9
    return CheckResult(
        name="lift spectral identity",
        passed=ok,
        detail=f"{cases} Hessians up to n={woperator.MAX_LIFT_N}, worst eigenvalue gap {worst:.3e}",
    )


def _draw_admissible(rng, n, m):
    """The draws behind one strictly m-convex Hessian: its spectrum and a Gaussian n x n matrix.

    A spectrum whose m smallest entries sum to at most 0.1 is shifted up
    until they sum to more.
    """
    mu = rng.uniform(-0.5, 2.0, size=n)
    smallest = np.sort(mu)[:m].sum()
    if smallest <= 0.1:
        mu += (0.1 - smallest) / m + 0.05
    return mu, rng.standard_normal((n, n))


def _admissible(draws):
    """The stack of Hessians q diag(mu) q^T, q the Q factor of each drawn Gaussian matrix."""
    q, _ = np.linalg.qr(np.stack([g for _, g in draws]))
    mu = np.stack([mu for mu, _ in draws])
    return (q * mu[..., None, :]) @ np.swapaxes(q, -1, -2)


def _suite_gradient(rng, cases=100):
    groups = defaultdict(list)
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n + 1))
        groups[n, m].append(_draw_admissible(rng, n, m))
    worst = 0.0
    step = 1e-5
    for (n, m), draws in groups.items():
        h = _admissible(draws)
        grad = woperator.linearization(h, m)
        fd = np.zeros_like(grad)
        for i in range(n):
            for j in range(i, n):
                e = np.zeros((n, n))
                e[i, j] = e[j, i] = 1.0
                diff = (
                    woperator.det_w(h + step * e, m) - woperator.det_w(h - step * e, m)
                ) / (2 * step)
                fd[..., i, j] = fd[..., j, i] = diff / (2.0 if i != j else 1.0)
        scale = np.max(np.abs(fd), axis=(-2, -1)) + 1e-30
        worst = max(worst, float(np.max(np.max(np.abs(grad - fd), axis=(-2, -1)) / scale)))
    ok = worst < 1e-5
    return CheckResult(
        name="determinant gradient vs finite differences",
        passed=ok,
        detail=f"{cases} admissible Hessians, worst relative gap {worst:.3e}",
    )


def _suite_concavity(rng, cases=2000):
    groups = defaultdict(lambda: ([], []))
    for _ in range(cases):
        n = int(rng.integers(3, 6))
        m = n - 1
        first, second = groups[n]
        first.append(_draw_admissible(rng, n, m))
        second.append(_draw_admissible(rng, n, m))
    worst = np.inf
    for n, (first, second) in groups.items():
        gaps = woperator.concavity_probe(_admissible(first), _admissible(second), n - 1)
        worst = min(worst, float(np.min(gaps)))
    ok = worst >= -1e-10
    return CheckResult(
        name="root-determinant midpoint concavity",
        passed=ok,
        detail=f"{cases} admissible pairs, smallest gap {worst:.3e}",
    )


def run_all(seed: int = 0):
    """Run every suite with one RNG stream; returns the result list.

    A suite that raises is reported as failed rather than aborting the
    battery, so one broken kernel cannot hide the other verdicts.
    """
    rng = np.random.default_rng(seed)
    suites = (
        ("symmetric-function identities", _suite_symfun),
        ("mean-comparison margins", _suite_newton_maclaurin),
        ("cone membership cross-check", _suite_cone),
        ("explicit 3d lift conformance", _suite_conformance),
        ("lift spectral identity", _suite_spectral),
        ("determinant gradient vs finite differences", _suite_gradient),
        ("root-determinant midpoint concavity", _suite_concavity),
    )
    results = []
    for name, suite in suites:
        try:
            results.append(suite(rng))
        except Exception as exc:  # a crash is a failed check, with the case shown
            results.append(CheckResult(name=name, passed=False, detail=f"crashed: {exc!r}"))
    return results
