"""The stacked selftest battery against its per-case form.

The identity, mean-comparison, cone, spectral, gradient and concavity
suites draw their cases in RNG order and evaluate one stack per shape
group.  The oracle below keeps the per-case loops, one public scalar call
per case; the battery must print the same lines and leave the generator in
the same state, so a reordered or extra draw fails.
"""

import hashlib

import numpy as np
import pytest

from nconvex import cone, selftest, symfun, woperator
from nconvex.cli import main
from nconvex.selftest import CheckResult


def random_admissible(rng, n, m):
    mu = rng.uniform(-0.5, 2.0, size=n)
    smallest = np.sort(mu)[:m].sum()
    if smallest <= 0.1:
        mu += (0.1 - smallest) / m + 0.05
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * mu) @ q.T


def oracle_symfun(rng, cases=2000):
    worst = 0.0
    for _ in range(cases):
        p = int(rng.integers(1, 11))
        lam = rng.standard_normal(p) * rng.uniform(0.1, 10.0)
        k = int(rng.integers(1, p + 1))
        worst = max(worst, symfun.check_identities(lam, k).max_relative)
    return CheckResult(
        name="symmetric-function identities",
        passed=worst < 1e-12,
        detail=f"{cases} tuples, worst relative discrepancy {worst:.3e}",
    )


def oracle_newton_maclaurin(rng, cases=2000):
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
    return CheckResult(
        name="mean-comparison margins",
        passed=worst >= -1e-12,
        detail=f"{cases} cone samples, smallest margin {worst:.3e}",
    )


def oracle_cone(rng, cases=1500):
    mismatches = 0
    for _ in range(cases):
        n = int(rng.integers(2, woperator.MAX_LIFT_N + 1))
        m = int(rng.integers(1, n + 1))
        mu = rng.uniform(-1.0, 2.0, size=n)
        lifted = cone.lift_spectrum(mu, m)
        via_cone = cone.in_gamma_k(lifted, lifted.size) and bool(np.all(lifted > 0))
        via_minsum = cone.m_convexity(mu, m) is cone.Convexity.STRICT
        mismatches += via_cone != via_minsum
    return CheckResult(
        name="cone membership cross-check",
        passed=mismatches == 0,
        detail=f"{cases} spectra, {mismatches} route mismatches",
    )


def oracle_spectral(rng, cases=200):
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, woperator.MAX_LIFT_N + 1))
        m = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, n)) * 2.0
        h = 0.5 * (a + a.T)
        got = np.sort(np.linalg.eigvalsh(woperator.assemble_w(h, m)))
        want = np.sort(cone.lift_spectrum(np.linalg.eigvalsh(h), m))
        worst = max(worst, float(np.max(np.abs(got - want))))
    return CheckResult(
        name="lift spectral identity",
        passed=worst < 1e-9,
        detail=f"{cases} Hessians up to n={woperator.MAX_LIFT_N}, worst eigenvalue gap {worst:.3e}",
    )


def oracle_gradient(rng, cases=100):
    worst = 0.0
    step = 1e-5
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n + 1))
        h = random_admissible(rng, n, m)
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
    return CheckResult(
        name="determinant gradient vs finite differences",
        passed=worst < 1e-5,
        detail=f"{cases} admissible Hessians, worst relative gap {worst:.3e}",
    )


def oracle_concavity(rng, cases=2000):
    worst = np.inf
    for _ in range(cases):
        n = int(rng.integers(3, 6))
        m = n - 1
        a = random_admissible(rng, n, m)
        b = random_admissible(rng, n, m)
        worst = min(worst, woperator.concavity_probe(a, b, m))
    return CheckResult(
        name="root-determinant midpoint concavity",
        passed=worst >= -1e-10,
        detail=f"{cases} admissible pairs, smallest gap {worst:.3e}",
    )


# run_all's order; the conformance suite is per case already
ORACLE_SUITES = (
    oracle_symfun,
    oracle_newton_maclaurin,
    oracle_cone,
    selftest._suite_conformance,
    oracle_spectral,
    oracle_gradient,
    oracle_concavity,
)


def capture_generator(monkeypatch):
    """Make ``np.random.default_rng`` record each generator it builds."""
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_battery_matches_the_per_case_oracle(seed, monkeypatch):
    made = capture_generator(monkeypatch)
    got = [r.line() for r in selftest.run_all(seed)]
    rng = np.random.default_rng(seed)
    want = [suite(rng).line() for suite in ORACLE_SUITES]
    assert got == want
    assert made[0].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("stacked, oracle", [
    (selftest._suite_symfun, oracle_symfun),
    (selftest._suite_newton_maclaurin, oracle_newton_maclaurin),
    (selftest._suite_cone, oracle_cone),
    (selftest._suite_spectral, oracle_spectral),
    (selftest._suite_gradient, oracle_gradient),
    (selftest._suite_concavity, oracle_concavity),
], ids=["symfun", "newton-maclaurin", "cone", "spectral", "gradient", "concavity"])
@pytest.mark.parametrize("cases", [1, 60])
def test_each_stacked_suite_draws_what_its_oracle_draws(stacked, oracle, cases):
    # one case makes that case the worst one, so a dropped case shows
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    assert stacked(a, cases=cases).line() == oracle(b, cases=cases).line()
    assert a.bit_generator.state == b.bit_generator.state


# SHA-256 of the `nconvex selftest --seed N` output, as recorded before the
# mean-comparison suite was stacked; the battery's text must not move
SELFTEST_OUTPUT_SHA256 = {
    0: "633890f0dffd67d9cde327dd7da7374777bde453a6e621ff448122d38f6676ac",
    1: "e01c4187651d48c01ab338b20e3f0586bedfc75a1a527a5953e7b7641a05b537",
    2: "198340823feba16758cc14ca23ed46d0d6e603d8b5e01b16539cd02d940dae18",
    3: "514783df513996e9170beba10d9505004b8cbf2940d4a02906751f8631907917",
    4: "fed1088086a14c206394aad10e6e6f920025abb7a7d4cb109a8218733bd08ee6",
    5: "5d80f16efeb6bc19a6c4fc393ba093024358ecef6495dcd42861cc24f68fd1be",
}


@pytest.mark.parametrize("seed", sorted(SELFTEST_OUTPUT_SHA256))
def test_selftest_command_output_is_unchanged(seed, capsys):
    assert main(["selftest", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_OUTPUT_SHA256[seed]
