"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v``: the verbose listing gives
one pass/fail line per criterion, and a summary table is written to
``acceptance_report.txt`` in the working directory at the end of the
session.
"""

import time

import numpy as np
import pytest

from nconvex import woperator
from nconvex.barriers import (
    recipe_params,
    verify_h_inequality,
    verify_sub_barrier,
    verify_super_barrier,
)
from nconvex.cli import named_case
from nconvex.cone import in_gamma_k, lift_spectrum
from nconvex.discretize import (
    DiscreteField,
    Grid,
    field_at,
    hessian_batch,
    interior_residual,
    robin_residual,
    sample_problem,
)
from nconvex.geometry import DomainSpec, pinching_check
from nconvex.solver import (
    SolverConfig,
    continuation,
    ellipticity_margin,
    full_jacobian,
    quadratic_seed,
    residual_vector,
)
from nconvex.symfun import check_identities, newton_maclaurin_margin

BALL = DomainSpec.ball(1.0, n=3)
_RESULTS = []


def record(criterion, passed, detail, seconds=None):
    """Report one criterion; a wall time is printed but kept out of the file.

    The summary file then changes only when a result does, not on every run.
    """
    line = f"[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'}: {detail}"
    _RESULTS.append(line)
    if seconds is not None:
        line = f"{line} (took {seconds:.2f} s)"
    print(line)
    assert passed, line


@pytest.fixture(scope="module", autouse=True)
def summary_file():
    yield
    with open("acceptance_report.txt", "w") as fh:
        fh.write("\n".join(sorted(_RESULTS)) + "\n")


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


def random_admissible(rng, n, m):
    mu = rng.uniform(-0.5, 2.0, size=n)
    smallest = np.sort(mu)[:m].sum()
    if smallest <= 0.1:
        mu += (0.1 - smallest) / m + 0.05
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * mu) @ q.T


def smooth_bump(rng, grid):
    """Random smooth field with Hessian perturbation well below the margin."""
    omega = rng.uniform(-1.5, 1.5, size=(3, grid.n))
    coef = rng.uniform(-0.03, 0.03, size=3)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=3)

    def fn(pts):
        out = np.zeros(pts.shape[0])
        for c, w, ph in zip(coef, omega, phase):
            out += c * np.sin(pts @ w + ph)
        return out

    return DiscreteField.from_function(grid, fn)


@pytest.fixture(scope="module")
def manufactured_runs():
    """Continuation solves of the manufactured case at 17^3 and 33^3."""
    domain, problem, u_star = named_case("ball-manufactured-exp")
    runs = {}
    for res, steps in ((17, 10), (33, 2)):
        start = time.time()
        grid = Grid(domain, res)
        sampled = sample_problem(problem, grid)
        state, report = continuation(sampled, grid, SolverConfig(homotopy_steps=steps))
        elapsed = time.time() - start
        ref = DiscreteField.from_function(grid, u_star)
        err = float(np.max(np.abs(state.field.values - ref.values)))
        runs[res] = dict(grid=grid, problem=sampled, state=state, report=report,
                         err=err, seconds=elapsed)
    return runs


@pytest.fixture(scope="module")
def constant_run_25():
    domain, problem, _ = named_case("ball-constant")
    grid = Grid(domain, 25)
    sampled = sample_problem(problem, grid)
    state, report = continuation(sampled, grid, SolverConfig())
    return dict(grid=grid, problem=sampled, state=state, report=report)


def test_criterion_01_w_conformance():
    rng = np.random.default_rng(1001)
    start = time.time()
    bad = 0
    for _ in range(100):
        h = random_symmetric(rng, 3)
        got = woperator.assemble_w(h, 2)
        want = np.array(
            [
                [h[0, 0] + h[1, 1], h[1, 2], -h[0, 2]],
                [h[2, 1], h[0, 0] + h[2, 2], h[0, 1]],
                [-h[2, 0], h[1, 0], h[1, 1] + h[2, 2]],
            ]
        )
        if not np.array_equal(got, want):
            bad += 1
    elapsed = time.time() - start
    record(1, bad == 0 and elapsed < 1.0,
           f"explicit 3d lift, 100 Hessians, {bad} mismatches, within 1 s", elapsed)


def test_criterion_02_spectral_identity():
    rng = np.random.default_rng(1002)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        h = random_symmetric(rng, n, scale=2.0)
        w = woperator.assemble_w(h, m)
        got = np.sort(np.linalg.eigvalsh(w))
        want = np.sort(lift_spectrum(np.linalg.eigvalsh(h), m))
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.time() - start
    record(2, worst < 1e-9 and elapsed < 10.0,
           f"1000 lifts (n <= 6, all m), worst eigenvalue gap {worst:.2e}, within 10 s",
           elapsed)


def test_criterion_03_symmetric_function_identities():
    rng = np.random.default_rng(1003)
    worst_rel = 0.0
    for _ in range(10000):
        p = int(rng.integers(1, 11))
        lam = rng.standard_normal(p) * rng.uniform(0.1, 10.0)
        k = int(rng.integers(1, p + 1))
        worst_rel = max(worst_rel, check_identities(lam, k).max_relative)
    worst_margin = np.inf
    count = 0
    while count < 10000:
        p = int(rng.integers(2, 9))
        k = int(rng.integers(2, p + 1))
        lam = rng.uniform(-1.0, 3.0, size=p)
        if not in_gamma_k(lam, k):
            continue
        count += 1
        l = int(rng.integers(1, k))
        worst_margin = min(worst_margin, newton_maclaurin_margin(lam, k, l))
    ok = worst_rel < 1e-12 and worst_margin >= -1e-12
    record(3, ok,
           f"10^4 identity tuples (worst rel {worst_rel:.2e}), "
           f"10^4 cone margins (smallest {worst_margin:.2e})")


def test_criterion_04_gradient_and_jacobian_checks():
    rng = np.random.default_rng(1004)
    worst_grad = 0.0
    step = 1e-5
    for _ in range(1000):
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
                    woperator.det_w(h + step * e, m)
                    - woperator.det_w(h - step * e, m)
                ) / (2 * step)
                fd[i, j] = fd[j, i] = diff / (2.0 if i != j else 1.0)
        scale = np.max(np.abs(fd)) + 1e-30
        worst_grad = max(worst_grad, float(np.max(np.abs(grad - fd)) / scale))

    domain, problem, _ = named_case("ball-constant")
    grid = Grid(domain, 9)
    sampled = sample_problem(problem, grid)
    seed = quadratic_seed(grid).values
    worst_jac = 0.0
    states = 0
    while states < 20:
        u = seed + smooth_bump(rng, grid).values
        if ellipticity_margin(hessian_batch(field_at(u, 0.4, grid, sampled), grid)) <= 0.0:
            continue
        states += 1
        jac = full_jacobian(u, 0.4, grid, sampled)
        delta = rng.standard_normal(grid.n_active)
        delta /= np.linalg.norm(delta)
        fd = (
            residual_vector(u + 1e-6 * delta, 0.4, grid, sampled)
            - residual_vector(u - 1e-6 * delta, 0.4, grid, sampled)
        ) / 2e-6
        jd = jac @ delta
        worst_jac = max(worst_jac, float(np.max(np.abs(jd - fd)) / (np.max(np.abs(jd)) + 1e-30)))
    ok = worst_grad < 1e-5 and worst_jac < 1e-5
    record(4, ok,
           f"det gradient vs FD worst rel {worst_grad:.2e} (10^3 Hessians); "
           f"discrete Jacobian vs FD worst rel {worst_jac:.2e} (20 states, 9^3)")


def test_criterion_05_concavity_probes():
    rng = np.random.default_rng(1005)
    worst = np.inf
    for _ in range(10000):
        n = int(rng.integers(3, 6))
        m = n - 1
        a = random_admissible(rng, n, m)
        b = random_admissible(rng, n, m)
        worst = min(worst, woperator.concavity_probe(a, b, m))
    record(5, worst >= -1e-10,
           f"10^4 admissible pairs, smallest midpoint gap {worst:.2e}")


def test_criterion_06_exact_t0_solve():
    domain, problem, _ = named_case("ball-constant")
    worst = 0.0
    for res in (9, 17, 33):
        grid = Grid(domain, res)
        sampled = sample_problem(problem, grid)
        fld = quadratic_seed(grid)
        ri = interior_residual(fld, grid, sampled, t=0.0)
        rb = robin_residual(fld, grid, sampled, t=0.0)
        worst = max(worst, float(np.max(np.abs(ri))), float(np.max(np.abs(rb))))
    exact_ok = worst < 1e-10

    # quadratic convergence from a 1%-perturbed start at 9^3
    grid = Grid(domain, 9)
    sampled = sample_problem(problem, grid)
    bump = DiscreteField.from_function(
        grid, lambda p: 0.01 * np.exp(p[:, 0]) * np.cos(p[:, 1])
    )
    u = quadratic_seed(grid).values + bump.values
    from scipy.sparse.linalg import splu

    norms = [float(np.max(np.abs(residual_vector(u, 0.0, grid, sampled))))]
    for _ in range(6):
        jac = full_jacobian(u, 0.0, grid, sampled)
        u = u + splu(jac).solve(-residual_vector(u, 0.0, grid, sampled))
        norms.append(float(np.max(np.abs(residual_vector(u, 0.0, grid, sampled)))))
        if norms[-1] < 1e-13:
            break
    quad_ok = norms[-1] < 1e-10
    for before, after in zip(norms[1:], norms[2:]):
        if before < 1e-12:
            break
        quad_ok = quad_ok and after <= max(20.0 * before**2, 1e-13)
    record(6, exact_ok and quad_ok,
           f"seed residuals < 1e-10 at 9/17/33 (worst {worst:.2e}); "
           f"perturbed-start norms {['%.1e' % v for v in norms]}")


def test_criterion_07_manufactured_convergence(manufactured_runs):
    err17 = manufactured_runs[17]["err"]
    err33 = manufactured_runs[33]["err"]
    ratio = err17 / err33
    total = manufactured_runs[17]["seconds"] + manufactured_runs[33]["seconds"]
    reached = (
        manufactured_runs[17]["state"].t == 1.0
        and manufactured_runs[33]["state"].t == 1.0
    )
    # a Krylov stall still converges through a retried step, so look for one
    stalled = any("Krylov solve stalled" in reason
                  for res in (17, 33)
                  for _, _, reason in manufactured_runs[res]["report"].rejected_steps)
    ok = reached and 2.5 <= ratio <= 4.5 and total < 300.0 and not stalled
    record(7, ok,
           f"sup errors {err17:.3e} -> {err33:.3e}, ratio {ratio:.2f} "
           f"(window [2.5, 4.5]), both solves within 300 s", total)


def test_newton_residual_floor(manufactured_runs):
    # every accepted state sits two decades below newton_tol = 1e-10
    # (measured maxima 3.7e-13 at 17^3 and 5.0e-12 at 33^3)
    for res in (17, 33):
        rows = manufactured_runs[res]["report"].rows
        worst = max(row["residual"] for row in rows)
        assert worst <= 1e-11, f"{res}^3: accepted residual {worst:.3e} above 1e-11"


def test_criterion_08_admissibility_along_path(manufactured_runs, constant_run_25):
    margins = []
    for run in (manufactured_runs[17], manufactured_runs[33], constant_run_25):
        margins.extend(row["margin"] for row in run["report"].rows)
    worst = min(margins)
    record(8, worst > 0.0,
           f"{len(margins)} accepted states across three runs, "
           f"smallest ellipticity margin {worst:.4f}")


def test_criterion_09_barrier_diagnostics(constant_run_25, manufactured_runs):
    checks = []
    for run in (constant_run_25, manufactured_runs[33]):
        grid = run["grid"]
        state = run["state"]
        problem = run["problem"]
        domain = grid.domain
        params = recipe_params(domain, state, grid, problem, gamma=0.5)
        sub = verify_sub_barrier(domain, state, grid, problem, params)
        sup = verify_super_barrier(domain, state, grid, problem, params)
        hrep = verify_h_inequality(domain, state, grid, params)
        checks.append(
            sub.strip_extreme >= -1e-8
            and sup.strip_extreme <= 1e-8
            and sub.boundary_max_abs < 1e-9
            and sup.boundary_max_abs < 1e-9
            and hrep.min_value > 0.0
            and hrep.strip_points > 0
        )
    record(9, all(checks),
           f"sub/super/h-inequality verified on ball-constant 25^3 and "
           f"manufactured 33^3 with recipe constants (gamma = 1/2)")


def test_criterion_10_domain_gate():
    ball_ok = pinching_check(BALL).passes
    near = pinching_check(DomainSpec.ellipsoid((1.0, 1.0, 1.05)))
    ecc = pinching_check(DomainSpec.ellipsoid((1.0, 1.0, 3.0)))
    agree = near.corollary_agrees and ecc.corollary_agrees
    ok = ball_ok and near.passes and (not ecc.passes) and bool(agree)
    record(10, ok,
           f"ball PASS, (1,1,1.05) {'PASS' if near.passes else 'FAIL'}, "
           f"(1,1,3) {'FAIL' if not ecc.passes else 'PASS'}, corollary form agrees "
           f"on 10^4 boundary samples: {agree}")
