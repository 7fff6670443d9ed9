"""Newton and continuation behavior on the unit ball."""

import json

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import nconvex.solver
from nconvex import woperator
from nconvex.discretize import (
    DiscreteField,
    Grid,
    ProblemSpec,
    hessian_batch,
    homotopy_constant,
    sample_problem,
)
from nconvex.geometry import DomainSpec
from nconvex.solver import (
    CondensedSolver,
    ContinuationFailure,
    HomotopyState,
    PathReport,
    SolverConfig,
    StepFailure,
    assemble_jacobian,
    bound_monitors,
    continuation,
    ellipticity_margin,
    newton_solve,
    quadratic_seed,
    residual_vector,
)

BALL = DomainSpec.ball(1.0, n=3)


def nu_of(pts):
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def constant_problem(n=3):
    c0 = homotopy_constant(n)
    return ProblemSpec(
        n=n,
        f=lambda pts: np.full(pts.shape[0], c0),
        phi=lambda pts: np.einsum("ij,ij->i", pts, nu_of(pts)) + 0.5 * np.sum(pts**2, axis=1),
        name="ball-constant",
    )


AMP = 0.05


def u_star(pts):
    return 0.5 * np.sum(pts**2, axis=1) + AMP * np.exp(pts[:, 0])


def manufactured_problem():
    def f(pts):
        a = AMP * np.exp(pts[:, 0])
        return 2.0 * (2.0 + a) ** 2

    def phi(pts):
        nu = nu_of(pts)
        grad = pts.copy()
        grad[:, 0] += AMP * np.exp(pts[:, 0])
        return np.einsum("ij,ij->i", grad, nu) + u_star(pts)

    return ProblemSpec(n=3, f=f, phi=phi, name="ball-manufactured-exp")


@pytest.fixture(scope="module")
def grid9():
    return Grid(BALL, 9)


@pytest.fixture(scope="module")
def sp9(grid9):
    return sample_problem(constant_problem(), grid9)


def make_state(t, fld, grid, problem):
    r = residual_vector(fld.pack(), t, grid, problem)
    return HomotopyState(
        t=t,
        field=fld,
        residual_norm=float(np.max(np.abs(r))),
        ellipticity_margin=ellipticity_margin(fld, grid),
        monitors=bound_monitors(fld, grid),
    )


class TestNewton:
    def test_exact_start_converges_immediately(self, grid9, sp9):
        state = make_state(0.0, quadratic_seed(grid9), grid9, sp9)
        out = newton_solve(state, grid9, sp9, SolverConfig())
        assert out.residual_norm < 1e-11

    def test_perturbed_start_quadratic_convergence(self, grid9, sp9):
        rng = np.random.default_rng(3)
        seed = quadratic_seed(grid9)
        bump = DiscreteField.from_function(
            grid9, lambda p: 0.01 * np.exp(p[:, 0]) * np.cos(p[:, 1])
        )
        fld = DiscreteField(values=seed.values + bump.values, trace=seed.trace + bump.trace)
        state = make_state(0.0, fld, grid9, sp9)
        assert state.ellipticity_margin > 0.0
        # track residual norms through full (undamped-accepted) steps
        norms = [state.residual_norm]
        x = fld.pack()
        for _ in range(6):
            jac = assemble_jacobian(x, 0.0, grid9, sp9)
            x = x + splu(jac).solve(-residual_vector(x, 0.0, grid9, sp9))
            norms.append(float(np.max(np.abs(residual_vector(x, 0.0, grid9, sp9)))))
            if norms[-1] < 1e-13:
                break
        # quadratic contraction: each residual is at most ~C * previous^2
        for before, after in zip(norms[1:], norms[2:]):
            if before < 1e-12:
                break
            assert after <= max(20.0 * before**2, 1e-13)

    def test_inadmissible_start_rejected(self, grid9, sp9):
        fld = DiscreteField.from_function(grid9, lambda p: -0.5 * np.sum(p**2, axis=1))
        state = make_state(0.0, fld, grid9, sp9)
        with pytest.raises(ValueError):
            newton_solve(state, grid9, sp9, SolverConfig())

    def test_jacobian_matches_directional_differences(self, grid9, sp9):
        # the 9^3 ball and, for a non-spherical boundary, the (1, 1, 1.05) ellipsoid
        egg = Grid(DomainSpec.ellipsoid((1.0, 1.0, 1.05)), 9)
        for grid, problem in ((grid9, sp9), (egg, sample_problem(constant_problem(), egg))):
            rng = np.random.default_rng(11)
            seed = quadratic_seed(grid)
            tested = 0
            for trial in range(8):
                omega = rng.uniform(-1.5, 1.5, size=(3, 3))
                coef = rng.uniform(-0.03, 0.03, size=3)
                bump = DiscreteField.from_function(
                    grid,
                    lambda p: sum(c * np.sin(p @ w) for c, w in zip(coef, omega)),
                ).pack()
                x = seed.pack() + bump
                fld = DiscreteField.unpack(x, grid)
                if ellipticity_margin(fld, grid) <= 0.0:
                    continue
                tested += 1
                jac = assemble_jacobian(x, 0.3, grid, problem)
                delta = rng.standard_normal(grid.n_unknowns)
                delta /= np.linalg.norm(delta)
                step = 1e-6
                fd = (
                    residual_vector(x + step * delta, 0.3, grid, problem)
                    - residual_vector(x - step * delta, 0.3, grid, problem)
                ) / (2.0 * step)
                jd = jac @ delta
                scale = np.max(np.abs(jd)) + 1e-30
                assert np.max(np.abs(jd - fd)) / scale < 1e-5, grid.domain.kind
            assert tested >= 5, grid.domain.kind

    def test_root_det_concave_along_segment(self, grid9, sp9):
        # det(W)^(1/n) at each active point is concave in the line-search
        # parameter because the Hessian map is affine in the unknowns
        seed = quadratic_seed(grid9).pack()
        bump = DiscreteField.from_function(
            grid9, lambda p: 0.1 * np.exp(p[:, 0]) * np.cos(p[:, 1])
        )
        delta = bump.pack()

        def root_det(x):
            fld = DiscreteField.unpack(x, grid9)
            det = woperator.batch_det_w(hessian_batch(fld, grid9))
            assert np.all(det > 0.0)
            return det ** (1.0 / 3.0)

        left = root_det(seed)
        right = root_det(seed + delta)
        mid = root_det(seed + 0.5 * delta)
        assert np.all(mid - 0.5 * (left + right) >= -1e-10)


class TestContinuation:
    def test_constant_path(self, grid9, sp9):
        state, report = continuation(sp9, grid9, SolverConfig())
        assert state.t == 1.0
        assert state.residual_norm < 1e-11
        seed = quadratic_seed(grid9)
        assert np.max(np.abs(state.field.values - seed.values)) < 1e-10
        # monitors constant along the path
        rows = report.rows
        assert len(rows) == 11
        for col in ("sup_u", "sup_du", "sup_d2u", "N"):
            vals = [row[col] for row in rows]
            assert np.ptp(vals) < 1e-9
        assert rows[-1]["sup_u"] == pytest.approx(0.5, abs=1e-10)
        assert rows[-1]["sup_du"] == pytest.approx(1.0, abs=1e-9)
        assert rows[-1]["sup_d2u"] == pytest.approx(1.0, abs=1e-9)
        assert rows[-1]["N"] == pytest.approx(1.0, abs=1e-9)
        assert rows[-1]["ratio"] == pytest.approx(0.5, abs=1e-9)

    def test_every_accepted_state_admissible(self, grid9, sp9):
        _, report = continuation(sp9, grid9, SolverConfig())
        for row in report.rows:
            assert row["margin"] > 0.0

    def test_manufactured_converges_to_reference(self):
        grid = Grid(BALL, 13)
        problem = sample_problem(manufactured_problem(), grid)
        # admissibility of the reference is a precondition of the setup
        ref = DiscreteField.from_function(grid, u_star)
        assert ellipticity_margin(ref, grid) > 0.0
        state, report = continuation(problem, grid, SolverConfig())
        assert state.t == 1.0
        err = np.max(np.abs(state.field.values - ref.values))
        assert err < 5e-3
        for row in report.rows:
            assert row["margin"] > 0.0
            # second-derivative-to-boundary-normal ratio stays bounded
            assert row["ratio"] < 1.0

    def test_positivity_precondition(self, grid9):
        bad = ProblemSpec(n=3, f=lambda p: p[:, 0], phi=lambda p: np.zeros(p.shape[0]))
        with pytest.raises(ValueError):
            sample_problem(bad, grid9)

    def test_pinching_gate_blocks_eccentric_domain(self):
        egg = DomainSpec.ellipsoid((1.0, 1.0, 3.0))
        grid = Grid(egg, 21)
        problem = sample_problem(constant_problem(), grid)
        with pytest.raises(ValueError, match="pinching"):
            continuation(problem, grid, SolverConfig())

    def test_step_underflow_raises_with_last_good_state(self, grid9):
        problem = sample_problem(manufactured_problem(), grid9)
        config = SolverConfig(homotopy_steps=1, max_newton_iters=1, min_step=0.3)
        with pytest.raises(ContinuationFailure, match="step size underflow") as info:
            continuation(problem, grid9, config)
        state, report = info.value.state, info.value.report
        assert state.t == 0.0
        assert state.ellipticity_margin > 0.0
        assert [row["t"] for row in report.rows] == [0.0]

    def test_determinism(self, grid9, sp9):
        _, rep_a = continuation(sp9, grid9, SolverConfig())
        _, rep_b = continuation(sp9, grid9, SolverConfig())
        assert rep_a.to_csv() == rep_b.to_csv()

    def test_four_dimensional_constant_path(self):
        # largest supported PDE dimension; lifted matrices are 4x4, m = 3
        from nconvex.cli import named_case

        domain, problem, _ = named_case("ball-constant", n=4)
        grid = Grid(domain, 9)
        sampled = sample_problem(problem, grid)
        state, report = continuation(sampled, grid, SolverConfig())
        assert state.t == 1.0
        assert state.residual_norm < 1e-11
        assert state.ellipticity_margin == pytest.approx(3.0, abs=1e-9)
        seed = quadratic_seed(grid)
        assert np.max(np.abs(state.field.values - seed.values)) < 1e-10

    def test_four_dimensional_newton_from_perturbed_start(self):
        # Newton steps at n = 4 run on the 4x4 M kernels and return to the quadratic
        from nconvex.cli import named_case

        domain, problem, _ = named_case("ball-constant", n=4)
        grid = Grid(domain, 9)
        sampled = sample_problem(problem, grid)
        seed = quadratic_seed(grid)
        bump = DiscreteField.from_function(
            grid, lambda p: 0.01 * np.exp(p[:, 0]) * np.cos(p[:, 1])
        )
        fld = DiscreteField(values=seed.values + bump.values, trace=seed.trace + bump.trace)
        start = make_state(1.0, fld, grid, sampled)
        assert start.residual_norm > 1e-2
        out = newton_solve(start, grid, sampled, SolverConfig())
        assert out.residual_norm <= 1e-10
        assert np.max(np.abs(out.field.values - seed.values)) < 1e-10


@pytest.fixture(scope="module")
def manufactured9(grid9):
    return sample_problem(manufactured_problem(), grid9)


def count_factorizations(monkeypatch):
    calls = []
    original = nconvex.solver.splu

    def counting(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(nconvex.solver, "splu", counting)
    return calls


class TestLinearSolve:
    def test_condensed_step_matches_direct_lu(self, grid9, manufactured9):
        report = PathReport()
        linear = CondensedSolver(grid9, report)
        seed = quadratic_seed(grid9).pack()
        bump = DiscreteField.from_function(
            grid9, lambda p: 0.02 * np.exp(p[:, 0]) * np.cos(p[:, 1])
        ).pack()
        # the first system freezes the preconditioner, as in continuation
        for x in (seed, seed + bump):
            jac = assemble_jacobian(x, 0.4, grid9, manufactured9)
            r = residual_vector(x, 0.4, grid9, manufactured9)
            direct = splu(jac).solve(-r)
            step = linear.solve(jac, -r, 0.4)
            assert np.linalg.norm(step - direct) <= 1e-10 * np.linalg.norm(direct)
        assert report.krylov_iters[0] == 1
        assert report.krylov_iters[1] > 1
        assert report.direct_fallbacks == 0

    @pytest.mark.parametrize("stalled", ["not-converged", "non-finite"])
    def test_gmres_failure_falls_back_to_direct(self, grid9, manufactured9,
                                               monkeypatch, stalled):
        ref = DiscreteField.from_function(grid9, u_star).values
        calls = count_factorizations(monkeypatch)
        state, report = continuation(manufactured9, grid9, SolverConfig())
        err = np.max(np.abs(state.field.values - ref))
        assert len(calls) == 1
        assert report.direct_fallbacks == 0

        def failing_gmres(a, b, **kwargs):
            if stalled == "not-converged":
                return np.zeros_like(b), 1
            return np.full_like(b, np.nan), 0

        monkeypatch.setattr(nconvex.solver, "gmres", failing_gmres)
        calls.clear()
        state_fb, report_fb = continuation(manufactured9, grid9, SolverConfig())
        assert state_fb.t == 1.0
        assert state_fb.residual_norm <= 1e-10
        steps = len(report_fb.krylov_iters)
        assert steps == len(report.krylov_iters)
        assert report_fb.direct_fallbacks == steps
        assert len(calls) == 1 + steps  # the seed LU plus one per step
        err_fb = np.max(np.abs(state_fb.field.values - ref))
        assert err_fb == pytest.approx(err, rel=1e-8)

    def test_exact_case_factorizes_nothing(self, grid9, sp9, monkeypatch):
        calls = count_factorizations(monkeypatch)
        state, report = continuation(sp9, grid9, SolverConfig())
        assert state.t == 1.0
        assert calls == []
        assert report.krylov_iters == []

    def test_json_report_carries_linear_solve_counts(self, grid9, manufactured9):
        _, report = continuation(manufactured9, grid9, SolverConfig())
        payload = json.loads(report.to_json())
        assert payload["krylov_iters"] == report.krylov_iters
        assert all(1 <= k <= 10 for k in payload["krylov_iters"])
        assert payload["direct_fallbacks"] == 0
        assert report.to_csv().splitlines()[0] == "t,residual,margin,sup_u,sup_du,sup_d2u,N,ratio"


class TestMonitors:
    def test_quadratic_seed_closed_form(self, grid9):
        mon = bound_monitors(quadratic_seed(grid9), grid9)
        assert mon.sup_u == pytest.approx(0.5, abs=1e-10)
        assert mon.sup_du == pytest.approx(1.0, abs=1e-9)
        assert mon.sup_d2u == pytest.approx(1.0, abs=1e-9)
        assert mon.sup_unn == pytest.approx(1.0, abs=1e-9)
        assert mon.ratio == pytest.approx(0.5, abs=1e-9)
