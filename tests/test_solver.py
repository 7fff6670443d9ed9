"""Newton and continuation behavior on the unit ball."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
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
    condensed_map,
    continuation,
    ellipticity_margin,
    full_jacobian,
    newton_solve,
    prune_roundoff,
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
E1 = np.array([1.0, 0.0, 0.0])


def u_star(pts, w=E1):
    return 0.5 * np.sum(pts**2, axis=1) + AMP * np.exp(pts @ w)


def manufactured_problem(w=E1):
    """u* = |x|^2/2 + AMP exp(w.x); D2u* = I + AMP exp(w.x) w w^T for unit w."""
    def f(pts):
        a = AMP * np.exp(pts @ w)
        return 2.0 * (2.0 + a) ** 2

    def phi(pts):
        nu = nu_of(pts)
        grad = pts + (AMP * np.exp(pts @ w))[:, None] * w
        return np.einsum("ij,ij->i", grad, nu) + u_star(pts, w)

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
            jac = full_jacobian(x, 0.0, grid9, sp9)
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
                jac = full_jacobian(x, 0.3, grid, problem)
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


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(nconvex.solver, name)

    def counting(matrix, *args, **kwargs):
        calls.append(matrix)
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(nconvex.solver, name, counting)
    return calls


def record_calls(monkeypatch, name):
    """[args, result] of every call of nconvex.solver.<name>; result None if it raised."""
    calls = []
    original = getattr(nconvex.solver, name)

    def recording(*args, **kwargs):
        calls.append([args, None])
        calls[-1][1] = original(*args, **kwargs)
        return calls[-1][1]

    monkeypatch.setattr(nconvex.solver, name, recording)
    return calls


def count_factorizations(monkeypatch):
    """Matrices handed to the seed ILU and to the direct LU, kept apart."""
    return count_calls(monkeypatch, "spilu"), count_calls(monkeypatch, "splu")


def schur_of(jac, grid):
    """S = A - B R / d, the full Jacobian with the trace unknowns eliminated."""
    n = grid.n_active
    jac = sp.csr_matrix(jac)
    d = grid.robin_diag
    return sp.csr_matrix(jac[:n, :n] - jac[:n, n:] @ grid.robin_jac[:, :n] / d)


@pytest.fixture(scope="module")
def egg9():
    return Grid(DomainSpec.ellipsoid((1.0, 1.0, 1.05)), 9)


def seed_and_bumped(grid):
    seed = quadratic_seed(grid).pack()
    bump = DiscreteField.from_function(
        grid, lambda p: 0.02 * np.exp(p[:, 0]) * np.cos(p[:, 1])
    ).pack()
    return seed, seed + bump


class TestLinearSolve:
    def test_condensed_step_matches_direct_lu(self, grid9, manufactured9, monkeypatch):
        seeds, lus = count_factorizations(monkeypatch)
        report = PathReport()
        linear = CondensedSolver(grid9, report)
        seed, bumped = seed_and_bumped(grid9)
        # the first system freezes the preconditioner, as in continuation
        for x in (seed, bumped):
            r = residual_vector(x, 0.4, grid9, manufactured9)
            direct = splu(full_jacobian(x, 0.4, grid9, manufactured9)).solve(-r)
            step = linear.solve(assemble_jacobian(x, 0.4, grid9, manufactured9), -r, 0.4)
            assert np.linalg.norm(step - direct) <= 1e-10 * np.linalg.norm(direct)
        # one preconditioner, built from the seed S (not the bumped one)
        assert len(seeds) == 1 and lus == []
        seed_s = schur_of(full_jacobian(seed, 0.4, grid9, manufactured9), grid9)
        built = sp.csr_matrix(seeds[0])
        assert built.shape == seed_s.shape
        assert abs(built - prune_roundoff(seed_s)).max() <= 1e-12 * abs(seed_s).max()
        assert report.krylov_iters[1] > 1
        assert report.direct_fallbacks == 0

    def test_seed_preconditioner_drops_only_roundoff(self, grid9, manufactured9,
                                                     monkeypatch):
        seeds, _ = count_factorizations(monkeypatch)
        solved = count_calls(monkeypatch, "gmres")
        seed = quadratic_seed(grid9).pack()
        stencil = assemble_jacobian(seed, 0.0, grid9, manufactured9)
        rhs = np.ones(grid9.n_unknowns)
        CondensedSolver(grid9, PathReport()).solve(stencil, rhs, 0.0)
        full = stencil @ condensed_map(grid9)[0]
        row_max = abs(full).max(axis=1).toarray().ravel()
        kept = sp.coo_matrix(seeds[0])
        assert np.all(np.abs(kept.data) >= 1e-12 * row_max[kept.row])
        dropped = sp.coo_matrix(full - sp.csr_matrix(seeds[0]))
        assert np.all(np.abs(dropped.data) <= 1e-12 * row_max[dropped.row])
        # M = 2I at the seed, so S carries round-off entries; GMRES keeps them
        assert kept.nnz < full.nnz
        assert solved[0].nnz == full.nnz
        assert abs(solved[0] - full).max() == 0.0
        # the same S as eliminating the trace from the full Jacobian, to round-off
        eliminated = schur_of(full_jacobian(seed, 0.0, grid9, manufactured9), grid9)
        assert abs(full - eliminated).max() <= 1e-12 * abs(eliminated).max()

    @pytest.mark.parametrize("domain", ["ball", "ellipsoid"])
    def test_condensed_map_is_the_robin_elimination(self, grid9, egg9, domain):
        grid = grid9 if domain == "ball" else egg9
        problem = sample_problem(manufactured_problem(), grid)
        emap, lift = condensed_map(grid)
        n, r_u = grid.n_active, grid.robin_jac[:, :grid.n_active]
        data = 0.4 * problem.phi_colloc + 0.6 * grid.colloc_quad
        for x in seed_and_bumped(grid):
            u = x[:n]
            # extended vector with the trace the Robin rows fix
            exact = grid.extension @ np.concatenate([u, (data - r_u @ u) / grid.robin_diag])
            condensed = emap @ u + lift @ data
            assert np.max(np.abs(condensed - exact)) <= 1e-12 * np.max(np.abs(exact))
            # and the Newton matrix is the trace-eliminated full Jacobian
            newton_s = assemble_jacobian(x, 0.4, grid, problem) @ emap
            eliminated = schur_of(full_jacobian(x, 0.4, grid, problem), grid)
            assert newton_s.shape == eliminated.shape == (n, n)
            assert abs(newton_s - eliminated).max() <= 1e-12 * abs(eliminated).max()

    def test_prune_threshold_is_relative_to_each_row(self):
        m = sp.csr_matrix(np.array([[1.0, 0.9e-12, 1.1e-12],
                                    [3e-14, 0.9e-25, 1e-13]]))
        out = prune_roundoff(m)
        assert out.toarray().tolist() == [[1.0, 0.0, 1.1e-12], [3e-14, 0.0, 1e-13]]
        assert out.nnz == 4 and m.nnz == 6

    @pytest.mark.parametrize("stalled", ["not-converged", "non-finite"])
    def test_gmres_failure_falls_back_to_direct(self, grid9, manufactured9,
                                               monkeypatch, stalled):
        ref = DiscreteField.from_function(grid9, u_star).values
        seeds, lus = count_factorizations(monkeypatch)
        state, report = continuation(manufactured9, grid9, SolverConfig())
        err = np.max(np.abs(state.field.values - ref))
        assert len(seeds) == 1 and lus == []
        assert report.direct_fallbacks == 0

        def failing_gmres(a, b, **kwargs):
            if stalled == "not-converged":
                return np.zeros_like(b), 1
            return np.full_like(b, np.nan), 0

        monkeypatch.setattr(nconvex.solver, "gmres", failing_gmres)
        seeds.clear()
        lus.clear()
        state_fb, report_fb = continuation(manufactured9, grid9, SolverConfig())
        assert state_fb.t == 1.0
        assert state_fb.residual_norm <= 1e-10
        steps = len(report_fb.krylov_iters)
        assert steps == len(report.krylov_iters)
        assert report_fb.direct_fallbacks == steps
        assert len(seeds) == 1  # the seed ILU
        assert len(lus) == steps  # plus one direct LU per step
        err_fb = np.max(np.abs(state_fb.field.values - ref))
        assert err_fb == pytest.approx(err, rel=1e-8)

    def test_restart_finishes_a_step_the_first_cycle_leaves(self, monkeypatch):
        # along this direction one step's first GMRES cycle ends with the true
        # residual just above GMRES_RTOL; a restart, not a direct LU, ends it
        _, lus = count_factorizations(monkeypatch)
        w = np.random.default_rng(1).standard_normal(3)
        w /= np.linalg.norm(w)
        grid = Grid(BALL, 17)
        problem = sample_problem(manufactured_problem(w), grid)
        state, report = continuation(problem, grid, SolverConfig())
        assert state.t == 1.0
        assert report.direct_fallbacks == 0 and lus == []

    def test_exact_case_factorizes_nothing(self, grid9, sp9, monkeypatch):
        seeds, lus = count_factorizations(monkeypatch)
        maps = count_calls(monkeypatch, "condensed_map")
        state, report = continuation(sp9, grid9, SolverConfig())
        assert state.t == 1.0
        assert seeds == [] and lus == [] and maps == []
        assert report.krylov_iters == []

    def test_condensed_map_built_once_per_continuation(self, grid9, manufactured9,
                                                       monkeypatch):
        maps = count_calls(monkeypatch, "condensed_map")
        for _ in range(2):
            maps.clear()
            _, report = continuation(manufactured9, grid9, SolverConfig())
            assert len(report.krylov_iters) > 1
            # built once, and again by the next continuation: nothing is cached on the grid
            assert maps == [grid9]

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


@pytest.fixture(scope="module")
def ball13():
    grid = Grid(BALL, 13)
    return grid, sample_problem(constant_problem(), grid)


class TestStateEvaluation:
    """Each accepted state is evaluated once, and what is reused is still exact."""

    @pytest.mark.parametrize("case", ["manufactured-9", "ball-constant-13"])
    def test_accepted_states_match_fresh_evaluation(self, grid9, manufactured9, ball13,
                                                    monkeypatch, case):
        grid, problem = (grid9, manufactured9) if case == "manufactured-9" else ball13
        solves = record_calls(monkeypatch, "newton_solve")
        _, report = continuation(problem, grid, SolverConfig())
        accepted = [out for _, out in solves if out is not None]
        assert [s.t for s in accepted] == [row["t"] for row in report.rows]
        for state in accepted:
            fresh = make_state(state.t, state.field, grid, problem)
            assert state.residual_norm == fresh.residual_norm
            assert state.ellipticity_margin == fresh.ellipticity_margin
            assert state.monitors == fresh.monitors

    def test_exact_path_evaluates_margin_and_monitors_once(self, grid9, sp9, monkeypatch):
        residuals = count_calls(monkeypatch, "residual_vector")
        margins = count_calls(monkeypatch, "ellipticity_margin")
        monitors = count_calls(monkeypatch, "bound_monitors")
        steps = count_calls(monkeypatch, "assemble_jacobian")
        _, report = continuation(sp9, grid9, SolverConfig())
        assert steps == []
        assert len(margins) == len(monitors) == 1
        assert len(residuals) == len(report.rows) == 11

    def test_manufactured_path_evaluates_each_state_once(self, grid9, manufactured9,
                                                         monkeypatch):
        solves = record_calls(monkeypatch, "newton_solve")
        residuals = record_calls(monkeypatch, "residual_vector")
        margins = count_calls(monkeypatch, "ellipticity_margin")
        monitors = count_calls(monkeypatch, "bound_monitors")
        steps = count_calls(monkeypatch, "assemble_jacobian")
        continuation(manufactured9, grid9, SolverConfig())
        starts = {(args[0].t, args[0].field.pack().tobytes()) for args, _ in solves}
        keys = [(t, x.tobytes()) for (x, t, *_), _ in residuals]
        trials = [k for k in keys if k not in starts]
        # no (t, x) is evaluated twice: each start once, then one call per trial
        assert len(set(keys)) == len(keys)
        assert len(residuals) == len(solves) + len(trials)
        assert len(trials) >= len(steps) > 0
        # the margin: once at the seed, then at most once per trial point
        assert len({fld.pack().tobytes() for fld in margins}) == len(margins)
        assert len(margins) <= 1 + len(trials)
        # the monitors: once at the seed, then once per solve that moved its field
        moved = [out for args, out in solves if out is not None
                 and not np.array_equal(out.field.pack(), args[0].field.pack())]
        assert len(monitors) == 1 + len(moved)


def guarded_margin(monkeypatch, reject_every_trial=False):
    """Patch the line search's margin to read -1 on the first trial of each Newton step."""
    true_margin = nconvex.solver.ellipticity_margin
    steps = count_calls(monkeypatch, "assemble_jacobian")
    rejected = set()

    def guard(fld, grid):
        if reject_every_trial or len(steps) not in rejected:
            rejected.add(len(steps))
            return -1.0
        return true_margin(fld, grid)

    monkeypatch.setattr(nconvex.solver, "ellipticity_margin", guard)
    return steps, rejected


class TestMarginGuard:
    def perturbed_start(self, grid, problem):
        seed = quadratic_seed(grid)
        bump = DiscreteField.from_function(
            grid, lambda p: 0.01 * np.exp(p[:, 0]) * np.cos(p[:, 1])
        )
        fld = DiscreteField(values=seed.values + bump.values, trace=seed.trace + bump.trace)
        return make_state(0.0, fld, grid, problem)

    def test_rejected_first_trial_is_backtracked(self, grid9, sp9, monkeypatch):
        start = self.perturbed_start(grid9, sp9)
        steps, rejected = guarded_margin(monkeypatch)
        residuals = count_calls(monkeypatch, "residual_vector")
        # every step is cut to at most half a Newton step, so the contraction is
        # linear (about 30 steps here) instead of quadratic
        out = newton_solve(start, grid9, sp9, SolverConfig(max_newton_iters=60))
        assert out.residual_norm <= 1e-10
        assert len(rejected) == len(steps) > 0
        assert len(residuals) >= 1 + 2 * len(steps)  # every step backtracked
        # the returned margin is the field's true one, not the guard's -1
        assert out.ellipticity_margin == ellipticity_margin(out.field, grid9) > 0.0

    def test_guard_rejecting_every_trial_fails_the_step(self, grid9, sp9, monkeypatch):
        start = self.perturbed_start(grid9, sp9)
        guarded_margin(monkeypatch, reject_every_trial=True)
        with pytest.raises(StepFailure, match="line search floor"):
            newton_solve(start, grid9, sp9, SolverConfig())
