"""Newton and continuation behavior on the unit ball."""

import functools
import json
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import nconvex.solver
from nconvex import woperator
from nconvex.cli import named_case
from nconvex.discretize import (
    DiscreteField,
    Grid,
    field_at,
    hessian_batch,
    hessian_contraction,
    homotopy_constant,
    interior_residual,
    manufactured_problem,
    robin_residual,
    sample_problem,
)
from nconvex.geometry import DomainSpec
from nconvex.solver import (
    CondensedSolver,
    ContinuationFailure,
    PathReport,
    SolverConfig,
    StepFailure,
    assemble_jacobian,
    bound_monitors,
    condensed_map,
    continuation,
    ellipticity_margin,
    evaluate_state,
    full_jacobian,
    newton_solve,
    quadratic_seed,
    residual_vector,
)

BALL = DomainSpec.ball(1.0, n=3)
_, MANUFACTURED, U_STAR = named_case("ball-manufactured-exp")


def quadratic_data(grid):
    """Sampled data whose exact solution is the quadratic seed |x|^2/2."""
    return sample_problem(manufactured_problem(grid.domain, 0.0)[0], grid)


@pytest.fixture(scope="module")
def grid9():
    return Grid(BALL, 9)


@pytest.fixture(scope="module")
def sp9(grid9):
    return quadratic_data(grid9)


def margin_of(fld, grid):
    return ellipticity_margin(hessian_batch(fld, grid))


def stencil_at(u, t, grid, problem):
    """The Newton stencil matrix K at the active values u, their trace at t."""
    return assemble_jacobian(hessian_batch(field_at(u, t, grid, problem), grid), grid)


def make_state(t, fld, grid, problem):
    """The state of fld's active values at t; its trace is derived, fld's is not read."""
    return evaluate_state(fld.values, t, grid, problem)


class TestSolverConfig:
    def test_fields_are_the_two_run_settings(self):
        assert [f.name for f in fields(SolverConfig)] == ["newton_tol", "homotopy_steps"]
        assert (nconvex.solver.MAX_NEWTON_ITERS, nconvex.solver.MIN_STEP,
                nconvex.solver.LINE_SEARCH_DAMPING) == (30, 1.0 / 1280.0, 0.5)

    @pytest.mark.parametrize("key, value", [
        ("min_step", 0.0),
        ("min_step", -1e-3),
        ("min_step", float("nan")),
        ("min_step", 1.5),
        ("newton_tol", 0.0),
        ("newton_tol", float("nan")),
        ("newton_tol", float("inf")),
        ("newton_tol", True),
        ("newton_tol", "1e-10"),
        ("newton_tol", None),
        ("max_newton_iters", 0),
        ("max_newton_iters", 2.5),
        ("max_newton_iters", "30"),
        ("max_newton_iters", True),
        ("homotopy_steps", 0),
        ("homotopy_steps", 2.5),
        ("homotopy_steps", 10.0),
        ("homotopy_steps", "3"),
        ("homotopy_steps", True),
        ("damping", 1.0),
    ])
    def test_bad_value_refused(self, key, value):
        # min_step, max_newton_iters and damping are solver module constants,
        # not fields: SolverConfig refuses them as keywords, whatever the value
        removed = key in ("min_step", "max_newton_iters", "damping")
        with pytest.raises(TypeError if removed else ValueError, match=key):
            SolverConfig(**{key: value})

    def test_numpy_integer_counts_accepted(self):
        config = SolverConfig(newton_tol=np.float64(1e-9), homotopy_steps=np.int64(10))
        assert config.newton_tol == 1e-9 and config.homotopy_steps == 10


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
        assert state.admissible and margin_of(fld, grid9) > 0.0
        # track residual norms through full (undamped-accepted) steps
        norms = [state.residual_norm]
        u = fld.values
        for _ in range(6):
            jac = full_jacobian(u, 0.0, grid9, sp9)
            u = u + splu(jac).solve(-residual_vector(u, 0.0, grid9, sp9))
            norms.append(float(np.max(np.abs(residual_vector(u, 0.0, grid9, sp9)))))
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
        for grid, problem in ((grid9, sp9), (egg, quadratic_data(egg))):
            rng = np.random.default_rng(11)
            seed = quadratic_seed(grid)
            tested = 0
            for trial in range(8):
                omega = rng.uniform(-1.5, 1.5, size=(3, 3))
                coef = rng.uniform(-0.03, 0.03, size=3)
                bump = DiscreteField.from_function(
                    grid,
                    lambda p: sum(c * np.sin(p @ w) for c, w in zip(coef, omega)),
                ).values
                u = seed.values + bump
                if margin_of(field_at(u, 0.3, grid, problem), grid) <= 0.0:
                    continue
                tested += 1
                jac = full_jacobian(u, 0.3, grid, problem)
                assert jac.shape == (grid.n_active, grid.n_active)
                delta = rng.standard_normal(grid.n_active)
                delta /= np.linalg.norm(delta)
                step = 1e-6
                fd = (
                    residual_vector(u + step * delta, 0.3, grid, problem)
                    - residual_vector(u - step * delta, 0.3, grid, problem)
                ) / (2.0 * step)
                jd = jac @ delta
                scale = np.max(np.abs(jd)) + 1e-30
                assert np.max(np.abs(jd - fd)) / scale < 1e-5, grid.domain.kind
            assert tested >= 5, grid.domain.kind

    def test_root_det_concave_along_segment(self, grid9, sp9):
        # det(W)^(1/n) at each active point is concave in the line-search
        # parameter because the Hessian map is affine in the active values
        seed = quadratic_seed(grid9).values
        bump = DiscreteField.from_function(
            grid9, lambda p: 0.1 * np.exp(p[:, 0]) * np.cos(p[:, 1])
        )
        delta = bump.values

        def root_det(u):
            det = woperator.batch_det_w(hessian_batch(field_at(u, 0.0, grid9, sp9), grid9))
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
        # the exact path takes no Newton step, so dt quadruples: steps 0.1, 0.4, then the 0.5 left
        rows = report.rows
        assert [row["t"] for row in rows] == pytest.approx([0.0, 0.1, 0.5, 1.0])
        assert report.krylov_iters == [] and report.rejected_steps == []
        # monitors constant along the path
        for col in ("sup_u", "sup_du", "sup_d2u", "N"):
            vals = [row[col] for row in rows]
            assert np.ptp(vals) < 1e-9
        assert rows[-1]["sup_u"] == pytest.approx(0.5, abs=1e-10)
        assert rows[-1]["sup_du"] == pytest.approx(1.0, abs=1e-9)
        assert rows[-1]["sup_d2u"] == pytest.approx(1.0, abs=1e-9)
        assert rows[-1]["N"] == pytest.approx(1.0, abs=1e-9)
        assert rows[-1]["ratio"] == pytest.approx(0.5, abs=1e-9)

    def test_data_from_another_grid_refused_up_front(self, grid9, monkeypatch):
        # 11^3 data on the 9^3 grid; the gate would be the first work done
        monkeypatch.setattr(nconvex.solver, "pinching_check", None)
        with pytest.raises(ValueError, match=r"problem data has 389 f and 410 phi values, but "
                                             r"the grid has 179 active and 282 collocation"):
            continuation(quadratic_data(Grid(BALL, 11)), grid9, SolverConfig())

    def test_every_accepted_state_admissible(self, grid9, sp9):
        _, report = continuation(sp9, grid9, SolverConfig())
        for row in report.rows:
            assert row["margin"] > 0.0

    def test_manufactured_converges_to_reference(self):
        grid = Grid(BALL, 13)
        problem = sample_problem(MANUFACTURED, grid)
        # admissibility of the reference is a precondition of the setup
        ref = DiscreteField.from_function(grid, U_STAR)
        assert margin_of(ref, grid) > 0.0
        state, report = continuation(problem, grid, SolverConfig())
        assert state.t == 1.0
        err = np.max(np.abs(state.field.values - ref.values))
        assert err < 5e-3
        for row in report.rows:
            assert row["margin"] > 0.0
            # second-derivative-to-boundary-normal ratio stays bounded
            assert row["ratio"] < 1.0

    def test_pinching_gate_blocks_eccentric_domain(self):
        egg = DomainSpec.ellipsoid((1.0, 1.0, 3.0))
        grid = Grid(egg, 21)
        problem = quadratic_data(grid)
        with pytest.raises(ValueError, match="pinching"):
            continuation(problem, grid, SolverConfig())

    def test_step_underflow_raises_with_last_good_state(self, grid9, monkeypatch):
        problem = sample_problem(MANUFACTURED, grid9)
        monkeypatch.setattr(nconvex.solver, "MAX_NEWTON_ITERS", 1)
        monkeypatch.setattr(nconvex.solver, "MIN_STEP", 0.3)
        config = SolverConfig(homotopy_steps=1)
        with pytest.raises(ContinuationFailure, match="step size underflow") as info:
            continuation(problem, grid9, config)
        state, report = info.value.state, info.value.report
        assert state.t == 0.0
        assert state.ellipticity_margin > 0.0
        assert [row["t"] for row in report.rows] == [0.0]

    def test_dt_grows_past_the_first_step(self, grid9, manufactured9, monkeypatch):
        # each accepted step sets the next: 4 dt after at most two Newton
        # iterations, else 2 dt; only the step that reaches t = 1 is clipped
        original = nconvex.solver._advance
        steps = []  # (t, t_next, linear solves) of each step, all accepted here

        def advance(state, earlier, t_next, grid, problem, config, linear):
            before = len(linear.report.krylov_iters)
            out = original(state, earlier, t_next, grid, problem, config, linear)
            steps.append((state.t, t_next, len(linear.report.krylov_iters) - before))
            return out

        monkeypatch.setattr(nconvex.solver, "_advance", advance)
        config = SolverConfig(homotopy_steps=20)
        state, report = continuation(manufactured9, grid9, config)
        assert state.t == 1.0 and report.rejected_steps == []
        dts = [t_next - t for t, t_next, _ in steps]
        assert dts[0] == 1.0 / 20
        for (_, _, solves), dt, dt_next in zip(steps, dts, dts[1:-1]):
            assert dt_next == pytest.approx(dt * (4.0 if solves <= 2 else 2.0), rel=1e-12)
        assert steps[-1][1] == 1.0 and dts[-1] <= dts[-2] * 4.0
        assert max(dts) > 2.0 / config.homotopy_steps
        assert len(report.rows) == len(steps) + 1 < config.homotopy_steps

    def test_dt_does_not_grow_right_after_a_rejection(self, grid9, manufactured9,
                                                       monkeypatch):
        original = nconvex.solver._advance
        attempts = []

        def advance(state, earlier, t_next, *args):
            attempts.append((state.t, t_next))
            if len(attempts) == 1:
                raise StepFailure("first step refused by the test")
            return original(state, earlier, t_next, *args)

        monkeypatch.setattr(nconvex.solver, "_advance", advance)
        state, report = continuation(manufactured9, grid9, SolverConfig())
        assert state.t == 1.0
        # 0.1 fails and halves dt; the acceptance at 0.05 keeps it, the one at
        # 0.1 (from a secant start) grows it again
        assert attempts[:3] == [(0.0, 0.1), (0.0, 0.05), (0.05, 0.1)]
        assert attempts[3][1] - attempts[3][0] > 0.05
        assert report.rejected_steps == [(0.0, 0.1, "first step refused by the test")]

    @pytest.mark.parametrize("fail_after", [0.0, 0.2])
    def test_forced_failure_halves_dt_below_min_step(self, grid9, manufactured9,
                                                      monkeypatch, fail_after):
        # every step from a state past fail_after fails; from the seed dt
        # halves from 0.1, from the state at 0.3 from the 0.7 left to t = 1
        original = nconvex.solver._advance

        def advance(state, *args):
            if state.t >= fail_after:
                raise StepFailure(f"step from t={state.t:.6g} refused by the test")
            return original(state, *args)

        monkeypatch.setattr(nconvex.solver, "_advance", advance)
        config = SolverConfig()
        with pytest.raises(ContinuationFailure, match="step size underflow") as info:
            continuation(manufactured9, grid9, config)
        state, report = info.value.state, info.value.report
        t0, first = (0.0, 0.1) if fail_after == 0.0 else (pytest.approx(0.3), 0.7)
        assert state.t == t0 and report.rows[-1]["t"] == t0
        rejected = report.rejected_steps
        dts = [dt for _, dt, _ in rejected]
        assert dts == pytest.approx([first * 0.5**i for i in range(len(dts))], rel=1e-12)
        assert dts[-1] * 0.5 < nconvex.solver.MIN_STEP <= dts[-1]
        assert all(t == t0 and text == f"step from t={state.t:.6g} refused by the test"
                   for t, _, text in rejected)
        payload = json.loads(report.to_json())
        assert payload["rejected_steps"] == [list(step) for step in rejected]
        assert report.to_csv().count("\n") == len(report.rows) + 1

    def test_newton_failure_at_t0_is_a_continuation_failure(self, grid9, sp9):
        # the seed residual sits at round-off, above a tolerance below it
        with pytest.raises(ContinuationFailure, match="line search floor") as info:
            continuation(sp9, grid9, SolverConfig(newton_tol=1e-18))
        assert info.value.state is None
        assert info.value.report.rows == []

    def test_determinism(self, grid9, sp9):
        _, rep_a = continuation(sp9, grid9, SolverConfig())
        _, rep_b = continuation(sp9, grid9, SolverConfig())
        assert rep_a.to_csv() == rep_b.to_csv()

    def test_four_dimensional_constant_path(self):
        # largest supported PDE dimension; lifted matrices are 4x4, m = 3
        domain, problem, _ = named_case("ball-constant", n=4)
        grid = Grid(domain, 9)
        sampled = sample_problem(problem, grid)
        state, report = continuation(sampled, grid, SolverConfig())
        assert state.t == 1.0
        assert state.residual_norm < 1e-11
        assert state.ellipticity_margin == pytest.approx(3.0, abs=1e-9)
        seed = quadratic_seed(grid)
        assert np.max(np.abs(state.field.values - seed.values)) < 1e-10

    def test_four_dimensional_manufactured_path(self):
        # u* = |x|^2/2 + 0.05 exp(x_1) at n = 4: lifted spectrum (3+b, 3+b, 3+b, 3)
        domain, problem, exact = named_case("ball-manufactured-exp", n=4)
        grid = Grid(domain, 9)
        state, report = continuation(sample_problem(problem, grid), grid, SolverConfig())
        assert state.t == 1.0
        assert np.max(np.abs(state.field.values - exact(grid.active_pts))) < 1.2e-3
        assert min(row["margin"] for row in report.rows) > 2.9

    def test_four_dimensional_newton_from_perturbed_start(self):
        # Newton steps at n = 4 run on the 4x4 M kernels and return to the quadratic
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
    return sample_problem(MANUFACTURED, grid9)


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


def record_det_w(monkeypatch):
    """The Hessian batch of every woperator.batch_det_w call."""
    calls = []
    original = woperator.batch_det_w

    def recording(d2):
        calls.append(d2)
        return original(d2)

    monkeypatch.setattr(woperator, "batch_det_w", recording)
    return calls


def count_factorizations(monkeypatch):
    """Matrices handed to ``spilu`` and to ``splu``, kept apart.

    Only a stalled step's ILU calls ``spilu``; the solver calls ``splu`` on no
    path, so every ``splu`` list must stay empty.
    """
    return count_calls(monkeypatch, "spilu"), count_calls(monkeypatch, "splu")


def record_boxes(monkeypatch):
    """Every box Poisson solver the solver builds, in order."""
    boxes = []
    original = nconvex.solver._BoxPoisson

    def recording(grid):
        boxes.append(original(grid))
        return boxes[-1]

    monkeypatch.setattr(nconvex.solver, "_BoxPoisson", recording)
    return boxes


def record_preconditioners(monkeypatch):
    """The preconditioner handed to every Krylov solve, in order."""
    preconditioners = []
    original = nconvex.solver.gcrotmk

    def gcrotmk(a, b, **kwargs):
        preconditioners.append(kwargs["M"])
        return original(a, b, **kwargs)

    monkeypatch.setattr(nconvex.solver, "gcrotmk", gcrotmk)
    return preconditioners


def record_stencils(monkeypatch):
    """The stencil matrix K of every ``CondensedSolver.solve`` call, in order."""
    stencils = []
    solve = CondensedSolver.solve

    def recording_solve(self, stencil, rhs, t):
        stencils.append(stencil)
        return solve(self, stencil, rhs, t)

    monkeypatch.setattr(CondensedSolver, "solve", recording_solve)
    return stencils


def record_sparse_products(monkeypatch):
    """(left, right, product) of every sparse x sparse product of a CSR matrix."""
    products = []
    matmul = sp.csr_matrix.__matmul__

    def recording(self, other):
        out = matmul(self, other)
        if sp.issparse(other):
            products.append((self, other, out))
        return out

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", recording)
    return products


def stall_gmres(monkeypatch, stalls, how="not-converged"):
    """Make the Krylov solve stall on the calls (counted from 1) that ``stalls`` picks.

    A stall is reported as ``gcrotmk`` reports one: no convergence (info 1)
    or a non-finite result, which also leaves a non-finite vector in the
    recycled list.  Returns every operator handed to the Krylov solve, in order.
    """
    matrices = []
    original = nconvex.solver.gcrotmk

    def gcrotmk(a, b, **kwargs):
        matrices.append(a)
        if stalls(len(matrices)):
            if how == "not-converged":
                return np.zeros_like(b), 1
            kwargs["CU"].append((None, np.full_like(b, np.nan)))
            return np.full_like(b, np.nan), 0
        return original(a, b, **kwargs)

    monkeypatch.setattr(nconvex.solver, "gcrotmk", gcrotmk)
    return matrices


@pytest.fixture(scope="module")
def egg9():
    return Grid(DomainSpec.ellipsoid((1.0, 1.0, 1.05)), 9)


def seed_stencil(grid):
    """c0 I contracted with the Hessian stencil: the seed's K."""
    n = grid.n
    seed_grad = np.broadcast_to(homotopy_constant(n) * np.eye(n), (grid.n_active, n, n))
    return hessian_contraction(seed_grad, grid)


def seed_operator(grid):
    """The seed's K composed with E: the seed's S."""
    return seed_stencil(grid) @ condensed_map(grid)


@functools.lru_cache(maxsize=None)
def ball_grid(n, res, axes=None):
    """A grid on the unit ball in n dimensions, or on the ellipsoid ``axes``,
    built once for every test of this module."""
    return Grid(DomainSpec.ball(1.0, n=n) if axes is None else DomainSpec.ellipsoid(axes), res)


def interior_points(grid):
    """Active points whose 2n axis neighbours are all active."""
    axes = grid.nbr[1:1 + 2 * grid.n]
    return np.all(axes < grid.n_active, axis=0)


def pruned(matrix):
    """``matrix`` without the entries below ILU_PRUNE of their row's largest
    magnitude, its diagonal kept: what the solver hands ``spilu``."""
    dense = matrix.toarray()
    keep = np.abs(dense) >= nconvex.solver.ILU_PRUNE * np.abs(dense).max(axis=1, keepdims=True)
    np.fill_diagonal(keep, True)
    return sp.csr_matrix(np.where(keep, dense, 0.0))


def seed_and_bumped(grid):
    """Active values of the quadratic seed and of the seed plus a smooth bump."""
    seed = quadratic_seed(grid).values
    bump = DiscreteField.from_function(
        grid, lambda p: 0.02 * np.exp(p[:, 0]) * np.cos(p[:, 1])
    ).values
    return seed, seed + bump


class TestLinearSolve:
    def test_condensed_step_matches_direct_lu(self, grid9, manufactured9, monkeypatch):
        seeds, lus = count_factorizations(monkeypatch)
        boxes = record_boxes(monkeypatch)
        report = PathReport()
        linear = CondensedSolver(grid9, report)
        seed, bumped = seed_and_bumped(grid9)
        for u in (seed, bumped):
            r = residual_vector(u, 0.4, grid9, manufactured9)
            direct = splu(full_jacobian(u, 0.4, grid9, manufactured9)).solve(-r)
            step = linear.solve(stencil_at(u, 0.4, grid9, manufactured9), -r, 0.4)
            assert step.shape == (grid9.n_active,)
            assert np.linalg.norm(step - direct) <= 1e-10 * np.linalg.norm(direct)
        # one box solver serves both steps, and nothing is factorized
        assert len(boxes) == 1 and seeds == [] and lus == []
        assert report.krylov_iters[1] > 1
        assert report.ilu_rebuilds == 0

    @pytest.mark.parametrize("domain", ["ball", "ellipsoid"])
    def test_preconditioner_is_the_seed_operator_whatever_the_first_state(
            self, grid9, egg9, monkeypatch, domain):
        grid = grid9 if domain == "ball" else egg9
        problem = sample_problem(MANUFACTURED, grid)
        seeds, _ = count_factorizations(monkeypatch)
        boxes = record_boxes(monkeypatch)
        preconditioners = record_preconditioners(monkeypatch)
        stencils = []
        for u in seed_and_bumped(grid):
            r = residual_vector(u, 0.4, grid, problem)
            stencils.append(stencil_at(u, 0.4, grid, problem))
            CondensedSolver(grid, PathReport()).solve(stencils[-1], -r, 0.4)
        # a first solve at the bumped field builds the same box solver as one
        # at the seed: it is built from the grid alone
        assert len(boxes) == 2 and seeds == []
        assert boxes[0].box_shape == boxes[1].box_shape
        assert np.array_equal(boxes[0].flat, boxes[1].flat)
        assert np.array_equal(boxes[0].inverse_symbol, boxes[1].inverse_symbol)
        # each solve scales it by its own K's diagonal over the seed's
        v = np.linspace(-1.0, 1.0, grid.n_active)
        exact_seed = seed_stencil(grid).diagonal()
        for box, stencil, applied in zip(boxes, stencils, preconditioners):
            scale = stencil.diagonal() / exact_seed
            assert np.array_equal(applied @ v, box.solve(v / scale))
        bumped_scale = stencils[1].diagonal() / exact_seed
        assert np.max(np.abs(bumped_scale - 1.0)) > 1e-3

    def test_seed_preconditioner_drops_only_roundoff(self, grid9, manufactured9,
                                                     monkeypatch):
        boxes = record_boxes(monkeypatch)
        preconditioners = record_preconditioners(monkeypatch)
        solved = count_calls(monkeypatch, "gcrotmk")
        seed = quadratic_seed(grid9).values
        stencil = stencil_at(seed, 0.0, grid9, manufactured9)
        rhs = np.ones(grid9.n_active)
        CondensedSolver(grid9, PathReport()).solve(stencil, rhs, 0.0)
        full = stencil @ condensed_map(grid9)
        exact = seed_operator(grid9)
        # the computed seed K's diagonal is the exact one up to round-off, so
        # its scale s departs from 1 by round-off alone
        scale = boxes[0].scale(stencil)
        assert np.max(np.abs(scale - 1.0)) <= 1e-12
        v = np.linspace(-1.0, 1.0, grid9.n_active)
        assert np.array_equal(preconditioners[0] @ v, boxes[0].solve(v / scale))
        # the computed seed S is the exact operator plus round-off entries
        # (M = 2I, so the off-diagonal terms vanish in exact arithmetic)
        row_max = abs(full).max(axis=1).toarray().ravel()
        kept = sp.coo_matrix(exact)
        assert np.all(np.abs(kept.data) >= 1e-12 * row_max[kept.row])
        dropped = sp.coo_matrix(full - exact)
        assert np.all(np.abs(dropped.data) <= 1e-12 * row_max[dropped.row])
        assert kept.nnz < full.nnz
        # the Krylov solver applies the computed S itself, round-off entries
        # and all, as K (E v), without forming it
        assert not sp.issparse(solved[0])
        emap = condensed_map(grid9)
        for v in np.random.default_rng(0).standard_normal((3, grid9.n_active)):
            assert np.array_equal(solved[0] @ v, stencil @ (emap @ v))
        # and the Jacobian of the residual in the active values at the seed
        assert abs(full - full_jacobian(seed, 0.0, grid9, manufactured9)).max() == 0.0

    @pytest.mark.parametrize("domain", ["ball", "ellipsoid"])
    def test_condensed_map_is_the_robin_elimination(self, grid9, egg9, domain):
        grid = grid9 if domain == "ball" else egg9
        problem = sample_problem(MANUFACTURED, grid)
        emap = condensed_map(grid)
        n = grid.n_active
        assert sp.issparse(emap) and emap.shape == (n + grid.n_ghost, n)

        def extended(fld):
            return np.concatenate([fld.values, grid.C @ fld.pack()])

        # the extended vector [values; closure values] of field_at(u, t), the
        # trace fixed by the Robin rows, is affine in u with slope E
        zero = extended(field_at(np.zeros(n), 0.4, grid, problem))
        for u in seed_and_bumped(grid):
            fld = field_at(u, 0.4, grid, problem)
            assert np.max(np.abs(robin_residual(fld, grid, problem, 0.4))) <= 1e-12
            exact = extended(fld)
            assert np.max(np.abs(emap @ u + zero - exact)) <= 1e-12 * np.max(np.abs(exact))
            # and the Newton matrix is the Jacobian of the residual in u
            newton_s = stencil_at(u, 0.4, grid, problem) @ emap
            assert newton_s.shape == (n, n)
            assert abs(newton_s - full_jacobian(u, 0.4, grid, problem)).max() == 0.0

    @pytest.mark.parametrize("stalled", ["not-converged", "non-finite"])
    def test_gmres_failure_falls_back_to_direct(self, grid9, manufactured9,
                                               monkeypatch, stalled):
        # a stalled step replaces the box preconditioner with an ILU of its
        # own pruned S, which serves every later solve, and is retried: from
        # the last accepted state when it began at the path prediction, else
        # at half the step; no splu is called.  A non-finite stall leaves a
        # non-finite recycled vector, which must not reach the retry.
        ref = DiscreteField.from_function(grid9, U_STAR).values
        seeds, lus = count_factorizations(monkeypatch)
        state, report = continuation(manufactured9, grid9, SolverConfig())
        err = np.max(np.abs(state.field.values - ref))
        assert seeds == [] and lus == []
        assert report.ilu_rebuilds == 0

        # the first solve (t = 0.1, no prediction yet), and the first at t = 1,
        # which starts from the prediction through t = 0, 0.1 and 0.3
        for stall_call, predicted in ((1, False), (6, True)):
            with monkeypatch.context() as patch:
                built = record_calls(patch, "spilu")
                lus = count_calls(patch, "splu")
                stencils = record_stencils(patch)
                solved = stall_gmres(patch, lambda call: call == stall_call, stalled)
                preconditioners = record_preconditioners(patch)
                state_st, report_st = continuation(manufactured9, grid9, SolverConfig())
            assert state_st.t == 1.0
            assert state_st.residual_norm <= 1e-10
            assert report_st.ilu_rebuilds == 1
            # one ILU, of the stalled step's own S; no direct LU
            assert len(built) == 1 and lus == []
            stencil, emap = stencils[stall_call - 1], condensed_map(grid9)
            assert abs(built[0][0][0] - pruned(stencil @ emap)).max() == 0.0
            v = np.linspace(-1.0, 1.0, grid9.n_active)
            assert np.array_equal(solved[stall_call - 1] @ v, stencil @ (emap @ v))
            # every later solve is preconditioned by that ILU
            ilu = built[0][1]
            assert len(preconditioners) > stall_call
            assert all(np.array_equal(m @ v, ilu.solve(v)) for m in preconditioners[stall_call:])
            if predicted:
                # retried from the last accepted state at the same t: the same rows
                assert report_st.predictor_fallbacks == 1
                assert [r["t"] for r in report_st.rows] == [r["t"] for r in report.rows]
            else:
                # retried at half the step: one more accepted row
                assert report_st.predictor_fallbacks == 0
                assert len(report_st.rows) == len(report.rows) + 1
            err_st = np.max(np.abs(state_st.field.values - ref))
            assert err_st == pytest.approx(err, rel=1e-10)

    @pytest.mark.parametrize("stall", [False, True])
    def test_newton_steps_form_no_sparse_product(self, grid9, manufactured9, monkeypatch,
                                                 stall):
        # S = K E is formed only for a stalled step's ILU; every Krylov
        # solve applies it as K (E v)
        products = record_sparse_products(monkeypatch)
        condensed_map(grid9)
        per_map = len(products)
        products.clear()
        stencils = record_stencils(monkeypatch)
        if stall:
            stall_gmres(monkeypatch, lambda call: call == 1)
        _, report = continuation(manufactured9, grid9, SolverConfig())
        assert len(report.krylov_iters) > 5 and report.ilu_rebuilds == stall
        assert len(products) == per_map + stall
        n = grid9.n_active
        formed = [(left, right) for left, right, out in products if out.shape == (n, n)]
        assert len(formed) == stall
        if stall:
            assert formed[0][0] is stencils[0]
        assert all(abs(right - condensed_map(grid9)).max() == 0.0 for _, right in formed)

    def test_gmres_always_stalling_fails_with_the_start_state(self, grid9, manufactured9,
                                                              monkeypatch):
        seeds, lus = count_factorizations(monkeypatch)
        solved = stall_gmres(monkeypatch, lambda call: True)
        with pytest.raises(ContinuationFailure, match="Krylov solve stalled") as info:
            continuation(manufactured9, grid9, SolverConfig())
        failure = info.value
        assert failure.state.t == 0.0
        assert np.array_equal(failure.state.field.values, quadratic_seed(grid9).values)
        assert [row["t"] for row in failure.report.rows] == [0.0]
        # dt halves from 1/10 to 1/1280 over eight stalled steps, each rebuilding the ILU
        assert failure.report.ilu_rebuilds == len(solved) == 8
        assert json.loads(failure.report.to_json())["ilu_rebuilds"] == 8
        assert len(seeds) == 8 and lus == []

    def test_failed_rebuild_names_the_stall_and_the_ilu(self, grid9, manufactured9,
                                                         monkeypatch):
        # every rebuild after a stall fails in spilu
        built = []

        def spilu(matrix, **kwargs):
            built.append(matrix)
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(nconvex.solver, "spilu", spilu)
        lus = count_calls(monkeypatch, "splu")
        stencils = record_stencils(monkeypatch)
        solved = stall_gmres(monkeypatch, lambda call: True)
        with pytest.raises(ContinuationFailure) as info:
            continuation(manufactured9, grid9, SolverConfig())
        failure = info.value
        assert "Krylov solve stalled at t=0.00078125 after 0 preconditioner applications; " \
            "rebuilding the preconditioner: incomplete LU failed: Factor is exactly singular" \
            in str(failure)
        assert failure.state.t == 0.0
        assert [row["t"] for row in failure.report.rows] == [0.0]
        # eight stalled steps, each rebuild attempted on its own S and failed
        assert failure.report.ilu_rebuilds == 0
        assert len(built) == len(solved) == len(stencils) == 8
        emap = condensed_map(grid9)
        assert all(abs(b - pruned(k @ emap)).max() == 0.0 for b, k in zip(built, stencils))
        assert lus == []

    def test_restart_finishes_a_step_the_first_cycle_leaves(self, monkeypatch):
        # along this direction one step's first GMRES cycle ended with the
        # true residual just above the tolerance; GCROT tests the true
        # residual, and no ILU rebuild is needed
        _, lus = count_factorizations(monkeypatch)
        w = np.random.default_rng(1).standard_normal(3)
        w /= np.linalg.norm(w)
        grid = Grid(BALL, 17)
        problem = sample_problem(manufactured_problem(BALL, 0.05, w)[0], grid)
        state, report = continuation(problem, grid, SolverConfig())
        assert state.t == 1.0
        assert report.ilu_rebuilds == 0 and lus == []

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
        # preconditioner applications per solve: 9-14 on this path, the first
        # solves the highest, before the recycled subspace fills
        assert all(1 <= k <= 20 for k in payload["krylov_iters"])
        assert payload["ilu_rebuilds"] == 0
        assert payload["predicted_starts"] == report.predicted_starts > 0
        assert payload["predictor_fallbacks"] == report.predictor_fallbacks == 0
        assert payload["rejected_steps"] == report.rejected_steps == []
        # one start residual per Newton solve begun at a prediction
        assert payload["predicted_start_residuals"] == report.predicted_start_residuals
        assert len(report.predicted_start_residuals) == report.predicted_starts
        assert all(0.0 < r < 1e-2 for r in report.predicted_start_residuals)
        assert report.to_csv().splitlines()[0] == "t,residual,margin,sup_u,sup_du,sup_d2u,N,ratio"


    @pytest.mark.parametrize("domain", ["ball", "ellipsoid"])
    def test_ilu_factors_the_pruned_system(self, grid9, egg9, monkeypatch, domain):
        # a step stalled on the seed system factors a copy that keeps exactly
        # the entries of S at least ILU_PRUNE times their row's largest
        # magnitude, and every diagonal entry
        grid = grid9 if domain == "ball" else egg9
        factored = record_calls(monkeypatch, "spilu")
        stall_gmres(monkeypatch, lambda call: True)
        with pytest.raises(StepFailure, match="preconditioner rebuilt"):
            CondensedSolver(grid).solve(seed_stencil(grid), np.ones(grid.n_active), 0.0)
        full = seed_operator(grid)
        built = sp.coo_matrix(factored[0][0][0])
        row_max = abs(full).max(axis=1).toarray().ravel()
        coo = sp.coo_matrix(full)
        big = np.abs(coo.data) >= nconvex.solver.ILU_PRUNE * row_max[coo.row]
        diagonal = coo.row == coo.col
        assert set(zip(built.row, built.col)) == set(zip(coo.row[big | diagonal],
                                                         coo.col[big | diagonal]))
        assert abs(sp.csr_matrix(built) - full.multiply(built != 0)).max() == 0.0
        assert np.count_nonzero(diagonal) == grid.n_active
        assert built.nnz < 0.25 * full.nnz

    def test_ilu_keeps_a_small_diagonal(self, monkeypatch):
        factored = record_calls(monkeypatch, "spilu")
        matrix = sp.csr_matrix(np.array([[1e-3, 1.0, 0.0], [1e-3, 1.0, 1e-3], [0.5, 0.0, 1.0]]))
        nconvex.solver._incomplete_lu(matrix)
        assert factored[0][0][0].toarray().tolist() == [[1e-3, 1.0, 0.0], [0.0, 1.0, 0.0],
                                                        [0.5, 0.0, 1.0]]

    @pytest.mark.parametrize("n, res", [(3, 17), (4, 9)])
    def test_seed_ilu_is_not_fill_capped(self, monkeypatch, n, res):
        # spilu silently stops filling at ILU_FILL_FACTOR times the entries it
        # factors; the ILU a step stalled on the seed system builds stays well
        # below that (3.5-4.3 at 9^3 to 25^3)
        grid = Grid(DomainSpec.ball(1.0, n=n), res)
        factored = record_calls(monkeypatch, "spilu")
        stall_gmres(monkeypatch, lambda call: True)
        with pytest.raises(StepFailure, match="preconditioner rebuilt"):
            CondensedSolver(grid).solve(seed_stencil(grid), np.ones(grid.n_active), 0.0)
        (matrix,), ilu = factored[0][0], factored[0][1]
        assert nconvex.solver.ILU_FILL_FACTOR == 10
        assert ilu.L.nnz + ilu.U.nnz < 6 * matrix.nnz

    @pytest.mark.parametrize("n, res, axes", [(3, 9, None), (3, 17, None), (3, 9, (1.0, 1.0, 1.05)),
                                              (4, 9, None), (5, 7, None)])
    def test_box_solve_inverts_the_seed_laplacian(self, n, res, axes):
        # c0 Lap x for x on points whose axis neighbours are all active is the
        # seed stencil applied to x, and the box solve gives x back
        grid = ball_grid(n, res, axes)
        box = nconvex.solver._BoxPoisson(grid)
        x = np.zeros(grid.n_active)
        inner = interior_points(grid)
        x[inner] = np.random.default_rng(res + n).standard_normal(np.count_nonzero(inner))
        laplacian = seed_stencil(grid) @ np.concatenate([x, np.zeros(grid.n_ghost)])
        assert np.max(np.abs(box.solve(laplacian) - x)) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("n, res, axes", [(3, 9, None), (3, 25, None), (3, 13, (1.0, 0.8, 0.6)),
                                              (4, 9, None), (5, 7, None)])
    def test_box_and_its_dirichlet_layer_lie_inside_the_grid(self, n, res, axes):
        grid = ball_grid(n, res, axes)
        box = nconvex.solver._BoxPoisson(grid)
        low, high = box.box_low, box.box_low + np.asarray(box.box_shape)
        # the layers at low - 1 and high are grid points
        assert np.all(low >= 1) and np.all(high <= np.asarray(grid.shape) - 1)
        # the box is the active points' bounding box: each face holds one
        active_k = np.column_stack(np.unravel_index(grid.active_idx, grid.shape))
        assert np.array_equal(active_k.min(axis=0), low)
        assert np.array_equal(active_k.max(axis=0), high - 1)
        assert box.flat.size == np.unique(box.flat).size == grid.n_active

    @pytest.mark.parametrize("n, res", [(3, 9), (3, 17), (3, 25), (3, 41), (4, 9), (4, 13),
                                        (5, 7)])
    def test_box_scale_is_one_at_the_seed(self, n, res):
        grid = ball_grid(n, res)
        scale = nconvex.solver._BoxPoisson(grid).scale(seed_stencil(grid))
        assert scale.shape == (grid.n_active,)
        assert np.all(scale == 1.0)

    def test_applications_per_solve_do_not_grow_with_resolution(self):
        # an ILU of the seed system needs up to 25 applications at 25^3 and 41
        # at 33^3; the box preconditioner's largest count is 14, 18 and 20 at
        # 9^3, 17^3 and 25^3
        for res in (9, 17, 25):
            grid = ball_grid(3, res)
            state, report = continuation(sample_problem(MANUFACTURED, grid), grid, SolverConfig())
            assert state.t == 1.0 and report.ilu_rebuilds == 0
            assert max(report.krylov_iters) <= 22

    @pytest.mark.parametrize("n, res", [(4, 9), (5, 7)])
    def test_higher_dimensions_need_no_rebuild(self, n, res):
        grid = ball_grid(n, res)
        problem = sample_problem(manufactured_problem(grid.domain, 0.05)[0], grid)
        state, report = continuation(problem, grid, SolverConfig())
        assert state.t == 1.0
        assert report.ilu_rebuilds == 0 and report.rejected_steps == []

    def test_recycled_subspace_carries_a_solve_to_the_next(self, grid9, manufactured9,
                                                           monkeypatch):
        u = seed_and_bumped(grid9)[1]
        stencil = stencil_at(u, 0.4, grid9, manufactured9)
        rhs = -residual_vector(u, 0.4, grid9, manufactured9)
        linear = CondensedSolver(grid9)
        first = linear.solve(stencil, rhs, 0.4)
        assert linear.recycled
        # the recycled subspace holds the first solution: no new applications
        second = linear.solve(stencil, rhs, 0.4)
        assert linear.report.krylov_iters[0] > 1 and linear.report.krylov_iters[1] == 0
        assert np.linalg.norm(second - first) <= 1e-9 * np.linalg.norm(first)

        # each continuation owns one list, empty at its first solve
        lists = []  # (the list, its length) at every Krylov call
        original = nconvex.solver.gcrotmk

        def gcrotmk(a, b, **kwargs):
            lists.append((kwargs["CU"], len(kwargs["CU"])))
            return original(a, b, **kwargs)

        monkeypatch.setattr(nconvex.solver, "gcrotmk", gcrotmk)
        firsts = []
        for _ in range(2):
            lists.clear()
            continuation(manufactured9, grid9, SolverConfig())
            assert lists[0][1] == 0 and all(length > 0 for _, length in lists[1:])
            assert all(cu is lists[0][0] for cu, _ in lists)
            firsts.append(lists[0][0])
        assert firsts[0] is not firsts[1]

    def test_recycling_saves_applications_along_the_path(self, grid9, manufactured9,
                                                         monkeypatch):
        _, report = continuation(manufactured9, grid9, SolverConfig())
        original = nconvex.solver.gcrotmk

        def gcrotmk(a, b, **kwargs):
            return original(a, b, **{**kwargs, "CU": []})

        monkeypatch.setattr(nconvex.solver, "gcrotmk", gcrotmk)
        _, alone = continuation(manufactured9, grid9, SolverConfig())
        # the same 7 solves (81 applications against 98 without recycling)
        assert len(report.krylov_iters) == len(alone.krylov_iters) == 7
        assert sum(report.krylov_iters) < 0.9 * sum(alone.krylov_iters)
        assert max(report.krylov_iters[3:]) < min(alone.krylov_iters[3:])

    def test_non_finite_stall_clears_the_recycled_subspace(self, grid9, manufactured9,
                                                           monkeypatch):
        seed, bumped = seed_and_bumped(grid9)
        linear = CondensedSolver(grid9)
        stall_gmres(monkeypatch, lambda call: call == 2, "non-finite")
        systems = [(stencil_at(u, 0.4, grid9, manufactured9),
                    -residual_vector(u, 0.4, grid9, manufactured9)) for u in (seed, bumped)]
        linear.solve(*systems[0], 0.4)
        assert linear.recycled
        with pytest.raises(StepFailure, match="Krylov solve stalled"):
            linear.solve(*systems[1], 0.4)
        assert linear.recycled == [] and linear.report.ilu_rebuilds == 1
        # the next solve starts clean and converges
        step = linear.solve(*systems[1], 0.4)
        direct = splu(full_jacobian(bumped, 0.4, grid9, manufactured9)).solve(systems[1][1])
        assert np.linalg.norm(step - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_every_solve_meets_the_true_residual_tolerance(self, monkeypatch):
        # GCROT tests ||S du - r|| itself, not a preconditioned residual
        grid = Grid(BALL, 17)
        solves = record_calls(monkeypatch, "gcrotmk")
        state, report = continuation(sample_problem(MANUFACTURED, grid), grid, SolverConfig())
        assert state.t == 1.0 and len(solves) == len(report.krylov_iters) == 7
        for (schur, rhs), (du, info) in solves:
            assert info == 0
            assert np.linalg.norm(schur @ du - rhs) <= 1e-10 * np.linalg.norm(rhs)


class TestMonitors:
    def test_quadratic_seed_closed_form(self, grid9):
        seed = quadratic_seed(grid9)
        mon = bound_monitors(seed, np.linalg.eigvalsh(hessian_batch(seed, grid9)), grid9)
        assert mon.sup_u == pytest.approx(0.5, abs=1e-10)
        assert mon.sup_du == pytest.approx(1.0, abs=1e-9)
        assert mon.sup_d2u == pytest.approx(1.0, abs=1e-9)
        assert mon.sup_unn == pytest.approx(1.0, abs=1e-9)
        assert mon.ratio == pytest.approx(0.5, abs=1e-9)


@pytest.fixture(scope="module")
def ball13():
    grid = Grid(BALL, 13)
    return grid, quadratic_data(grid)


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
            # what the state carries describes its own field at its t
            fld = state.field
            assert np.array_equal(state.hessians, hessian_batch(fld, grid))
            assert np.array_equal(state.det_w, woperator.batch_det_w(state.hessians))
            assert state.ellipticity_margin == margin_of(fld, grid)
            assert np.array_equal(state.residual, interior_residual(fld, grid, problem, state.t))
            assert state.residual_norm == float(np.max(np.abs(state.residual)))
            eig = woperator.batch_eigvalsh(state.hessians)
            assert state.monitors == bound_monitors(fld, eig, grid)
            # a reused state keeps its trace, which still solves the Robin rows at t
            robin = robin_residual(fld, grid, problem, state.t)
            assert np.max(np.abs(robin)) <= SolverConfig().newton_tol

    def test_exact_path_evaluates_margin_and_monitors_once(self, grid9, sp9, monkeypatch):
        residuals = count_calls(monkeypatch, "interior_residual")
        margins = count_calls(monkeypatch, "ellipticity_margin")
        monitors = count_calls(monkeypatch, "bound_monitors")
        steps = count_calls(monkeypatch, "assemble_jacobian")
        stacks = count_calls(monkeypatch, "hessian_batch")
        _, report = continuation(sp9, grid9, SolverConfig())
        assert steps == []
        assert len(margins) == len(monitors) == 1
        assert len(stacks) == 1  # the seed's, for its margin, det W and monitors
        # one residual per accepted state: the seed's, then t = 0.1, 0.5 and 1,
        # each of the seed's field
        assert len(residuals) == len(report.rows) == 4
        assert all(fld is residuals[0] for fld in residuals)

    def test_margin_and_sup_d2u_read_guarded_eigenvalues(self, grid9, sp9, monkeypatch):
        # a subnormal and a 1e-147 off-diagonal, on which LAPACK's eigvalsh
        # misses the spectrum by 8e-3; zeroing them moves no eigenvalue
        odd = np.array([[0.0, 1.57830108e-147, 1.11253693e-308],
                        [1.57830108e-147, 1.0, 1.5],
                        [1.11253693e-308, 1.5, 0.0]])
        exact = np.array([-np.sqrt(10.0), 0.0, np.sqrt(10.0)]) / 2.0 + np.array([0.5, 0.0, 0.5])
        seed = quadratic_seed(grid9)
        stack = hessian_batch(seed, grid9)
        stack[0] = odd
        monkeypatch.setattr(nconvex.solver, "hessian_batch", lambda fld, grid: stack)
        state = evaluate_state(seed.values, 0.0, grid9, sp9)
        eigenvalues = woperator.batch_eigvalsh(state.hessians)
        assert np.allclose(eigenvalues[0], exact, rtol=0.0, atol=1e-14)
        assert ellipticity_margin(state.hessians) == pytest.approx(1.0 - exact[2], abs=1e-14)
        # the gate refuses the stack, and Newton names the guarded margin
        assert not state.admissible
        with pytest.raises(ValueError, match=f"margin {1.0 - exact[2]:.3g} <= 0"):
            newton_solve(state, grid9, sp9, SolverConfig())
        monitors = bound_monitors(state.field, eigenvalues, grid9)
        assert monitors.sup_d2u == pytest.approx(exact[2], abs=1e-14)

    @pytest.mark.parametrize("case", ["manufactured", "exact"])
    def test_one_eigendecomposition_per_report_row(self, grid9, sp9, manufactured9,
                                                  monkeypatch, case):
        decomposed = []
        batch_eigvalsh = woperator.batch_eigvalsh

        def recording(hessians):
            decomposed.append(hessians)
            return batch_eigvalsh(hessians)

        monkeypatch.setattr(woperator, "batch_eigvalsh", recording)
        solves = record_calls(monkeypatch, "newton_solve")
        problem = manufactured9 if case == "manufactured" else sp9
        _, report = continuation(problem, grid9, SolverConfig())
        accepted = [out for _, out in solves if out is not None]
        if case == "manufactured":
            assert len(decomposed) == len(report.rows) == len(accepted)
            assert all(d2 is out.hessians for d2, out in zip(decomposed, accepted))
        else:
            # the seed's state is the start, and the result, of every step
            assert len(decomposed) == 1 and len(report.rows) == 4
            assert all(out.monitors is accepted[0].monitors for out in accepted)
        assert all(out.ellipticity_margin > 0.0 for out in accepted)

    def test_exact_path_evaluates_det_w_once(self, grid9, sp9, monkeypatch):
        dets = record_det_w(monkeypatch)
        continuation(sp9, grid9, SolverConfig())
        assert len(dets) == 1

    def test_manufactured_path_evaluates_each_det_w_once(self, grid9, manufactured9,
                                                        monkeypatch):
        dets = record_det_w(monkeypatch)
        continuation(manufactured9, grid9, SolverConfig())
        assert len(dets) > 1
        assert len({d2.tobytes() for d2 in dets}) == len(dets)

    def test_known_start_det_w_is_trusted(self, grid9, sp9, monkeypatch):
        start = make_state(0.0, quadratic_seed(grid9), grid9, sp9)
        dets = record_det_w(monkeypatch)
        hessians = count_calls(monkeypatch, "hessian_batch")
        out = newton_solve(start, grid9, sp9, SolverConfig())
        # an exact start takes no step: no det W and no Hessian stack is formed
        assert dets == [] and hessians == []
        assert out.det_w is start.det_w

    def test_newton_leaves_the_start_state_unchanged(self, grid9, manufactured9):
        u = seed_and_bumped(grid9)[1]
        start = evaluate_state(u.copy(), 0.4, grid9, manufactured9)
        trace, d2 = start.field.trace.copy(), start.hessians.copy()
        out = newton_solve(start, grid9, manufactured9, SolverConfig())
        assert not np.array_equal(out.field.values, u)
        assert np.array_equal(start.field.values, u)
        assert np.array_equal(start.field.trace, trace)
        assert np.array_equal(start.hessians, d2)

    def test_each_iterate_forms_one_hessian_stack(self, grid9, manufactured9, monkeypatch):
        states = record_calls(monkeypatch, "evaluate_state")
        residuals = record_calls(monkeypatch, "interior_residual")
        gates = count_calls(monkeypatch, "_admissible")
        margin_calls = record_calls(monkeypatch, "ellipticity_margin")
        steps = count_calls(monkeypatch, "assemble_jacobian")
        monitors = record_calls(monkeypatch, "bound_monitors")
        calls = record_calls(monkeypatch, "hessian_batch")
        predicted = record_calls(monkeypatch, "_predicted_start")
        continuation(manufactured9, grid9, SolverConfig())
        formed = [d2 for _, d2 in calls]
        built = [out for _, out in states]
        # one stack per evaluated state (the seed, a prediction, a tangent
        # start or a trial), and no other
        assert len(formed) == len(built)
        assert all(sum(state.hessians is d2 for d2 in formed) == 1 for state in built)
        # the gate, the margin and each Jacobian read a stack formed once, and
        # the monitors read the eigenvalues a margin was read from
        margins = [args[0] for args, _ in margin_calls]
        for used in gates + margins + steps:
            assert any(used is d2 for d2 in formed)
        for args, _ in monitors:
            assert any(args[1] is m_args[1] for m_args, _ in margin_calls)
        # every residual is handed its det W, so none forms a stack of its own
        assert all(len(args) == 5 and args[4] is not None for args, _ in residuals)
        # each prediction forms its stack once, and Newton starts from that stack
        predictions = [out for _, out in predicted if out is not None]
        assert len(predictions) > 0
        for start in predictions:
            assert sum(start.hessians is d2 for d2 in formed) == 1
            if start.admissible:  # on this path each such start takes a step
                assert sum(start.hessians is k for k in steps) >= 1
        # each Jacobian reuses the stack of a state the gate passed
        assert len(steps) > 1
        assert all(any(k is state.hessians and state.admissible
                       for state in built) for k in steps)

    def test_each_formed_stack_is_decomposed_at_most_once(self, grid9, manufactured9,
                                                         monkeypatch):
        lapack = []
        original = np.linalg.eigvalsh

        def eigvalsh(a, *args, **kwargs):
            lapack.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        spectra = []
        batch_eigvalsh = woperator.batch_eigvalsh

        def recording(hessians):
            spectra.append(hessians)
            return batch_eigvalsh(hessians)

        monkeypatch.setattr(woperator, "batch_eigvalsh", recording)
        calls = record_calls(monkeypatch, "hessian_batch")
        in_monitors = []
        monitors = nconvex.solver.bound_monitors

        def counting_monitors(*args):
            before = len(spectra)
            out = monitors(*args)
            in_monitors.append(len(spectra) - before)
            return out

        monkeypatch.setattr(nconvex.solver, "bound_monitors", counting_monitors)
        _, report = continuation(manufactured9, grid9, SolverConfig())
        formed = [d2 for _, d2 in calls]
        # at n = 3 every spectrum is batch_eigvalsh's closed form, never LAPACK's
        assert lapack == []
        # every decomposition is one of a stack formed here (the seed, a path
        # start or a trial), and no stack is decomposed twice
        assert all(any(a is d2 for d2 in formed) for a in spectra)
        assert all(sum(a is d2 for a in spectra) <= 1 for d2 in formed)
        # only the states Newton returns are decomposed, one per report row
        assert len(spectra) == len(report.rows) < len(formed)
        # the monitors read the returned state's eigenvalues and decompose nothing
        assert len(in_monitors) == len(report.rows) and not any(in_monitors)

    def test_manufactured_path_evaluates_each_state_once(self, grid9, manufactured9,
                                                         monkeypatch):
        solves = record_calls(monkeypatch, "newton_solve")
        states = record_calls(monkeypatch, "evaluate_state")
        gates = count_calls(monkeypatch, "_admissible")
        margins = count_calls(monkeypatch, "ellipticity_margin")
        monitors = count_calls(monkeypatch, "bound_monitors")
        steps = count_calls(monkeypatch, "assemble_jacobian")
        predicted = record_calls(monkeypatch, "_predicted_start")
        tangents = record_calls(monkeypatch, "_tangent_start")
        continuation(manufactured9, grid9, SolverConfig())
        keys = [(t, u.tobytes()) for (u, t, *_), _ in states]
        # no (t, u) is evaluated twice
        assert len(set(keys)) == len(keys)
        predictions = [out for _, out in predicted if out is not None]
        starts = [out for _, out in tangents]
        assert len(predictions) > 0 and len(starts) > 0
        # the seed, each prediction, each tangent start (none reuses its
        # state on this path) and then one state per trial
        built = [out for _, out in states]
        assert all(any(start is state for state in built) for start in predictions + starts)
        trials = len(built) - 1 - len(predictions) - len(starts)
        assert trials >= len(steps) - len(starts) > 0
        # the gate: once per evaluated state
        assert len({d2.tobytes() for d2 in gates}) == len(gates) == len(built)
        assert all(sum(p.hessians is d2 for d2 in gates) == 1 for p in predictions)
        # the margin and the monitors: once per accepted state whose start
        # carried none (the seed, a prediction or a tangent start) or that
        # Newton moved to; never at a path start itself
        fresh = [out for args, out in solves if out is not None
                 and (args[0].monitors is None or out.field is not args[0].field)]
        assert len(monitors) == len(margins) == len(fresh)
        assert all(any(fld is out.field for out in fresh) for fld in monitors)
        assert all(any(d2 is out.hessians for out in fresh) for d2 in margins)


def is_prediction(state, predictions):
    """Whether ``state`` is one of ``predictions``, outputs of ``_predicted_start``."""
    return any(state is p for p in predictions)


def starts_of(solves, predictions):
    """(t, whether the start is one of ``predictions``) of each recorded newton_solve."""
    return [(args[0].t, is_prediction(args[0], predictions)) for args, _ in solves]


def bumped_field(grid, scale, freq):
    return DiscreteField.from_function(
        grid, lambda p: scale * np.exp(freq * p[:, 0]) * np.cos(p[:, 1]))


class TestSecantPredictor:
    """Each step after the first starts from the secant through the last two
    states, plus the second-divided-difference term once three are accepted."""

    def quadratic_path(self, grid, problem, ts):
        """States at ``ts`` on the exactly quadratic path x(t) = a + b t + c t^2."""
        a = quadratic_seed(grid).values
        b, c = bumped_field(grid, 0.03, 1.0).values, bumped_field(grid, 0.02, -0.5).values

        def x(t):
            return a + b * t + c * t * t

        states = [evaluate_state(x(t), t, grid, problem) for t in ts]
        return states, x

    def test_three_states_predict_a_quadratic_path_exactly(self, grid9, manufactured9):
        ts = (0.2, 0.3, 0.35)
        (s2, s1, s0), x = self.quadratic_path(grid9, manufactured9, ts)
        earlier = ((s1.t, s1.field.values), (s2.t, s2.field.values))
        out = nconvex.solver._predicted_start(s0, earlier, 0.45, grid9, manufactured9)
        assert out.t == 0.45 and out.monitors is None
        assert np.max(np.abs(out.field.values - x(0.45))) <= 1e-14 * np.max(np.abs(x(0.45)))
        # the prediction's trace, stack, verdict and det W describe its field;
        # its margin and monitors are left to the state Newton returns
        assert np.array_equal(out.field.trace,
                              field_at(out.field.values, 0.45, grid9, manufactured9).trace)
        assert np.array_equal(out.hessians, hessian_batch(out.field, grid9))
        assert out.ellipticity_margin is None
        assert out.admissible == (margin_of(out.field, grid9) > 0.0)
        assert np.array_equal(out.det_w, woperator.batch_det_w(out.hessians))
        # and its residual is the one at t = 0.45
        assert np.array_equal(out.residual,
                              residual_vector(out.field.values, 0.45, grid9, manufactured9))
        # the secant through the last two alone misses the curvature
        secant = nconvex.solver._predicted_start(s0, earlier[:1], 0.45, grid9, manufactured9)
        assert np.max(np.abs(secant.field.values - x(0.45))) > 1e-4

    def test_two_states_give_the_secant_bit_for_bit(self, grid9, manufactured9):
        (s1, s0), _ = self.quadratic_path(grid9, manufactured9, (0.2, 0.35))
        u, u1 = s0.field.values, s1.field.values
        out = nconvex.solver._predicted_start(s0, ((s1.t, u1),), 0.45, grid9, manufactured9)
        assert np.array_equal(out.field.values, u + (0.45 - s0.t) / (s0.t - s1.t) * (u - u1))

    def test_no_prediction_without_a_secant(self, grid9, manufactured9):
        (s2, s1), _ = self.quadratic_path(grid9, manufactured9, (0.2, 0.3))
        u1, u2 = s1.field.values, s2.field.values
        def predict(earlier):
            return nconvex.solver._predicted_start(s1, earlier, 0.4, grid9, manufactured9)

        assert predict(()) is None
        # u_k - u_{k-1} = 0 forms no prediction, whatever u_{k-2} is
        assert predict(((0.25, u1.copy()),)) is None
        assert predict(((0.25, u1.copy()), (0.2, u2))) is None

    def test_manufactured_path_takes_7_linear_solves(self, grid9, manufactured9,
                                                      monkeypatch):
        solves = record_calls(monkeypatch, "newton_solve")
        state, report = continuation(manufactured9, grid9, SolverConfig())
        assert state.t == 1.0
        # a tangent step and two Newton iterations from the seed at t = 0.1
        # double dt; two from the secant start at 0.3 quadruple it, and
        # 0.3 + 0.8 clips to 1
        assert [row["t"] for row in report.rows] == pytest.approx([0.0, 0.1, 0.3, 1.0])
        # 12 when every step starts from the last accepted state
        assert len(report.krylov_iters) == 7
        assert report.predicted_starts == len(report.rows) - 2
        assert report.predictor_fallbacks == 0
        # the secant start at t = 0.3, then the three-point start at t = 1, far
        # closer to the path than the secant through the same last two states
        first, *rest = report.predicted_start_residuals
        assert len(rest) == report.predicted_starts - 1 > 0
        (s2, s1, s0) = [out for _, out in solves if out is not None][-4:-1]
        secant = nconvex.solver._predicted_start(s0, ((s1.t, s1.field.values),), 1.0,
                                                 grid9, manufactured9)
        assert max(rest) < 0.1 * secant.residual_norm

    def test_refused_prediction_starts_from_the_last_state(self, grid9, manufactured9,
                                                           monkeypatch):
        original = nconvex.solver._predicted_start
        refused = []

        def predicted_start(*args):
            out = original(*args)
            if out is not None:
                out = replace(out, admissible=False)
                refused.append(out)
            return out

        monkeypatch.setattr(nconvex.solver, "_predicted_start", predicted_start)
        solves = record_calls(monkeypatch, "newton_solve")
        state, report = continuation(manufactured9, grid9, SolverConfig())
        assert state.t == 1.0
        # three linear solves per step from u_k, the tangent step's included:
        # dt doubles every time
        assert [row["t"] for row in report.rows] == pytest.approx([0.0, 0.1, 0.3, 0.7, 1.0])
        # no Newton solve starts at a refused prediction
        assert len(refused) == len(report.rows) - 2 > 0
        assert not any(t_pred for _, t_pred in starts_of(solves, refused))
        assert report.predicted_starts == 0
        assert report.predictor_fallbacks == len(refused)
        assert len(report.krylov_iters) == 12

    def test_failed_prediction_is_retried_from_the_last_state(self, grid9, manufactured9,
                                                              monkeypatch):
        original = nconvex.solver.newton_solve
        predicted = record_calls(monkeypatch, "_predicted_start")

        def newton_solve(state, *args):
            if is_prediction(state, (out for _, out in predicted)):
                raise StepFailure("predicted start refused by the test")
            return original(state, *args)

        monkeypatch.setattr(nconvex.solver, "newton_solve", newton_solve)
        solves = record_calls(monkeypatch, "newton_solve")
        tangents = record_calls(monkeypatch, "_tangent_start")
        state, report = continuation(manufactured9, grid9, SolverConfig())
        assert state.t == 1.0
        # dt is never halved: each prediction fails and is retried at the same t,
        # and each retry's three linear solves double dt
        ts = [row["t"] for row in report.rows]
        assert ts == pytest.approx([0.0, 0.1, 0.3, 0.7, 1.0])
        assert len(report.krylov_iters) == 12 and report.rejected_steps == []
        starts = starts_of(solves, [out for _, out in predicted])
        assert starts[:2] == [(0.0, False), (ts[1], False)]
        assert starts[2:] == [(t, predicted) for t in ts[2:] for predicted in (True, False)]
        # each retry starts from the tangent start of the state accepted just before it
        accepted = [out for _, out in solves if out is not None]
        retries = [args[0] for args, _ in solves[1:]
                   if not is_prediction(args[0], (out for _, out in predicted))]
        assert len(tangents) == len(retries) == len(accepted) - 1
        for (args, start), retry, last in zip(tangents, retries, accepted):
            assert args[0] is last and retry is start
        assert report.predicted_starts == 0
        assert report.predictor_fallbacks == len(ts) - 2

    def test_dt_halves_only_when_the_retry_fails_too(self, grid9, manufactured9,
                                                      monkeypatch):
        original = nconvex.solver.newton_solve
        predicted = record_calls(monkeypatch, "_predicted_start")
        failed = []

        def newton_solve(state, *args):
            if state.t == pytest.approx(0.3) and len(failed) < 2:
                failed.append(is_prediction(state, (out for _, out in predicted)))
                raise StepFailure("step at t=0.3 refused by the test")
            return original(state, *args)

        monkeypatch.setattr(nconvex.solver, "newton_solve", newton_solve)
        solves = record_calls(monkeypatch, "newton_solve")
        state, report = continuation(manufactured9, grid9, SolverConfig())
        assert state.t == 1.0
        # the prediction at 0.3 fails, then the retry from the state at 0.1;
        # only then is dt halved, and the step to 0.2 starts from a prediction
        assert failed == [True, False]
        starts = starts_of(solves, [out for _, out in predicted])
        at = starts.index((pytest.approx(0.3), True))
        assert starts[at:at + 3] == [(pytest.approx(0.3), True), (pytest.approx(0.3), False),
                                     (pytest.approx(0.2), True)]
        # dt does not grow on the acceptance at 0.2, so the next step is to 0.3
        assert [row["t"] for row in report.rows] == pytest.approx(
            [0.0, 0.1, 0.2, 0.3, 0.7, 1.0])
        # the refused retry at 0.3 made its tangent solve before Newton was refused
        assert len(report.krylov_iters) == 11
        assert report.predictor_fallbacks == 1
        assert report.rejected_steps == [(0.1, pytest.approx(0.2),
                                          "step at t=0.3 refused by the test")]


class TestTangentStart:
    """The active values are the only unknowns; a start from u_k is u_k
    itself or one tangent step from it, and every state solves the Robin rows."""

    @pytest.mark.parametrize("res", [9, 17])
    def test_every_state_satisfies_the_robin_rows(self, res, monkeypatch):
        grid = Grid(BALL, res)
        problem = sample_problem(MANUFACTURED, grid)
        states = record_calls(monkeypatch, "evaluate_state")
        predicted = record_calls(monkeypatch, "_predicted_start")
        tangents = record_calls(monkeypatch, "_tangent_start")
        continuation(problem, grid, SolverConfig())
        built = [out for _, out in states]
        # the seed, the predictions, the tangent starts and the trials
        predictions = [out for _, out in predicted if out is not None]
        starts = [out for _, out in tangents]
        assert built[0].t == 0.0 and len(predictions) > 0 and len(starts) > 0
        assert all(any(start is state for state in built) for start in predictions + starts)
        assert len(built) > 1 + len(predictions) + len(starts)
        worst = max(float(np.max(np.abs(robin_residual(state.field, grid, problem, state.t))))
                    for state in built)
        assert worst <= 1e-12

    def test_forced_fallback_restarts_with_one_tangent_solve(self, grid9, manufactured9,
                                                             monkeypatch):
        # every prediction is refused; each restart from the last accepted
        # state makes one linear solve, on the Jacobian at that state's stack
        original = nconvex.solver._predicted_start

        def predicted_start(*args):
            out = original(*args)
            return None if out is None else replace(out, admissible=False)

        monkeypatch.setattr(nconvex.solver, "_predicted_start", predicted_start)
        jacobians = record_calls(monkeypatch, "assemble_jacobian")
        solved = record_stencils(monkeypatch)
        tangent_start = nconvex.solver._tangent_start
        restarts = []  # (state, its Jacobians, its linear solves) of each restart

        def recording_start(state, *args):
            jacs, solves = len(jacobians), len(solved)
            out = tangent_start(state, *args)
            restarts.append((state, jacobians[jacs:], solved[solves:]))
            return out

        monkeypatch.setattr(nconvex.solver, "_tangent_start", recording_start)
        state, report = continuation(manufactured9, grid9, SolverConfig())
        assert state.t == 1.0
        assert report.predictor_fallbacks == len(report.rows) - 2 > 0
        assert len(restarts) == len(report.rows) - 1
        for start, jacs, solves in restarts:
            assert len(jacs) == len(solves) == 1
            (args, stencil), = jacs
            assert args[0] is start.hessians and solves[0] is stencil

    def test_a_state_that_still_solves_is_its_own_start(self, grid9, sp9, manufactured9):
        seed = make_state(0.0, quadratic_seed(grid9), grid9, sp9)
        seed = newton_solve(seed, grid9, sp9, SolverConfig())
        linear = CondensedSolver(grid9)
        # exact data: the same field, its residual at the new t, no solve
        same = nconvex.solver._tangent_start(seed, 0.5, grid9, sp9, SolverConfig(), linear)
        assert same.t == 0.5 and same.field is seed.field and same.det_w is seed.det_w
        assert np.array_equal(same.residual, interior_residual(seed.field, grid9, sp9, 0.5))
        assert linear.report.krylov_iters == []
        # manufactured data: one tangent solve, to a field that solves the Robin rows at 0.5
        moved = nconvex.solver._tangent_start(seed, 0.5, grid9, manufactured9, SolverConfig(),
                                              linear)
        assert len(linear.report.krylov_iters) == 1 and moved.monitors is None
        assert moved.t == 0.5 and not np.array_equal(moved.field.values, seed.field.values)
        robin = robin_residual(moved.field, grid9, manufactured9, 0.5)
        assert np.max(np.abs(robin)) <= 1e-12
        # and it is far closer to the path than u_k with its trace moved to 0.5
        jumped = evaluate_state(seed.field.values, 0.5, grid9, manufactured9)
        assert moved.residual_norm < 0.1 * jumped.residual_norm

    def test_tangent_start_is_taken_whole(self, grid9, manufactured9):
        # like the prediction, the tangent step has no line search: u_k + du is
        # the start even when its residual exceeds u_k's own at t_next
        seed = make_state(0.0, quadratic_seed(grid9), grid9, manufactured9)
        bump = 0.2 * np.cos(2.0 * grid9.active_pts[:, 0])

        class FixedStep:
            def solve(self, stencil, rhs, t):
                return bump

        start = nconvex.solver._tangent_start(seed, 0.5, grid9, manufactured9, SolverConfig(),
                                              FixedStep())
        assert np.array_equal(start.field.values, seed.field.values + bump)
        own = interior_residual(seed.field, grid9, manufactured9, 0.5, seed.det_w)
        assert start.admissible and margin_of(start.field, grid9) > 0.0
        assert start.residual_norm > 10.0 * np.max(np.abs(own))

    def test_reused_states_keep_the_robin_rows_within_tolerance(self, grid9, sp9,
                                                                 monkeypatch):
        # phi is 1.5 newton_tol above the seed's Robin data: each step's data
        # change is within tolerance, their sum from t = 0 is not.  The seed is
        # reused at t = 0.1 and 0.5, and at t = 1 its Robin residual, 1.5 tol,
        # calls for one tangent solve
        config = SolverConfig()
        problem = replace(sp9, phi_colloc=grid9.colloc_quad + 1.5 * config.newton_tol)
        tangents = record_calls(monkeypatch, "_tangent_start")
        state, report = continuation(problem, grid9, config)
        assert [row["t"] for row in report.rows] == [0.0, 0.1, 0.5, 1.0]
        seed_field = tangents[0][0][0].field
        assert all(start.field is seed_field for _, start in tangents[:2])
        assert len(report.krylov_iters) >= 1
        for start in [start for _, start in tangents] + [state]:
            robin = robin_residual(start.field, grid9, problem, start.t)
            assert np.max(np.abs(robin)) <= config.newton_tol
        assert np.max(np.abs(robin_residual(state.field, grid9, problem, 1.0))) <= 1e-12


def guarded_margin(monkeypatch, reject_every_trial=False):
    """Patch the admissibility gate to refuse the first trial of each Newton step."""
    true_gate = nconvex.solver._admissible
    steps = count_calls(monkeypatch, "assemble_jacobian")
    rejected = set()

    def guard(hessians):
        if reject_every_trial or len(steps) not in rejected:
            rejected.add(len(steps))
            return False
        return true_gate(hessians)

    monkeypatch.setattr(nconvex.solver, "_admissible", guard)
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
        trials = count_calls(monkeypatch, "evaluate_state")
        # every step is cut to at most half a Newton step, so the contraction is
        # linear (about 30 steps here) instead of quadratic
        monkeypatch.setattr(nconvex.solver, "MAX_NEWTON_ITERS", 60)
        out = newton_solve(start, grid9, sp9, SolverConfig())
        assert out.residual_norm <= 1e-10
        assert len(rejected) == len(steps) > 0
        # the start is evaluated already, so every state built is a trial:
        # every step backtracked at least once
        assert len(trials) >= 2 * len(steps)
        # the returned margin is the field's true one, read once Newton returns
        assert out.admissible
        assert out.ellipticity_margin == margin_of(out.field, grid9) > 0.0

    def test_guard_rejecting_every_trial_fails_the_step(self, grid9, sp9, monkeypatch):
        start = self.perturbed_start(grid9, sp9)
        guarded_margin(monkeypatch, reject_every_trial=True)
        with pytest.raises(StepFailure, match="line search floor"):
            newton_solve(start, grid9, sp9, SolverConfig())


def lifted_stack(lifted, count=5, seed=7):
    """``count`` Hessians whose lifted eigenvalues tr H - lambda_i are
    ``lifted``, each in a random basis."""
    rng = np.random.default_rng(seed)
    n = len(lifted)
    hessian_eigs = np.sum(lifted) / (n - 1) - np.asarray(lifted)
    bases = [np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(count)]
    stack = np.array([q @ np.diag(hessian_eigs) @ q.T for q in bases])
    return 0.5 * (stack + np.swapaxes(stack, -1, -2))


class TestAdmissibilityGate:
    """The gate's verdict is ``ellipticity_margin(h) > 0`` on every stack."""

    def verdict(self, monkeypatch, hessians):
        """(gate verdict, whether it fell back to the eigenvalue margin)."""
        with monkeypatch.context() as patch:
            margins = count_calls(patch, "ellipticity_margin")
            return nconvex.solver._admissible(hessians), len(margins) > 0

    def test_clear_stack_needs_no_eigenvalues(self, grid9, monkeypatch):
        stack = hessian_batch(quadratic_seed(grid9), grid9)
        assert self.verdict(monkeypatch, stack) == (True, False)
        assert self.verdict(monkeypatch, -stack) == (False, True)
        assert self.verdict(monkeypatch, lifted_stack([1.5, 3.0, 6.0])) == (True, False)

    @pytest.mark.parametrize("smallest, sign", [(1e-13, 1), (0.0, 0), (-1e-13, -1)])
    def test_verdict_equals_the_margin_at_the_edge(self, grid9, monkeypatch, smallest, sign):
        # the margin is far below the Cholesky shift, so the eigenvalues decide
        seed = hessian_batch(quadratic_seed(grid9), grid9)
        for scale in (3.0, 3e-3):
            edge = lifted_stack(scale * np.array([smallest, 1.0, 2.0]))
            stack = np.concatenate([seed, edge])
            margin = ellipticity_margin(stack)
            if sign:
                assert np.sign(margin) == sign
            assert abs(margin) <= 1e-12 * np.max(np.abs(edge))
            assert self.verdict(monkeypatch, stack) == (margin > 0.0, True)

    @pytest.mark.parametrize("n", [3, 4])
    def test_verdict_on_random_stacks(self, n):
        # one Hessian per stack, its lifted spectrum of either sign
        rng = np.random.default_rng(n)
        verdicts = []
        for seed in range(300):
            stack = lifted_stack(rng.uniform(-1.0, 2.0, n), count=1, seed=seed)
            verdicts.append(nconvex.solver._admissible(stack))
            assert verdicts[-1] == (ellipticity_margin(stack) > 0.0)
        assert 0 < np.count_nonzero(verdicts) < len(verdicts)

    def test_verdict_on_the_guarded_eigenvalue_stack(self, grid9, monkeypatch):
        # the subnormal and 1e-147 off-diagonals of
        # test_margin_and_sup_d2u_read_guarded_eigenvalues
        odd = np.array([[0.0, 1.57830108e-147, 1.11253693e-308],
                        [1.57830108e-147, 1.0, 1.5],
                        [1.11253693e-308, 1.5, 0.0]])
        stack = hessian_batch(quadratic_seed(grid9), grid9)
        stack[0] = odd
        assert ellipticity_margin(stack) < 0.0
        assert self.verdict(monkeypatch, stack) == (False, True)
        # odd + 2 I has trace 7 and lambda_max 4.08, so margin 2.92
        stack[0] = odd + 2.0 * np.eye(3)
        assert ellipticity_margin(stack) > 0.0
        assert self.verdict(monkeypatch, stack) == (True, False)
