"""Newton and continuation behavior on the unit ball."""

import json
from dataclasses import replace

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
    hessian_batch,
    hessian_contraction,
    homotopy_constant,
    manufactured_problem,
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


def stencil_at(x, grid):
    """The Newton stencil matrix K at the packed state x."""
    return assemble_jacobian(hessian_batch(DiscreteField.unpack(x, grid), grid), grid)


def make_state(t, fld, grid, problem):
    r = residual_vector(fld.pack(), t, grid, problem)
    d2 = hessian_batch(fld, grid)
    eig = np.linalg.eigvalsh(d2)
    return HomotopyState(
        t=t,
        field=fld,
        residual_norm=float(np.max(np.abs(r))),
        ellipticity_margin=ellipticity_margin(d2),
        monitors=bound_monitors(fld, eig, grid),
        det_w=woperator.batch_det_w(d2),
        hessians=d2,
        eigenvalues=eig,
    )


class TestSolverConfig:
    @pytest.mark.parametrize("key, value", [
        ("min_step", 0.0),
        ("min_step", -1e-3),
        ("min_step", float("nan")),
        ("min_step", 1.5),
        ("newton_tol", 0.0),
        ("newton_tol", float("nan")),
        ("newton_tol", float("inf")),
        ("max_newton_iters", 0),
        ("homotopy_steps", 0),
        ("damping", 1.0),
    ])
    def test_bad_value_refused(self, key, value):
        with pytest.raises(ValueError, match=key):
            SolverConfig(**{key: value})

    def test_whole_step_is_a_valid_min_step(self):
        assert SolverConfig(min_step=1.0).min_step == 1.0


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
                ).pack()
                x = seed.pack() + bump
                fld = DiscreteField.unpack(x, grid)
                if margin_of(fld, grid) <= 0.0:
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

    def test_step_underflow_raises_with_last_good_state(self, grid9):
        problem = sample_problem(MANUFACTURED, grid9)
        config = SolverConfig(homotopy_steps=1, max_newton_iters=1, min_step=0.3)
        with pytest.raises(ContinuationFailure, match="step size underflow") as info:
            continuation(problem, grid9, config)
        state, report = info.value.state, info.value.report
        assert state.t == 0.0
        assert state.ellipticity_margin > 0.0
        assert [row["t"] for row in report.rows] == [0.0]

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

    The solver calls ``splu`` on no path; every ``splu`` list must stay empty.
    """
    return count_calls(monkeypatch, "spilu"), count_calls(monkeypatch, "splu")


def stall_gmres(monkeypatch, stalls, how="not-converged"):
    """Make GMRES stall on the calls (counted from 1) that ``stalls`` picks.

    A stall is reported as GMRES reports one: no convergence (info 1) or a
    non-finite result.  Returns every matrix handed to GMRES, in order.
    """
    matrices = []
    original = nconvex.solver.gmres

    def gmres(a, b, **kwargs):
        matrices.append(a)
        if stalls(len(matrices)):
            if how == "not-converged":
                return np.zeros_like(b), 1
            return np.full_like(b, np.nan), 0
        return original(a, b, **kwargs)

    monkeypatch.setattr(nconvex.solver, "gmres", gmres)
    return matrices


def schur_of(jac, grid):
    """S = A - B R / d, the full Jacobian with the trace unknowns eliminated."""
    n = grid.n_active
    jac = sp.csr_matrix(jac)
    d = grid.robin_diag
    return sp.csr_matrix(jac[:n, :n] - jac[:n, n:] @ grid.robin_u / d)


@pytest.fixture(scope="module")
def egg9():
    return Grid(DomainSpec.ellipsoid((1.0, 1.0, 1.05)), 9)


def seed_operator(grid):
    """c0 I contracted with the Hessian stencil and composed with E: the seed's S."""
    n = grid.n
    seed_grad = np.broadcast_to(homotopy_constant(n) * np.eye(n), (grid.n_active, n, n))
    return hessian_contraction(seed_grad, grid) @ condensed_map(grid)[0]


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
        for x in (seed, bumped):
            r = residual_vector(x, 0.4, grid9, manufactured9)
            direct = splu(full_jacobian(x, 0.4, grid9, manufactured9)).solve(-r)
            step = linear.solve(stencil_at(x, grid9), -r, 0.4)
            assert np.linalg.norm(step - direct) <= 1e-10 * np.linalg.norm(direct)
        # one preconditioner, built from the seed S (not the bumped one)
        assert len(seeds) == 1 and lus == []
        seed_s = schur_of(full_jacobian(seed, 0.4, grid9, manufactured9), grid9)
        built = sp.csr_matrix(seeds[0])
        assert built.shape == seed_s.shape
        assert abs(built - seed_s).max() <= 1e-12 * abs(seed_s).max()
        assert report.krylov_iters[1] > 1
        assert report.ilu_rebuilds == 0

    @pytest.mark.parametrize("domain", ["ball", "ellipsoid"])
    def test_preconditioner_is_the_seed_operator_whatever_the_first_state(
            self, grid9, egg9, monkeypatch, domain):
        grid = grid9 if domain == "ball" else egg9
        problem = sample_problem(MANUFACTURED, grid)
        seeds, _ = count_factorizations(monkeypatch)
        for x in seed_and_bumped(grid):
            r = residual_vector(x, 0.4, grid, problem)
            CondensedSolver(grid, PathReport()).solve(stencil_at(x, grid), -r, 0.4)
        # a first solve at the bumped field builds the same ILU as one at the seed
        assert len(seeds) == 2
        assert abs(seeds[0] - seeds[1]).max() == 0.0
        assert abs(seeds[0] - seed_operator(grid)).max() == 0.0

    def test_seed_preconditioner_drops_only_roundoff(self, grid9, manufactured9,
                                                     monkeypatch):
        seeds, _ = count_factorizations(monkeypatch)
        solved = count_calls(monkeypatch, "gmres")
        seed = quadratic_seed(grid9).pack()
        stencil = stencil_at(seed, grid9)
        rhs = np.ones(grid9.n_unknowns)
        CondensedSolver(grid9, PathReport()).solve(stencil, rhs, 0.0)
        full = stencil @ condensed_map(grid9)[0]
        exact = seed_operator(grid9)
        assert abs(seeds[0] - exact).max() == 0.0
        # the computed seed S is the exact operator plus round-off entries
        # (M = 2I, so the off-diagonal terms vanish in exact arithmetic)
        row_max = abs(full).max(axis=1).toarray().ravel()
        kept = sp.coo_matrix(exact)
        assert np.all(np.abs(kept.data) >= 1e-12 * row_max[kept.row])
        dropped = sp.coo_matrix(full - exact)
        assert np.all(np.abs(dropped.data) <= 1e-12 * row_max[dropped.row])
        assert kept.nnz < full.nnz
        # GMRES solves the computed S itself, round-off entries and all
        assert solved[0].nnz == full.nnz
        assert abs(solved[0] - full).max() == 0.0
        # the same S as eliminating the trace from the full Jacobian, to round-off
        eliminated = schur_of(full_jacobian(seed, 0.0, grid9, manufactured9), grid9)
        assert abs(full - eliminated).max() <= 1e-12 * abs(eliminated).max()

    @pytest.mark.parametrize("domain", ["ball", "ellipsoid"])
    def test_condensed_map_is_the_robin_elimination(self, grid9, egg9, domain):
        grid = grid9 if domain == "ball" else egg9
        problem = sample_problem(MANUFACTURED, grid)
        emap, lift = condensed_map(grid)
        n, r_u = grid.n_active, grid.robin_u
        data = 0.4 * problem.phi_colloc + 0.6 * grid.colloc_quad
        for x in seed_and_bumped(grid):
            u = x[:n]
            # extended vector with the trace the Robin rows fix
            exact = grid.extension @ np.concatenate([u, (data - r_u @ u) / grid.robin_diag])
            condensed = emap @ u + lift @ data
            assert np.max(np.abs(condensed - exact)) <= 1e-12 * np.max(np.abs(exact))
            # and the Newton matrix is the trace-eliminated full Jacobian
            newton_s = stencil_at(x, grid) @ emap
            eliminated = schur_of(full_jacobian(x, 0.4, grid, problem), grid)
            assert newton_s.shape == eliminated.shape == (n, n)
            assert abs(newton_s - eliminated).max() <= 1e-12 * abs(eliminated).max()

    @pytest.mark.parametrize("stalled", ["not-converged", "non-finite"])
    def test_gmres_failure_falls_back_to_direct(self, grid9, manufactured9,
                                               monkeypatch, stalled):
        # a stalled step falls back to an ILU of its own S, not the seed
        # operator's, and is retried: from the last accepted state when it
        # began at the path prediction, else at half the step; no splu is called
        ref = DiscreteField.from_function(grid9, U_STAR).values
        seeds, lus = count_factorizations(monkeypatch)
        state, report = continuation(manufactured9, grid9, SolverConfig())
        err = np.max(np.abs(state.field.values - ref))
        assert len(seeds) == 1 and lus == []
        assert report.ilu_rebuilds == 0

        # the first solve (t = 0.1, no prediction yet), and the first at t = 0.3,
        # which starts from the prediction through t = 0, 0.1 and 0.2
        for stall_call, predicted in ((1, False), (6, True)):
            with monkeypatch.context() as patch:
                seeds, lus = count_factorizations(patch)
                solved = stall_gmres(patch, lambda call: call == stall_call, stalled)
                state_st, report_st = continuation(manufactured9, grid9, SolverConfig())
            assert state_st.t == 1.0
            assert state_st.residual_norm <= 1e-10
            assert report_st.ilu_rebuilds == 1
            # the seed ILU, then one of the stalled step's own S; no direct LU
            assert len(seeds) == 2 and lus == []
            assert abs(seeds[0] - seed_operator(grid9)).max() == 0.0
            assert abs(seeds[1] - solved[stall_call - 1]).max() == 0.0
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

    def test_gmres_always_stalling_fails_with_the_start_state(self, grid9, manufactured9,
                                                              monkeypatch):
        seeds, lus = count_factorizations(monkeypatch)
        solved = stall_gmres(monkeypatch, lambda call: True)
        with pytest.raises(ContinuationFailure, match="GMRES stalled") as info:
            continuation(manufactured9, grid9, SolverConfig())
        failure = info.value
        assert failure.state.t == 0.0
        assert np.array_equal(failure.state.field.pack(), quadratic_seed(grid9).pack())
        assert [row["t"] for row in failure.report.rows] == [0.0]
        # dt halves from 1/10 to 1/1280 over eight stalled steps, each rebuilding the ILU
        assert failure.report.ilu_rebuilds == len(solved) == 8
        assert json.loads(failure.report.to_json())["ilu_rebuilds"] == 8
        assert len(seeds) == 1 + 8 and lus == []

    def test_failed_rebuild_names_the_stall_and_the_ilu(self, grid9, manufactured9,
                                                         monkeypatch):
        # the seed ILU builds; every rebuild after a stall fails in spilu
        original = nconvex.solver.spilu
        built = []

        def spilu(matrix, **kwargs):
            built.append(matrix)
            if len(built) > 1:
                raise RuntimeError("Factor is exactly singular")
            return original(matrix, **kwargs)

        monkeypatch.setattr(nconvex.solver, "spilu", spilu)
        lus = count_calls(monkeypatch, "splu")
        solved = stall_gmres(monkeypatch, lambda call: True)
        with pytest.raises(ContinuationFailure) as info:
            continuation(manufactured9, grid9, SolverConfig())
        failure = info.value
        assert "GMRES stalled at t=0.00078125 after 0 iterations; rebuilding the " \
            "preconditioner: incomplete LU failed: Factor is exactly singular" in str(failure)
        assert failure.state.t == 0.0
        assert [row["t"] for row in failure.report.rows] == [0.0]
        # eight stalled steps, each rebuild attempted on its own S and failed
        assert failure.report.ilu_rebuilds == 0
        assert len(built) == 1 + len(solved) == 1 + 8
        assert all(abs(b - s).max() == 0.0 for b, s in zip(built[1:], solved))
        assert lus == []

    def test_restart_finishes_a_step_the_first_cycle_leaves(self, monkeypatch):
        # along this direction one step's first GMRES cycle ends with the true
        # residual just above GMRES_RTOL; a restart, not an ILU rebuild, ends it
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
        assert all(1 <= k <= 10 for k in payload["krylov_iters"])
        assert payload["ilu_rebuilds"] == 0
        assert payload["predicted_starts"] == report.predicted_starts > 0
        assert payload["predictor_fallbacks"] == report.predictor_fallbacks == 0
        # one start residual per Newton solve begun at a prediction
        assert payload["predicted_start_residuals"] == report.predicted_start_residuals
        assert len(report.predicted_start_residuals) == report.predicted_starts
        assert all(0.0 < r < 1e-2 for r in report.predicted_start_residuals)
        assert report.to_csv().splitlines()[0] == "t,residual,margin,sup_u,sup_du,sup_d2u,N,ratio"


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
            fresh = make_state(state.t, state.field, grid, problem)
            assert state.residual_norm == fresh.residual_norm
            assert state.ellipticity_margin == fresh.ellipticity_margin
            assert state.monitors == fresh.monitors
            assert np.array_equal(state.hessians, hessian_batch(state.field, grid))
            assert np.array_equal(state.det_w, woperator.batch_det_w(state.hessians))
            assert np.array_equal(state.eigenvalues, np.linalg.eigvalsh(state.hessians))

    def test_exact_path_evaluates_margin_and_monitors_once(self, grid9, sp9, monkeypatch):
        residuals = count_calls(monkeypatch, "residual_vector")
        margins = count_calls(monkeypatch, "ellipticity_margin")
        monitors = count_calls(monkeypatch, "bound_monitors")
        steps = count_calls(monkeypatch, "assemble_jacobian")
        stacks = count_calls(monkeypatch, "hessian_batch")
        _, report = continuation(sp9, grid9, SolverConfig())
        assert steps == []
        assert len(margins) == len(monitors) == 1
        assert len(stacks) == 1  # the seed's, for its margin, det W and monitors
        assert len(residuals) == len(report.rows) == 11

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
        x = seed_and_bumped(grid9)[1]
        start = make_state(0.4, DiscreteField.unpack(x.copy(), grid9), grid9, manufactured9)
        d2 = start.hessians.copy()
        out = newton_solve(start, grid9, manufactured9, SolverConfig())
        assert not np.array_equal(out.field.pack(), x)
        assert np.array_equal(start.field.pack(), x)
        assert np.array_equal(start.hessians, d2)

    def test_each_iterate_forms_one_hessian_stack(self, grid9, manufactured9, monkeypatch):
        solves = count_calls(monkeypatch, "newton_solve")
        residuals = record_calls(monkeypatch, "residual_vector")
        margin_calls = record_calls(monkeypatch, "ellipticity_margin")
        steps = count_calls(monkeypatch, "assemble_jacobian")
        monitors = record_calls(monkeypatch, "bound_monitors")
        calls = record_calls(monkeypatch, "hessian_batch")
        predicted = record_calls(monkeypatch, "_predicted_start")
        continuation(manufactured9, grid9, SolverConfig())
        formed = [d2 for _, d2 in calls]
        margins = [args[0] for args, _ in margin_calls]
        # the margin and each Jacobian read a stack formed once, and the
        # monitors read the eigenvalues a margin was read from
        for used in margins + steps:
            assert any(used is d2 for d2 in formed)
        for args, _ in monitors:
            assert any(args[1] is m_args[1] for m_args, _ in margin_calls)
        # every residual is handed its det W, so none forms a stack of its own
        assert all(len(args) == 5 and args[4] is not None for args, _ in residuals)
        trials = len(residuals) - len(solves)
        # each prediction forms its stack once, and Newton starts from that stack
        predictions = [out for _, out in predicted if out is not None]
        assert len(predictions) > 0
        for start in predictions:
            assert sum(start.hessians is d2 for d2 in formed) == 1
            if start.ellipticity_margin > 0.0:  # on this path each such start takes a step
                assert sum(start.hessians is k for k in steps) >= 1
        # each Jacobian reuses a stack that passed the margin check: the seed's,
        # carried on the state, a prediction's or an accepted trial's
        assert len(steps) > len(solves) > 1
        assert all(any(k is m for m in margins) for k in steps)
        assert len(formed) == 1 + trials + len(predictions)

    def test_each_formed_stack_is_decomposed_at_most_once(self, grid9, manufactured9,
                                                         monkeypatch):
        decomposed = []
        original = np.linalg.eigvalsh

        def eigvalsh(a, *args, **kwargs):
            decomposed.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        calls = record_calls(monkeypatch, "hessian_batch")
        in_monitors = []
        monitors = nconvex.solver.bound_monitors

        def counting_monitors(*args):
            before = len(decomposed)
            out = monitors(*args)
            in_monitors.append(len(decomposed) - before)
            return out

        monkeypatch.setattr(nconvex.solver, "bound_monitors", counting_monitors)
        _, report = continuation(manufactured9, grid9, SolverConfig())
        formed = [d2 for _, d2 in calls]
        # every decomposition is of a stack formed here (the seed, a prediction
        # or a trial), and no stack is decomposed twice
        assert all(any(a is d2 for d2 in formed) for a in decomposed)
        assert all(sum(a is d2 for a in decomposed) <= 1 for d2 in formed)
        assert len(report.rows) < len(decomposed) <= len(formed)
        # the monitors read the line search's eigenvalues and decompose nothing
        assert len(in_monitors) == len(report.rows) and not any(in_monitors)

    def test_manufactured_path_evaluates_each_state_once(self, grid9, manufactured9,
                                                         monkeypatch):
        solves = record_calls(monkeypatch, "newton_solve")
        residuals = record_calls(monkeypatch, "residual_vector")
        margins = count_calls(monkeypatch, "ellipticity_margin")
        monitors = count_calls(monkeypatch, "bound_monitors")
        steps = count_calls(monkeypatch, "assemble_jacobian")
        predicted = record_calls(monkeypatch, "_predicted_start")
        continuation(manufactured9, grid9, SolverConfig())
        starts = {(args[0].t, args[0].field.pack().tobytes()) for args, _ in solves}
        keys = [(t, x.tobytes()) for (x, t, *_), _ in residuals]
        trials = [k for k in keys if k not in starts]
        # no (t, x) is evaluated twice: each start once, then one call per trial
        assert len(set(keys)) == len(keys)
        assert len(residuals) == len(solves) + len(trials)
        assert len(trials) >= len(steps) > 0
        # the margin: once at the seed, once per prediction, then at most once
        # per trial point
        predictions = [out for _, out in predicted if out is not None]
        assert len(predictions) > 0
        assert len({d2.tobytes() for d2 in margins}) == len(margins)
        assert all(sum(p.hessians is d2 for d2 in margins) == 1 for p in predictions)
        assert len(margins) <= 1 + len(predictions) + len(trials)
        # the monitors: once at the seed, then once per accepted state whose
        # field its start did not carry monitors for; never at a prediction
        fresh = [out for args, out in solves if out is not None
                 and (args[0].monitors is None
                      or not np.array_equal(out.field.pack(), args[0].field.pack()))]
        assert len(monitors) == 1 + len(fresh)
        assert all(any(fld is out.field for out in fresh) for fld in monitors[1:])


def starts_of(solves):
    """(t, whether the start is a path prediction) of each recorded newton_solve."""
    return [(args[0].t, args[0].monitors is None) for args, _ in solves]


def bumped_field(grid, scale, freq):
    return DiscreteField.from_function(
        grid, lambda p: scale * np.exp(freq * p[:, 0]) * np.cos(p[:, 1]))


class TestSecantPredictor:
    """Each step after the first starts from the secant through the last two
    states, plus the second-divided-difference term once three are accepted."""

    def quadratic_path(self, grid, problem, ts):
        """States at ``ts`` on the exactly quadratic path x(t) = a + b t + c t^2."""
        a = quadratic_seed(grid).pack()
        b, c = bumped_field(grid, 0.03, 1.0).pack(), bumped_field(grid, 0.02, -0.5).pack()

        def x(t):
            return a + b * t + c * t * t

        states = [make_state(t, DiscreteField.unpack(x(t), grid), grid, problem) for t in ts]
        return states, x

    def test_three_states_predict_a_quadratic_path_exactly(self, grid9, manufactured9):
        ts = (0.2, 0.3, 0.35)
        (s2, s1, s0), x = self.quadratic_path(grid9, manufactured9, ts)
        earlier = ((s1.t, s1.field.pack()), (s2.t, s2.field.pack()))
        out = nconvex.solver._predicted_start(s0, earlier, 0.45, grid9)
        assert out.t == 0.45 and out.monitors is None
        assert np.max(np.abs(out.field.pack() - x(0.45))) <= 1e-14 * np.max(np.abs(x(0.45)))
        # the prediction's stack, eigenvalues, margin and det W describe its field
        assert np.array_equal(out.hessians, hessian_batch(out.field, grid9))
        assert np.array_equal(out.eigenvalues, np.linalg.eigvalsh(out.hessians))
        assert out.ellipticity_margin == margin_of(out.field, grid9)
        assert np.array_equal(out.det_w, woperator.batch_det_w(out.hessians))
        # the secant through the last two alone misses the curvature
        secant = nconvex.solver._predicted_start(s0, earlier[:1], 0.45, grid9)
        assert np.max(np.abs(secant.field.pack() - x(0.45))) > 1e-4

    def test_two_states_give_the_secant_bit_for_bit(self, grid9, manufactured9):
        (s1, s0), _ = self.quadratic_path(grid9, manufactured9, (0.2, 0.35))
        x, x1 = s0.field.pack(), s1.field.pack()
        out = nconvex.solver._predicted_start(s0, ((s1.t, x1),), 0.45, grid9)
        assert np.array_equal(out.field.pack(), x + (0.45 - s0.t) / (s0.t - s1.t) * (x - x1))

    def test_no_prediction_without_a_secant(self, grid9, manufactured9):
        (s2, s1), _ = self.quadratic_path(grid9, manufactured9, (0.2, 0.3))
        x1, x2 = s1.field.pack(), s2.field.pack()
        predict = nconvex.solver._predicted_start
        assert predict(s1, (), 0.4, grid9) is None
        # x_k - x_{k-1} = 0 forms no prediction, whatever x_{k-2} is
        assert predict(s1, ((0.25, x1.copy()),), 0.4, grid9) is None
        assert predict(s1, ((0.25, x1.copy()), (0.2, x2)), 0.4, grid9) is None

    def test_manufactured_path_takes_at_most_13_linear_solves(self, grid9, manufactured9):
        state, report = continuation(manufactured9, grid9, SolverConfig())
        assert state.t == 1.0
        # 30 when every step starts from the last accepted state, 21 from the secant
        assert len(report.krylov_iters) <= 13
        assert report.predicted_starts == len(report.rows) - 2
        assert report.predictor_fallbacks == 0
        # the secant start at t = 0.2, then the three-point starts, far closer to the path
        first, *rest = report.predicted_start_residuals
        assert len(rest) == report.predicted_starts - 1 > 0
        assert max(rest) < 0.1 * first

    def test_refused_prediction_starts_from_the_last_state(self, grid9, manufactured9,
                                                           monkeypatch):
        original = nconvex.solver._predicted_start
        refused = []

        def predicted_start(*args):
            out = original(*args)
            if out is not None:
                out = replace(out, ellipticity_margin=-1.0)
                refused.append(out)
            return out

        monkeypatch.setattr(nconvex.solver, "_predicted_start", predicted_start)
        solves = record_calls(monkeypatch, "newton_solve")
        state, report = continuation(manufactured9, grid9, SolverConfig())
        assert state.t == 1.0
        assert [row["t"] for row in report.rows] == pytest.approx(np.linspace(0.0, 1.0, 11))
        # no Newton solve starts at a refused prediction
        assert len(refused) == len(report.rows) - 2 > 0
        assert not any(t_pred for _, t_pred in starts_of(solves))
        assert report.predicted_starts == 0
        assert report.predictor_fallbacks == len(refused)
        assert len(report.krylov_iters) == 30

    def test_failed_prediction_is_retried_from_the_last_state(self, grid9, manufactured9,
                                                              monkeypatch):
        original = nconvex.solver.newton_solve

        def newton_solve(state, *args):
            if state.monitors is None:
                raise StepFailure("predicted start refused by the test")
            return original(state, *args)

        monkeypatch.setattr(nconvex.solver, "newton_solve", newton_solve)
        solves = record_calls(monkeypatch, "newton_solve")
        state, report = continuation(manufactured9, grid9, SolverConfig())
        assert state.t == 1.0
        # dt is never halved: each prediction fails and is retried at the same t
        ts = [row["t"] for row in report.rows]
        assert ts == pytest.approx(np.linspace(0.0, 1.0, 11))
        starts = starts_of(solves)
        assert starts[:2] == [(0.0, False), (ts[1], False)]
        assert starts[2:] == [(t, predicted) for t in ts[2:] for predicted in (True, False)]
        # each retry starts from the field of the state accepted just before it
        last = None
        for (start, *_), out in solves:
            if last is not None and start.monitors is not None:
                assert start.field is last.field
            last = out or last
        assert report.predicted_starts == 0
        assert report.predictor_fallbacks == len(ts) - 2

    def test_dt_halves_only_when_the_retry_fails_too(self, grid9, manufactured9,
                                                      monkeypatch):
        original = nconvex.solver.newton_solve
        failed = []

        def newton_solve(state, *args):
            if state.t == pytest.approx(0.3) and len(failed) < 2:
                failed.append(state.monitors is None)
                raise StepFailure("step at t=0.3 refused by the test")
            return original(state, *args)

        monkeypatch.setattr(nconvex.solver, "newton_solve", newton_solve)
        solves = record_calls(monkeypatch, "newton_solve")
        state, report = continuation(manufactured9, grid9, SolverConfig())
        assert state.t == 1.0
        # the prediction at 0.3 fails, then the retry from the state at 0.2;
        # only then is dt halved, and the step to 0.25 starts from a prediction
        assert failed == [True, False]
        starts = starts_of(solves)
        at = starts.index((pytest.approx(0.3), True))
        assert starts[at:at + 3] == [(pytest.approx(0.3), True), (pytest.approx(0.3), False),
                                     (pytest.approx(0.25), True)]
        assert 0.25 == pytest.approx([row["t"] for row in report.rows][3])
        assert report.predictor_fallbacks == 1


def guarded_margin(monkeypatch, reject_every_trial=False):
    """Patch the line search's margin to read -1 on the first trial of each Newton step."""
    true_margin = nconvex.solver.ellipticity_margin
    steps = count_calls(monkeypatch, "assemble_jacobian")
    rejected = set()

    def guard(hessians, eigenvalues=None):
        if reject_every_trial or len(steps) not in rejected:
            rejected.add(len(steps))
            return -1.0
        return true_margin(hessians, eigenvalues)

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
        assert out.ellipticity_margin == margin_of(out.field, grid9) > 0.0

    def test_guard_rejecting_every_trial_fails_the_step(self, grid9, sp9, monkeypatch):
        start = self.perturbed_start(grid9, sp9)
        guarded_margin(monkeypatch, reject_every_trial=True)
        with pytest.raises(StepFailure, match="line search floor"):
            newton_solve(start, grid9, sp9, SolverConfig())
