"""Barrier diagnostics on converged unit-ball solutions."""

from dataclasses import asdict

import numpy as np
import pytest

from nconvex import barriers, discretize, geometry
from nconvex.barriers import (
    BarrierParams,
    _barrier_values,
    _strip_data,
    barrier_section,
    recipe_params,
    verify_h_inequality,
    verify_sub_barrier,
    verify_super_barrier,
)
from nconvex.cli import named_case
from nconvex.discretize import Grid, SampledProblem, sample_problem
from nconvex.geometry import DomainSpec
from nconvex.solver import SolverConfig, continuation

BALL = DomainSpec.ball(1.0, n=3)


@pytest.fixture(scope="module")
def solved25():
    domain, spec, _ = named_case("ball-constant")
    grid = Grid(domain, 25)
    problem = sample_problem(spec, grid)
    state, _ = continuation(problem, grid, SolverConfig())
    return grid, problem, state


@pytest.fixture(scope="module")
def solved_egg25():
    """The exact quadratic on the (1, 1, 1.05) ellipsoid at 25^3."""
    domain, spec, _ = named_case("ellipsoid-near-sphere")
    grid = Grid(domain, 25)
    problem = sample_problem(spec, grid)
    state, _ = continuation(problem, grid, SolverConfig())
    return grid, problem, state


class TestParams:
    def test_recipe_validates(self, solved25):
        grid, problem, state = solved25
        params = recipe_params(BALL, state, grid, problem)
        params.validate(BALL)
        assert params.k3 >= 1.0
        assert params.beta == pytest.approx(4 * 3 * 1.0 + 1.0)

    def test_k3_grows_as_gamma_approaches_one(self, solved25, monkeypatch):
        # past gamma = 1/2 the recipe's strip, epsilon / (2 K3), holds no
        # point of the 25^3 grid, and K3 does not depend on it: read the
        # strip core at gamma = 1/2's width
        grid, problem, state = solved25
        width = recipe_params(BALL, state, grid, problem).mu
        monkeypatch.setattr(barriers, "_strip_data", lambda grid, mu: _strip_data(grid, width))
        k3s = [
            recipe_params(BALL, state, grid, problem, gamma=g).k3
            for g in (0.5, 0.9, 0.99, 0.999)
        ]
        assert all(a < b for a, b in zip(k3s, k3s[1:]))
        assert k3s[-1] > 100.0

    def test_invariants_rejected(self):
        good = dict(k3=2.0, beta=13.0, cap_a=100.0, sigma=0.5, mu=0.05,
                    gamma=0.5, epsilon=0.45)
        BarrierParams(**good).validate(BALL)
        with pytest.raises(ValueError):
            BarrierParams(**{**good, "mu": 0.2}).validate(BALL)  # > 1/(4 K3)
        with pytest.raises(ValueError):
            BarrierParams(**{**good, "beta": 20.0, "mu": 0.049}).validate(BALL)
        with pytest.raises(ValueError):
            BarrierParams(**{**good, "gamma": 1.0}).validate(BALL)
        with pytest.raises(ValueError):
            BarrierParams(**{**good, "epsilon": 0.6}).validate(BALL)
        for key in ("k3", "beta", "cap_a"):
            with pytest.raises(ValueError, match="K3, beta and A must be positive"):
                BarrierParams(**{**good, key: 0.0}).validate(BALL)
        BarrierParams(**{**good, "sigma": 1.0}).validate(BALL)
        for sigma in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"sigma must lie in \(0, 1\]"):
                BarrierParams(**{**good, "sigma": sigma}).validate(BALL)

    @pytest.mark.parametrize("gamma", [1.0, 0.4, float("nan")])
    def test_gamma_outside_its_range_refused_before_any_arithmetic(self, solved25, gamma):
        # gamma = 1 made delta0 = 0 and the K3 bound divide by it; no state
        # or data is read before the check
        grid, _, _ = solved25
        with pytest.raises(ValueError, match=r"gamma must lie in \[1/2, 1\)"):
            recipe_params(BALL, None, grid, None, gamma=gamma)

    def test_kappa0_on_a_ball_is_one_over_the_radius(self):
        # kappa0 = H / (n-1) with H = (n-1)/r: exact when n-1 is a power of two
        # (n = 3, 5), within one unit in the last place otherwise (here 4-D at
        # r = 0.9 and 6-D at r = 1.1 are each one unit off)
        for n in (3, 4, 5, 6):
            for r in (0.5, 0.9, 1.1):
                k_min, k_max = barriers._kappa0_range(DomainSpec.ball(r, n=n))
                assert k_min == k_max
                if n in (3, 5):
                    assert k_min == 1.0 / r
                else:
                    assert abs(k_min - 1.0 / r) <= np.spacing(1.0 / r)

    def test_array_data_is_refused(self, solved25):
        # without callable data the strip core cannot be read
        grid, problem, state = solved25
        arrays = SampledProblem(f_active=problem.f_active, phi_colloc=problem.phi_colloc)
        with pytest.raises(ValueError, match="callable problem data"):
            recipe_params(BALL, state, grid, arrays)

    def test_strip_below_grid_resolution_is_refused(self):
        # at 9^3 every active point is deeper than the recipe's strip
        # (mu = 0.069 < h / 2), so the strip gives no residual bound
        domain, spec, _ = named_case("ball-constant")
        grid = Grid(domain, 9)
        problem = sample_problem(spec, grid)
        state, _ = continuation(problem, grid, SolverConfig())
        with pytest.raises(ValueError, match=r"width 0\.06923 holds no active grid point"):
            recipe_params(domain, state, grid, problem)

    def test_empty_strip_is_config_error(self, solved25):
        grid, problem, state = solved25
        params = BarrierParams(k3=2.0, beta=13.0, cap_a=100.0, sigma=0.5,
                               mu=1e-4, gamma=0.5, epsilon=0.45)
        with pytest.raises(ValueError, match="strip"):
            verify_h_inequality(BALL, state, grid, params)


class TestOtherDomain:
    """Each entry point refuses a domain other than the grid's."""

    EGG = DomainSpec.ellipsoid((1.0, 1.0, 1.2))

    def test_every_entry_point_refuses_it(self, solved25):
        grid, problem, state = solved25
        params = recipe_params(BALL, state, grid, problem)
        calls = [
            lambda: recipe_params(self.EGG, state, grid, problem),
            lambda: verify_h_inequality(self.EGG, state, grid, params),
            lambda: verify_sub_barrier(self.EGG, state, grid, problem, params),
            lambda: verify_super_barrier(self.EGG, state, grid, problem, params),
            lambda: barrier_section(self.EGG, state, grid, problem, params),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"domain .*1\.2.* is not the grid's domain"):
                call()


class TestHInequality:
    def test_positive_with_recipe_constants(self, solved25):
        grid, problem, state = solved25
        params = recipe_params(BALL, state, grid, problem, gamma=0.5)
        rep = verify_h_inequality(BALL, state, grid, params)
        assert rep.strip_points > 0
        assert rep.violations == 0
        assert rep.min_value > 0.0

    def test_gamma_sweep_with_small_k3_breaks(self, solved25):
        # a K3 below the recipe leaves the inequality intact at gamma = 1/2
        # but violated as gamma grows toward 1
        grid, problem, state = solved25
        outcomes = {}
        for gamma in (0.5, 0.95):
            params = BarrierParams(k3=0.1, beta=13.0, cap_a=100.0, sigma=0.5,
                                   mu=0.06, gamma=gamma, epsilon=0.45)
            rep = verify_h_inequality(BALL, state, grid, params)
            outcomes[gamma] = rep
        assert outcomes[0.5].violations == 0
        assert outcomes[0.95].violations > 0
        assert outcomes[0.95].min_value < 0.0


class TestStripFunction:
    def test_h_nonpositive_in_strip_zero_on_boundary(self, solved25):
        grid, problem, state = solved25
        params = recipe_params(BALL, state, grid, problem)
        d = grid.active_d[grid.strip_mask(params.mu)]
        h_val = -d + params.k3 * d * d
        assert np.all(h_val < 0.0)  # 2 K3 d < 1/2 throughout the strip
        assert -0.0 + params.k3 * 0.0 == 0.0  # h(d=0) = 0 identically


class TestSubSuperBarriers:
    def test_constant_path_signs(self, solved25):
        grid, problem, state = solved25
        params = recipe_params(BALL, state, grid, problem)
        sub = verify_sub_barrier(BALL, state, grid, problem, params)
        sup = verify_super_barrier(BALL, state, grid, problem, params)
        assert sub.strip_extreme >= -1e-8
        assert sup.strip_extreme <= 1e-8
        # boundary values vanish to the Robin tolerance
        assert sub.boundary_max_abs < 1e-10
        assert sup.boundary_max_abs < 1e-10

    def test_implied_double_normal_bound(self, solved25):
        # u = |x|^2/2: u_nunu = 1 and N = 1, so C = 1 - SIGMA N = 1/2
        grid, problem, state = solved25
        params = recipe_params(BALL, state, grid, problem)
        assert params.sigma == barriers.SIGMA == 0.5
        sub = verify_sub_barrier(BALL, state, grid, problem, params)
        assert sub.sup_unn == pytest.approx(1.0, abs=1e-8)
        assert sub.sigma_n == pytest.approx(0.5, abs=1e-8)
        assert sub.implied_c == pytest.approx(0.5, abs=1e-8)

    def test_super_minus_sub_is_twice_g(self, solved25):
        grid, problem, state = solved25
        params = recipe_params(BALL, state, grid, problem)
        sub_vals, sup_vals, _, _ = _barrier_values(BALL, state, grid, problem, params)
        n_bound = state.monitors.sup_unn
        mask = grid.strip_mask(params.mu)
        d = grid.active_d[mask]
        h_val = -d + params.k3 * d * d
        want = 2.0 * (params.cap_a + params.sigma * n_bound) * h_val
        assert np.allclose(sup_vals - sub_vals, want, atol=1e-12)
        assert np.all(sup_vals - sub_vals <= 0.0)  # h <= 0 in the strip

    def test_raising_a_raises_sub_barrier_pointwise(self, solved25):
        grid, problem, state = solved25
        base = recipe_params(BALL, state, grid, problem)
        bigger = BarrierParams(k3=base.k3, beta=base.beta, cap_a=2.0 * base.cap_a,
                               sigma=base.sigma, mu=base.mu, gamma=base.gamma,
                               epsilon=base.epsilon)
        lo = _barrier_values(BALL, state, grid, problem, base)[0]
        hi = _barrier_values(BALL, state, grid, problem, bigger)[0]
        mask = grid.strip_mask(base.mu)
        d = grid.active_d[mask]
        h_val = -d + base.k3 * d * d
        assert np.allclose(hi - lo, -base.cap_a * h_val, atol=1e-12)
        assert np.all(hi >= lo)


class TestBarrierSection:
    @pytest.mark.parametrize("fixture", ["solved25", "solved_egg25"])
    def test_section_matches_public_verifiers(self, fixture, request):
        grid, problem, state = request.getfixturevalue(fixture)
        domain = grid.domain
        params = recipe_params(domain, state, grid, problem)
        section = barrier_section(domain, state, grid, problem, params)
        assert section["h_inequality"] == asdict(verify_h_inequality(domain, state, grid, params))
        assert section["sub"] == asdict(verify_sub_barrier(domain, state, grid, problem, params))
        assert section["super"] == asdict(
            verify_super_barrier(domain, state, grid, problem, params))
        assert section["sub"]["kind"] == "sub" and section["super"]["kind"] == "super"

    def test_barrier_section_projects_nothing(self, solved25, monkeypatch):
        grid, problem, state = solved25
        params = recipe_params(BALL, state, grid, problem)
        calls = []
        project = geometry.project_to_boundary_batch

        def counted(*args):
            calls.append(args[1].shape[0])
            return project(*args)

        for module in (geometry, discretize):
            monkeypatch.setattr(module, "project_to_boundary_batch", counted)
        barrier_section(BALL, state, grid, problem, params)
        # every strip reads d and nu from the grid's projection; the one call
        # is the boundary datum's, whose phi is defined through the normal
        assert calls == [_strip_data(grid, params.mu)[1].shape[0]]

    @pytest.mark.parametrize("fixture", ["solved25", "solved_egg25"])
    def test_strip_geometry_matches_a_fresh_projection(self, fixture, request):
        grid, problem, state = request.getfixturevalue(fixture)
        params = recipe_params(grid.domain, state, grid, problem)
        mask, pts, d, y, nu = _strip_data(grid, params.mu)
        want_y, want_nu, want_d = geometry.project_to_boundary_batch(grid.domain, pts)
        assert np.array_equal(d, want_d) and np.array_equal(nu, want_nu)
        assert np.max(np.abs(y - want_y)) < 1e-15
