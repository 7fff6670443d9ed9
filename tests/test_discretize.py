"""Grid construction, stencils, and residuals: exactness and convergence."""

import numpy as np
import pytest

from nconvex import discretize
from nconvex.discretize import (
    DiscreteField,
    Grid,
    ProblemSpec,
    SampledProblem,
    gradient_batch,
    hessian_batch,
    homotopy_constant,
    interior_residual,
    normal_derivative,
    robin_residual,
    sample_problem,
    second_normal_derivative,
)
from nconvex.geometry import DomainSpec, project_to_boundary_batch

BALL = DomainSpec.ball(1.0, n=3)
ELLIPSOID = DomainSpec.ellipsoid((1.0, 1.0, 1.05))
# at 11^3 some depth-delta points of this ellipsoid find a rank-deficient
# design at the first radius, so their rows come from a widened search
ELONGATED = DomainSpec.ellipsoid((1.0, 1.0, 2.5))


def quad_seed(pts):
    return 0.5 * np.sum(pts**2, axis=1)


def constant_problem(n=3):
    c0 = homotopy_constant(n)
    return ProblemSpec(
        n=n,
        f=lambda pts: np.full(pts.shape[0], c0),
        phi=lambda pts: np.einsum("ij,ij->i", pts, pts / np.linalg.norm(pts, axis=1)[:, None])
        + 0.5 * np.sum(pts**2, axis=1),
        name="ball-constant",
    )


@pytest.fixture(scope="module")
def grid9():
    return Grid(BALL, 9)


@pytest.fixture(scope="module")
def grids9(grid9):
    """The 9^3 ball and, for a non-spherical boundary, the (1, 1, 1.05) ellipsoid."""
    return {"ball": grid9, "ellipsoid": Grid(ELLIPSOID, 9)}


@pytest.fixture(scope="module")
def grid17():
    return Grid(BALL, 17)


class TestGridBuild:
    def test_active_points_strictly_inside(self, grid17):
        assert np.all(grid17.active_d > 0.5 * grid17.h)

    def test_counts_scale_with_resolution(self, grid9, grid17):
        # active count grows like h^-n
        ratio = grid17.n_active / grid9.n_active
        assert 4.0 < ratio < 16.0

    def test_deterministic_build(self):
        a = Grid(BALL, 9)
        b = Grid(BALL, 9)
        assert np.array_equal(a.active_idx, b.active_idx)
        assert np.array_equal(a.colloc_y, b.colloc_y)
        assert (a.W1 - b.W1).nnz == 0
        assert (a.C - b.C).nnz == 0

    def test_collocation_on_boundary(self, grid17):
        level = np.linalg.norm(grid17.colloc_y, axis=1)
        assert np.max(np.abs(level - 1.0)) < 1e-12
        assert np.allclose(np.linalg.norm(grid17.colloc_nu, axis=1), 1.0)

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            Grid(BALL, 5)

    @pytest.mark.parametrize("domain", [BALL, ELLIPSOID],
                             ids=["ball", "ellipsoid"])
    def test_robin_trace_block_is_scaled_identity(self, domain):
        # the solver eliminates the trace unknowns exactly only while this holds
        grid = Grid(domain, 9)
        block = grid.robin_jac[:, grid.n_active:]
        assert grid.robin_diag == 3.0 / (2.0 * grid.delta) + 1.0
        assert np.array_equal(block.toarray(), grid.robin_diag * np.eye(grid.n_colloc))

    @pytest.mark.parametrize("domain, res", [
        (BALL, 9),
        (DomainSpec.ellipsoid((0.9, 1.0, 1.1), center=(0.2, -0.1, 0.05)), 13),
    ], ids=["ball", "off-centre-ellipsoid"])
    def test_classification_matches_whole_box_projection(self, domain, res):
        # only points of level <= 1 are projected; the rest cannot be active
        grid = Grid(domain, res)
        pts = grid.origin + np.indices(grid.shape).reshape(grid.n, -1).T * grid.h
        _, _, d = project_to_boundary_batch(domain, pts)
        active = np.flatnonzero(d > 0.5 * grid.h)
        assert np.array_equal(grid.active_idx, active)
        assert np.all(grid.active_d == d[active])
        outside = np.sum((pts - domain.center) ** 2 / np.square(domain.semi_axes), axis=1) > 1.0
        assert outside.any() and np.all(d[outside] <= 0.0)


def monomials(pts):
    """1, x_i and x_i x_j (i <= j) at each point, (N, 1 + n + n(n+1)/2)."""
    n = pts.shape[1]
    cols = [np.ones(pts.shape[0])] + [pts[:, i] for i in range(n)]
    cols += [pts[:, i] * pts[:, j] for i in range(n) for j in range(i, n)]
    return np.stack(cols, axis=1)


def mls_targets(grid, depth):
    return grid.colloc_y - depth * grid.delta * grid.colloc_nu


class TestCollocationWeights:
    @pytest.mark.parametrize("domain, res", [(BALL, 9), (ELLIPSOID, 9), (ELONGATED, 11)],
                             ids=["ball-9", "ellipsoid-9", "elongated-11"])
    def test_rows_reproduce_quadratics(self, domain, res):
        grid = Grid(domain, res)
        for depth, w in ((1, grid.W1), (2, grid.W2)):
            targets = mls_targets(grid, depth)
            got = w @ monomials(grid.active_pts)
            assert np.max(np.abs(got - monomials(targets))) < 1e-12, depth
            assert np.max(np.abs(w.sum(axis=1).A1 - 1.0)) < 1e-12, depth

    def test_widened_rows_on_elongated_ellipsoid(self):
        # the fixture above only covers the widening path while this holds
        grid = Grid(ELONGATED, 11)
        rows = grid.W1.tocoo()
        dist = np.linalg.norm(grid.active_pts[rows.col] - mls_targets(grid, 1)[rows.row], axis=1)
        reach = np.zeros(grid.n_colloc)
        np.maximum.at(reach, rows.row, dist)
        assert np.count_nonzero(reach > 2.5 * grid.h) > 0

    def test_block_size_does_not_change_rows(self, monkeypatch):
        ref = Grid(ELONGATED, 11)
        monkeypatch.setattr(discretize, "_MLS_BLOCK", 7)
        small = Grid(ELONGATED, 11)
        for name in ("W1", "W2"):
            a, b = getattr(ref, name), getattr(small, name)
            assert np.array_equal(a.indptr, b.indptr), name
            assert np.array_equal(a.indices, b.indices), name
            assert np.max(np.abs(a.data - b.data)) < 1e-15, name

    def test_rank_deficient_stencil_rejected(self):
        with pytest.raises(ValueError, match="rank deficient"):
            Grid(DomainSpec.ellipsoid((1.0, 1.0, 3.0)), 9)


class TestHessianStencil:
    def test_quadratic_exact(self, grid9):
        field = DiscreteField.from_function(grid9, quad_seed)
        d2 = hessian_batch(field, grid9)
        err = np.max(np.abs(d2 - np.eye(3)))
        assert err < 1e-12

    def test_cross_term_exact(self, grids9):
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 0] = 1.0
        for name, grid in grids9.items():
            field = DiscreteField.from_function(grid, lambda p: p[:, 0] * p[:, 1])
            d2 = hessian_batch(field, grid)
            assert np.max(np.abs(d2 - want)) < 1e-12, name

    def test_second_order_richardson(self):
        errs = []
        for res in (17, 33):
            grid = Grid(BALL, res)
            field = DiscreteField.from_function(
                grid, lambda p: np.sin(p[:, 0] + 0.3 * p[:, 1])
            )
            d2 = hessian_batch(field, grid)
            want = -np.sin(grid.active_pts[:, 0] + 0.3 * grid.active_pts[:, 1])
            # fixed interior region: away from the closure layer
            deep = grid.active_d > 0.35
            errs.append(np.max(np.abs(d2[deep, 0, 0] - want[deep])))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0  # h halves, second order gives ~4

    def test_gradient_quadratic_exact(self, grids9):
        for name, grid in grids9.items():
            field = DiscreteField.from_function(grid, quad_seed)
            g = gradient_batch(field, grid)
            assert np.max(np.abs(g - grid.active_pts)) < 1e-12, name


class TestRobinResidual:
    def test_quadratic_seed_exact_any_resolution(self):
        for res in (9, 17, 33):
            grid = Grid(BALL, res)
            problem = sample_problem(constant_problem(), grid)
            field = DiscreteField.from_function(grid, quad_seed)
            r = robin_residual(field, grid, problem, t=0.0)
            assert np.max(np.abs(r)) < 1e-11

    def test_constant_field(self, grid9):
        problem = sample_problem(
            ProblemSpec(n=3, f=lambda p: np.ones(p.shape[0]),
                        phi=lambda p: np.full(p.shape[0], 4.5)),
            grid9,
        )
        field = DiscreteField(
            values=np.full(grid9.n_active, 4.5), trace=np.full(grid9.n_colloc, 4.5)
        )
        r = robin_residual(field, grid9, problem, t=1.0)
        assert np.max(np.abs(r)) < 1e-12

    def test_normal_derivatives_quadratic_exact(self, grid9):
        field = DiscreteField.from_function(grid9, quad_seed)
        # u = |x|^2/2 on the unit ball: u_nu = 1 and u_nunu = 1 on the boundary
        assert np.max(np.abs(normal_derivative(field, grid9) - 1.0)) < 1e-11
        assert np.max(np.abs(second_normal_derivative(field, grid9) - 1.0)) < 1e-10

    def test_manufactured_second_order(self):
        amp = 0.05

        def u_star(pts):
            return 0.5 * np.sum(pts**2, axis=1) + amp * np.exp(pts[:, 0])

        def u_star_phi(pts):
            nu = pts / np.linalg.norm(pts, axis=1)[:, None]
            grad = pts + np.stack(
                [amp * np.exp(pts[:, 0]), np.zeros(pts.shape[0]), np.zeros(pts.shape[0])],
                axis=1,
            )
            return np.einsum("ij,ij->i", grad, nu) + u_star(pts)

        errs = []
        for res in (9, 17):
            grid = Grid(BALL, res)
            problem = sample_problem(
                ProblemSpec(n=3, f=lambda p: np.ones(p.shape[0]), phi=u_star_phi), grid
            )
            field = DiscreteField.from_function(grid, u_star)
            r = robin_residual(field, grid, problem, t=1.0)
            errs.append(np.max(np.abs(r)))
        assert errs[0] / errs[1] > 2.0  # at least ~first order in the sup norm


class TestInteriorResidual:
    def test_quadratic_seed_t0(self):
        for res in (9, 17):
            grid = Grid(BALL, res)
            problem = sample_problem(constant_problem(), grid)
            field = DiscreteField.from_function(grid, quad_seed)
            r = interior_residual(field, grid, problem, t=0.0)
            assert np.max(np.abs(r)) < 1e-11

    def test_t1_is_det_minus_f(self, grid9):
        problem = sample_problem(constant_problem(), grid9)
        field = DiscreteField.from_function(grid9, quad_seed)
        r = interior_residual(field, grid9, problem, t=1.0)
        # det(W) = 8 = f everywhere for the quadratic seed
        assert np.max(np.abs(r)) < 1e-11

    def test_homotopy_constant_value(self):
        assert homotopy_constant(3) == 8.0
        assert homotopy_constant(4) == 81.0

    def test_manufactured_second_order(self):
        amp = 0.05

        def u_star(pts):
            return 0.5 * np.sum(pts**2, axis=1) + amp * np.exp(pts[:, 0])

        def f_star(pts):
            a = amp * np.exp(pts[:, 0])
            return 2.0 * (2.0 + a) ** 2  # lifted eigenvalues 2+a, 2+a, 2

        errs = []
        for res in (17, 33):
            grid = Grid(BALL, res)
            problem = sample_problem(
                ProblemSpec(n=3, f=f_star, phi=lambda p: np.zeros(p.shape[0])), grid
            )
            field = DiscreteField.from_function(grid, u_star)
            r = interior_residual(field, grid, problem, t=1.0)
            errs.append(np.max(np.abs(r[grid.active_d > 0.35])))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    def test_positivity_gate(self, grid9):
        bad = ProblemSpec(
            n=3, f=lambda p: p[:, 0], phi=lambda p: np.zeros(p.shape[0])
        )
        with pytest.raises(ValueError):
            sample_problem(bad, grid9)

    def test_t_out_of_range(self, grid9):
        problem = sample_problem(constant_problem(), grid9)
        field = DiscreteField.from_function(grid9, quad_seed)
        with pytest.raises(ValueError):
            interior_residual(field, grid9, problem, t=1.5)


class TestFieldPlumbing:
    def test_pack_unpack_roundtrip(self, grid9):
        field = DiscreteField.from_function(grid9, quad_seed)
        again = DiscreteField.unpack(field.pack(), grid9)
        assert np.array_equal(field.values, again.values)
        assert np.array_equal(field.trace, again.trace)

    def test_length_mismatch_rejected(self, grid9):
        field = DiscreteField(values=np.zeros(3), trace=np.zeros(grid9.n_colloc))
        with pytest.raises(ValueError):
            field.check(grid9)


class TestProblemData:
    def test_nan_rhs_rejected_with_index(self):
        f = np.full(5, 8.0)
        f[3] = np.nan
        with pytest.raises(ValueError, match="f at active point 3 is nan"):
            SampledProblem(n=3, f_active=f, phi_colloc=np.zeros(4))

    def test_infinite_callable_phi_rejected_with_index(self, grid9):
        def phi(pts):
            out = np.zeros(pts.shape[0])
            out[7] = np.inf
            return out

        spec = ProblemSpec(n=3, f=lambda p: np.full(p.shape[0], 8.0), phi=phi)
        with pytest.raises(ValueError, match="phi at collocation point 7 is inf"):
            sample_problem(spec, grid9)
