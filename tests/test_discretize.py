"""Grid construction, stencils, and residuals: exactness and convergence."""

import copy

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.spatial
from scipy.spatial import cKDTree

from nconvex import discretize, woperator
from nconvex.discretize import (
    DiscreteField,
    Grid,
    ProblemSpec,
    SampledProblem,
    field_at,
    gradient_batch,
    hessian_batch,
    homotopy_constant,
    interior_residual,
    manufactured_problem,
    normal_derivative,
    robin_residual,
    sample_problem,
    second_normal_derivative,
)
from nconvex.geometry import DomainSpec, project_to_boundary_batch
from nconvex.solver import condensed_map

BALL = DomainSpec.ball(1.0, n=3)
ELLIPSOID = DomainSpec.ellipsoid((1.0, 1.0, 1.05))
# at 11^3 some depth-delta points of this ellipsoid find a rank-deficient
# design at the first radius, so their rows come from a widened search
ELONGATED = DomainSpec.ellipsoid((1.0, 1.0, 2.5))
QUADRATIC, quad_seed = manufactured_problem(BALL, 0.0)
MANUFACTURED, U_STAR = manufactured_problem(BALL, 0.05)


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

    @pytest.mark.parametrize("domain, res", [
        (BALL, 13), (BALL, 25), (DomainSpec.ellipsoid((1.0, 1.0, 1.2)), 13),
    ], ids=["ball-13", "ball-25", "ellipsoid-13"])
    def test_boundary_ghost_closure_row_is_its_trace(self, domain, res):
        # a ghost on the boundary has ray coordinate exactly 0, so its closure
        # row holds one entry, l0 = 1 on its trace unknown, and no round-off
        # weights on the interior ray values
        grid = Grid(domain, res)
        level = np.sum(grid.ghost_pts**2 / np.square(domain.semi_axes), axis=1)
        on = np.flatnonzero(np.abs(np.sqrt(level) - 1.0) < 1e-12)
        assert on.size > 0
        assert np.all(grid.ghost_s[on] == 0.0)
        c = grid.C
        assert np.array_equal(c.indptr[on + 1] - c.indptr[on], np.ones(on.size))
        assert np.array_equal(c.indices[c.indptr[on]], grid.n_active + grid.ghost_colloc[on])
        assert np.all(c.data[c.indptr[on]] == 1.0)

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            Grid(BALL, 5)

    @pytest.mark.parametrize("resolution", [17.5, 17.0, "17"])
    def test_non_integral_resolution_rejected(self, resolution):
        # a fractional resolution would set h from one value and record another
        with pytest.raises(ValueError, match="resolution must be an integer"):
            Grid(BALL, resolution)

    def test_numpy_integer_resolution_builds(self):
        grid = Grid(BALL, np.int64(9))
        assert grid.resolution == 9 and type(grid.resolution) is int

    @pytest.mark.parametrize("domain", [BALL, ELLIPSOID],
                             ids=["ball", "ellipsoid"])
    def test_robin_trace_block_is_scaled_identity(self, domain):
        # field_at solves the Robin rows for the trace only while each row
        # touches its own trace value alone, through robin_diag
        grid = Grid(domain, 9)
        problem = sample_problem(QUADRATIC, grid)
        assert grid.robin_diag == 3.0 / (2.0 * grid.delta) + 1.0
        base = field_at(DiscreteField.from_function(grid, quad_seed).values, 0.0, grid, problem)
        before = robin_residual(base, grid, problem, 0.0)
        for i in np.random.default_rng(5).choice(grid.n_colloc, 5, replace=False):
            trace = base.trace.copy()
            trace[i] += 1.0
            moved = DiscreteField(values=base.values, trace=trace)
            change = robin_residual(moved, grid, problem, 0.0) - before
            assert np.flatnonzero(change).tolist() == [i]
            assert change[i] == pytest.approx(grid.robin_diag, rel=1e-14)

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


def ray_weights(grid):
    """l0, l1, l2 of each ghost: the quadratic along its ray through the trace
    and the values at depths delta and 2 delta."""
    dl, s = grid.delta, grid.ghost_s
    return ((s + dl) * (s + 2 * dl) / (2 * dl * dl), -s * (s + 2 * dl) / (dl * dl),
            s * (s + dl) / (2 * dl * dl))


def pinv_value_row(grid, tree, target, cols):
    """Value row of np.linalg.pinv of the weighted quadratic design on ``cols``.

    The search radius is the first of the builder's radii whose neighbor
    set is ``cols``.
    """
    rho = 2.5 * grid.h
    while tree.query_ball_point(target, rho, return_sorted=True) != cols.tolist():
        rho *= 1.4
        assert rho < 2.5 * grid.h * 1.4**5, "no radius gives this row's neighbors"
    diff = grid.active_pts[cols] - target
    sw = np.maximum(0.0, 1.0 - np.sum(diff**2, axis=1) / rho**2)
    design = monomials(diff / grid.h) * sw[:, None]
    return np.linalg.pinv(design)[0] * sw


def shared_design_rows(nodes, targets, h, rho):
    """The builder's accept mask and rows from its shared-design solve.

    Each target gets its own target-centred design over the nodes within
    rho, so its translation is the identity; a target is accepted with at
    least q + 2 such nodes and a full-rank design.
    """
    q = monomials(targets[:1]).shape[1]
    accept, rows = [], []
    for target in targets:
        xi = (nodes - target) / h
        near = np.sum(xi**2, axis=1) * h**2 <= rho**2
        weights = np.maximum(0.0, 1.0 - np.sum(xi[near]**2, axis=1) * h**2 / rho**2) ** 2
        full, lam = discretize._mls_rows(weights[None], discretize._design(xi[near]),
                                         np.eye(q)[None])
        accept.append(np.count_nonzero(near) >= q + 2 and bool(full[0]))
        rows.append(lam)
    return np.array(accept), rows


def eigenvalue_rank_test(nodes, targets, h, rho):
    """The builder's accept mask, decided target by target from eigenvalues.

    A target gets a row when it has at least q + 2 neighbors within rho and
    its weighted quadratic design has lambda_min > 1e-12 lambda_max on its
    Gram matrix, a singular-value ratio above 1e-6.
    """
    tree = cKDTree(nodes)
    q = monomials(targets[:1]).shape[1]
    accept = []
    for target in targets:
        cols = tree.query_ball_point(target, rho, return_sorted=True)
        diff = nodes[cols] - target
        sw = np.maximum(0.0, 1.0 - np.sum(diff**2, axis=1) / rho**2)
        design = monomials(diff / h) * sw[:, None]
        eig = np.linalg.eigvalsh(design.T @ design)
        accept.append(len(cols) >= q + 2 and eig[0] > 1e-12 * eig[-1])
    return np.array(accept)


class TestCollocationWeights:
    @pytest.mark.parametrize("domain, res", [(BALL, 9), (ELLIPSOID, 9), (ELONGATED, 11)],
                             ids=["ball-9", "ellipsoid-9", "elongated-11"])
    def test_rows_reproduce_quadratics(self, domain, res):
        grid = Grid(domain, res)
        for depth, w in ((1, grid.W1), (2, grid.W2)):
            targets = mls_targets(grid, depth)
            got = w @ monomials(grid.active_pts)
            assert np.max(np.abs(got - monomials(targets))) < 1e-14, depth
            assert np.max(np.abs(w.sum(axis=1).A1 - 1.0)) < 1e-14, depth

    def test_widened_rows_on_elongated_ellipsoid(self, monkeypatch):
        # the fixture above only covers the widening path while this holds, and
        # the eigenvalue fallback for a block whose Cholesky factorization fails
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(gram):
            calls.append(gram.shape[0])
            return eigvalsh(gram)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        grid = Grid(ELONGATED, 11)
        assert calls
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

    @pytest.mark.parametrize("domain, res", [(BALL, 17), (ELLIPSOID, 41)],
                             ids=["ball-17", "ellipsoid-41"])
    def test_rows_are_pseudoinverse_value_rows(self, domain, res):
        # the Gram solve gives the value row of the weighted design's pseudoinverse
        grid = Grid(domain, res)
        tree = cKDTree(grid.active_pts)
        picks = np.random.default_rng(3).choice(grid.n_colloc, 25, replace=False)
        for depth, w in ((1, grid.W1), (2, grid.W2)):
            targets = mls_targets(grid, depth)
            for i in picks:
                cols = w.indices[w.indptr[i]:w.indptr[i + 1]]
                want = pinv_value_row(grid, tree, targets[i], cols)
                got = w.data[w.indptr[i]:w.indptr[i + 1]]
                assert np.max(np.abs(got - want)) < 1e-13, (depth, i)

    @pytest.mark.parametrize("tilt", [0.0, 0.7], ids=["z=0", "tilted"])
    def test_coplanar_nodes_refused(self, tilt):
        # a planar node set cannot fit a quadratic off the plane: every design is
        # singular, exactly for z = 0 and up to round-off for a tilted plane
        ticks = np.linspace(-1.0, 1.0, 9)
        nodes = np.stack(np.meshgrid(ticks, ticks, [0.0], indexing="ij"), -1).reshape(-1, 3)
        targets = np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.0], [0.3, 0.3, 0.0]])
        c, s = np.cos(tilt), np.sin(tilt)
        turn = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]) @ np.array(
            [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        nodes, targets = nodes @ turn.T, targets @ turn.T
        ok, rows = shared_design_rows(nodes, targets, h=0.25, rho=0.8)
        assert not ok.any()
        assert all(lam.shape[0] == 0 for lam in rows)

    @pytest.mark.parametrize("bump, accepted", [
        (3e-3, True), (1e-4, False),
        *[(float(f"{bump:.3g}"), None) for bump in np.geomspace(1e-4, 3e-3, 16)[1:-1]],
    ])
    def test_rank_test_at_singular_value_ratio_1e6(self, bump, accepted):
        # nodes a bump away from a plane: the design's singular-value ratio is
        # about 1e-5 at 3e-3 and 2e-8 at 1e-4, and the rank test cuts at 1e-6,
        # which these targets cross near 7.7e-4; between the ends the
        # eigenvalue oracle alone gives the expected mask
        ticks = np.linspace(-1.0, 1.0, 9)
        nodes = np.stack(np.meshgrid(ticks, ticks, [0.0], indexing="ij"), -1).reshape(-1, 3)
        nodes[:, 2] = bump * np.random.default_rng(1).uniform(-1.0, 1.0, len(nodes))
        targets = np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.0], [0.3, 0.3, 0.0]])
        ok, _ = shared_design_rows(nodes, targets, h=0.25, rho=0.8)
        assert np.array_equal(ok, eigenvalue_rank_test(nodes, targets, h=0.25, rho=0.8))
        if accepted is not None:
            assert np.all(ok == accepted)

    @pytest.mark.parametrize("domain, res", [
        (BALL, 17), (ELLIPSOID, 41), (ELONGATED, 11), (DomainSpec.ball(1.0, n=4), 9),
    ], ids=["ball-17", "ellipsoid-41", "elongated-11", "ball4-9"])
    def test_row_columns_are_the_nodes_within_the_radius(self, domain, res):
        # the lattice offsets give each row exactly the k-d tree's neighbor set
        # at the smallest of the builder's radii that holds the row
        grid = Grid(domain, res)
        tree = cKDTree(grid.active_pts)
        radii = 2.5 * grid.h * 1.4 ** np.arange(5)
        for depth, w in ((1, grid.W1), (2, grid.W2)):
            targets = mls_targets(grid, depth)
            for i in range(w.shape[0]):
                cols = w.indices[w.indptr[i]:w.indptr[i + 1]]
                reach = np.max(np.linalg.norm(grid.active_pts[cols] - targets[i], axis=1))
                rho = radii[np.searchsorted(radii, reach)]
                want = tree.query_ball_point(targets[i], rho, return_sorted=True)
                assert cols.tolist() == want, (depth, i)

    @pytest.mark.parametrize("domain, res", [(BALL, 9), (ELLIPSOID, 9), (ELONGATED, 11)],
                             ids=["ball-9", "ellipsoid-9", "elongated-11"])
    def test_rows_are_canonical_csr(self, domain, res):
        grid = Grid(domain, res)
        for w in (grid.W1, grid.W2):
            assert w.has_canonical_format
            assert np.all(np.diff(w.indptr) >= 12)  # at least q + 2 nodes at n = 3
        # sorted, duplicate-free rows: a row's sums do not depend on how it was assembled
        for name, op in (("C", grid.C), ("robin_u", grid.robin_u),
                         ("condensed_map", condensed_map(grid))):
            assert op.has_canonical_format, name

    @pytest.mark.parametrize("domain, res", [
        (BALL, 13), (ELLIPSOID, 17), (ELONGATED, 11), (DomainSpec.ball(1.0, n=4), 9),
    ], ids=["ball-13", "ellipsoid-17", "elongated-11", "ball4-9"])
    def test_closure_is_the_sorted_product_and_sum(self, domain, res):
        # the closure built another way (scaled collocation pick products,
        # summed, then sorted) is the stored C to the bit, so the stencil
        # reads the same ghost values through either
        grid = Grid(domain, res)
        gc = grid.ghost_colloc
        l0, l1, l2 = ray_weights(grid)
        pick = sp.csr_matrix((np.ones(grid.n_ghost), (np.arange(grid.n_ghost), gc)),
                             shape=(grid.n_ghost, grid.n_colloc))
        other = sp.hstack([sp.diags(l1) @ pick @ grid.W1 + sp.diags(l2) @ pick @ grid.W2,
                           sp.diags(l0) @ pick], format="csr")
        other.sort_indices()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(grid.C, attr), getattr(other, attr)), attr
        twin = copy.copy(grid)
        twin.C = other
        rng = np.random.default_rng(5)
        field = DiscreteField(values=rng.standard_normal(grid.n_active),
                              trace=rng.standard_normal(grid.n_colloc))
        assert hessian_batch(field, twin).tobytes() == hessian_batch(field, grid).tobytes()

    def test_joint_rows_match_the_rows_of_one_depth(self):
        # both depths are built in one pass; on this ellipsoid some depth-delta
        # rows widen, so their entries arrive after the rest and are sorted in
        grid = Grid(ELONGATED, 11)
        for depth, w in ((1, grid.W1), (2, grid.W2)):
            alone = discretize._mls_value_rows(grid, mls_targets(grid, depth))
            assert np.array_equal(w.indptr, alone.indptr), depth
            assert np.array_equal(w.indices, alone.indices), depth
            assert np.max(np.abs(w.data - alone.data)) < 1e-14, depth

    @pytest.mark.parametrize("domain, res, counts", [
        (BALL, 17, (1791, 1050, 40_818, 59_916, 61_494, 60_876)),
        (BALL, 25, (6403, 2378, 94_522, 137_740, 141_774, 141_220)),
        (BALL, 33, (15_515, 4178, 165_458, 240_256, 250_482, 246_736)),
        (ELLIPSOID, 41, (28_115, 6122, 248_094, 354_916, 373_718, 367_740)),
    ], ids=["ball-17", "ball-25", "ball-33", "ellipsoid-41"])
    def test_closure_operators_match_rows_built_per_depth(self, domain, res, counts):
        # the active, collocation and entry counts of W1, W2, C and robin_u
        # that a build with one MLS pass per depth gives, and the operators,
        # canonical as stored, agree with ones formed from rows built one
        # depth at a time
        grid = Grid(domain, res)
        ops = (grid.W1, grid.W2, grid.C, grid.robin_u)
        assert (grid.n_active, grid.n_colloc, *(op.nnz for op in ops)) == counts
        w1, w2 = (discretize._mls_value_rows(grid, mls_targets(grid, depth)) for depth in (1, 2))
        gc = grid.ghost_colloc
        l0, l1, l2 = ray_weights(grid)
        trace = sp.csr_matrix((l0, gc, np.arange(grid.n_ghost + 1)),
                              shape=(grid.n_ghost, grid.n_colloc))
        closure = sp.hstack([sp.diags(l1) @ w1[gc] + sp.diags(l2) @ w2[gc], trace])
        want = (w1, w2, closure, (w2 - 4.0 * w1) / (2.0 * grid.delta))
        for name, got, ref in zip(("W1", "W2", "C", "robin_u"), ops, want):
            assert got.has_canonical_format, name
            ref = ref.tocsr(copy=True)
            ref.sort_indices()
            assert np.array_equal(got.indptr, ref.indptr), name
            assert np.array_equal(got.indices, ref.indices), name
            assert np.max(np.abs(got.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data)), name

    def test_closure_row_count_at_17(self, grid17):
        assert grid17.W1.nnz + grid17.W2.nnz == 100_734

    def test_build_uses_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("grid build called np.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        Grid(ELONGATED, 11)

    def test_build_uses_no_kdtree(self, monkeypatch):
        def no_kdtree(*args, **kwargs):
            raise AssertionError("grid build called scipy.spatial.cKDTree")

        monkeypatch.setattr(scipy.spatial, "cKDTree", no_kdtree)
        Grid(ELONGATED, 11)
        Grid(DomainSpec.ball(1.0, n=4), 9)

    @pytest.mark.parametrize("domain, res", [(BALL, 17), (ELLIPSOID, 41)],
                             ids=["ball-17", "ellipsoid-41"])
    def test_rank_certificates_decide_every_target(self, domain, res, monkeypatch):
        # the Cholesky factors certify full rank; no eigenvalue is computed
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("grid build called np.linalg.eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        Grid(domain, res)


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
            problem = sample_problem(QUADRATIC, grid)
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
        errs = []
        for res in (9, 17):
            grid = Grid(BALL, res)
            problem = sample_problem(MANUFACTURED, grid)
            field = DiscreteField.from_function(grid, U_STAR)
            r = robin_residual(field, grid, problem, t=1.0)
            errs.append(np.max(np.abs(r)))
        assert errs[0] / errs[1] > 2.0  # at least ~first order in the sup norm

    @pytest.mark.parametrize("domain, res",
                             [(BALL, 17), (DomainSpec.ellipsoid((1.0, 1.0, 1.5)), 11)],
                             ids=["ball-17", "ellipsoid-11"])
    def test_rows_are_the_one_stored_block_and_the_trace_scalar(self, domain, res):
        # u_nu and the Robin residual are the full rows [robin_u, c I] applied
        # to [u; b], bit for bit, without the grid storing those rows
        grid = Grid(domain, res)
        assert not hasattr(grid, "normal_op") and not hasattr(grid, "robin_jac")
        assert grid.robin_u.shape == (grid.n_colloc, grid.n_active)
        problem = sample_problem(manufactured_problem(domain, 0.05)[0], grid)
        data = 0.3 * problem.phi_colloc + 0.7 * grid.colloc_quad
        eye = sp.identity(grid.n_colloc, format="csr")
        u_nu_rows = sp.hstack([grid.robin_u, 3.0 / (2.0 * grid.delta) * eye], format="csr")
        robin_rows = sp.hstack([grid.robin_u, grid.robin_diag * eye], format="csr")
        rng = np.random.default_rng(3)
        for _ in range(4):
            x = rng.standard_normal(grid.n_unknowns)
            field = DiscreteField(values=x[:grid.n_active], trace=x[grid.n_active:])
            assert np.array_equal(normal_derivative(field, grid), u_nu_rows @ x)
            assert np.array_equal(robin_residual(field, grid, problem, t=0.3),
                                  robin_rows @ x - data)


class TestInteriorResidual:
    def test_quadratic_seed_t0(self):
        for res in (9, 17):
            grid = Grid(BALL, res)
            problem = sample_problem(QUADRATIC, grid)
            field = DiscreteField.from_function(grid, quad_seed)
            r = interior_residual(field, grid, problem, t=0.0)
            assert np.max(np.abs(r)) < 1e-11

    def test_t1_is_det_minus_f(self, grid9):
        problem = sample_problem(QUADRATIC, grid9)
        field = DiscreteField.from_function(grid9, quad_seed)
        r = interior_residual(field, grid9, problem, t=1.0)
        # det(W) = 8 = f everywhere for the quadratic seed
        assert np.max(np.abs(r)) < 1e-11

    def test_homotopy_constant_value(self):
        assert homotopy_constant(3) == 8.0
        assert homotopy_constant(4) == 81.0

    def test_manufactured_second_order(self):
        errs = []
        for res in (17, 33):
            grid = Grid(BALL, res)
            problem = sample_problem(MANUFACTURED, grid)
            field = DiscreteField.from_function(grid, U_STAR)
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
        problem = sample_problem(QUADRATIC, grid9)
        field = DiscreteField.from_function(grid9, quad_seed)
        with pytest.raises(ValueError):
            interior_residual(field, grid9, problem, t=1.5)


class TestFieldPlumbing:
    @pytest.mark.parametrize("domain, res", [(BALL, 17), (ELLIPSOID, 11)],
                             ids=["ball-17", "ellipsoid-11"])
    def test_field_at_derives_the_trace_from_the_robin_rows(self, domain, res):
        grid = Grid(domain, res)
        problem = sample_problem(manufactured_problem(domain, 0.05)[0], grid)
        seed = DiscreteField.from_function(grid, lambda p: 0.5 * np.sum(p**2, axis=1))
        # the rows are exact for quadratics: at t = 0 the seed keeps its own trace
        at_seed = field_at(seed.values, 0.0, grid, problem)
        assert at_seed.values is seed.values
        assert np.max(np.abs(at_seed.trace - seed.trace)) <= 1e-14
        rng = np.random.default_rng(7)
        for t in (0.0, 0.3, 1.0):
            u = seed.values + 0.1 * rng.standard_normal(grid.n_active)
            fld = field_at(u, t, grid, problem)
            assert np.max(np.abs(robin_residual(fld, grid, problem, t))) <= 1e-12
        with pytest.raises(ValueError, match="outside"):
            field_at(seed.values, 1.5, grid, problem)

    def test_length_mismatch_rejected(self, grid9):
        field = DiscreteField(values=np.zeros(3), trace=np.zeros(grid9.n_colloc))
        with pytest.raises(ValueError):
            field.check(grid9)


class TestProblemData:
    def test_nan_rhs_rejected_with_index(self):
        f = np.full(5, 8.0)
        f[3] = np.nan
        with pytest.raises(ValueError, match="f at active point 3 is nan"):
            SampledProblem(f_active=f, phi_colloc=np.zeros(4))

    def test_infinite_callable_phi_rejected_with_index(self, grid9):
        def phi(pts):
            out = np.zeros(pts.shape[0])
            out[7] = np.inf
            return out

        spec = ProblemSpec(n=3, f=lambda p: np.full(p.shape[0], 8.0), phi=phi)
        with pytest.raises(ValueError, match="phi at collocation point 7 is inf"):
            sample_problem(spec, grid9)

    def test_two_dimensional_spec_refused(self):
        with pytest.raises(ValueError, match="PDE problems need n >= 3"):
            ProblemSpec(n=2, f=lambda p: np.ones(p.shape[0]),
                        phi=lambda p: np.zeros(p.shape[0]))

    @pytest.mark.parametrize("n, f, phi, detail", [
        (4, None, None, "problem dimension 4 != grid dimension 3"),
        (3, lambda p: np.ones(p.shape[0] + 1), None, "f must return one value per active point"),
        (3, None, lambda p: np.zeros((p.shape[0], 1)),
         "phi must return one value per collocation point"),
    ], ids=["dimension", "f-shape", "phi-shape"])
    def test_mismatched_spec_refused(self, grid9, n, f, phi, detail):
        spec = ProblemSpec(n=n, f=f or (lambda p: np.full(p.shape[0], 8.0)),
                           phi=phi or (lambda p: np.zeros(p.shape[0])))
        with pytest.raises(ValueError, match=detail):
            sample_problem(spec, grid9)


class TestManufacturedProblem:
    @pytest.mark.parametrize("direction", [(2.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0),
                                           (1.0 + 1e-9, 0.0, 0.0)],
                             ids=["long", "diagonal", "short-vector", "near-unit"])
    def test_non_unit_direction_rejected(self, direction):
        # f = (n-1)(n-1+b)^(n-1) holds for |w| = 1 only
        with pytest.raises(ValueError, match="direction"):
            manufactured_problem(BALL, 0.5, direction)

    def test_unit_direction_matches_its_f(self, grid9):
        # det W(D2u*) = f with the exact Hessian I + a exp(w.x) w w^T
        w = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        problem, _ = manufactured_problem(BALL, 0.5, w)
        pts = grid9.active_pts
        hess = np.eye(3) + (0.5 * np.exp(pts @ w))[:, None, None] * np.outer(w, w)
        f = problem.f(pts)
        assert np.max(np.abs(woperator.batch_det_w(hess) - f) / f) < 1e-13

    @pytest.mark.parametrize("domain", [BALL, DomainSpec.ball(1.0, n=4), ELLIPSOID],
                             ids=["ball-3d", "ball-4d", "ellipsoid"])
    def test_amplitude_zero_is_the_quadratic_seed(self, domain):
        problem, exact = manufactured_problem(domain, 0.0)
        grid = Grid(domain, 9)
        sampled = sample_problem(problem, grid)
        assert np.all(sampled.f_active == homotopy_constant(domain.n))
        # phi projects y onto the boundary again, so it may differ by an ulp
        assert np.max(np.abs(sampled.phi_colloc - grid.colloc_quad)) <= 1e-15
        pts = grid.active_pts
        assert exact(pts).tobytes() == (0.5 * np.sum(pts**2, axis=1)).tobytes()
