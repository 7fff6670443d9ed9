"""The n = 3 closed forms: eigenvalues, det and gradient of M, and 2 x 2 curvature frames.

Each is checked against ``np.linalg`` to 16 eps of the largest entry on
the inputs where an analytic 3 x 3 eigensolver is known to fail: repeated
and nearly repeated eigenvalues, extreme scalings, subnormal entries and
the zero matrix.  A RuntimeWarning is an error under pytest, so every
case also checks that the kernels divide by no zero.
"""

import numpy as np
import pytest

from nconvex import geometry, woperator
from nconvex.cli import named_case
from nconvex.discretize import Grid, sample_problem
from nconvex.geometry import DomainSpec, boundary_samples, pinching_check
from nconvex.solver import SolverConfig, continuation
from nconvex.woperator import batch_det_w, batch_eigvalsh, batch_linearization

EPS = np.finfo(float).eps
EGG = DomainSpec.ellipsoid((1.0, 1.0, 1.05))


def rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q


def rotated(rng, spectrum):
    q = rotation(rng)
    h = (q * np.asarray(spectrum, dtype=float)) @ q.T
    return 0.5 * (h + h.T)


def random_symmetric(rng, count, scale=1.0):
    a = rng.standard_normal((count, 3, 3)) * scale
    return 0.5 * (a + np.swapaxes(a, 1, 2))


def hard_stack():
    """Random Hessians and every hard case above, as one (N, 3, 3) stack."""
    rng = np.random.default_rng(3501)
    cases = list(random_symmetric(rng, 200, 2.0))
    for _ in range(20):
        w = rng.standard_normal(3)
        for b in (-2.0, -0.5, 0.05, 1.0, 7.0):
            cases.append(np.eye(3) + b * np.outer(w, w))  # the manufactured Hessian's form
        cases.append(rotated(rng, [1.0, 2.0, 2.0]))
        cases.append(rotated(rng, [-3.0, -3.0, 1.0]))
        cases.append(rotated(rng, [5.0, 5.0, 5.0]))
        cases.append(rotated(rng, [1.0, 1.0 + 1e-9, 2.0]))
        cases.append(rotated(rng, [-2.0, 1.0 - 1e-9, 1.0]))
        cases.append(np.diag(rng.permutation([1.0, 1.0, 2.0])))
        for scale in (1e150, 1e-150, 1e300, 1e-300):
            cases.extend(random_symmetric(rng, 2, scale))
            cases.append(scale * rotated(rng, [1.0, 2.0, 2.0]))
        c = rng.standard_normal()
        cases.append(np.diag(c + np.spacing(c) * rng.integers(-2, 3, 3)))
    for spread in TINY_SPREADS:
        cases.append(np.eye(3) + spread * OFF_DIAGONAL)
        cases.append(2.0 * np.eye(3) + spread * rotated(rng, [-1.0, 0.5, 0.5]))
    cases.append(np.eye(3))
    cases.append(np.zeros((3, 3)))
    cases.append(SUBNORMAL)
    return np.stack(cases)


# spreads about a multiple of I so small that their cube, or square, underflows
TINY_SPREADS = (1e-110, 1e-120, 1e-160, 1e-200, 1e-320)
OFF_DIAGONAL = np.ones((3, 3)) - np.eye(3)

# a subnormal and a 1e-147 off-diagonal, on which LAPACK's eigvalsh is off by 8e-3
SUBNORMAL = np.array([[0.0, 1.57830108e-147, 1.11253693e-308],
                      [1.57830108e-147, 1.0, 1.5],
                      [1.11253693e-308, 1.5, 0.0]])


def largest_entries(hs):
    return np.max(np.abs(hs), axis=(-2, -1))


def lapack_eigenvalues(hs):
    # entries below 2^-104 of the largest move no eigenvalue by a rounding
    # error, and zeroing them keeps LAPACK accurate on SUBNORMAL
    tiny = 2.0**-104 * largest_entries(hs)[:, None, None]
    return np.linalg.eigvalsh(np.where(np.abs(hs) <= tiny, 0.0, hs))


def m_of(hs):
    return np.trace(hs, axis1=-2, axis2=-1)[:, None, None] * np.eye(3) - hs


class TestEigenvalues:
    def test_within_16_eps_of_lapack(self):
        hs = hard_stack()
        got = batch_eigvalsh(hs)
        err = np.max(np.abs(got - lapack_eigenvalues(hs)), axis=1)
        assert np.all(err <= 16.0 * EPS * largest_entries(hs))

    def test_ascending_and_exact_on_multiples_of_the_identity(self):
        hs = np.stack([np.zeros((3, 3)), np.eye(3), -4.0 * np.eye(3), 1e-300 * np.eye(3)])
        got = batch_eigvalsh(hs)
        assert np.array_equal(got, np.diagonal(hs, axis1=1, axis2=2))
        assert np.all(np.diff(batch_eigvalsh(hard_stack()), axis=1) >= 0.0)

    def test_double_eigenvalue_of_the_manufactured_form(self):
        # I + b w w^T: the plain trigonometric roots miss the double 1 by sqrt(eps)
        w = np.array([0.3, -0.2, 0.9])
        got = batch_eigvalsh((np.eye(3) + 0.8 * np.outer(w, w))[None])[0]
        assert np.all(np.abs(got[:2] - 1.0) <= 4.0 * EPS)
        assert abs(got[2] - (1.0 + 0.8 * w @ w)) <= 4.0 * EPS

    def test_tiny_spread_about_the_identity(self):
        # p^3 underflows below 1e-108, so the root must not divide det B by it
        hs = np.stack([np.eye(3) + t * OFF_DIAGONAL for t in TINY_SPREADS])
        assert np.all(np.abs(batch_eigvalsh(hs) - 1.0) <= EPS)

    def test_triple_eigenvalue_one_ulp_apart(self):
        # the diagonal's mean rounds, so B is not trace-free, and at
        # diag(c, c - ulp, c) beta is a double root with no cross product left
        c = -0.4664439954099181
        diagonals = []
        for other in (np.nextafter(c, -1.0), np.nextafter(c, 0.0)):
            for i in range(3):
                diagonals.append(np.full(3, c))
                diagonals[-1][i] = other
        hs = np.stack([np.diag(d) for d in diagonals])
        got = batch_eigvalsh(hs)
        assert np.max(np.abs(got - np.sort(diagonals, axis=1))) <= 2.0 * EPS * abs(c)

    def test_subnormal_entries(self):
        got = batch_eigvalsh(SUBNORMAL[None])[0]
        rad = np.hypot(0.5, 1.5)
        want = [0.5 - rad, 0.0, 0.5 + rad]
        assert np.max(np.abs(got - want)) <= 16.0 * EPS * 1.5


def moderate_stack():
    """``hard_stack`` without the 1e+-150 scalings, whose det W over- or underflows."""
    hs = hard_stack()
    size = largest_entries(hs)
    return hs[(size < 1e100) & (size > 1e-100) | (size == 0.0)]


class TestDetAndGradient:
    def test_det_within_16_eps_of_lapack(self):
        hs = moderate_stack()
        ms = m_of(hs)
        err = np.abs(batch_det_w(hs) - np.linalg.det(ms))
        assert np.all(err <= 16.0 * EPS * largest_entries(ms) ** 3)

    def test_gradient_within_16_eps_of_the_lift(self):
        hs = moderate_stack()
        grad = batch_linearization(hs)
        assert np.array_equal(grad, np.swapaxes(grad, 1, 2))
        # the lift's gradient contracts its cofactors, each a 2 x 2 LAPACK det
        err = np.max(np.abs(grad - woperator.linearization(hs, 2)), axis=(1, 2))
        assert np.all(err <= 16.0 * EPS * largest_entries(m_of(hs)) ** 2)

    def test_det_and_gradient_of_a_singular_m(self):
        # tr(H) I - H = diag(0, 2, 2): det 0 exactly, and the gradient is finite
        h = np.diag([2.0, 0.0, 0.0])
        assert batch_det_w(h[None])[0] == 0.0
        grad = batch_linearization(h[None])[0]
        assert np.array_equal(grad, np.diag([0.0, 4.0, 4.0]))


class TestBlocks:
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch):
        kernels = ((batch_eigvalsh, hard_stack()), (batch_det_w, moderate_stack()),
                   (batch_linearization, moderate_stack()))
        full = [kernel(hs) for kernel, hs in kernels]
        monkeypatch.setattr(woperator, "_BLOCK", 7)
        for (kernel, hs), want in zip(kernels, full):
            assert kernel(hs).tobytes() == want.tobytes()

    def test_deeper_stacks_keep_their_shape(self):
        hs = moderate_stack()[:60]
        deep = hs.reshape(3, 4, 5, 3, 3)
        assert batch_eigvalsh(deep).shape == (3, 4, 5, 3)
        assert batch_det_w(deep).shape == (3, 4, 5)
        assert batch_linearization(deep).shape == deep.shape
        assert batch_eigvalsh(deep).reshape(-1).tobytes() == batch_eigvalsh(hs).tobytes()
        assert batch_det_w(hs[:0]).shape == (0,)


class TestCurvatureFrames:
    def test_umbilic_vertices_of_the_egg(self):
        # at +-e3 both principal curvatures are 1.05; at +-e1 and +-e2 they
        # are 1 / 1.05^2 and 1
        pts = np.vstack([np.eye(3), -np.eye(3)]) * np.array(EGG.semi_axes)
        kappa, dirs, _ = geometry._frame_at(EGG, pts)
        want = np.array([[1.0 / 1.05**2, 1.0]] * 2 + [[1.05, 1.05]]
                        + [[1.0 / 1.05**2, 1.0]] * 2 + [[1.05, 1.05]])
        assert np.max(np.abs(kappa - want)) <= 16.0 * EPS * 1.05
        assert np.max(np.abs(dirs @ np.swapaxes(dirs, 1, 2) - np.eye(2))) <= 4.0 * EPS

    def test_principal_2x2_matches_eigh(self):
        rng = np.random.default_rng(3502)
        s = random_symmetric(rng, 100)[:, :2, :2]
        s = np.concatenate([s, [np.eye(2), 3.0 * np.eye(2), np.zeros((2, 2)),
                                np.diag([1.0, 1.0 + 1e-12]), [[2.0, 1e-20], [1e-20, 2.0]]]])
        kappa, rows = geometry._principal_2x2(s)
        want, vecs = np.linalg.eigh(s)
        scale = np.max(np.abs(s), axis=(1, 2))
        assert np.all(np.max(np.abs(kappa - want), axis=1) <= 16.0 * EPS * scale)
        # the rows are orthonormal eigenvectors: they rebuild s
        rebuilt = np.einsum("pk,pki,pkj->pij", kappa, rows, rows)
        assert np.all(np.max(np.abs(rebuilt - s), axis=(1, 2)) <= 16.0 * EPS * scale)
        assert np.max(np.abs(rows @ np.swapaxes(rows, 1, 2) - np.eye(2))) <= 4.0 * EPS

    def test_samples_match_eigh(self, monkeypatch):
        pts, kappa, _ = boundary_samples(EGG, 2000)
        monkeypatch.setattr(geometry, "_principal_2x2", _eigh_rows)
        assert np.max(np.abs(boundary_samples(EGG, 2000)[1] - kappa)) <= 16.0 * EPS * 1.05


def _eigh_rows(shape_op):
    kappa, vecs = np.linalg.eigh(shape_op)
    return kappa, np.swapaxes(vecs, 1, 2)


class LapackCalled(AssertionError):
    pass


def refuse_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise LapackCalled("np.linalg eigenvalue or det call")

    for name in ("eigvalsh", "eigh", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)


@pytest.fixture
def no_lapack(monkeypatch):
    refuse_lapack(monkeypatch)


class TestNoLapackAtNThree:
    def test_manufactured_continuation(self, monkeypatch):
        grid = Grid(DomainSpec.ball(1.0, n=3), 9)
        _, problem, _ = named_case("ball-manufactured-exp")
        data = sample_problem(problem, grid)
        want = continuation(data, grid, SolverConfig())[0]
        refuse_lapack(monkeypatch)
        got = continuation(data, grid, SolverConfig())[0]
        assert got.field.values.tobytes() == want.field.values.tobytes()

    def test_egg_pinching_and_samples(self, no_lapack):
        assert pinching_check(EGG).passes
        assert boundary_samples(EGG, 500)[1].shape == (506, 2)

    def test_n_four_still_reaches_lapack(self, no_lapack):
        hs = random_symmetric(np.random.default_rng(3503), 5)
        hs4 = np.zeros((5, 4, 4))
        hs4[:, :3, :3] = hs
        hs4[:, 3, 3] = 1.0
        for kernel in (batch_eigvalsh, batch_det_w):
            with pytest.raises(LapackCalled):
                kernel(hs4)
        with pytest.raises(LapackCalled):
            boundary_samples(DomainSpec.ellipsoid((1.0, 1.0, 1.05, 1.1)), 50)
