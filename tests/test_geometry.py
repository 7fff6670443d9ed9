"""Domain geometry against closed forms and independent projection oracles."""

import math
import warnings

import numpy as np
import pytest

from nconvex.discretize import Grid
from nconvex.geometry import (
    DomainSpec,
    _frame_at,
    barrier_h,
    boundary_samples,
    distance,
    distance_hessian,
    mean_curvature_range,
    normal_field,
    pinching_check,
    project_to_boundary,
    project_to_boundary_batch,
    signed_distance,
    strip_mu_max,
)

BALL = DomainSpec.ball(1.0, n=3)
EGG = DomainSpec.ellipsoid((1.0, 1.2, 0.9))


def project_oracle_3d(domain, x, iters=120):
    """Closest point by Newton on the spherical parametrization (n=3 only).

    Analytic derivatives of |p(theta, phi) - x|^2; independent of the
    Lagrange-multiplier route used by the package.
    """
    a = np.asarray(domain.semi_axes)
    c = np.asarray(domain.center)
    z = np.asarray(x, dtype=float) - c

    def chart(th, ph):
        st, ct = math.sin(th), math.cos(th)
        sp, cp = math.sin(ph), math.cos(ph)
        p = a * np.array([st * cp, st * sp, ct])
        p_th = a * np.array([ct * cp, ct * sp, -st])
        p_ph = a * np.array([-st * sp, st * cp, 0.0])
        p_thth = -p
        p_phph = a * np.array([-st * cp, -st * sp, 0.0])
        p_thph = a * np.array([-ct * sp, ct * cp, 0.0])
        return p, p_th, p_ph, p_thth, p_phph, p_thph

    nz = z / np.linalg.norm(z)
    th = math.acos(np.clip(nz[2], -1.0, 1.0))
    ph = math.atan2(nz[1], nz[0])
    params = np.array([th, ph])
    lam = 1e-8  # Levenberg damping
    for _ in range(iters):
        p, p_th, p_ph, p_thth, p_phph, p_thph = chart(*params)
        r = p - z
        g = 2.0 * np.array([r @ p_th, r @ p_ph])
        h = 2.0 * np.array(
            [
                [p_th @ p_th + r @ p_thth, p_th @ p_ph + r @ p_thph],
                [p_th @ p_ph + r @ p_thph, p_ph @ p_ph + r @ p_phph],
            ]
        )
        try:
            delta = np.linalg.solve(h + lam * np.eye(2), -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        new = params + delta
        if float(np.sum((chart(*new)[0] - z) ** 2)) <= float(np.sum(r**2)):
            params = new
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 10.0
        if np.linalg.norm(delta) < 1e-14:
            break
    y = chart(*params)[0] + c
    return y, float(np.linalg.norm(np.asarray(x) - y))


class TestDomainSpec:
    @pytest.mark.parametrize("make", [
        lambda: DomainSpec.ball(math.nan),
        lambda: DomainSpec.ball(math.inf),
        lambda: DomainSpec.ball(0.0),
        lambda: DomainSpec.ball(1.0, center=(0.0, math.nan, 0.0)),
        lambda: DomainSpec.ellipsoid((1.0, 1.0, math.inf)),
        lambda: DomainSpec.ellipsoid((1.0, 1.0, math.nan)),
        lambda: DomainSpec.ellipsoid((math.nan, 1.0, 1.0)),
        lambda: DomainSpec.ellipsoid((1.0, 1.2, 0.9), center=(math.inf, 0.0, 0.0)),
    ], ids=["ball-nan", "ball-inf", "ball-zero", "ball-nan-center", "ellipsoid-inf",
            "ellipsoid-nan-last", "ellipsoid-nan-first", "ellipsoid-inf-center"])
    def test_non_finite_or_non_positive_refused(self, make):
        with pytest.raises(ValueError, match="must be finite"):
            make()

    def test_equal_axes_give_a_ball(self):
        assert DomainSpec.ellipsoid((1.0, 1.0, 1.0)) == BALL
        assert BALL.kind == "ball" and BALL.is_ball and BALL.n == 3

    def test_kind_and_dimension_cannot_contradict_the_axes(self):
        # the shape is stored once, as its semi-axes: no field claims a ball
        with pytest.raises(TypeError):
            DomainSpec(kind="ball", n=3, center=(0.0, 0.0, 0.0), semi_axes=(1.0, 1.0, 2.0))
        dom = DomainSpec(center=(0.0, 0.0, 0.0), semi_axes=(1.0, 1.0, 2.0))
        assert dom.kind == "ellipsoid" and not dom.is_ball and dom.n == 3
        # so (0, 0, 1.5) lies inside, and the gate sees the ellipsoid's curvature
        assert signed_distance(dom, (0.0, 0.0, 1.5)) == pytest.approx(0.5)
        assert pinching_check(dom).margin_min == pytest.approx(-0.44, abs=0.01)
        with pytest.raises(ValueError, match="center length"):
            DomainSpec.ball(1.0, center=(0.0, 0.0), n=3)


class TestDistance:
    def test_ball_center(self):
        assert distance(BALL, [0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_ball_radial(self):
        assert distance(BALL, [0.8, 0.0, 0.0]) == pytest.approx(0.2)

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            distance(BALL, [1.5, 0.0, 0.0])

    def test_boundary_is_zero(self):
        assert distance(BALL, [0.0, 1.0, 0.0]) == pytest.approx(0.0, abs=1e-14)

    def test_ellipsoid_matches_projection_oracle(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(80):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            if abs(direction[2]) > 0.97:
                continue  # parametrization pole, oracle chart degenerates
            y, nu, _ = project_to_boundary(EGG, np.asarray(EGG.center) + 0.5 * direction)
            x = y - rng.uniform(0.02, 0.3) * nu
            d = distance(EGG, x)
            _, d_oracle = project_oracle_3d(EGG, x)
            assert abs(d - d_oracle) < 1e-10
            checked += 1
        assert checked > 40

    def test_signed_distance_outside_negative(self):
        assert signed_distance(BALL, [2.0, 0.0, 0.0]) == pytest.approx(-1.0)
        assert signed_distance(EGG, [0.0, 2.4, 0.0]) == pytest.approx(-1.2)


class TestBatchProjection:
    @pytest.mark.parametrize("axes", [(1.0, 1.2, 0.9), (0.6, 1.0, 1.7)])
    def test_closest_point_conditions(self, axes):
        domain = DomainSpec.ellipsoid(axes)
        a = np.asarray(axes)
        rng = np.random.default_rng(11)
        directions = rng.standard_normal((400, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        radii = rng.uniform(0.05, 2.0, 400)[:, None]  # inside and outside
        x = np.vstack([np.zeros(3), radii * a * directions])
        y, nu, d = project_to_boundary_batch(domain, x)
        # y = a^2 x / (a^2 + t) magnifies the round-off in t where a^2 + t is
        # small, deep inside an eccentric ellipsoid: the worst point here
        # reaches 6e-14, most stay below 1e-15
        assert np.max(np.abs(np.sum((y / a) ** 2, axis=1) - 1.0)) < 1e-13
        gap = x - y
        off_normal = gap - np.sum(gap * nu, axis=1)[:, None] * nu
        assert np.max(np.linalg.norm(off_normal, axis=1)) < 1e-12
        assert np.allclose(np.abs(d), np.linalg.norm(gap, axis=1), rtol=0, atol=1e-14)

    def test_grid_build_with_zero_coordinates_is_warning_free(self):
        # grid points with x_i = 0 once sent a bisection midpoint to t = -a_i^2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            Grid(DomainSpec.ellipsoid((1.0, 1.0, 2.0)), 9)


class TestNormalField:
    def test_ball_radial(self):
        nu = normal_field(BALL, [0.8, 0.0, 0.0])
        assert np.allclose(nu, [1.0, 0.0, 0.0], atol=1e-14)

    def test_unit_norm_ellipsoid(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-0.6, 0.6, size=3)
            if not 0.0 < signed_distance(EGG, x) < EGG.mu0:
                continue
            nu = normal_field(EGG, x)
            assert abs(np.linalg.norm(nu) - 1.0) < 1e-12

    def test_nu_dot_dnu_vanishes(self):
        # the extended normal is constant along rays: nu . D nu = 0
        rng = np.random.default_rng(13)
        step = 1e-6
        for dom in (BALL, EGG):
            for _ in range(20):
                x = rng.uniform(-0.3, 0.3, size=3)
                x = x / np.linalg.norm(x) * 0.8 * min(dom.semi_axes)
                if not 0.0 < signed_distance(dom, x) < dom.mu0:
                    continue
                jac = np.zeros((3, 3))
                for j in range(3):
                    e = np.zeros(3)
                    e[j] = step
                    jac[:, j] = (normal_field(dom, x + e) - normal_field(dom, x - e)) / (2 * step)
                nu = normal_field(dom, x)
                assert np.max(np.abs(nu @ jac)) < 1e-9

    def test_projection_consistency(self):
        # moving distance d along the outward normal lands on the boundary
        rng = np.random.default_rng(17)
        for dom in (BALL, EGG):
            for _ in range(40):
                x = rng.uniform(-0.8, 0.8, size=3)
                d = signed_distance(dom, x)
                if not 0.0 < d < dom.mu0:
                    continue
                nu = normal_field(dom, x)
                y = x + d * nu
                assert abs(signed_distance(dom, y)) < 1e-10

    def test_outside_strip_rejected(self):
        with pytest.raises(ValueError):
            normal_field(BALL, [0.0, 0.0, 0.0])  # depth 1.0 == mu0


class TestDistanceHessian:
    def test_ball_closed_form(self):
        x = np.array([0.0, 0.9, 0.0])
        hess = distance_hessian(BALL, x)
        eig = np.sort(np.linalg.eigvalsh(hess))
        assert np.allclose(eig, [-1.0 / 0.9, -1.0 / 0.9, 0.0], atol=1e-12)

    def test_boundary_values(self):
        hess = distance_hessian(BALL, [1.0, 0.0, 0.0])
        eig = np.sort(np.linalg.eigvalsh(hess))
        assert np.allclose(eig, [-1.0, -1.0, 0.0], atol=1e-12)

    def test_ellipsoid_matches_finite_differences(self):
        # step 1e-4 balances truncation against the projection's 1e-15 noise
        # amplified by 1/step^2
        rng = np.random.default_rng(19)
        step = 1e-4
        checked = 0
        for _ in range(15):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            y, nu, _ = project_to_boundary(EGG, np.asarray(EGG.center) + 0.5 * direction)
            x = y - rng.uniform(0.05, 0.5 * EGG.mu0) * nu
            d = signed_distance(EGG, x)
            if not 0.05 < d < 0.5 * EGG.mu0:
                continue
            got = distance_hessian(EGG, x)
            fd = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    ei = np.zeros(3)
                    ej = np.zeros(3)
                    ei[i] = step
                    ej[j] = step
                    fd[i, j] = (
                        signed_distance(EGG, x + ei + ej)
                        - signed_distance(EGG, x + ei - ej)
                        - signed_distance(EGG, x - ei + ej)
                        + signed_distance(EGG, x - ei - ej)
                    ) / (4 * step**2)
            assert np.max(np.abs(got - fd)) < 1e-6
            checked += 1
        assert checked > 10

    def test_gradient_orthogonality(self):
        # Dd . D2d = 0: the normal direction is in the kernel
        x = np.array([0.3, 0.2, 0.4])
        for dom in (BALL, EGG):
            if not 0.0 < signed_distance(dom, x) < dom.mu0:
                continue
            nu = normal_field(dom, x)
            hess = distance_hessian(dom, x)
            assert np.max(np.abs(hess @ nu)) < 1e-9


class TestBarrierH:
    def test_boundary_values(self):
        y = np.array([1.0, 0.0, 0.0])
        val, grad, _ = barrier_h(BALL, 10.0, y)
        assert val == pytest.approx(0.0, abs=1e-14)
        nu = np.array([1.0, 0.0, 0.0])
        assert grad @ nu == pytest.approx(1.0, abs=1e-12)

    def test_normal_hessian_eigenvalue(self):
        k3 = 10.0
        x = np.array([0.99, 0.0, 0.0])  # depth 0.01
        _, _, hess = barrier_h(BALL, k3, x)
        nu = np.array([1.0, 0.0, 0.0])
        assert nu @ hess @ nu == pytest.approx(2.0 * k3, abs=1e-10)

    def test_strict_convexity_in_strip(self):
        k3 = 5.0
        rng = np.random.default_rng(23)
        for dom in (BALL, EGG):
            for _ in range(30):
                x = rng.uniform(-0.9, 0.9, size=3)
                d = signed_distance(dom, x)
                if not 0.0 < d < min(dom.mu0, 1.0 / (2.0 * k3)):
                    continue
                _, _, hess = barrier_h(dom, k3, x)
                assert np.min(np.linalg.eigvalsh(hess)) > 0.0

    def test_tangential_eigenvalues_formula(self):
        k3 = 4.0
        r = 0.93
        x = np.array([0.0, 0.0, r])
        d = 1.0 - r
        _, _, hess = barrier_h(BALL, k3, x)
        eig = np.sort(np.linalg.eigvalsh(hess))
        tangential = (1.0 - 2.0 * k3 * d) * 1.0 / (1.0 - d)
        assert eig[0] == pytest.approx(tangential, rel=1e-10)
        assert eig[2] == pytest.approx(2.0 * k3, rel=1e-10)


class TestCurvature:
    def test_ball(self):
        _, kappa, _ = boundary_samples(BALL, 100)
        assert np.allclose(kappa, 1.0)
        assert np.allclose(kappa.sum(axis=1), 2.0)

    def test_ellipsoid_axis_endpoints(self):
        # the samples end with the 2n axis endpoints +-a_k e_k, where the
        # curvatures are a_k / a_i^2 for i != k
        a = np.array(EGG.semi_axes)
        pts, kappa, _ = boundary_samples(EGG, 100)
        for j, (y, kap) in enumerate(zip(pts[-6:], kappa[-6:])):
            k = j // 2
            assert np.allclose(np.abs(y), a[k] * np.eye(3)[k])
            want = sorted(a[k] / a[i] ** 2 for i in range(3) if i != k)
            assert np.allclose(kap, want, rtol=1e-10)

    def test_global_extremes(self):
        _, kappa, _ = boundary_samples(EGG, 4000)
        kmax = kappa[:, -1].max()
        kmin = kappa[:, 0].min()
        assert kmax == pytest.approx(EGG.kappa_max_global, rel=1e-6)
        assert kmin == pytest.approx(EGG.kappa_min_global, rel=1e-6)

    def test_samples_are_frames_at_their_points(self):
        for dom in (BALL, EGG, DomainSpec.ellipsoid((1.0, 0.8, 1.1, 1.3))):
            pts, kappa, nu = boundary_samples(dom, 500)
            want_kappa, _, want_nu = _frame_at(dom, pts)
            assert np.array_equal(kappa, want_kappa)
            assert np.array_equal(nu, want_nu)
            assert kappa.shape == (pts.shape[0], dom.n - 1)
            assert np.all(np.diff(kappa, axis=1) >= 0.0)

    def test_mean_curvature_range(self):
        h_ball = mean_curvature_range(DomainSpec.ball(0.5, n=4))
        assert h_ball == (6.0, 6.0)
        _, kappa, _ = boundary_samples(EGG, 4000)
        hs = kappa.sum(axis=1)
        assert mean_curvature_range(EGG) == (hs.min(), hs.max())


class TestPinching:
    def test_ball_passes_with_exact_margin(self):
        for n in (3, 4, 5):
            dom = DomainSpec.ball(1.0, n=n)
            rep = pinching_check(dom)
            assert rep.passes
            want = (n - 1) / (2.0 * (n - 1) * (n - 2))
            assert rep.margin_min == pytest.approx(want)
            assert rep.kappa_spread_max == 0.0

    def test_near_sphere_passes(self):
        rep = pinching_check(DomainSpec.ellipsoid((1.0, 1.0, 1.05)), count=10000)
        assert rep.passes
        assert rep.corollary_passes
        assert rep.corollary_agrees

    def test_eccentric_fails(self):
        rep = pinching_check(DomainSpec.ellipsoid((1.0, 1.0, 3.0)), count=10000)
        assert not rep.passes
        assert not rep.corollary_passes
        assert rep.corollary_agrees

    def test_corollary_matches_theorem_form_pointwise(self):
        for axes in [(1.0, 1.0, 1.05), (1.0, 1.1, 1.21), (1.0, 1.0, 3.0)]:
            rep = pinching_check(DomainSpec.ellipsoid(axes), count=10000)
            assert rep.corollary_agrees

    def test_four_dimensional_tensor_sampling(self):
        near = pinching_check(DomainSpec.ellipsoid((1.0, 1.0, 1.0, 1.03)), count=2000)
        assert near.passes
        assert near.corollary_passes is None  # n = 3 form not defined here
        far = pinching_check(DomainSpec.ellipsoid((1.0, 1.0, 1.0, 2.0)), count=2000)
        assert not far.passes


class TestStripConstants:
    def test_mu0(self):
        assert BALL.mu0 == pytest.approx(1.0)
        assert EGG.mu0 == pytest.approx(min(EGG.semi_axes) ** 2 / max(EGG.semi_axes))

    def test_strip_mu_max(self):
        got = strip_mu_max(BALL, k3=2.0, gamma=0.5)
        assert got == pytest.approx(min(1.0 / 8.0, 1.5 / 4.0, 0.5, 1.0))

    def test_strip_mu_bad_args(self):
        with pytest.raises(ValueError):
            strip_mu_max(BALL, k3=-1.0, gamma=0.5)
        with pytest.raises(ValueError):
            strip_mu_max(BALL, k3=1.0, gamma=1.0)
