"""Lift assembly, determinant, gradient, and concavity checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nconvex.cone import lift_spectrum
from nconvex.symfun import deleted_symmetric
from nconvex.woperator import (
    MAX_LIFT_DIM,
    assemble_w,
    batch_det_w,
    batch_linearization,
    batch_min_lift_eig,
    concavity_probe,
    det_w,
    linearization,
    multi_indices,
)


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


def random_admissible(rng, n, m):
    """Random symmetric matrix whose m-subset eigenvalue sums are positive."""
    mu = rng.uniform(-0.5, 2.0, size=n)
    smallest = np.sort(mu)[:m].sum()
    if smallest <= 0.1:
        mu += (0.1 - smallest) / m + 0.05
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * mu) @ q.T


def reference_w_3d(h):
    """The fully explicit 3x3 lift for n=3, m=2."""
    return np.array(
        [
            [h[0, 0] + h[1, 1], h[1, 2], -h[0, 2]],
            [h[2, 1], h[0, 0] + h[2, 2], h[0, 1]],
            [-h[2, 0], h[1, 0], h[1, 1] + h[2, 2]],
        ]
    )


def fd_gradient(h, m, step=1e-5):
    """Central differences of det_w under symmetric entry perturbations."""
    n = h.shape[0]
    grad = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            e[j, i] = 1.0
            diff = (det_w(h + step * e, m) - det_w(h - step * e, m)) / (2.0 * step)
            # symmetric perturbation moves both entries when i != j
            grad[i, j] = diff / (2.0 if i != j else 1.0)
            grad[j, i] = grad[i, j]
    return grad


class TestMultiIndices:
    def test_dictionary_order_n3_m2(self):
        labels = multi_indices(3, 2)
        assert labels == ((1, 2), (1, 3), (2, 3))

    def test_count(self):
        assert len(multi_indices(6, 3)) == 20

    def test_lift_dim_cap(self):
        with pytest.raises(ValueError):
            assemble_w(np.eye(8), 4)  # C(8,4)=70 > cap
        assert math.comb(6, 3) == MAX_LIFT_DIM


class TestAssembly:
    def test_explicit_3d_conformance(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            h = random_symmetric(rng, 3)
            got = assemble_w(h, 2)
            assert np.array_equal(got, reference_w_3d(h))

    def test_identity_hessian(self):
        got = assemble_w(np.eye(3), 2)
        assert np.array_equal(got, 2.0 * np.eye(3))

    def test_diagonal_hessian(self):
        got = assemble_w(np.diag([1.0, 2.0, 3.0]), 2)
        assert np.array_equal(got, np.diag([3.0, 4.0, 5.0]))

    def test_symmetry_and_diagonality(self):
        rng = np.random.default_rng(3)
        for n, m in [(4, 2), (5, 3), (6, 5)]:
            h = random_symmetric(rng, n)
            w = assemble_w(h, m)
            assert np.array_equal(w, w.T)
            wd = assemble_w(np.diag(np.diag(h)), m)
            assert np.array_equal(wd, np.diag(np.diag(wd)))

    def test_asymmetric_input_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            assemble_w(bad, 1)

    def test_spectral_identity_all_m(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            h = random_symmetric(rng, n, scale=2.0)
            mu = np.linalg.eigvalsh(h)
            for m in range(1, n + 1):
                w = assemble_w(h, m)
                got = np.sort(np.linalg.eigvalsh(w))
                want = np.sort(lift_spectrum(mu, m))
                assert np.max(np.abs(got - want)) < 1e-9


class TestDeterminant:
    def test_pinned_values(self):
        assert det_w(np.eye(3), 2) == pytest.approx(8.0)
        assert det_w(np.eye(4), 3) == pytest.approx(81.0)

    def test_product_formula_via_spectrum(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        h = (q * np.array([1.0, 2.0, 3.0])) @ q.T
        assert det_w(h, 2) == pytest.approx(60.0, rel=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            h = random_symmetric(rng, n)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = det_w(h, m)
            b = det_w(q.T @ h @ q, m)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-9)


class TestLinearization:
    def test_identity_hessian(self):
        grad = linearization(np.eye(3), 2)
        assert np.allclose(grad, 8.0 * np.eye(3), atol=1e-12)

    def test_diagonal_formula(self):
        # for diagonal input the gradient diagonal sums the deleted
        # symmetric functions of the lift over labels containing the index
        h = np.diag([1.0, 2.0, 3.0])
        lam = [3.0, 4.0, 5.0]  # lifted diagonal, dictionary order
        grad = linearization(h, 2)
        labels = multi_indices(3, 2)
        for i in range(3):
            want = sum(
                deleted_symmetric(lam, 2, omit={order})
                for order, lbl in enumerate(labels, start=1)
                if (i + 1) in lbl
            )
            assert grad[i, i] == pytest.approx(want, rel=1e-12)
        assert np.allclose(grad - np.diag(np.diag(grad)), 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n + 1))
            h = random_admissible(rng, n, m)
            grad = linearization(h, m)
            fd = fd_gradient(h, m)
            scale = np.max(np.abs(fd)) + 1e-30
            assert np.max(np.abs(grad - fd)) / scale < 1e-5

    def test_symmetric_output(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            h = random_symmetric(rng, 4)
            grad = linearization(h, 2)
            assert np.array_equal(grad, grad.T)

    def test_repeated_eigenvalues_stable(self):
        # adjugate route is exact even with a degenerate spectrum
        h = np.diag([2.0, 2.0, 2.0, 5.0])
        grad = linearization(h, 3)
        fd = fd_gradient(h, 3)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-6

    def test_eigenbasis_oracle(self):
        # rotate to the eigenbasis, apply the diagonal formula, rotate back
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n + 1))
            h = random_symmetric(rng, n)
            mu, q = np.linalg.eigh(h)
            # perturb away from degeneracies to keep the oracle valid
            if np.min(np.diff(np.sort(mu))) < 1e-3:
                continue
            grad_diag = linearization(np.diag(mu), m)
            oracle = q @ grad_diag @ q.T
            got = linearization(h, m)
            scale = np.max(np.abs(oracle)) + 1e-30
            assert np.max(np.abs(got - oracle)) / scale < 1e-9

    def test_euler_homogeneity(self):
        # det(W) is homogeneous of degree p in the Hessian
        rng = np.random.default_rng(37)
        for n, m in [(3, 2), (4, 3), (4, 2)]:
            h = random_symmetric(rng, n)
            p = math.comb(n, m)
            grad = linearization(h, m)
            assert np.sum(grad * h) == pytest.approx(p * det_w(h, m), rel=1e-9, abs=1e-9)


class TestConcavityProbe:
    def test_equal_points(self):
        assert concavity_probe(np.eye(3), np.eye(3), 2) == pytest.approx(0.0, abs=1e-13)

    def test_pinned_pair(self):
        assert concavity_probe(np.eye(3), np.diag([1.0, 2.0, 3.0]), 2) >= 0.0

    def test_random_pairs_nonnegative(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            n = int(rng.integers(3, 6))
            m = n - 1
            a = random_admissible(rng, n, m)
            b = random_admissible(rng, n, m)
            assert concavity_probe(a, b, m) >= -1e-10

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            concavity_probe(-np.eye(3), np.eye(3), 2)


class TestLiftedConeBound:
    def test_top_entry_dominates_share_of_det(self):
        # lam_1 * S_{p-1}(lam | 1) >= S_p for lifted spectra in the top cone
        rng = np.random.default_rng(47)
        for _ in range(200):
            n = int(rng.integers(3, 6))
            m = n - 1
            h = random_admissible(rng, n, m)
            lam = lift_spectrum(np.linalg.eigvalsh(h), m)
            top = lam[0]
            rest = deleted_symmetric(lam, lam.size - 1, omit={1})
            assert top * rest >= np.prod(lam) - 1e-10 * abs(np.prod(lam))


class TestBatchHelpers:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(53)
        hs = np.stack([random_admissible(rng, 3, 2) for _ in range(20)])
        dets = batch_det_w(hs)
        grads = batch_linearization(hs)
        mins = batch_min_lift_eig(hs)
        for i in range(20):
            assert dets[i] == pytest.approx(det_w(hs[i], 2), rel=1e-12)
            assert np.allclose(grads[i], linearization(hs[i], 2), rtol=1e-9, atol=1e-9)
            w = assemble_w(hs[i], 2)
            assert mins[i] == pytest.approx(np.linalg.eigvalsh(w)[0], rel=1e-12)


# -- the M identities at m = n - 1 ------------------------------------------


@st.composite
def symmetric_stacks(draw):
    """(k, n, n) stacks of symmetric matrices with n = 3..6."""
    n = draw(st.integers(3, 6))
    k = draw(st.integers(1, 4))
    entries = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    a = np.array(draw(st.lists(entries, min_size=k * n * n, max_size=k * n * n)))
    a = a.reshape(k, n, n)
    return 0.5 * (a + np.swapaxes(a, 1, 2))


@st.composite
def singular_m_stacks(draw):
    """Stacks whose M = tr(H) I - H is exactly singular, with integer entries.

    One Hessian is a permuted diagonal whose M has one or two zero
    eigenvalues; one is tr(G) I - (n-1) G for G = B B^T of rank below n,
    so that M = (n-1) G.
    """
    n = draw(st.integers(3, 6))
    lam = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    if draw(st.booleans()):
        lam[n - 2] = lam[n - 1]  # then mu_{n-2} = mu_{n-1}
    lam[0] = -sum(lam[1:n - 1])  # mu_{n-1} = sum of lam_j, j != n-1, is 0
    perm = draw(st.permutations(range(n)))
    diag = np.diag(np.array(lam, dtype=float)[perm])
    rank = draw(st.integers(1, n - 1))
    b = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * rank,
                               max_size=n * rank)), dtype=float).reshape(n, rank)
    g = b @ b.T
    gram = np.trace(g) * np.eye(n) - (n - 1) * g
    return np.stack([diag, gram])


def assert_batch_matches_lift(hs):
    n = hs.shape[-1]
    dets, grads, mins = batch_det_w(hs), batch_linearization(hs), batch_min_lift_eig(hs)
    assert np.all(np.isfinite(grads))
    for h, det, grad, low in zip(hs, dets, grads, mins):
        lifted = np.linalg.eigvalsh(assemble_w(h, n - 1))
        scale = max(1.0, float(np.max(np.abs(lifted))))
        assert abs(det - det_w(h, n - 1)) <= 1e-12 * scale**n
        assert np.max(np.abs(grad - linearization(h, n - 1))) <= 1e-12 * scale ** (n - 1)
        assert abs(low - lifted[0]) <= 1e-12 * scale


class TestMIdentities:
    """The batch kernels work on M; the scalar lift at m = n - 1 is the reference."""

    @settings(deadline=None)
    @given(symmetric_stacks())
    # a subnormal and a 1e-147 off-diagonal, on which LAPACK's eigvalsh is off by 8e-3
    @example(np.array([[[0.0, 1.57830108e-147, 1.11253693e-308],
                        [1.57830108e-147, 1.0, 1.5],
                        [1.11253693e-308, 1.5, 0.0]]]))
    def test_batch_kernels_match_lift(self, hs):
        assert_batch_matches_lift(hs)

    @settings(deadline=None)
    @given(singular_m_stacks())
    def test_singular_m_gradient_is_finite_and_matches(self, hs):
        assert batch_det_w(hs)[0] == 0.0  # the permuted diagonal's M is exactly singular
        assert_batch_matches_lift(hs)


class TestStacks:
    """A (..., n, n) stack evaluated at once equals the Hessian-by-Hessian calls bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lift_det_and_gradient_match_rows(self, n):
        rng = np.random.default_rng(89 + n)
        hs = np.stack([random_symmetric(rng, n, 2.0) for _ in range(6)])
        for m in range(1, n + 1):
            w, det = assemble_w(hs, m), det_w(hs, m)
            grad = linearization(hs, m) if n <= 4 else None
            for r, h in enumerate(hs):
                assert w[r].tobytes() == np.ascontiguousarray(assemble_w(h, m)).tobytes()
                assert det[r].tobytes() == np.float64(det_w(h, m)).tobytes()
                if grad is not None:
                    assert grad[r].tobytes() == linearization(h, m).tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_concavity_probe_matches_rows(self, n):
        rng = np.random.default_rng(97 + n)
        a = np.stack([random_admissible(rng, n, n - 1) for _ in range(50)])
        b = np.stack([random_admissible(rng, n, n - 1) for _ in range(50)])
        gaps = concavity_probe(a, b, n - 1)
        assert gaps.shape == (50,)
        for r in range(50):
            assert gaps[r].tobytes() == np.float64(concavity_probe(a[r], b[r], n - 1)).tobytes()
            # the roots are the C library's pow on Python floats, whose last
            # bit numpy's vectorized power does not always reproduce
            sa, sb = 0.5 * (a[r] + a[r].T), 0.5 * (b[r] + b[r].T)
            root = 1.0 / n
            want = float(det_w(0.5 * (sa + sb), n - 1)) ** root - 0.5 * (
                float(det_w(sa, n - 1)) ** root + float(det_w(sb, n - 1)) ** root)
            assert gaps[r] == want
        deeper = concavity_probe(a.reshape(5, 10, n, n), b.reshape(5, 10, n, n), n - 1)
        assert deeper.reshape(-1).tobytes() == gaps.tobytes()

    def test_one_asymmetric_hessian_rejects_the_stack(self):
        hs = np.stack([np.eye(3)] * 4)
        hs[2, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="Hessian must be symmetric"):
            assemble_w(hs, 2)
        with pytest.raises(ValueError, match="Hessian must be symmetric"):
            concavity_probe(np.stack([np.eye(3)] * 4), hs, 2)

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_one_inadmissible_hessian_is_named(self, which):
        good = np.stack([np.eye(3)] * 4)
        bad = good.copy()
        bad[1] = np.diag([1.0, 1.0, -3.0])  # smallest pair sum -2
        args = (bad, good) if which == "first" else (good, bad)
        with pytest.raises(ValueError, match=f"^{which} Hessian is not strictly 2-convex$"):
            concavity_probe(*args, 2)
