"""Cone membership and m-convexity classification."""

import math
from itertools import combinations

import numpy as np
import pytest

from nconvex.cone import Convexity, _smallest_m_sum, in_gamma_k, lift_spectrum, m_convexity
from nconvex.symfun import elementary_symmetric


def lift_oracle(mu, m):
    return sorted((sum(c) for c in combinations(mu, m)), reverse=True)


class TestConeSpec:
    """The generalized cone's parameters: dimension n, subset size m, level k <= C(n, m)."""

    def test_binomial_dimension(self):
        assert lift_spectrum(np.ones(6), 3).size == 20
        assert in_gamma_k(lift_spectrum(np.ones(6), 3), 20)

    @pytest.mark.parametrize("n,m,k", [(3, 0, 1), (3, 4, 1), (3, 2, 0), (3, 2, 4)])
    def test_invalid_ranges(self, n, m, k):
        with pytest.raises(ValueError, match="out of range"):
            in_gamma_k(lift_spectrum(np.ones(n), m), k)


class TestLiftSpectrum:
    def test_pinned_values(self):
        assert np.allclose(lift_spectrum([1.0, 2.0, 3.0], 2), [5.0, 4.0, 3.0])
        assert np.allclose(lift_spectrum([1.0, 1.0, 1.0], 2), [2.0, 2.0, 2.0])
        assert np.allclose(lift_spectrum([-1.0, 2.0, 2.0], 2), [4.0, 1.0, 1.0])

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            mu = rng.standard_normal(n) * 3.0
            got = lift_spectrum(mu, m)
            assert np.allclose(got, lift_oracle(mu, m), atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(23)
        mu = rng.standard_normal(5)
        a = lift_spectrum(mu, 3)
        b = lift_spectrum(mu[rng.permutation(5)], 3)
        assert np.array_equal(a, b)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            lift_spectrum([1.0, 2.0], 3)

    def test_subset_sums_add_left_to_right(self):
        # 1e16 + 1 rounds back to 1e16, so the plain sum of the one 3-subset
        # is 0, as in a stack; a compensated sum (the builtin's from Python
        # 3.12 on) would give 1
        mu = [1e16, 1.0, -1e16]
        assert lift_spectrum(mu, 3).tolist() == [0.0]
        assert lift_spectrum(np.array([mu, mu]), 3).tolist() == [[0.0], [0.0]]


class TestGammaK:
    def test_pinned_values(self):
        assert in_gamma_k([1.0, 1.0, 1.0], 3)
        assert not in_gamma_k([-2.0, 1.0, 1.0], 2)  # S_2 = -3
        # S_1 = 3.5, S_2 = 1.0: both positive
        assert in_gamma_k([3.0, 1.0, -0.5], 2)
        # one tuple is read as Python floats: a 0-d input is a 1-tuple, and
        # integers are converted the way numpy converts them
        assert in_gamma_k(np.float64(2.0), 1) is True
        assert in_gamma_k(-0.0, 1) is False
        assert in_gamma_k([3, 2, -1], 2) is True  # S_1 = 4, S_2 = 1, S_3 = -6
        assert in_gamma_k([3, 2, -1], 3) is False

    def test_definition_against_esym(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = int(rng.integers(1, 7))
            lam = rng.uniform(-2.0, 3.0, size=p)
            k = int(rng.integers(1, p + 1))
            want = all(elementary_symmetric(lam, i) > 0.0 for i in range(1, k + 1))
            assert in_gamma_k(lam, k) == want


class TestMConvexity:
    def test_strict_without_convexity(self):
        assert m_convexity([-1.0, 2.0, 2.0], 2) is Convexity.STRICT

    def test_none(self):
        assert m_convexity([-3.0, 1.0, 1.0], 2) is Convexity.NONE

    def test_weak_boundary(self):
        # smallest pair sum is exactly zero
        assert m_convexity([-1.0, 1.0, 1.0], 2) is Convexity.WEAK
        assert m_convexity([0.0, 1.0, 1.0], 1) is Convexity.WEAK

    def test_min_subset_shortcut_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            mu = rng.uniform(-2.0, 2.0, size=n)
            smallest = min(sum(c) for c in combinations(mu, m))
            got = m_convexity(mu, m)
            if smallest > 0:
                assert got is Convexity.STRICT
            elif smallest >= 0:
                assert got is Convexity.WEAK
            else:
                assert got is Convexity.NONE

    def test_agrees_with_lifted_cone_membership(self):
        # strict m-convexity == lifted spectrum in the top cone, both routes
        rng = np.random.default_rng(41)
        cases = 10000
        hits = 0
        for _ in range(cases):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            mu = rng.uniform(-1.0, 2.0, size=n)
            lifted = lift_spectrum(mu, m)
            via_cone = in_gamma_k(lifted, lifted.size) and np.all(lifted > 0.0)
            via_minsum = m_convexity(mu, m) is Convexity.STRICT
            assert via_cone == via_minsum
            hits += via_minsum
        assert 0 < hits < cases  # both branches exercised


class TestConeNesting:
    def test_top_cone_inside_every_generalized_cone_inside_gamma1(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            mu_pos = rng.uniform(0.05, 2.0, size=n)  # in the top cone
            mu_bad = rng.uniform(-2.0, 2.0, size=n)
            for m in range(1, n + 1):
                p = math.comb(n, m)
                lifted = lift_spectrum(mu_pos, m)
                for k in range(1, p + 1):
                    assert in_gamma_k(lifted, k)
            if np.sum(mu_bad) <= 0.0:  # fails S_1, must fail every lifted test
                for m in range(1, n + 1):
                    lifted = lift_spectrum(mu_bad, m)
                    for k in range(1, lifted.size + 1):
                        assert not in_gamma_k(lifted, k)


class TestStacks:
    """A (..., n) stack evaluated at once equals the row-by-row calls bit for bit."""

    def test_lift_gamma_and_smallest_sum_match_rows(self):
        rng = np.random.default_rng(79)
        for n in range(1, 7):
            for m in range(1, n + 1):
                mu = rng.uniform(-1.0, 2.0, size=(40, n))
                mu[0] = 0.0
                mu[1, 0] = -0.0
                lifted = lift_spectrum(mu, m)
                assert lifted.shape == (40, math.comb(n, m))
                members = in_gamma_k(lifted, lifted.shape[-1])
                smallest = _smallest_m_sum(mu, m)
                for r in range(40):
                    row = lift_spectrum(mu[r], m)
                    assert lifted[r].tobytes() == row.tobytes()
                    assert members[r] == in_gamma_k(row, row.size)
                    assert smallest[r].tobytes() == _smallest_m_sum(mu[r], m).tobytes()
                    verdict = m_convexity(mu[r], m)
                    assert (smallest[r] > 0.0) == (verdict is Convexity.STRICT)

    def test_in_gamma_k_every_level(self):
        rng = np.random.default_rng(83)
        lam = rng.uniform(-1.0, 3.0, size=(200, 6))
        verdicts = set()
        for k in range(1, 7):
            got = in_gamma_k(lam, k)
            assert got.dtype == bool
            assert got.tolist() == [in_gamma_k(row, k) for row in lam]
            verdicts.update(got.tolist())
        assert verdicts == {True, False}

    def test_ranges_checked_on_the_last_axis(self):
        with pytest.raises(ValueError, match="out of range"):
            lift_spectrum(np.ones((5, 3)), 4)
        with pytest.raises(ValueError, match="out of range"):
            in_gamma_k(np.ones((5, 3)), 4)
