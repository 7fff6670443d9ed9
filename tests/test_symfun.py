"""Symmetric-function algebra against brute-force enumeration oracles."""

import math
from itertools import combinations

import numpy as np
import pytest

from nconvex.cone import in_gamma_k, lift_spectrum, m_convexity
from nconvex.symfun import (
    _esym,
    check_identities,
    deleted_symmetric,
    elementary_symmetric,
    newton_maclaurin_margin,
)


def esym_oracle(values, k):
    """S_k by explicit subset enumeration; exponential but independent."""
    vals = list(values)
    if k == 0:
        return 1.0
    return float(sum(math.prod(c) for c in combinations(vals, k)))


def sample_gamma_k(rng, p, k):
    """Rejection-sample a tuple with S_1..S_k all positive."""
    while True:
        lam = rng.uniform(-1.0, 3.0, size=p)
        if all(esym_oracle(lam, i) > 0.0 for i in range(1, k + 1)):
            return lam


SPECTRUM_FUNCTIONS = {
    "elementary_symmetric": lambda lam: elementary_symmetric(lam, 1),
    "deleted_symmetric": lambda lam: deleted_symmetric(lam, 1),
    "check_identities": lambda lam: check_identities(lam, 1),
    "newton_maclaurin_margin": lambda lam: newton_maclaurin_margin(lam, 2, 1),
    "lift_spectrum": lambda lam: lift_spectrum(lam, 1),
    "in_gamma_k": lambda lam: in_gamma_k(lam, 1),
    "m_convexity": lambda lam: m_convexity(lam, 1),
}


class TestSpectrumInput:
    """Every function that takes a spectrum validates it the same way."""

    def test_sorted_descending_positions_as_supplied(self):
        assert np.array_equal(lift_spectrum([1.0, 3.0, 2.0], 1), [3.0, 2.0, 1.0])
        # omit positions count in the supplied order, not the sorted one
        assert deleted_symmetric([1.0, 3.0, 2.0], 1, omit={2}) == 3.0

    @pytest.mark.parametrize("name", SPECTRUM_FUNCTIONS)
    @pytest.mark.parametrize("bad, message", [([1.0, np.nan], "must be finite"),
                                              ([np.inf, 1.0], "must be finite"),
                                              ([], "must be non-empty")],
                             ids=["nan", "inf", "empty"])
    def test_rejects_nan_and_empty(self, name, bad, message):
        with pytest.raises(ValueError, match=message):
            SPECTRUM_FUNCTIONS[name](bad)


class TestElementarySymmetric:
    def test_pinned_values(self):
        assert elementary_symmetric([1.0, 2.0, 3.0], 2) == pytest.approx(11.0)
        assert elementary_symmetric([1.0, 1.0, 1.0], 3) == pytest.approx(1.0)
        assert elementary_symmetric([5.0, -2.0, 0.3], 0) == 1.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            p = int(rng.integers(1, 9))
            lam = rng.standard_normal(p) * 2.0
            k = int(rng.integers(0, p + 1))
            got = elementary_symmetric(lam, k)
            want = esym_oracle(lam, k)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_one_pass_gives_every_degree_bitwise(self):
        # S_i from a pass capped at p equals S_i from a pass capped at i
        rng = np.random.default_rng(61)
        for _ in range(200):
            p = int(rng.integers(1, 21))
            lam = np.sort(rng.standard_normal(p) * rng.uniform(0.1, 10.0))[::-1]
            want = [elementary_symmetric(lam, i) for i in range(p + 1)]
            assert _esym(lam, p) == want

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        lam = rng.standard_normal(6)
        shuffled = lam[rng.permutation(6)]
        for k in range(7):
            assert elementary_symmetric(lam, k) == elementary_symmetric(shuffled, k)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            elementary_symmetric([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            elementary_symmetric([1.0, 2.0], -1)


class TestDeletedSymmetric:
    def test_pinned_values(self):
        # positions refer to the tuple as supplied
        assert deleted_symmetric([1.0, 2.0, 3.0], 1, omit={1}) == pytest.approx(5.0)
        assert deleted_symmetric([1.0, 1.0, 1.0], 2, omit={1}) == pytest.approx(1.0)
        assert deleted_symmetric([1.0, 2.0, 3.0], 2, omit={1, 2}) == pytest.approx(0.0)

    def test_matches_zeroed_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = int(rng.integers(2, 8))
            lam = rng.standard_normal(p)
            k = int(rng.integers(1, p + 1))
            i, j = rng.choice(p, size=2, replace=False) + 1
            work = lam.copy()
            work[[i - 1, j - 1]] = 0.0
            got = deleted_symmetric(lam, k, omit=(int(i), int(j)))
            assert got == pytest.approx(esym_oracle(work, k), rel=1e-12, abs=1e-12)

    def test_duplicate_omit_rejected(self):
        with pytest.raises(ValueError):
            deleted_symmetric([1.0, 2.0, 3.0], 1, omit=(2, 2))

    def test_omit_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            deleted_symmetric([1.0, 2.0], 1, omit=(3,))


class TestIdentities:
    def test_pinned_example(self):
        rep = check_identities([1.0, 2.0, 3.0], 2)
        assert rep.max_absolute == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_point(self):
        rep = check_identities([1.0, 1.0, 1.0], 2)
        assert rep.max_absolute == pytest.approx(0.0, abs=1e-13)
        # S_2 = 3 decomposes as 1 + 1*2
        assert elementary_symmetric([1.0, 1.0, 1.0], 2) == pytest.approx(
            deleted_symmetric([1.0, 1.0, 1.0], 2, omit={1})
            + 1.0 * deleted_symmetric([1.0, 1.0, 1.0], 1, omit={1})
        )

    def test_random_sweep_relative_tolerance(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            p = int(rng.integers(1, 11))
            lam = rng.standard_normal(p) * rng.uniform(0.1, 10.0)
            k = int(rng.integers(1, p + 1))
            rep = check_identities(lam, k)
            assert rep.max_relative < 1e-12


class TestNewtonMaclaurin:
    def test_equality_at_symmetric_point(self):
        assert newton_maclaurin_margin([1.0, 1.0, 1.0], 2, 1) == pytest.approx(0.0, abs=1e-14)

    def test_pinned_value(self):
        got = newton_maclaurin_margin([1.0, 2.0, 3.0], 2, 1)
        assert got == pytest.approx(2.0 - math.sqrt(11.0 / 3.0), rel=1e-12)

    def test_positive_case(self):
        assert newton_maclaurin_margin([3.0, 1.0, 0.1], 3, 1) > 0.0

    def test_l_zero_reads_as_one(self):
        lam = [2.0, 2.0, 2.0]
        got = newton_maclaurin_margin(lam, 1, 0)
        assert got == pytest.approx(1.0 - 2.0, rel=1e-14)

    def test_k_le_l_rejected(self):
        with pytest.raises(ValueError):
            newton_maclaurin_margin([1.0, 2.0, 3.0], 1, 1)

    def test_nonnegative_on_cone_samples(self):
        # the mean-comparison inequality is scale-invariant only for l >= 1;
        # the l = 0 convention ("read as 1") is a fixed constant and is not
        # part of the nonnegativity property
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = int(rng.integers(2, 8))
            k = int(rng.integers(2, p + 1)) if p > 1 else 1
            lam = sample_gamma_k(rng, p, k)
            for l in range(1, k):
                assert newton_maclaurin_margin(lam, k, l) >= -1e-12

    def test_gradient_sum_lower_bound(self):
        # sum_i d(S_k^(1/k))/d lam_i >= C(p,k)^(1/k), derivative assembled
        # from deleted symmetric functions
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = int(rng.integers(2, 8))
            k = int(rng.integers(1, p + 1))
            lam = sample_gamma_k(rng, p, k)
            sk = elementary_symmetric(lam, k)
            grad_sum = (
                sk ** (1.0 / k - 1.0)
                / k
                * sum(deleted_symmetric(lam, k - 1, omit={i + 1}) for i in range(p))
            )
            assert grad_sum >= math.comb(p, k) ** (1.0 / k) - 1e-10


def same_bits(got, want):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


class TestStacks:
    """A (..., p) stack evaluated at once equals the row-by-row calls bit for bit."""

    def test_esym_matches_rows(self):
        rng = np.random.default_rng(67)
        for p in range(1, 11):
            lam = rng.standard_normal((30, p)) * rng.uniform(0.1, 10.0, size=(30, 1))
            for k in range(1, p + 1):
                e = _esym(lam, k)
                assert e[0] == 1.0
                stacked = np.stack(e[1:], axis=-1)
                for row, want in zip(stacked, lam):
                    assert same_bits(row, _esym(want, k)[1:]), (p, k)

    def test_identities_match_rows(self):
        rng = np.random.default_rng(71)
        for p in range(1, 11):
            lam = rng.standard_normal((30, p)) * rng.uniform(0.1, 10.0, size=(30, 1))
            for k in range(1, p + 1):
                rep = check_identities(lam, k)
                for r in range(lam.shape[0]):
                    want = check_identities(lam[r], k)
                    for field in ("decomposition", "weighted_sum", "deleted_sum", "scale",
                                  "max_relative"):
                        assert same_bits(getattr(rep, field)[r], getattr(want, field)), field

    def test_margins_match_rows(self):
        # S_k and S_l match bit for bit; numpy's vectorised power may round
        # the k-th and l-th roots one ulp away from the C library's pow
        rng = np.random.default_rng(79)
        for p in range(2, 9):
            for k in range(1, p + 1):
                lam = np.stack([sample_gamma_k(rng, p, k) for _ in range(20)])
                for l in range(k):
                    got = newton_maclaurin_margin(lam, k, l)
                    assert got.shape == (20,)
                    want = [newton_maclaurin_margin(row, k, l) for row in lam]
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_one_tuple_outside_the_cone_rejects_the_margin_stack(self):
        lam = np.array([[1.0, 2.0, 3.0], [1.0, -2.0, 3.0]])
        with pytest.raises(ValueError, match="S_k must be positive"):
            newton_maclaurin_margin(lam, 2, 1)

    def test_deeper_stack_and_symmetric_functions(self):
        rng = np.random.default_rng(73)
        lam = rng.standard_normal((2, 3, 5))
        flat = lam.reshape(-1, 5)
        for k in range(6):
            got = elementary_symmetric(lam, k)
            assert np.shape(got) in ((), (2, 3))
            want = [elementary_symmetric(row, k) for row in flat]
            assert same_bits(np.broadcast_to(got, (2, 3)).reshape(-1), want)
            got = deleted_symmetric(lam, k, omit=(2, 4))
            want = [deleted_symmetric(row, k, omit=(2, 4)) for row in flat]
            assert same_bits(np.broadcast_to(got, (2, 3)).reshape(-1), want)
        # the deleted tuples of every row run as one (5, 2, 3, 5) stack; a signed
        # zero checks that tuple i zeroes entry i of its own row only
        lam[1, 2, 3] = -0.0
        for k in range(1, 6):
            rep = check_identities(lam, k)
            assert rep.max_relative.shape == (2, 3)
            for field in ("decomposition", "weighted_sum", "deleted_sum", "scale",
                          "max_relative"):
                got = getattr(rep, field)
                want = [getattr(check_identities(row, k), field) for row in flat]
                assert same_bits(got.reshape(-1), want), (k, field)

    def test_one_bad_row_rejects_the_stack(self):
        lam = np.ones((4, 3))
        lam[2, 1] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            check_identities(lam, 2)
