import cmath
import math

import numpy as np
import pytest

from mubkit.gauss import GaussSumParams, check_factoring, gauss_sum, mub_gauss_params

TEST_PRIMES = (2, 3, 5, 7, 11, 13)


def brute_sum(u, v, w, reverse=False, reduce_phase=True):
    """Direct term-by-term evaluation, optionally in reversed order.

    With ``reduce_phase`` the terms are the same exact unit-circle values
    the implementation uses, so any disagreement isolates accumulation
    order; without it the raw phase arguments give a fully independent but
    slightly noisier value.
    """
    ks = range(abs(w) - 1, -1, -1) if reverse else range(abs(w))
    total = 0.0 + 0.0j
    for k in ks:
        exponent = k * (u * k + v)
        if reduce_phase:
            exponent %= 2 * w
        total += cmath.exp(1j * math.pi * exponent / w)
    return total


def random_valid_params(rng, max_w=60):
    """A seeded parameter triple satisfying all validity conditions."""
    while True:
        w = int(rng.integers(1, max_w))
        u = int(rng.integers(-30, 31))
        if u == 0 or math.gcd(u, w) != 1:
            continue
        v = int(rng.integers(-30, 31))
        if (u * w + v) % 2 != 0:
            v += 1
        return GaussSumParams(u=u, v=v, w=w)


class TestGaussSumParams:
    def test_accepts_single_term(self):
        params = GaussSumParams(u=1, v=1, w=1)
        assert params.length == 1

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError, match="gcd"):
            GaussSumParams(u=2, v=0, w=4)

    def test_rejects_zero_product(self):
        with pytest.raises(ValueError, match="nonzero"):
            GaussSumParams(u=0, v=2, w=3)

    def test_rejects_odd_parity(self):
        with pytest.raises(ValueError, match="even"):
            GaussSumParams(u=1, v=0, w=1)

    def test_reports_all_violations_together(self):
        with pytest.raises(ValueError) as excinfo:
            GaussSumParams(u=2, v=1, w=4)
        message = str(excinfo.value)
        assert "gcd" in message and "even" in message

    def test_coerces_integer_like_values(self):
        params = GaussSumParams(u=np.int64(1), v=np.int64(1), w=np.int64(1))
        assert isinstance(params.u, int)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            GaussSumParams(u=1.0, v=1, w=1)

    @pytest.mark.parametrize("field", ["u", "v", "w"])
    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_booleans(self, field, value):
        # GaussSumParams(u=True, v=1, w=3) once passed as u = 1.
        kwargs = {"u": 1, "v": 1, "w": 3, field: value}
        with pytest.raises(TypeError, match=rf"^{field} must be an integer, got {value!r}$"):
            GaussSumParams(**kwargs)

    def test_negative_w_length(self):
        params = GaussSumParams(u=1, v=1, w=-3)
        assert params.length == 3


class TestGaussSum:
    def test_single_term(self):
        assert gauss_sum(GaussSumParams(u=1, v=1, w=1)) == pytest.approx(1.0)

    def test_three_term_value(self):
        value = gauss_sum(GaussSumParams(u=2, v=0, w=3))
        expected = 1 + 2 * cmath.exp(2j * math.pi / 3)
        assert value == pytest.approx(expected, abs=1e-14)
        assert value == pytest.approx(1j * math.sqrt(3), abs=1e-14)
        assert abs(value) ** 2 == pytest.approx(3.0, abs=1e-12)

    def test_matches_reversed_order_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            params = random_valid_params(rng)
            value = gauss_sum(params)
            check = brute_sum(params.u, params.v, params.w, reverse=True)
            assert abs(value - check) < 1e-12

    def test_matches_raw_phase_evaluation(self):
        # Independent value route: no phase reduction at all.  Large raw
        # arguments cost a few digits, hence the looser bound.
        rng = np.random.default_rng(29)
        for _ in range(25):
            params = random_valid_params(rng)
            value = gauss_sum(params)
            check = brute_sum(params.u, params.v, params.w, reduce_phase=False)
            assert abs(value - check) < 1e-10

    def test_compensated_path_for_long_sums(self):
        # 1009 is prime, so (u=2, v=0) is valid: gcd(2, 1009) = 1 and
        # u*w + v is even.  The modulus identity pins the answer.
        params = GaussSumParams(u=2, v=0, w=1009)
        value = gauss_sum(params)
        assert abs(abs(value) ** 2 - 1009) < 1e-9
        check = brute_sum(2, 0, 1009, reverse=True)
        assert abs(value - check) < 1e-10

    def test_reduced_phases_stay_accurate_for_large_labels(self):
        # Exponents grow quadratically with k; the mod-2w reduction keeps
        # every term on the unit circle at full precision.
        params = GaussSumParams(u=101, v=101, w=997)
        assert abs(abs(gauss_sum(params)) ** 2 - 997) < 1e-9

    def test_within_roundoff_of_the_direct_sum(self):
        # The reciprocity steps against the exactly rounded sum of the terms
        # on reduced phases, both signs of w.
        rng = np.random.default_rng(30)
        for _ in range(300):
            params = random_valid_params(rng, max_w=1001)
            if rng.integers(2):
                params = GaussSumParams(u=params.u, v=params.v, w=-params.w)
            u, v, w = params.u, params.v, params.w
            terms = [
                cmath.exp(1j * math.pi * ((k * (u * k + v)) % (2 * w)) / w) for k in range(abs(w))
            ]
            direct = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
            assert abs(gauss_sum(params) - direct) <= 1e-14 * math.sqrt(abs(w))

    @pytest.mark.parametrize("p, quarter", [(1_000_000_007, 1j), (1_000_000_009, 1)])
    def test_classical_gauss_sums_at_a_billion(self, traced_peak, p, quarter):
        # Gauss: sum_k exp(2 pi i k^2 / p) is sqrt(p) for a prime p = 1 mod 4
        # and i sqrt(p) for p = 3 mod 4.  A billion terms are never formed.
        values = []
        _, peak = traced_peak(lambda: values.append(gauss_sum(GaussSumParams(u=2, v=0, w=p))))
        assert peak < 100_000
        assert abs(values[0] - quarter * math.sqrt(p)) <= 1e-14 * math.sqrt(p)

    @pytest.mark.parametrize(
        "w",
        [10**400 + 1, -(10**400 + 1), 2**1024 - 2**976 + 1],
        ids=["10**400+1", "-(10**400+1)", "2**1024-2**976+1"],
    )
    def test_length_beyond_the_float_range_is_refused(self, w):
        # Valid parameters above the largest accepted |w|, 10**400 + 1 among
        # them, whose sqrt|w| is no float: a ValueError naming that bound, not
        # an OverflowError.
        with pytest.raises(ValueError, match=r"^\|w\| must be at most 2\*\*1024 - 2\*\*976 "):
            gauss_sum(GaussSumParams(u=1, v=1, w=w))

    @pytest.mark.parametrize(
        "w",
        [2**1024 - 2**976, -(2**1024 - 2**976), 2**1023 + 1],
        ids=["2**1024-2**976", "-(2**1024-2**976)", "2**1023+1"],
    )
    def test_largest_accepted_length_keeps_the_modulus(self, w):
        v = w % 2  # u = 1: u*w + v is even
        modulus_sq = abs(gauss_sum(GaussSumParams(u=1, v=v, w=w))) ** 2
        assert abs(modulus_sq - abs(w)) <= 1e-15 * abs(w)


class TestMubGaussParams:
    def test_direct_substitution(self):
        params = mub_gauss_params(1, 0, 0, 0, d=3)
        assert (params.u, params.v, params.w) == (1, -1, 3)

    def test_negative_u_case(self):
        params = mub_gauss_params(0, 1, 1, 0, d=5)
        assert (params.u, params.v, params.w) == (-1, 5, 5)

    def test_rejects_equal_bases(self):
        with pytest.raises(ValueError, match="differ"):
            mub_gauss_params(1, 1, 0, 2, d=3)

    def test_rejects_composite_dimension(self):
        with pytest.raises(ValueError, match="prime"):
            mub_gauss_params(1, 0, 0, 0, d=6)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match="label"):
            mub_gauss_params(3, 0, 0, 0, d=3)

    @pytest.mark.parametrize(
        "name,value,labels",
        [
            ("a", True, (True, 0, 0, 0)),
            ("b", 0.0, (1, 0.0, 0, 0)),
            ("alpha", 1.5, (1, 0, 1.5, 0)),
            ("beta", False, (1, 0, 0, False)),
        ],
    )
    def test_refuses_non_integer_labels(self, name, value, labels):
        # True once read as basis 1, here and in check_factoring.
        match = rf"^{name} must be an integer, got {value!r}$"
        with pytest.raises(TypeError, match=match):
            mub_gauss_params(*labels, d=5)
        with pytest.raises(TypeError, match=match):
            check_factoring(*labels, d=5)

    @pytest.mark.parametrize("d", TEST_PRIMES)
    def test_modulus_identity_small_primes(self, d):
        for a in range(d):
            for b in range(d):
                if a == b:
                    continue
                for alpha in range(d):
                    for beta in range(d):
                        value = gauss_sum(mub_gauss_params(a, b, alpha, beta, d))
                        assert abs(abs(value) ** 2 - d) < 1e-9


class TestCheckFactoring:
    def test_qubit_case_both_forms(self):
        assert check_factoring(1, 0, 0, 0, d=2) < 1e-14
        params = mub_gauss_params(1, 0, 0, 0, d=2)
        assert abs(gauss_sum(params)) ** 2 / 4 == pytest.approx(0.5, abs=1e-12)

    def test_d5_case_both_forms(self):
        assert check_factoring(2, 0, 1, 2, d=5) < 1e-14
        params = mub_gauss_params(2, 0, 1, 2, d=5)
        assert abs(gauss_sum(params)) ** 2 / 25 == pytest.approx(0.2, abs=1e-12)

    def test_all_d3_pairs(self):
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                for alpha in range(3):
                    for beta in range(3):
                        assert check_factoring(a, b, alpha, beta, d=3) < 1e-10

    def test_propagates_label_errors(self):
        with pytest.raises(ValueError, match="differ"):
            check_factoring(2, 2, 0, 0, d=3)
