import cmath
import math
import time

import numpy as np
import pytest

from mubkit.algebra import MubFamily, projector_from_state
from mubkit.cli import cli_dispatch
from mubkit.construct import build_family, is_prime, w_coefficient
from mubkit.verify import verify_family

TEST_PRIMES = (2, 3, 5, 7, 11, 13)


def hilbert_schmidt(m1, m2):
    """Re Tr(m1 m2), summed by einsum rather than through the verifier's Gram matrix."""
    return float(np.einsum("ij,ji->", m1, m2).real)


def oracle_state(d, a, alpha):
    """Independent route to the same bases: explicit state amplitudes.

    Component p carries phase exp(i pi p ((d-2-p) a - 2 alpha) / d); the
    outer product of this vector reproduces the closed-form coefficients,
    which gives a second construction path the tests can compare against.
    """
    amps = [cmath.exp(1j * math.pi * p * ((d - 2 - p) * a - 2 * alpha) / d) for p in range(d)]
    return np.array(amps) / math.sqrt(d)


class TestIsPrime:
    # np.int64(2**61 - 1) is squared mod n as a Python int, never in 64 bits.
    @pytest.mark.parametrize("n", [2, 3, 5, 13, 101, 2**61 - 1, np.int64(2**61 - 1), 10**16 + 61])
    def test_primes(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize(
        "n",
        [
            0,
            1,
            4,
            6,
            9,
            91,
            # Carmichael numbers: Fermat pseudoprimes to every coprime base.
            561,
            41_041,
            825_265,
            # The least strong pseudoprimes to the first 4, 6, 8 and 11 prime bases.
            3_215_031_751,
            3_474_749_660_383,
            341_550_071_728_321,
            3_825_123_056_546_413_051,
        ],
    )
    def test_non_primes(self, n):
        assert not is_prime(n)

    def test_agrees_with_a_sieve(self):
        stop = 200_000
        sieve = np.ones(stop, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(stop) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        assert [is_prime(n) for n in range(-5, 0)] == [False] * 5
        assert [is_prime(n) for n in range(stop)] == sieve.tolist()

    def test_refuses_psi_13(self):
        # The least composite that passes the strong test to all 13 prime
        # bases up to 41: no answer is proven from there on.
        psi_13 = 1_287_836_182_261 * 2_575_672_364_521
        for n in (psi_13, psi_13 + 2, 10**30):
            with pytest.raises(ValueError, match=rf"proven only below psi_13 = {psi_13}, got {n}"):
                is_prime(n)

    def test_coefficient_of_a_large_prime_is_fast(self):
        start = time.perf_counter()
        assert w_coefficient(10**16 + 61, 0, 0, 0, 0) == 1 / (10**16 + 61)
        assert time.perf_counter() - start < 1.0


class TestWCoefficient:
    def test_zero_labels_dim_two(self):
        for p in range(2):
            for q in range(2):
                assert w_coefficient(2, 0, 0, p, q) == pytest.approx(0.5)

    def test_phase_quarter_turn(self):
        assert w_coefficient(2, 1, 0, 0, 1) == pytest.approx(0.5j)

    def test_third_root_phase(self):
        expected = cmath.exp(2j * math.pi / 3) / 3
        assert w_coefficient(3, 0, 1, 0, 1) == pytest.approx(expected)

    def test_rejects_composite_dimension(self):
        with pytest.raises(ValueError, match="prime"):
            w_coefficient(4, 0, 0, 0, 0)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match="basis label"):
            w_coefficient(3, 3, 0, 0, 0)
        with pytest.raises(ValueError, match="vector label"):
            w_coefficient(3, 0, -1, 0, 0)
        with pytest.raises(ValueError, match="entry indices"):
            w_coefficient(3, 0, 0, 0, 3)

    def test_hermitian_symmetry(self):
        for d in (2, 3, 5):
            for a in range(d):
                for alpha in range(d):
                    for p in range(d):
                        for q in range(d):
                            lhs = w_coefficient(d, a, alpha, p, q)
                            rhs = w_coefficient(d, a, alpha, q, p).conjugate()
                            assert abs(lhs - rhs) < 1e-15

    def test_equal_phases_bit_identical(self):
        # The exponent is reduced in exact integer arithmetic, so entries
        # with congruent exponents are the same float, not merely close.
        assert w_coefficient(5, 1, 0, 0, 1) == w_coefficient(5, 1, 5 % 5, 0, 1)
        assert w_coefficient(3, 2, 1, 0, 2) == w_coefficient(3, 2, 1, 0, 2)


class TestBuildFamily:
    def test_qubit_family_matches_hand_built_bases(self):
        family = build_family(2)
        sq = 1 / np.sqrt(2)
        expected_states = {
            (0, 0): [sq, sq],
            (0, 1): [sq, -sq],
            (1, 0): [sq, -1j * sq],
            (1, 1): [sq, 1j * sq],
            (2, 0): [1.0, 0.0],
            (2, 1): [0.0, 1.0],
        }
        for (a, alpha), state in expected_states.items():
            expected = projector_from_state(np.array(state))
            assert np.allclose(family.projector(a, alpha), expected, atol=1e-15)

    def test_rotated_projectors_match_state_oracle(self):
        for d in (2, 3, 5, 7):
            family = build_family(d)
            for a in range(d):
                for alpha in range(d):
                    expected = projector_from_state(oracle_state(d, a, alpha))
                    assert np.allclose(family.projector(a, alpha), expected, atol=1e-12)

    def test_d3_cross_products_are_one_third(self):
        family = build_family(3)
        assert family.num_bases == 4
        for a in range(4):
            for b in range(a + 1, 4):
                for alpha in range(3):
                    for beta in range(3):
                        value = hilbert_schmidt(
                            family.projector(a, alpha), family.projector(b, beta)
                        )
                        assert abs(value - 1 / 3) < 1e-10

    @pytest.mark.parametrize("d", TEST_PRIMES)
    def test_projectors_are_rank_one(self, d):
        family = build_family(d)
        for a in range(family.num_bases):
            for alpha in range(d):
                m = family.projector(a, alpha)
                assert abs(np.trace(m) - 1.0) < 1e-12
                assert abs(hilbert_schmidt(m, m) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", TEST_PRIMES)
    def test_basis_internal_orthogonality(self, d):
        family = build_family(d)
        for a in range(family.num_bases):
            for alpha in range(d):
                for beta in range(d):
                    value = hilbert_schmidt(family.projector(a, alpha), family.projector(a, beta))
                    assert abs(value - (1.0 if alpha == beta else 0.0)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 13])
    def test_phase_shift_moves_each_vector_down_by_one(self, d):
        # Z = diag(w^p), w = exp(2 pi i / d), multiplies entry (p, q) by
        # w^(p - q), which turns -2 alpha into -2 (alpha - 1) in the phase
        # exponent; the computational basis is diagonal, so Z fixes it.
        mats = build_family(d).projectors
        z = np.exp(2j * np.pi * np.arange(d) / d)
        shifted = z[:, None] * mats * z.conj()
        assert np.max(np.abs(shifted[:d] - np.roll(mats[:d], 1, axis=1))) <= 1e-15
        assert np.max(np.abs(shifted[d] - mats[d])) <= 1e-15

    def test_result_is_certified(self):
        report = verify_family(build_family(5))
        assert report.passed
        assert report.dim == 5
        assert report.num_bases == 6

    def test_without_computational_basis(self):
        family = MubFamily(build_family(3).projectors[:3])
        assert family.num_bases == 3
        assert verify_family(family).passed

    def test_rejects_composite(self):
        with pytest.raises(ValueError, match="requires prime d"):
            build_family(4)

    def test_rejects_one(self):
        with pytest.raises(ValueError, match="requires prime d"):
            build_family(1)

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
    def test_phase_table_matches_coefficient_loop(self, d):
        family = build_family(d)
        looped = np.array(
            [
                [
                    [[w_coefficient(d, a, alpha, p, q) for q in range(d)] for p in range(d)]
                    for alpha in range(d)
                ]
                for a in range(d)
            ]
        )
        assert np.array_equal(family.projectors[:d], looped)

    def test_oversized_dimension_refused_before_primality(self, monkeypatch):
        # The size alone refuses it; primality is never tested.
        monkeypatch.setattr("mubkit.construct.is_prime", lambda n: pytest.fail("primality tested"))
        with pytest.raises(ValueError, match=r"d = 2305843009213693951 needs \d+ bytes"):
            build_family(2**61 - 1)

    def test_oversized_dimension_refused_before_allocating(self, traced_peak):
        def refuse():
            with pytest.raises(ValueError, match=r"d = 1009 needs 16600258660640 bytes"):
                build_family(1009)

        _, peak = traced_peak(refuse)
        assert peak < 1 << 20

    def test_family_holds_one_copy_of_its_projectors(self, traced_peak):
        # A built family keeps its projectors and nothing the size of its
        # stack: the scratch array it is copied from is freed on return.
        build_family(13)  # imports and caches warmed outside the trace
        families = []
        held, _ = traced_peak(lambda: families.append(build_family(13)))
        assert held <= 1.25 * families[0].projectors.nbytes

    def test_peak_below_1_75_times_the_projectors(self, traced_peak):
        # The family takes the array it was built in, without a copy, so the
        # peak is that array (1x) and the entry-bound check's scratch (one
        # part's moduli, 0.5x).  The exponent index and entries are one
        # basis's at a time (1/14 each).  Nothing certifies the family here.
        family = build_family(13)  # imports and caches warmed outside the trace
        _, peak = traced_peak(lambda: build_family(13))
        assert peak < 1.75 * family.projectors.nbytes  # 1.63x measured

    @pytest.mark.parametrize("d", TEST_PRIMES)
    def test_bytes_match_the_four_axis_exponent(self, d):
        # The exponent (p - q)((d - 2 - p - q) a - 2 alpha) mod 2d over one
        # (d, d, d, d) index, as the family was once built whole.
        a, alpha, p, q = np.ogrid[:d, :d, :d, :d]
        exponent = ((p - q) * ((d - 2 - p - q) * a - 2 * alpha)) % (2 * d)
        table = np.array([cmath.exp(1j * math.pi * k / d) / d for k in range(2 * d)])
        mats = np.zeros((d + 1, d, d, d), dtype=complex)
        mats[:d] = table[exponent]
        labels = np.arange(d)
        mats[d, labels, labels, labels] = 1.0
        assert build_family(d).projectors.tobytes() == mats.tobytes()

    def test_certificate_runs_without_the_scratch_array(self, tmp_path, traced_peak):
        # construct builds, certifies, then saves: the certificate starts once
        # build_family has returned and freed its scratch, so the command peaks
        # at the family (1x) plus verify_family's Gram step (about 3.1x).
        argv = ["construct", "--d", "13", "--out", str(tmp_path / "f.json")]
        assert cli_dispatch(argv) == 0  # imports and caches warmed outside the trace
        _, peak = traced_peak(lambda: cli_dispatch(argv))
        assert peak < 4.3 * build_family(13).projectors.nbytes  # 4.14x measured
