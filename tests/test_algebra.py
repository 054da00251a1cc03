import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mubkit.algebra import (
    MubFamily,
    canonical_phase,
    flatten,
    matrix_unit,
    projector_from_state,
    trace_product,
    unbiased_gram_target,
    unflatten,
    w_inner,
)
from mubkit.construct import build_family
from mubkit.io import FamilyDocument, load_family, save_family
from mubkit.reconstruct import reconstruct_all, state_from_projector
from mubkit.verify import verify_family, verify_states

HALVES = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
CIRCLE = 0.5 * np.array([[1, 1j], [-1j, 1]], dtype=complex)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


class TestFlatten:
    def test_diagonal_projector(self):
        assert np.array_equal(flatten(np.diag([1.0, 0.0])), [1, 0, 0, 0])

    def test_uniform_projector(self):
        assert np.array_equal(flatten(HALVES), [0.5, 0.5, 0.5, 0.5])

    def test_circular_projector(self):
        assert np.array_equal(flatten(CIRCLE), [0.5, 0.5j, -0.5j, 0.5])

    def test_row_major_component_order(self):
        m = np.arange(9).reshape(3, 3) * 1.0
        v = flatten(m)
        for p in range(3):
            for q in range(3):
                assert v[p * 3 + q] == m[p, q]

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            flatten(np.zeros((2, 3)))


class TestUnflatten:
    def test_diagonal(self):
        assert np.array_equal(unflatten([1, 0, 0, 0]), np.diag([1.0, 0.0]))

    def test_uniform(self):
        assert np.array_equal(unflatten([0.5, 0.5, 0.5, 0.5]), HALVES)

    def test_rejects_non_square_length(self):
        with pytest.raises(ValueError, match="perfect square"):
            unflatten([1.0, 0.0, 0.0])

    def test_rejects_symmetry_violation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            unflatten([0.5, 0.2j, 0.2j, 0.5])

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 5, 8):
            m = random_hermitian(rng, d)
            assert np.array_equal(unflatten(flatten(m)), m)


class TestWInner:
    def test_self_inner_of_diagonal(self):
        assert w_inner([1, 0, 0, 0], [1, 0, 0, 0]) == 1

    def test_cross_basis_value(self):
        assert w_inner([1, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_orthogonal_same_basis(self):
        assert w_inner([0.5, 0.5, 0.5, 0.5], [0.5, -0.5, -0.5, 0.5]) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            w_inner([1, 0], [1, 0, 0])

    def test_matches_trace_product(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 5):
            m1 = random_hermitian(rng, d)
            m2 = random_hermitian(rng, d)
            lhs = w_inner(flatten(m1), flatten(m2))
            rhs = trace_product(m1, m2)
            assert abs(lhs - rhs) < 1e-12
            assert abs(lhs.imag) < 1e-12


class TestTraceProduct:
    def test_self(self):
        assert trace_product(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) == pytest.approx(1.0)

    def test_cross_basis(self):
        assert trace_product(np.diag([1.0, 0.0]), HALVES) == pytest.approx(0.5)

    def test_two_rotated_projectors(self):
        assert trace_product(HALVES, CIRCLE) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_product(np.eye(2), np.eye(3))


class TestProjectorFromState:
    def test_computational(self):
        assert np.array_equal(projector_from_state([1.0, 0.0]), np.diag([1.0, 0.0]))

    def test_uniform(self):
        s = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(projector_from_state(s), HALVES, atol=1e-15)

    def test_circular(self):
        s = np.array([1.0, -1.0j]) / np.sqrt(2)
        assert np.allclose(projector_from_state(s), CIRCLE, atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            projector_from_state([1.0, 1.0])

    def test_rank_one_traces(self):
        rng = np.random.default_rng(3)
        for d in (2, 4, 7):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v /= np.linalg.norm(v)
            m = projector_from_state(v)
            assert abs(np.trace(m) - 1.0) < 1e-12
            assert abs(trace_product(m, m) - 1.0) < 1e-12


class TestMatrixUnit:
    def test_single_entry(self):
        e = matrix_unit(3, 1, 2)
        assert e[1, 2] == 1.0
        assert np.count_nonzero(e) == 1

    def test_product_rule_and_trace(self):
        rng = np.random.default_rng(17)
        d = 4
        for _ in range(20):
            p, q, r, s = rng.integers(0, d, size=4)
            lhs = matrix_unit(d, p, q) @ matrix_unit(d, r, s)
            rhs = (1.0 if q == r else 0.0) * matrix_unit(d, p, s)
            assert np.array_equal(lhs, rhs)
            assert np.trace(matrix_unit(d, p, q)) == (1.0 if p == q else 0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            matrix_unit(2, 0, 2)


class TestCanonicalPhase:
    def test_pivot_becomes_real_nonnegative(self):
        v = canonical_phase(np.array([1j, 0.2]) / abs(np.linalg.norm([1j, 0.2])))
        assert v[0].imag == pytest.approx(0.0, abs=1e-15)
        assert v[0].real > 0

    def test_phase_invariance(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v /= np.linalg.norm(v)
        w = canonical_phase(v)
        for theta in (0.3, 1.5, -2.2):
            assert np.allclose(canonical_phase(np.exp(1j * theta) * v), w, atol=1e-12)

    def test_ties_pick_lowest_index(self):
        v = np.array([1.0j, -1.0j]) / np.sqrt(2)
        w = canonical_phase(v)
        assert w[0].real == pytest.approx(1 / np.sqrt(2))
        assert abs(w[0].imag) < 1e-15

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            canonical_phase([0.0, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            complex,
            st.integers(1, 8),
            elements=st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e150),
        ).filter(lambda v: np.any(v != 0))
    )
    def test_idempotent(self, v):
        once = canonical_phase(v)
        assert np.array_equal(canonical_phase(once), once)


class TestUnbiasedGramTarget:
    def test_two_bases_dim_two(self):
        t = unbiased_gram_target(2, 2)
        expected = np.array(
            [
                [1.0, 0.0, 0.5, 0.5],
                [0.0, 1.0, 0.5, 0.5],
                [0.5, 0.5, 1.0, 0.0],
                [0.5, 0.5, 0.0, 1.0],
            ]
        )
        assert np.array_equal(t, expected)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            unbiased_gram_target(0, 3)


class TestMubFamily:
    def _trivial(self, num_bases=1, d=2):
        mats = np.zeros((num_bases, d, d, d), dtype=complex)
        for a in range(num_bases):
            for alpha in range(d):
                mats[a, alpha, alpha, alpha] = 1.0
        return MubFamily(mats)

    def test_shape_properties(self):
        fam = self._trivial(num_bases=2, d=3)
        assert fam.dim == 3
        assert fam.num_bases == 2

    def test_projector_lookup_and_bounds(self):
        fam = self._trivial()
        assert fam.projector(0, 1)[1, 1] == 1.0
        with pytest.raises(ValueError, match="labels"):
            fam.projector(1, 0)

    def test_storage_is_read_only(self):
        fam = self._trivial()
        with pytest.raises(ValueError):
            fam.projectors[0, 0, 0, 0] = 5.0

    def test_as_vectors_matches_labels(self):
        fam = self._trivial(num_bases=2, d=2)
        vecs = fam.as_vectors()
        for row, (a, alpha) in enumerate(fam.labels()):
            assert np.array_equal(vecs[row], flatten(fam.projector(a, alpha)))

    def test_rejects_too_many_bases(self):
        with pytest.raises(ValueError, match="num_bases"):
            MubFamily(np.zeros((4, 2, 2, 2)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            MubFamily(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        mats = np.zeros((1, 2, 2, 2), dtype=complex)
        mats[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            MubFamily(mats)

    @pytest.mark.parametrize("huge", [1e200, -1e200j, 2e150])
    def test_rejects_huge_entries(self, huge):
        # Refused here, so verify_family and reconstruct_all never meet
        # entries their norms would overflow on.
        mats = np.zeros((3, 2, 2, 2), dtype=complex)
        mats[2, 1, 0, 1] = huge
        with pytest.raises(ValueError, match=r"^projector entries must be finite, with parts up to"):
            MubFamily(mats)

    def test_spectrum_is_one_cached_label_order_solve(self):
        rng = np.random.default_rng(7)
        mats = np.array([[random_hermitian(rng, 3) for _ in range(3)] for _ in range(2)])
        mats[1, 2, 0, 1] += 0.5  # no Hermitian gate: the readers judge the defect
        fam = MubFamily(mats)
        assert fam.spectrum is fam.spectrum
        sym = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
        for a in range(2):
            for alpha in range(3):
                row = fam.spectrum.eigenvalues[3 * a + alpha]
                assert np.allclose(row, np.linalg.eigvalsh(sym[a, alpha])[::-1], atol=1e-12)

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda p: p.swapaxes(-1, -2).conj()],
        ids=["fortran", "swapped"],
    )
    def test_accepts_non_contiguous_projectors(self, layout):
        # The swapped layout is the conjugate transpose of every projector,
        # so it holds the same Hermitian family.
        plus, minus = np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)
        right, left = np.array([1.0, 1j]) / np.sqrt(2), np.array([1.0, -1j]) / np.sqrt(2)
        mats = layout(MubFamily.from_states([[plus, minus], [right, left]]).projectors)
        assert not mats.flags.c_contiguous
        fam = MubFamily(mats)
        assert fam.projectors.flags.c_contiguous
        assert np.array_equal(fam.projectors, mats)

    def test_from_states(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        fam = MubFamily.from_states([[plus, minus]])
        assert np.allclose(fam.projector(0, 0), HALVES, atol=1e-15)
        assert fam.num_bases == 1


def _load_at(tol, path):
    save_family(build_family(3), str(path))
    return load_family(str(path), tol)


# Every public function that takes a tolerance, called on valid input.
TOLERANCE_CALLS = {
    "unflatten": lambda tol, path: unflatten(flatten(HALVES), tol),
    "projector_from_state": lambda tol, path: projector_from_state(np.array([1.0, 0.0]), tol),
    "MubFamily.from_states": lambda tol, path: MubFamily.from_states([np.eye(2)], tol),
    "build_family": lambda tol, path: build_family(3, tol=tol),
    "verify_family": lambda tol, path: verify_family(build_family(3), tolerance=tol),
    "verify_states": lambda tol, path: verify_states(reconstruct_all(build_family(3)), tol),
    "reconstruct_all": lambda tol, path: reconstruct_all(build_family(3), tol=tol),
    "state_from_projector": lambda tol, path: state_from_projector(HALVES, tol),
    "FamilyDocument.to_family": lambda tol, path: FamilyDocument.from_family(
        build_family(3)
    ).to_family(tol),
    "load_family": _load_at,
}


class TestToleranceValidation:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("call", list(TOLERANCE_CALLS.values()), ids=list(TOLERANCE_CALLS))
    def test_refused_and_named(self, call, tol, tmp_path):
        # Against NaN no "x > tol" check can fail, so the value must be
        # refused before any check runs rather than silently pass them all.
        expected = rf"^tolerance must be finite and non-negative, got {re.escape(repr(tol))}$"
        with pytest.raises(ValueError, match=expected):
            call(tol, tmp_path / "family.json")
