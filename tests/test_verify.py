import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mubkit.algebra import MubFamily, projector_from_state, unbiased_gram_target
from mubkit.construct import build_family
from mubkit.reconstruct import reconstruct_all
from mubkit.verify import (
    VerificationReport,
    _gram,
    _overlap_residuals,
    pairwise_angle,
    verify_family,
    verify_states,
)


def computational_family(d):
    mats = np.zeros((1, d, d, d), dtype=complex)
    for alpha in range(d):
        mats[0, alpha, alpha, alpha] = 1.0
    return MubFamily(mats)


def gram_leak_family(d):
    """P_10 + 1.5e-10 i (P_00 - I/d): the closed form with a leak only the complex Gram sees."""
    mats = build_family(d).projectors.copy()
    mats[1, 0] = mats[1, 0] + 1.5e-10j * (mats[0, 0] - np.eye(d) / d)
    return MubFamily(mats)


def noisy_family(d, size):
    """The closed form plus Hermitian Gaussian noise of ``size`` per part, seeded."""
    mats = build_family(d).projectors
    rng = np.random.default_rng(13)
    noise = rng.standard_normal(mats.shape) + 1j * rng.standard_normal(mats.shape)
    return MubFamily(mats + size / 2 * (noise + noise.conj().swapaxes(-1, -2)))


def zeroed_projector_family(d):
    """The closed form with projector (1, 0) zeroed: its cosines are NaN."""
    mats = build_family(d).projectors.copy()
    mats[1, 0] = 0.0
    return MubFamily(mats)


def family_route(family):
    """``verify_family``'s report on ``family``, with the Gram, d and norms it read."""
    report = verify_family(family, keep_gram=True)
    return report, report.gram, family.dim, np.sqrt(np.diagonal(report.gram))


def states_route(family):
    """``verify_states``' report on ``family``'s states, with |Gram|^2, d and no norms."""
    states = reconstruct_all(family)
    n, d = states.shape[:2]
    return verify_states(states), np.abs(_gram(states.reshape(n * d, d))) ** 2, d, None


def qubit_trio_states():
    sq = 1 / np.sqrt(2)
    return np.array(
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[sq, sq], [sq, -sq]],
            [[sq, 1j * sq], [sq, -1j * sq]],
        ],
        dtype=complex,
    )


RESIDUALS = (
    "max_self_residual",
    "max_cross_residual",
    "trace_residual",
    "hermiticity_residual",
    "psd_min_eigenvalue",
    "angle_check",
)


def seeded_family(d, n, seed):
    """A closed-form family for seed 0, otherwise one from random unit states."""
    if seed == 0:
        return MubFamily(build_family(d).projectors[:n])
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    return MubFamily.from_states(states)


family_shapes = st.sampled_from([2, 3, 5]).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, d + 1), st.integers(0, 2**32))
)


class TestInvariances:
    @settings(max_examples=40, deadline=None)
    @given(family_shapes, st.integers(0, 2**32))
    def test_global_unitary_conjugation(self, shape, useed):
        d, n, seed = shape
        family = seeded_family(d, n, seed)
        rng = np.random.default_rng(useed)
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        rotated = MubFamily(u @ family.projectors @ u.conj().T)
        before, after = verify_family(family), verify_family(rotated)
        for name in RESIDUALS:
            assert abs(getattr(after, name) - getattr(before, name)) <= 1e-12, name

    @settings(max_examples=40, deadline=None)
    @given(family_shapes, st.randoms(use_true_random=False))
    def test_basis_and_vector_permutations(self, shape, random):
        d, n, seed = shape
        family = seeded_family(d, n, seed)
        bases = random.sample(range(n), n)
        vectors = [random.sample(range(d), d) for _ in bases]
        mats = np.array([family.projectors[a][p] for a, p in zip(bases, vectors)])
        states = reconstruct_all(family)
        relisted = np.array([states[a][p] for a, p in zip(bases, vectors)])
        before = verify_family(family), verify_states(states)
        after = verify_family(MubFamily(mats)), verify_states(relisted)
        # Per-matrix checks see the same matrices, and the Gram matrix is
        # formed with its rows in an order fixed by their contents, so every
        # residual agrees exactly, on the projectors and on their states.
        for old, new in zip(before, after):
            for name in RESIDUALS:
                assert getattr(new, name) == getattr(old, name), name

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 13])
    def test_complex_conjugate_family(self, d):
        # The conjugate of a set of unbiased bases is one: every overlap
        # |<u|v>|^2 is real and kept.
        family = build_family(d)
        before = verify_family(family)
        after = verify_family(MubFamily(family.projectors.conj()))
        assert after.passed
        assert abs(after.max_self_residual - before.max_self_residual) <= 1e-15
        assert abs(after.max_cross_residual - before.max_cross_residual) <= 1e-15

    def test_relisting_two_vectors_changes_no_residual(self):
        # Swapping two vectors of one basis of this random family moved a
        # cross-basis Gram entry by 5 ulp when the BLAS product took the
        # rows as listed, and the angle check by 8 ulp after arccos.
        d, n, seed = 5, 2, 134
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        states /= np.linalg.norm(states, axis=-1, keepdims=True)
        swapped = states.copy()
        swapped[1] = states[1][[0, 1, 3, 2, 4]]
        family, relisted = MubFamily.from_states(states), MubFamily.from_states(swapped)
        assert verify_family(relisted) == verify_family(family)
        assert verify_states(swapped, tolerance=1e-9) == verify_states(states, tolerance=1e-9)


class TestVerifyFamily:
    def test_constructed_family_passes(self):
        family = build_family(3)
        report = verify_family(family, tolerance=1e-10)
        assert report.passed
        assert report.max_self_residual < 1e-10
        assert report.max_cross_residual < 1e-10
        assert report.angle_check < 1e-10

    def test_duplicate_projector_fails_self_orthogonality(self):
        family = build_family(3)
        mats = family.projectors.copy()
        dup = np.zeros((3, 3), dtype=complex)
        dup[0, 0] = 1.0
        mats[0, 0] = dup
        mats[0, 1] = dup
        report = verify_family(MubFamily(mats))
        assert not report.passed
        assert report.max_self_residual > 0.5

    def test_single_basis_has_no_cross_residuals(self):
        report = verify_family(computational_family(5))
        assert report.passed
        assert report.max_cross_residual == 0.0
        assert report.angle_check == 0.0

    def test_non_hermitian_corruption_is_reported_not_raised(self):
        family = build_family(2)
        mats = family.projectors.copy()
        mats[0, 0, 0, 1] += 1e-3
        report = verify_family(MubFamily(mats))
        assert not report.passed
        assert report.hermiticity_residual > 1e-4

    def test_hermitian_defect_below_tolerance_fails_on_the_gram_leak(self):
        # P_10 + 1.5e-10 i (P_00 - I/d): each entry breaks Hermitian symmetry
        # by 2.3e-11, within tolerance, but Tr(P_00 M) has an imaginary part
        # of 1.5e-10 (1 - 1/d), which only the complex Gram product sees.
        d = 13
        family = gram_leak_family(d)
        assert family.invariants[0].max() == pytest.approx(2 * 1.5e-10 / d, rel=1e-3)
        report = verify_family(family)
        assert not report.passed
        assert report.hermiticity_residual == pytest.approx(1.5e-10 * (1 - 1 / d), rel=1e-3)
        others = [report.trace_residual, report.max_self_residual, report.max_cross_residual]
        assert max(others + [report.angle_check, -report.psd_min_eigenvalue]) <= 1e-10

    @pytest.mark.parametrize("size", [0.0, 1e-170])
    def test_vanishing_projector_fails_without_warning(self, size):
        # A zero norm, or one whose square underflows, has no angle: the
        # cosine is NaN and fails the angle check instead of dividing by 0.
        family = MubFamily(np.full((2, 1, 1, 1), size))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_family(family)
        assert not report.passed
        assert math.isnan(report.angle_check)

    def test_indefinite_matrix_lowers_min_eigenvalue(self):
        family = build_family(2)
        mats = family.projectors.copy()
        # Hermitian, unit trace, but one eigenvalue is negative.
        mats[0, 0] = 1.5 * mats[0, 0] - 0.5 * mats[0, 1]
        report = verify_family(MubFamily(mats))
        assert not report.passed
        assert report.psd_min_eigenvalue < -0.4

    def test_monotone_in_tolerance(self):
        family = build_family(2)
        mats = family.projectors.copy()
        mats[0, 0, 0, 0] += 1e-8
        mats[0, 0, 1, 1] -= 1e-8
        damaged = MubFamily(mats)
        previous = False
        for tol in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
            passed = verify_family(damaged, tolerance=tol).passed
            assert passed or not previous
            previous = passed

    def test_full_gram_on_request(self):
        family = build_family(2)
        assert verify_family(family).gram is None
        report = verify_family(family, keep_gram=True)
        assert report.gram.shape == (6, 6)
        assert report.gram[0, 0] == pytest.approx(1.0)

    def test_gram_reads_the_projectors_without_a_copy(self, monkeypatch):
        # The Gram product reads a view of the family's projectors; the
        # copy as_vectors makes is not taken.
        family = build_family(13)
        expected = _gram(family.as_vectors()).real

        def refused(self):
            raise AssertionError("verify_family copied the projectors")

        monkeypatch.setattr(MubFamily, "as_vectors", refused)
        report = verify_family(family, keep_gram=True)
        assert report.passed
        assert report.gram.tobytes() == expected.tobytes()

    def test_peak_below_3_25_times_the_projectors(self, traced_peak):
        # 3.13x measured at d = 13, in _gram: the sorted rows, their
        # conjugate and the product.  The angle check works in place in the
        # cosine array beside the complex Gram and stays below that.
        family = build_family(13)
        verify_family(family)  # imports and caches warmed outside the trace
        _, peak = traced_peak(lambda: verify_family(family))
        assert peak < 3.25 * family.projectors.nbytes

    def test_residual_read_peaks_below_1_6_times_the_gram(self, traced_peak):
        # The cosines, divided in place into the norms' outer product, are
        # the one N x N array the read forms: 1.51x measured at d = 13, where
        # an N x N target, its deviation and a NaN-filled copy took 2.16x.
        _, gram, d, norms = family_route(build_family(13))
        _overlap_residuals(gram, d, norms)  # warmed outside the trace
        _, peak = traced_peak(lambda: _overlap_residuals(gram, d, norms))
        assert peak <= 1.6 * gram.nbytes

    def test_summary_states_verdict(self):
        family = build_family(2)
        assert verify_family(family).summary().startswith("pass")
        mats = family.projectors.copy()
        mats[0, 0, 0, 1] += 0.2
        assert verify_family(MubFamily(mats)).summary().startswith("FAIL")


class TestVerifyStates:
    def test_standard_qubit_trio_passes(self):
        report = verify_states(qubit_trio_states())
        assert report.passed
        assert report.dim == 2
        assert report.num_bases == 3

    def test_repeated_basis_fails(self):
        comp = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        report = verify_states(np.array([comp, comp]))
        assert not report.passed
        assert report.max_cross_residual == pytest.approx(0.5)

    def test_reconstructed_family_passes(self):
        family = build_family(3)
        report = verify_states(reconstruct_all(family), tolerance=1e-9)
        assert report.passed

    def test_rejects_unnormalized(self):
        states = qubit_trio_states()
        states[1, 0] *= 1.1
        with pytest.raises(ValueError, match="not normalized"):
            verify_states(states)

    def test_rejects_more_than_d_plus_one_bases(self):
        states = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2))
        with pytest.raises(ValueError, match=r"^num_bases must lie in 1\.\.d\+1 = 1\.\.3, got 4$"):
            verify_states(states)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shaped"):
            verify_states(np.zeros((2, 3)))

    def test_residual_read_peaks_below_0_3_times_the_gram(self, traced_peak):
        # The squared overlaps are their own cosines, so the read forms no
        # N x N array, only the same-basis blocks' deviations: 0.23x measured
        # at d = 13, where an N x N target and its deviation took 2.00x.
        _, overlaps, d, _ = states_route(build_family(13))
        _overlap_residuals(overlaps, d)  # warmed outside the trace
        _, peak = traced_peak(lambda: _overlap_residuals(overlaps, d))
        assert peak <= 0.3 * overlaps.nbytes

    @pytest.mark.parametrize("where", [(0, 0, 0), (2, 1, 1), slice(None)])
    def test_rejects_nan_states_as_unnormalized(self, where):
        states = qubit_trio_states()
        states[where] = np.nan
        with pytest.raises(ValueError, match="not normalized"):
            verify_states(states)


class TestVerificationReport:
    @pytest.mark.parametrize(
        "field",
        [
            "max_self_residual",
            "max_cross_residual",
            "trace_residual",
            "hermiticity_residual",
            "psd_min_eigenvalue",
            "angle_check",
        ],
    )
    def test_nan_residual_never_passes(self, field):
        residuals = dict(
            max_self_residual=0.0,
            max_cross_residual=0.0,
            trace_residual=0.0,
            hermiticity_residual=0.0,
            psd_min_eigenvalue=0.0,
            angle_check=0.0,
        )
        assert VerificationReport(dim=2, num_bases=3, tolerance=1e-10, **residuals).passed
        residuals[field] = float("nan")
        assert not VerificationReport(dim=2, num_bases=3, tolerance=1e-10, **residuals).passed


class TestPairwiseAngle:
    def test_qubit_cross_basis_angle(self):
        family = build_family(2)
        x = family.projector(0, 0).reshape(-1)
        y = family.projector(1, 0).reshape(-1)
        assert pairwise_angle(x, y) == pytest.approx(np.pi / 3, abs=1e-12)

    def test_self_angle_is_zero(self):
        v = projector_from_state([1.0, 0.0]).reshape(-1)
        assert pairwise_angle(v, v) == pytest.approx(0.0, abs=1e-7)

    def test_d5_cross_basis_angle(self):
        family = build_family(5)
        x = family.projector(0, 2).reshape(-1)
        y = family.projector(3, 4).reshape(-1)
        assert pairwise_angle(x, y) == pytest.approx(np.arccos(1 / 5), abs=1e-12)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            pairwise_angle([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="mismatch"):
            pairwise_angle([1.0, 0.0], [1.0, 0.0, 0.0])


def reference_gram(rows):
    """``_gram`` as it was: the byte-sorted product scattered into a second array."""
    rows = np.ascontiguousarray(rows)
    as_bytes = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(as_bytes, kind="stable")
    ordered = rows[order]
    gram = np.empty((len(rows), len(rows)), dtype=complex)
    gram[np.ix_(order, order)] = ordered.conj() @ ordered.T
    return gram


def reference_same_basis(n, d):
    """(n*d, n*d) mask, true where rows a*d + alpha and b*d + beta share a basis (a = b)."""
    labels = np.repeat(np.arange(n), d)
    return labels[:, None] == labels[None, :]


def reference_gram_target(n, d):
    """``unbiased_gram_target`` as it was: 1/d off the same-basis mask, then a unit diagonal."""
    target = np.where(reference_same_basis(n, d), 0.0, 1.0 / d)
    np.fill_diagonal(target, 1.0)
    return target


def reference_overlap_residuals(overlaps, d, norms=None):
    """``_overlap_residuals`` as it was: boolean-index copies and a single-basis branch."""
    n = overlaps.shape[0] // d
    deviation = np.abs(overlaps - unbiased_gram_target(n, d))
    same_basis = reference_same_basis(n, d)
    max_self = float(deviation[same_basis].max())
    if n == 1:
        return max_self, 0.0, 0.0
    max_cross = float(deviation[~same_basis].max())
    cosines = overlaps[~same_basis]
    if norms is not None:
        scale = np.outer(norms, norms)[~same_basis]
        usable = (scale > 0.0) & (scale < np.inf)
        cosines = np.where(usable, cosines, np.nan) / np.where(usable, scale, 1.0)
    angles = np.arccos(np.clip(cosines, -1.0, 1.0))
    return max_self, max_cross, float(np.max(np.abs(angles - np.arccos(1.0 / d))))


def same_floats(got, expected):
    """Bit for bit, except that any NaN matches any NaN."""
    return all(
        (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex() for a, b in zip(got, expected)
    )


@st.composite
def overlap_problems(draw):
    """A real symmetric (n*d, n*d) overlap matrix, its d, and norms or None."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entries = st.floats(-2.0, 2.0) | st.sampled_from([np.nan, np.inf, -np.inf])
    raw = draw(hnp.arrays(float, (n * d, n * d), elements=entries))
    overlaps = np.triu(raw) + np.triu(raw, 1).T
    norm = st.floats(1e-3, 10.0) | st.sampled_from([0.0, np.inf, np.nan])
    norms = draw(st.none() | hnp.arrays(float, n * d, elements=norm))
    return overlaps, d, norms


@st.composite
def repeated_rows(draw):
    """Complex rows, some listed more than once."""
    width, distinct = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    rows = draw(hnp.arrays(complex, (distinct, width), elements=entries))
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=8))
    return rows[picks]


class TestReferenceImplementations:
    def test_gram_target_matches_the_mask_construction(self):
        # Every shape a family takes up to d = 13: n <= d + 1 bases.
        for d in range(1, 14):
            for n in range(1, d + 2):
                got, expected = unbiased_gram_target(n, d), reference_gram_target(n, d)
                assert got.shape == expected.shape == (n * d, n * d)
                assert got.flags.c_contiguous
                assert got.tobytes() == expected.tobytes(), (n, d)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: family_route(build_family(13)),
            lambda: family_route(noisy_family(13, 1e-12)),
            lambda: family_route(gram_leak_family(13)),
            lambda: family_route(MubFamily(build_family(13).projectors[:1])),
            lambda: family_route(zeroed_projector_family(13)),
            lambda: family_route(noisy_family(13, 1e-2)),
            lambda: states_route(build_family(13)),
        ],
        ids=["closed", "noisy", "leak", "one_basis", "zeroed", "noisy_1e-2", "states"],
    )
    def test_overlap_residuals_match_the_reference_on_a_family_gram(self, make):
        # At full size, on the very overlaps and norms the report was read from.
        report, overlaps, d, norms = make()
        got = [x.hex() for x in _overlap_residuals(overlaps, d, norms)]
        assert got == [x.hex() for x in reference_overlap_residuals(overlaps, d, norms)]
        # Bit for bit, so a NaN angle (the zeroed projector's) matches too.
        residuals = (report.max_self_residual, report.max_cross_residual, report.angle_check)
        assert got == [x.hex() for x in residuals]

    @settings(max_examples=300, deadline=None)
    @given(overlap_problems())
    def test_overlap_residuals_match_the_reference(self, problem):
        overlaps, d, norms = problem
        given_bytes = overlaps.tobytes()
        # 0 * inf in the norms' outer product is NaN in both, with numpy's warning.
        with np.errstate(invalid="ignore"):
            got = _overlap_residuals(overlaps, d, norms)
            # The angles are formed in an array of their own: a report may keep the Gram.
            assert overlaps.tobytes() == given_bytes
            expected = reference_overlap_residuals(overlaps, d, norms)
        assert same_floats(got, expected), (got, expected)

    @settings(max_examples=200, deadline=None)
    @given(repeated_rows())
    def test_gram_matches_the_reference(self, rows):
        assert _gram(rows).tobytes() == reference_gram(rows).tobytes()
