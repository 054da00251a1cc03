import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mubkit.algebra import MubFamily, canonical_phase, projector_from_state
from mubkit.construct import build_family
from mubkit.reconstruct import (
    _jacobi,
    eigen_hermitian,
    reconstruct_all,
    state_from_projector,
)

HALVES = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
CIRCLE = 0.5 * np.array([[1, 1j], [-1j, 1]], dtype=complex)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


class TestEigenHermitian:
    def test_identity(self):
        decomp = eigen_hermitian(np.eye(3))
        assert np.allclose(decomp.eigenvalues, [1, 1, 1])

    def test_uniform_projector(self):
        decomp = eigen_hermitian(HALVES)
        assert np.allclose(decomp.eigenvalues, [1, 0], atol=1e-14)
        top = decomp.eigenvectors[:, 0]
        expected = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(np.vdot(top, expected)) - 1.0) < 1e-12

    def test_already_diagonal(self):
        decomp = eigen_hermitian(np.diag([0.7, 0.3]))
        assert np.allclose(decomp.eigenvalues, [0.7, 0.3])

    def test_eigenvalues_sorted_descending(self):
        rng = np.random.default_rng(1)
        for d in (2, 4, 6):
            vals = eigen_hermitian(random_hermitian(rng, d)).eigenvalues
            assert np.all(np.diff(vals) <= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eigen_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_zero_matrix(self):
        decomp = eigen_hermitian(np.zeros((3, 3)))
        assert np.allclose(decomp.eigenvalues, 0.0)
        assert np.allclose(decomp.eigenvectors, np.eye(3))

    def test_dim_property_and_reconstruct(self):
        rng = np.random.default_rng(2)
        m = random_hermitian(rng, 5)
        decomp = eigen_hermitian(m)
        assert decomp.dim == 5
        assert np.max(np.abs(decomp.reconstruct() - m)) < 1e-12

    def test_off_diagonal_mass_decreases_per_sweep(self):
        rng = np.random.default_rng(13)
        for d in (3, 5, 8):
            m = random_hermitian(rng, d)
            _, _, history = _jacobi(m)
            assert all(later <= earlier * (1 + 1e-12) for earlier, later in zip(history, history[1:]))
            assert history[-1] < 1e-12 * np.linalg.norm(m)

    def test_property_batch(self):
        # Reconstruction, trace conservation, and orthonormality on a
        # spread of seeded Hermitian matrices.
        rng = np.random.default_rng(42)
        for trial in range(30):
            d = 2 + trial % 7
            m = random_hermitian(rng, d)
            decomp = eigen_hermitian(m)
            vals, vecs = decomp.eigenvalues, decomp.eigenvectors
            assert np.max(np.abs(decomp.reconstruct() - m)) < 1e-10
            assert abs(vals.sum() - np.trace(m).real) < 1e-12
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) < 1e-10


def random_stack(rng, n, d):
    a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return 0.5 * (a + a.conj().swapaxes(1, 2))


def edge_case_stack():
    """A zero matrix, a diagonal one, and matrices needing few or many sweeps."""
    rng = np.random.default_rng(5)
    nearly_diagonal = np.diag([3.0, 1.0, -2.0, 0.5]).astype(complex)
    nearly_diagonal[0, 1], nearly_diagonal[1, 0] = 1e-9j, -1e-9j
    return np.array(
        [
            np.zeros((4, 4)),
            random_hermitian(rng, 4),
            np.diag([0.25, -1.0, 4.0, 0.0]),
            nearly_diagonal,
            1e6 * random_hermitian(rng, 4),
            projector_from_state(np.full(4, 0.5)),
        ],
        dtype=complex,
    )


def random_stack_with_zero(d):
    stack = random_stack(np.random.default_rng(d), 7, d)
    stack[2] = 0.0
    return stack


STACKS = [
    pytest.param(lambda d=d: random_stack_with_zero(d), id=f"random-d{d}") for d in (1, 2, 5, 8)
] + [pytest.param(edge_case_stack, id="edge-cases")]


class TestBatchedEigen:
    @pytest.mark.parametrize("make_stack", STACKS)
    def test_members_match_their_single_solves(self, make_stack):
        stack = make_stack()
        batched = eigen_hermitian(stack)
        _, _, histories = _jacobi(stack)
        total = 0
        for m, vals, history in zip(stack, batched.eigenvalues, histories):
            single = eigen_hermitian(m)
            scale = max(np.linalg.norm(m), 1.0)
            assert np.max(np.abs(vals - single.eigenvalues)) <= 1e-13 * scale
            assert len(history) - 1 == single.sweeps
            total += single.sweeps
        assert batched.sweeps == total

    @pytest.mark.parametrize("make_stack", STACKS)
    def test_eigenvalues_agree_with_lapack(self, make_stack):
        stack = make_stack()
        vals = eigen_hermitian(stack).eigenvalues
        reference = np.linalg.eigvalsh(stack)[:, ::-1]
        scale = np.linalg.norm(stack, axis=(1, 2))[:, None]
        assert np.all(np.abs(vals - reference) <= 1e-12 * scale)

    def test_edge_cases_converge_at_their_own_depths(self):
        stack = edge_case_stack()
        batched = eigen_hermitian(stack)
        sweeps = [len(h) - 1 for h in _jacobi(stack)[2]]
        assert sweeps[0] == 0 and sweeps[2] == 0
        assert len(set(sweeps)) > 2
        assert np.array_equal(batched.eigenvectors[0], np.eye(4))
        assert np.array_equal(batched.eigenvalues[2], [4.0, 0.25, 0.0, -1.0])

    def test_no_warnings(self):
        tiny_pivot = np.diag([1.0, 0.0, 2.0]).astype(complex)
        tiny_pivot[0, 1] = tiny_pivot[1, 0] = 5e-324  # subnormal
        tiny_pivot[1, 2] = tiny_pivot[2, 1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eigen_hermitian(edge_case_stack())
            eigen_hermitian(random_stack(np.random.default_rng(3), 5, 6))
            decomp = eigen_hermitian(tiny_pivot)
        assert np.allclose(decomp.eigenvalues, np.linalg.eigvalsh(tiny_pivot)[::-1], atol=1e-14)

    def test_decomposition_broadcasts_over_stack(self):
        stack = random_stack(np.random.default_rng(4), 3, 5)
        decomp = eigen_hermitian(stack)
        assert decomp.dim == 5
        assert decomp.eigenvalues.shape == (3, 5)
        assert decomp.eigenvectors.shape == (3, 5, 5)
        assert np.max(np.abs(decomp.reconstruct() - stack)) < 1e-12

    def test_stack_names_non_hermitian_member(self):
        stack = random_stack(np.random.default_rng(6), 4, 3)
        stack[2, 0, 1] += 0.1
        with pytest.raises(ValueError, match="matrix 2 is not Hermitian"):
            eigen_hermitian(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_before_any_warning(self, bad):
        matrix = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
        stack = random_stack(np.random.default_rng(7), 3, 2)
        stack[1] = matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix has non-finite entries"):
                eigen_hermitian(matrix)
            with pytest.raises(ValueError, match="^matrix 1 has non-finite entries"):
                eigen_hermitian(stack)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 3, 4), (2, 2, 3, 3), (3,)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError, match="square"):
            eigen_hermitian(np.zeros(shape))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda d: st.integers(1, 6).flatmap(
                lambda n: hnp.arrays(
                    np.float64, (2, n, d, d), elements=st.floats(-4.0, 4.0, width=64)
                )
            )
        )
    )
    def test_property_random_stacks(self, parts):
        # Criterion 8's gates, on every member of a random stack.
        raw = parts[0] + 1j * parts[1]
        stack = 0.5 * (raw + raw.conj().swapaxes(1, 2))
        d = stack.shape[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decomp = eigen_hermitian(stack)
        vecs = decomp.eigenvectors
        assert np.max(np.abs(decomp.reconstruct() - stack)) < 1e-10
        traces = np.einsum("nii->n", stack).real
        assert np.max(np.abs(decomp.eigenvalues.sum(axis=1) - traces)) < 1e-12
        gram = vecs.conj().swapaxes(1, 2) @ vecs
        assert np.max(np.abs(gram - np.eye(d))) < 1e-10
        assert np.all(np.diff(decomp.eigenvalues, axis=1) <= 0)


class TestStateFromProjector:
    def test_uniform_projector(self):
        state = state_from_projector(HALVES)
        assert np.allclose(state, np.array([1, 1]) / np.sqrt(2), atol=1e-12)

    def test_circular_projector_canonical_phase(self):
        state = state_from_projector(CIRCLE)
        assert np.allclose(state, np.array([1, -1j]) / np.sqrt(2), atol=1e-12)

    def test_maximally_mixed_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            state_from_projector(0.5 * np.eye(2))

    def test_rank_two_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            state_from_projector(np.diag([0.7, 0.3]))

    def test_scaled_projector_rejected(self):
        with pytest.raises(ValueError, match="deviates from 1"):
            state_from_projector(0.9 * HALVES, tol=1e-3)

    def test_round_trip_from_random_states(self):
        rng = np.random.default_rng(77)
        for trial in range(100):
            d = 2 + trial % 7
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v /= np.linalg.norm(v)
            recovered = state_from_projector(projector_from_state(v))
            assert np.max(np.abs(recovered - canonical_phase(v))) < 1e-10

    def test_projector_round_trip(self):
        state = state_from_projector(CIRCLE)
        assert np.max(np.abs(projector_from_state(state) - CIRCLE)) < 1e-12


class TestReconstructAll:
    def test_qubit_family_states(self):
        family = build_family(2)
        states = reconstruct_all(family)
        sq = 1 / np.sqrt(2)
        expected = {
            (0, 0): [sq, sq],
            (0, 1): [sq, -sq],
            (1, 0): [sq, -1j * sq],
            (1, 1): [sq, 1j * sq],
            (2, 0): [1.0, 0.0],
            (2, 1): [0.0, 1.0],
        }
        for (a, alpha), vec in expected.items():
            assert np.allclose(states[a, alpha], vec, atol=1e-12)

    def test_d3_round_trip(self):
        family = build_family(3)
        states = reconstruct_all(family)
        assert states.shape == (4, 3, 3)
        for a in range(4):
            for alpha in range(3):
                rebuilt = projector_from_state(states[a, alpha])
                assert np.max(np.abs(rebuilt - family.projector(a, alpha))) < 1e-10

    def test_non_hermitian_projector_named(self):
        mats = build_family(2).projectors.copy()
        mats[1, 1, 0, 1] += 1e-3
        with pytest.raises(ValueError, match=r"basis 1, vector 1\): matrix is not Hermitian"):
            reconstruct_all(MubFamily(mats))

    def test_error_names_offending_labels(self):
        mats = np.zeros((1, 2, 2, 2), dtype=complex)
        mats[0, 0] = np.diag([1.0, 0.0])
        mats[0, 1] = 0.5 * np.eye(2)
        with pytest.raises(ValueError, match=r"basis 0, vector 1"):
            reconstruct_all(MubFamily(mats))
