import sys
import warnings
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mubkit.algebra import (
    MubFamily,
    _rank_one_certificate,
    _symmetrized,
    canonical_phase,
    projector_from_state,
)
from mubkit.construct import build_family
from mubkit.io import FamilyDocument
from mubkit.reconstruct import (
    EigenDecomposition,
    _normalized,
    eigen_hermitian,
    reconstruct_all,
    state_from_projector,
)
from mubkit.search import SearchState

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
    """A zero matrix, diagonal and nearly diagonal ones, random, scaled and rank-1 members."""
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
        for i, (m, vals) in enumerate(zip(stack, batched.eigenvalues)):
            single = eigen_hermitian(m)
            scale = max(np.linalg.norm(m), 1.0)
            assert np.max(np.abs(vals - single.eigenvalues)) <= 1e-13 * scale

    @pytest.mark.parametrize("make_stack", STACKS)
    def test_eigenvalues_agree_with_lapack(self, make_stack):
        stack = make_stack()
        vals = eigen_hermitian(stack).eigenvalues
        reference = np.linalg.eigvalsh(stack)[:, ::-1]
        scale = np.linalg.norm(stack, axis=(1, 2))[:, None]
        assert np.all(np.abs(vals - reference) <= 1e-12 * scale)

    def test_zero_and_diagonal_members_are_exact(self):
        batched = eigen_hermitian(edge_case_stack())
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

    @pytest.mark.parametrize("huge", [1e308, -1e308j, 2e150])
    def test_rejects_huge_entries_before_any_warning(self, huge):
        stack = random_stack(np.random.default_rng(8), 3, 2)
        stack[2, 0, 0] = huge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^matrix 2 has non-finite entries or parts above"):
                eigen_hermitian(stack)
        # The bound itself is accepted.
        stack[2, 0, 0] = 1e150
        assert eigen_hermitian(stack).eigenvalues.shape == (3, 2)

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


MEMBER_KINDS = ["closed_form", "rank_one", "diagonal", "hermitian"]


@st.composite
def mixed_stacks(draw):
    """Closed-form projectors, noisy rank-1 projectors, diagonal and random Hermitian members."""
    d = draw(st.sampled_from([2, 3, 5, 7]))
    kinds = draw(st.lists(st.sampled_from(MEMBER_KINDS), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    closed = build_family(d).projectors.reshape(-1, d, d)
    members = []
    for kind in kinds:
        if kind == "closed_form":
            members.append(closed[rng.integers(len(closed))])
        elif kind == "rank_one":
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            noise = random_hermitian(rng, d)
            # Frobenius-size noise on both sides of the 1e-13 stopping rule.
            size = draw(st.sampled_from([0.0, 1e-15, 1e-13, 1e-12]))
            noise *= size / np.linalg.norm(noise)
            members.append(projector_from_state(z / np.linalg.norm(z)) + noise)
        elif kind == "diagonal":
            members.append(np.diag(rng.standard_normal(d)).astype(complex))
        else:
            members.append(random_hermitian(rng, d))
    return np.array(members)


class TestScaling:
    @pytest.mark.parametrize("size", [1e-310, 2e-308, 1e-200])
    def test_tiny_projector_is_solved(self, size):
        # Parts down to the subnormals, where squares underflow to 0.
        projector = build_family(5).projectors[1, 2]
        top = np.linalg.eigh(projector)[1][:, -1]
        m = size * projector
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decomp = eigen_hermitian(m)
        vals = decomp.eigenvalues
        assert abs(vals[0] - size) <= 1e-12 * size
        assert np.max(np.abs(vals[1:])) <= 1e-12 * size
        assert 1.0 - abs(np.vdot(top, decomp.eigenvectors[:, 0])) <= 1e-12
        assert np.max(np.abs(decomp.reconstruct() - m)) <= 1e-12 * size

    @pytest.mark.parametrize("size", [1e6, 1e100, 1e149, 1e-200])
    def test_scaled_projector_passes_the_hermitian_gate(self, size):
        # The projector's roundoff asymmetry, about 8e-17, scales with it;
        # the gate allows 1e-10 times the largest part once that exceeds 1.
        projector = build_family(5).projectors[1, 2]
        vals = eigen_hermitian(size * projector).eigenvalues
        assert abs(vals[0] - size) <= 1e-15 * size
        assert np.max(np.abs(vals[1:])) <= 1e-15 * size

    def test_extreme_scales_raise_no_warning(self):
        # Rank-1 members with parts from subnormal up to 1e150.
        states = [
            [5e-324, 1.0, 1e-160, 0.5],
            [1e-310, 1.0, 1.0, 1e-200j],
            [1e-154, 1e-154j, 0.0, 0.0],
        ]
        stack = np.array(
            [
                size * projector_from_state(np.array(z) / np.linalg.norm(z))
                for z in states
                for size in (1e-150, 1.0, 1e150)
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decomp = eigen_hermitian(stack, hermiticity_tol=np.inf)
        assert decomp.sweeps == 0
        scale = np.linalg.norm(stack, axis=(1, 2))[:, None, None]
        assert np.max(np.abs(decomp.reconstruct() - stack) / scale) < 1e-14
        expected = np.zeros(4)
        expected[0] = 1.0
        assert np.max(np.abs(decomp.eigenvalues / scale[:, :, 0] - expected)) < 1e-15


    @pytest.mark.parametrize(
        "size, message", [(1.0, "1.000e+00 exceeds 1.0e-10"), (1e100, "1.000e+100 exceeds 1.0e+90")]
    )
    def test_scaled_non_hermitian_is_refused(self, size, message):
        with pytest.raises(ValueError) as caught:
            eigen_hermitian(size * np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert str(caught.value) == f"matrix is not Hermitian: max deviation {message}"

    @settings(max_examples=60, deadline=None)
    @given(mixed_stacks(), st.integers(-300, 245))
    def test_power_of_four_scales_only_the_eigenvalues(self, stack, k):
        # Parts stay within 1e150 and above the subnormals.  A power of
        # four, like the solver's own scaling: an odd power of two would
        # round the certificate's square root, and with it a deflated
        # member's eigenvectors, differently.
        decomp = eigen_hermitian(stack, hermiticity_tol=np.inf)
        scaled = np.ldexp(stack.view(float), 2 * k).view(complex)
        assert np.array_equal(np.ldexp(scaled.view(float), -2 * k).view(complex), stack)
        solved = eigen_hermitian(scaled, hermiticity_tol=np.inf)
        assert np.array_equal(solved.eigenvalues, np.ldexp(decomp.eigenvalues, 2 * k))
        assert np.array_equal(solved.eigenvectors, decomp.eigenvectors)
        assert solved.sweeps == decomp.sweeps

    @pytest.mark.parametrize("size", [0.0, 1e-12, 1e-10])
    def test_ordinary_solves_keep_every_bit(self, size):
        stack = build_family(13).projectors.reshape(-1, 13, 13)
        noise = random_stack(np.random.default_rng(13), len(stack), 13)
        stack = stack + size * noise / np.linalg.norm(noise, axis=(1, 2))[:, None, None]
        # Members with parts of 1/13 are scaled by 16; the computational
        # basis, with parts of 1, is not.
        _, shift = _normalized(_symmetrized(stack))
        assert np.count_nonzero(shift == 4) == len(stack) - 13 == np.count_nonzero(shift)
        decomp = eigen_hermitian(stack)
        with mock.patch(
            "mubkit.reconstruct._normalized", lambda sym: (sym, np.zeros(len(sym), dtype=int))
        ):
            unscaled = eigen_hermitian(stack)
        assert decomp.sweeps == unscaled.sweeps
        assert decomp.eigenvalues.tobytes() == unscaled.eigenvalues.tobytes()
        assert decomp.eigenvectors.tobytes() == unscaled.eigenvectors.tobytes()


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

    def test_scaled_projector_message_prints_a_plain_number(self):
        # The top eigenvalue is a numpy scalar; its repr would read np.float64(...).
        message = r"^top eigenvalue 9\.000e-01 deviates from 1 beyond 1\.0e-03$"
        with pytest.raises(ValueError, match=message):
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


class TestEigenDecompositionArrays:
    def test_public_arrays_are_copied_not_frozen(self):
        vals, vecs = np.array([1.0, 0.0]), np.eye(2, dtype=complex)
        decomp = EigenDecomposition(vals, vecs, sweeps=0)
        assert vals.flags.writeable and vecs.flags.writeable
        assert not decomp.eigenvalues.flags.writeable
        assert not decomp.eigenvectors.flags.writeable
        assert not np.shares_memory(decomp.eigenvalues, vals)
        assert not np.shares_memory(decomp.eigenvectors, vecs)
        vals[0] = 5.0
        assert decomp.eigenvalues[0] == 1.0

    @pytest.mark.parametrize("single", [True, False], ids=["matrix", "stack"])
    def test_solver_hands_its_arrays_over(self, monkeypatch, single):
        # The copying constructor is never entered, and the result is frozen.
        monkeypatch.setattr(
            EigenDecomposition, "__post_init__", lambda self: pytest.fail("arrays copied")
        )
        stack = random_stack(np.random.default_rng(9), 4, 3)
        matrix = stack[0] if single else stack
        decomp = eigen_hermitian(matrix)
        assert decomp.eigenvectors.shape == matrix.shape
        assert not decomp.eigenvalues.flags.writeable
        assert not decomp.eigenvectors.flags.writeable
        assert decomp.sweeps == 0


@st.composite
def hermitian_stacks(draw):
    """Hermitian stacks near rank 1 (either sign), with parts up to 1e150."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    parts = st.floats(-1.0, 1.0, width=64)
    u = draw(hnp.arrays(np.float64, (2, n, d), elements=parts))
    e = draw(hnp.arrays(np.float64, (2, n, d, d), elements=parts))
    u, e = u[0] + 1j * u[1], e[0] + 1j * e[1]
    sign = draw(st.sampled_from([1.0, -1.0]))
    noise = draw(st.sampled_from([0.0, 1e-15, 1e-9, 1e-3, 1.0]))
    scale = draw(st.sampled_from([1e-300, 1e-10, 1.0, 1e10, 1e149]))
    m = sign * u[:, :, None] * u[:, None, :].conj() + noise * e
    return scale * 0.5 * (m + m.conj().swapaxes(-1, -2))


class TestRankOneCertificate:
    @settings(max_examples=150, deadline=None)
    @given(hermitian_stacks())
    def test_weyl_bounds_hold(self, sym):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, r = _rank_one_certificate(sym)
        assert np.all(r >= 0.0)
        for m, vec, bound in zip(sym, v, r):
            diag = np.diagonal(m).real
            if diag.max() > 0.0 and np.linalg.eigvalsh(m).min() >= 0.0:
                assert np.isfinite(bound)  # a PSD matrix is always usable
            if not np.isfinite(bound):
                continue
            # Rounding slack of both computations, relative to the largest entry.
            mass = float(np.vdot(vec, vec).real)
            slack = 64 * np.finfo(float).eps * m.shape[0] * (np.abs(m).max() + mass)
            eigs = np.linalg.eigvalsh(m)[::-1]
            target = np.zeros_like(eigs)
            target[0] = mass
            assert eigs.min() >= -bound - slack
            assert np.all(np.abs(eigs - target) <= bound + slack)

    def test_parts_at_max_entry_raise_no_warning(self):
        big = 1e150
        sym = np.array(
            [
                [[big, big + big * 1j], [big - big * 1j, big]],  # indefinite, column > pivot
                [[big, big], [big, big]],  # rank 1 at the bound
                [[-big, big * 1j], [-big * 1j, -big]],  # no positive diagonal
                [[5e-324, big], [big, 5e-324]],  # subnormal pivot under a huge column
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, r = _rank_one_certificate(sym)
        assert np.isinf(r[[0, 2, 3]]).all()
        assert r[1] <= 1e-15 * big

    def test_exact_projector_has_roundoff_residual(self):
        mats = build_family(13).projectors.reshape(-1, 13, 13)
        v, r = _rank_one_certificate(mats)
        assert r.max() < 1e-15
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-15)


def settles_nothing(sym):
    return np.zeros(sym.shape[:2], dtype=complex), np.full(sym.shape[0], np.inf)


def spectrum_path():
    """Every reader decides from the spectrum, as without the certificate."""
    stack = ExitStack()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mubkit" and hasattr(module, "_rank_one_certificate"):
            stack.enter_context(mock.patch.object(module, "_rank_one_certificate", settles_nothing))
    return stack


def outcome(call):
    try:
        return "ok", call()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


KINDS = ["rank_one", "scaled", "noisy", "mixed", "non_hermitian"]


@st.composite
def projector_families(draw):
    """(n, d, d, d) projectors: each rank 1, scaled, noisy (<= 1e-9), mixed or non-Hermitian.

    The whole stack is then scaled by 1, 1e-8 or 1e-11; at the small scales
    no projector has unit trace, and a residual is small or large only
    relative to its projector.
    """
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, d + 1))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n * d, max_size=n * d))
    size = draw(st.sampled_from([1e-15, 1e-12, 1e-11, 1e-10, 1e-9]))
    # Off the tolerances drawn below by at least a factor of 1.2, so no
    # decision rests on the last bits of an eigenvalue.
    weight = draw(st.sampled_from([0.45, 0.75, 0.9, 1.0 - 3e-9, 1.0 - 3e-11]))
    family_scale = draw(st.sampled_from([1.0, 1.0, 1e-8, 1e-11]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unit():
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return z / np.linalg.norm(z)

    mats = []
    for kind in kinds:
        u = unit()
        m = np.outer(u, u.conj())
        e = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if kind == "scaled":
            m = weight * m
        elif kind == "noisy":
            m = m + size * 0.5 * (e + e.conj().T) / np.abs(e).max()
        elif kind == "mixed":
            w = unit()
            m = weight * m + (1.0 - weight) * np.outer(w, w.conj())
        elif kind == "non_hermitian":
            m = m + 100 * size * e / np.abs(e).max()
        mats.append(m)
    return family_scale * np.array(mats).reshape(n, d, d, d)


class TestCertificateAgreesWithSpectrum:
    @settings(max_examples=100, deadline=None)
    @given(projector_families(), st.sampled_from([1e-10, 1e-9, 1e-6, 0.3, 0.6]))
    def test_same_decisions_and_messages(self, mats, tol):
        n, d = mats.shape[:2]
        doc = FamilyDocument.from_family(MubFamily(mats))
        calls = {
            "loader": lambda: doc.to_family(tol).projectors,
            "reconstruct_all": lambda: reconstruct_all(MubFamily(mats), tol),
            "state_from_projector": lambda: np.array(
                [state_from_projector(m, tol) for m in mats.reshape(n * d, d, d)]
            ),
            "from_family": lambda: SearchState.from_family(MubFamily(mats)).projectors(),
        }
        new = {name: outcome(call) for name, call in calls.items()}
        with spectrum_path():
            old = {name: outcome(call) for name, call in calls.items()}
        for name in calls:
            assert new[name][0] == old[name][0], name
            if new[name][0] != "ok":
                assert new[name][1] == old[name][1], name
        if new["loader"][0] == "ok":
            assert np.array_equal(new["loader"][1], old["loader"][1])
        if new["from_family"][0] == "ok":
            # A scaled projector is its own factor only at r <= 1e-10 ||v||^2,
            # which moves its unit-trace derived projector by a few 1e-10.
            assert np.max(np.abs(new["from_family"][1] - old["from_family"][1])) < 5e-10
        sym = 0.5 * (mats + mats.conj().swapaxes(-1, -2)).reshape(n * d, d, d)
        top = np.array([canonical_phase(np.linalg.eigh(m)[1][:, -1]) for m in sym])
        for name in ("reconstruct_all", "state_from_projector"):
            if new[name][0] == "ok":
                states, spectral = new[name][1].reshape(n * d, d), old[name][1].reshape(n * d, d)
                # Certified states are power steps, within roundoff of the
                # top eigenvectors; the rest are the spectrum's own.
                assert np.max(np.abs(states - spectral)) < 1e-12
                exact = np.max(np.abs(states - top), axis=1) < 1e-14
                assert np.all(exact | np.all(states == spectral, axis=1))

    @pytest.mark.parametrize("noise", [1e-14, 1e-13, 1e-12, 1e-11])
    def test_top_eigenvector_is_the_power_step(self, noise):
        # Where the certificate cannot settle a noisy rank-1 projector, the
        # spectrum's state is within roundoff of the power step it would give.
        rng = np.random.default_rng(9)
        for d in range(2, 9):
            z = rng.standard_normal((200, d)) + 1j * rng.standard_normal((200, d))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            e = random_stack(rng, 200, d)
            e *= noise / np.linalg.norm(e, axis=(1, 2))[:, None, None]
            sym = _symmetrized(z[:, :, None] * z[:, None, :].conj() + e)
            v, _ = _rank_one_certificate(sym)
            power = np.einsum("nij,nj->ni", sym, v)
            power /= np.linalg.norm(power, axis=1, keepdims=True)
            top = eigen_hermitian(sym).eigenvectors[:, :, 0]
            overlap = np.einsum("ni,ni->n", top.conj(), power)
            aligned = top * (overlap / abs(overlap))[:, None]
            assert np.max(np.linalg.norm(aligned - power, axis=1)) <= 1e-14
