import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mubkit.algebra import (
    MubFamily,
    _canonical_phases,
    canonical_phase,
    projector_from_state,
    unbiased_gram_target,
)
from mubkit.construct import build_family
from mubkit.io import FamilyDocument, load_family, save_family
from mubkit.reconstruct import eigen_hermitian, reconstruct_all, state_from_projector
from mubkit.search import SearchState
from mubkit.verify import verify_family, verify_states

HALVES = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
CIRCLE = 0.5 * np.array([[1, 1j], [-1j, 1]], dtype=complex)


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf)]


def strictly(f, *args):
    """``f(*args)`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def hilbert_schmidt(m1, m2):
    """Re Tr(m1 m2), summed by einsum: a route independent of the flattened vectors."""
    return float(np.einsum("ij,ji->", m1, m2).real)


def flattened(*projectors):
    """``MubFamily.as_vectors`` of a one-basis family holding ``projectors``."""
    return MubFamily(np.array([projectors], dtype=complex)).as_vectors()


# The computational basis and the X basis of C^2: two unbiased bases.
QUBIT_PAIR = MubFamily(
    [[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [HALVES, 0.5 * np.array([[1, -1], [-1, 1]])]]
)


class TestFlatten:
    """The flattening of the paper, as ``MubFamily.as_vectors`` reads it: row-major."""

    def test_diagonal_projector(self):
        assert np.array_equal(flattened(np.diag([1.0, 0.0]), HALVES)[0], [1, 0, 0, 0])

    def test_uniform_projector(self):
        assert np.array_equal(flattened(np.diag([1.0, 0.0]), HALVES)[1], [0.5, 0.5, 0.5, 0.5])

    def test_circular_projector(self):
        assert np.array_equal(flattened(CIRCLE, HALVES)[0], [0.5, 0.5j, -0.5j, 0.5])

    def test_row_major_component_order(self):
        m = np.arange(9).reshape(3, 3) * 1.0
        v = flattened(m, m, m)[1]
        for p in range(3):
            for q in range(3):
                assert v[p * 3 + q] == m[p, q]

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="inconsistent dimensions"):
            MubFamily(np.zeros((1, 2, 2, 3)))


class TestWInner:
    """Inner products of flattened projectors, as the verifier's Gram matrix holds them."""

    def test_self_inner_of_diagonal(self):
        assert verify_family(QUBIT_PAIR, keep_gram=True).gram[0, 0] == 1

    def test_cross_basis_value(self):
        assert verify_family(QUBIT_PAIR, keep_gram=True).gram[0, 2] == pytest.approx(0.5)

    def test_orthogonal_same_basis(self):
        assert verify_family(QUBIT_PAIR, keep_gram=True).gram[2, 3] == pytest.approx(0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda d: st.tuples(st.integers(1, d + 1), st.just(d))),
        st.data(),
    )
    def test_matches_trace_product(self, shape, data):
        # The paper's identity: the Gram entry of flattened Hermitian matrices
        # P_i and P_j is Re Tr(P_i P_j), here summed by einsum instead.
        n, d = shape
        parts = data.draw(
            hnp.arrays(float, (n * d, d, d, 2), elements=st.floats(-10, 10, allow_subnormal=False))
        )
        m = parts.view(complex)[..., 0]
        stack = 0.5 * (m + m.conj().swapaxes(-1, -2))
        # A zero member is drawn too: its angles are NaN, with no warning.
        gram = verify_family(MubFamily(stack.reshape(n, d, d, d)), keep_gram=True).gram
        expected = np.einsum("aij,bji->ab", stack, stack).real
        roundoff = 1e-14 * d * d * max(1.0, float(np.max(np.abs(stack)))) ** 2
        assert np.max(np.abs(gram - expected), initial=0.0) <= roundoff


class TestTraceProduct:
    """Re Tr(P Q) of projectors built from states, which verify_states reads as |<u|v>|^2."""

    def test_self(self):
        m = projector_from_state([1.0, 0.0])
        assert hilbert_schmidt(m, m) == 1.0

    def test_cross_basis(self):
        plus = projector_from_state(np.array([1.0, 1.0]) / np.sqrt(2))
        assert hilbert_schmidt(projector_from_state([1.0, 0.0]), plus) == pytest.approx(0.5)

    def test_two_rotated_projectors(self):
        plus = projector_from_state(np.array([1.0, 1.0]) / np.sqrt(2))
        right = projector_from_state(np.array([1.0, 1j]) / np.sqrt(2))
        assert hilbert_schmidt(plus, right) == pytest.approx(0.5)


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
        expected = "state vector squared norm 2.0 deviates from 1 beyond 1.0e-10"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            projector_from_state([1.0, 1.0])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="state vector entries must be finite"):
            strictly(projector_from_state, [bad, 0.0])

    def test_rank_one_traces(self):
        rng = np.random.default_rng(3)
        for d in (2, 4, 7):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v /= np.linalg.norm(v)
            m = projector_from_state(v)
            assert abs(np.trace(m) - 1.0) < 1e-12
            assert abs(hilbert_schmidt(m, m) - 1.0) < 1e-12


def first_tie(v) -> int:
    """Index of the first component whose modulus is within 1e-8 of the largest, relatively."""
    mods = np.abs(v)
    return int(np.argmax(mods >= float(mods.max()) * (1.0 - 1e-8)))


def rotated(v, pivot):
    """``v`` times the phase that makes component ``pivot`` real and positive."""
    mods = np.abs(v)
    out = v * (complex(v[pivot]).conjugate() / float(mods[pivot]))
    out[np.abs(out) > 1e150] *= 1.0 - 2.0**-48  # a modulus rotated past the bound
    out[pivot] = mods[pivot]
    return out


def per_vector_canonical_phase(v):
    """The one-state formula that the stack implementation must reproduce bit for bit."""
    mods = np.abs(v)
    top = float(mods.max())
    pivot = first_tie(v)
    # A real positive component tied within 2^-46 of the slack's threshold,
    # before any component tied beyond it, is kept as the pivot.
    near = top * ((1.0 - 1e-8) * (1.0 - 2.0**-46))
    clear = top * ((1.0 - 1e-8) * (1.0 + 2.0**-46))
    for i, z in enumerate(v):
        if z.imag == 0.0 and z.real > 0.0 and mods[i] >= near:
            pivot = i
            break
        if mods[i] >= clear:
            break
    return rotated(v, pivot)


# Parts where a division through a reciprocal, or a lost zero sign, would show.
EDGE_REALS = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300, 5e-324, 1e150, 2**-0.5]
EDGE_PARTS = [1j, -1j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), 1e-300j]


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

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("at", [0, 1])
    def test_rejects_non_finite_entries(self, bad, at):
        state = [1.0, 1.0]
        state[at] = bad
        with pytest.raises(ValueError, match="state vector entries must be finite"):
            strictly(canonical_phase, state)

    # Moduli up to the 1e150 bound, which the draw reaches often: the
    # canonical form of every state canonical_phase accepts is one it accepts.
    # A drawn modulus can round to one ulp above the bound, a state
    # canonical_phase refuses (test_rejects_moduli_above_the_bound).
    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            complex,
            st.integers(1, 8),
            elements=st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e150),
        ).filter(lambda v: np.any(v != 0) and np.abs(v).max() <= 1e150)
    )
    def test_idempotent(self, v):
        once = strictly(canonical_phase, v)
        assert np.array_equal(strictly(canonical_phase, once), once)

    def test_idempotent_at_the_bound(self):
        # Unit moduli at 1e150 in directions whose rotation rounds a modulus up.
        rng = np.random.default_rng(11)
        for _ in range(2000):
            v = 1e150 * np.exp(2j * np.pi * rng.random(rng.integers(2, 9)))
            v = v[np.abs(v) <= 1e150]
            if v.size:
                once = strictly(canonical_phase, v)
                assert np.abs(once).max() <= 1e150
                assert np.array_equal(strictly(canonical_phase, once), once)

    # Angle pairs (theta, phi) for states [x e^{i theta}, e^{i phi}].
    ANGLES = np.random.default_rng(2026).uniform(0.0, 2.0 * np.pi, (2000, 2))

    def test_idempotent_at_the_tie_slack(self):
        # The first modulus sits one ulp below (1 - 1e-8) times the second,
        # so rotation can round it across the slack either way; a second
        # call changed about a quarter of these states.
        x = np.nextafter(1.0 - 1e-8, 0.0)
        for theta, phi in self.ANGLES:
            once = strictly(canonical_phase, [x * np.exp(1j * theta), np.exp(1j * phi)])
            assert np.array_equal(strictly(canonical_phase, once), once)

    @pytest.mark.parametrize(
        "x",
        [1.0, 1.0 - 0.5e-8, (1.0 - 1e-8) * (1.0 + 1e-12), (1.0 - 1e-8) * (1.0 - 1e-12), 1.0 - 2e-8],
        ids=["equal", "tied", "tied_by_1e-12", "untied_by_1e-12", "untied"],
    )
    def test_no_pivot_moves_beyond_roundoff(self, x):
        # Tied or untied by more than roundoff, the pivot is the first tie,
        # whether or not a component is already real and positive.
        a, b = x * np.exp(1j * self.ANGLES[:, 0]), np.exp(1j * self.ANGLES[:, 1])
        pairs = ((a, b), (x, b), (a, 1.0), (b, a))
        stack = np.concatenate([np.column_stack(np.broadcast_arrays(*pair)) for pair in pairs])
        for v, got in zip(stack, _canonical_phases(stack)):
            assert got.tobytes() == rotated(v, first_tie(v)).tobytes()

    @pytest.mark.parametrize("state", [[1e150 + 1e150j], [1.0, 2e149 - 1e150j]])
    def test_rejects_moduli_above_the_bound(self, state):
        # Every part is within 1e150, but a canonical form would put the
        # modulus into a real part; both state entry points name the bound.
        for call in (canonical_phase, projector_from_state):
            with pytest.raises(ValueError, match=r"^state vector moduli must be at most 1e\+150$"):
                strictly(call, state)

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            complex,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.one_of(
                st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e150),
                st.sampled_from(EDGE_PARTS),
                st.builds(complex, st.sampled_from(EDGE_REALS), st.sampled_from(EDGE_REALS)),
            ),
        )
    )
    def test_stack_matches_per_vector_reference(self, stack):
        stack = stack[np.any(stack != 0, axis=1)]
        assume(len(stack))
        got = _canonical_phases(stack)
        for row, state in enumerate(stack):
            # Bit for bit, signed zeros included.
            assert got[row].tobytes() == per_vector_canonical_phase(state).tobytes()


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

    def test_caller_array_is_copied(self):
        mats = build_family(3).projectors.copy()
        fam = MubFamily(mats)
        assert mats.flags.writeable
        assert not np.shares_memory(mats, fam.projectors)
        mats[0, 0, 0, 0] = 5.0
        assert fam.projectors[0, 0, 0, 0] == 1.0 / 3.0

    def test_own_takes_the_array_itself(self):
        mats = build_family(3).projectors.copy()
        fam = MubFamily._own(mats)
        assert fam.projectors is mats and not mats.flags.writeable
        assert np.array_equal(fam.invariants[1], MubFamily(mats).invariants[1])

    @pytest.mark.parametrize(
        "mats,message",
        [
            (np.zeros((2, 2, 2), dtype=complex), "axes"),
            (np.zeros((4, 2, 2, 2), dtype=complex), "num_bases"),
            (np.full((1, 2, 2, 2), np.nan, dtype=complex), "finite"),
            (np.zeros((1, 2, 2, 2)), "C-order complex"),
            (np.asfortranarray(np.zeros((1, 2, 2, 2), dtype=complex)), "C-order complex"),
        ],
        ids=["axes", "bases", "nan", "real", "fortran"],
    )
    def test_own_checks_what_the_constructor_checks(self, mats, message):
        with pytest.raises(ValueError, match=message):
            MubFamily._own(mats)

    def test_as_vectors_matches_labels(self):
        fam = self._trivial(num_bases=2, d=2)
        vecs = fam.as_vectors()
        for row, (a, alpha) in enumerate(fam.labels()):
            assert np.array_equal(vecs[row], fam.projector(a, alpha).reshape(-1))

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

    def test_verify_solves_the_symmetrized_stack_in_label_order(self):
        rng = np.random.default_rng(7)
        mats = np.array([[random_hermitian(rng, 3) for _ in range(3)] for _ in range(2)])
        mats[1, 2, 0, 1] += 0.5  # no Hermitian gate: the verifier judges the defect
        sym = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
        for a in range(2):
            for alpha in range(3):
                shifted = mats.copy()
                shifted[a, alpha] -= 10.0 * np.eye(3)  # the lowest eigenvalue sits at this label
                lowest = verify_family(MubFamily(shifted)).psd_min_eigenvalue
                expected = np.linalg.eigvalsh(sym[a, alpha])[0] - 10.0
                assert np.isclose(lowest, expected, rtol=0.0, atol=1e-12)

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

    def test_from_states_judges_unit_states_by_their_trace(self):
        # Each norm is within 1e-10 of 1 but each trace only within 1.8e-10,
        # so these states are refused here as the certificate would fail them.
        states = reconstruct_all(build_family(5)) * (1 + 0.9e-10)
        message = r"^state vector squared norm 1\.00000000018\d* deviates from 1 beyond 1\.0e-10$"
        with pytest.raises(ValueError, match=message):
            MubFamily.from_states(states)
        with pytest.raises(ValueError, match="not normalized"):
            verify_states(states)


def _load_at(tol, path):
    save_family(build_family(3), str(path))
    return load_family(str(path), tol)


# Every public function that takes a tolerance, called on valid input.
# eigen_hermitian is tested on its own below: an infinite gate is its "no gate".
TOLERANCE_CALLS = {
    "projector_from_state": lambda tol, path: projector_from_state(np.array([1.0, 0.0]), tol),
    "MubFamily.from_states": lambda tol, path: MubFamily.from_states([np.eye(2)], tol),
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

    @pytest.mark.parametrize("tol", [np.nan, -1.0], ids=["nan", "negative"])
    def test_eigen_hermitian_gate_refused_and_named(self, tol):
        # A NaN gate skipped the Hermitian check: [[1, 1], [0, 1]] solved as
        # its symmetrized part.  A negative one refused even the identity.
        # inf is eigen_hermitian's "no gate", so the message asks for no
        # finite value.
        expected = (
            rf"^tolerance must be non-negative \(inf for no gate\), got {re.escape(repr(tol))}$"
        )
        for matrix in ([[1.0, 1.0], [0.0, 1.0]], np.eye(2)):
            with pytest.raises(ValueError, match=expected):
                eigen_hermitian(matrix, hermiticity_tol=tol)

    def test_eigen_hermitian_infinite_gate_accepted(self):
        # The rule its message states: inf passes, and skips the gate.
        solved = eigen_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]), hermiticity_tol=np.inf)
        assert np.allclose(solved.eigenvalues, [1.5, 0.5])

    @pytest.mark.parametrize(
        "tol,shown",
        [(np.float64("nan"), "nan"), (np.float32(-1.0), "-1.0"), (np.int64(-3), "-3")],
        ids=["float64-nan", "float32-negative", "int64-negative"],
    )
    def test_numpy_scalar_named_as_plain_number(self, tol, shown):
        expected = rf"^tolerance must be finite and non-negative, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=expected):
            projector_from_state(np.array([1.0, 0.0]), tol)


def _with_part(shape, bad, base=None):
    """A complex array of ``shape`` (zeros, or ``base``) whose first entry is ``bad``."""
    arr = np.zeros(shape, dtype=complex) if base is None else np.array(base, dtype=complex)
    arr.reshape(-1)[0] = bad
    return arr


def _load_with_part(bad, path):
    save_family(build_family(2), str(path))
    payload = json.loads(path.read_text())
    payload["bases"][0]["projectors"][0]["matrix"][0][0][0] = bad
    path.write_text(json.dumps(payload))
    return load_family(str(path))


BOUND = re.escape("1e+150")

# Every public entry point that takes an array, the call with one part
# ``bad``, and the message it must refuse that part with.
BOUNDED_CALLS = {
    "MubFamily": (
        lambda bad, path: MubFamily(_with_part((1, 2, 2, 2), bad)),
        f"^projector entries must be finite, with parts up to {BOUND}$",
    ),
    "SearchState": (
        lambda bad, path: SearchState(_with_part((1, 2, 2, 2), bad)),
        f"^factor entries must be finite, with parts up to {BOUND}$",
    ),
    "projector_from_state": (
        lambda bad, path: projector_from_state(_with_part(2, bad)),
        f"^state vector entries must be finite, with parts up to {BOUND}$",
    ),
    "canonical_phase": (
        lambda bad, path: canonical_phase(_with_part(2, bad)),
        f"^state vector entries must be finite, with parts up to {BOUND}$",
    ),
    "eigen_hermitian": (
        lambda bad, path: eigen_hermitian(_with_part((2, 2), bad, np.eye(2))),
        f"^matrix has non-finite entries or parts above {BOUND}$",
    ),
    "state_from_projector": (
        lambda bad, path: state_from_projector(_with_part((2, 2), bad, np.diag([1.0, 0.0]))),
        f"^matrix has non-finite entries or parts above {BOUND}$",
    ),
    "verify_states": (
        lambda bad, path: verify_states(_with_part((1, 2, 2), bad, [np.eye(2)])),
        r"^state \(basis 0, vector 0\) is not normalized: squared norm deviates by nan$",
    ),
    "FamilyDocument.from_family": (
        lambda bad, path: FamilyDocument.from_family(
            build_family(2), states=_with_part((3, 2, 2), bad)
        ),
        f"^state amplitudes must be finite, with parts up to {BOUND}$",
    ),
    "load_family": (
        _load_with_part,
        f"^basis 0, vector 0: matrix entries must be finite, with parts up to {BOUND}$",
    ),
}


# Empty or misshapen input to each entry point, and the message refusing it.
SHAPE_REFUSALS = {
    "canonical_phase-matrix": (
        lambda: canonical_phase(np.zeros((2, 2))),
        "expected a nonempty 1-D state vector, got shape (2, 2)",
    ),
    "projector_from_state-empty": (
        lambda: projector_from_state([]),
        "expected a nonempty 1-D state vector, got shape (0,)",
    ),
    "MubFamily-zero-dimension": (
        lambda: MubFamily(np.zeros((1, 0, 0, 0))),
        "dimension must be positive",
    ),
    "from_states-no-basis": (
        lambda: MubFamily.from_states([]),
        "need at least one basis with at least one state",
    ),
    "from_states-empty-basis": (
        lambda: MubFamily.from_states([[]]),
        "need at least one basis with at least one state",
    ),
    "state_from_projector-stack": (
        lambda: state_from_projector(np.eye(2)[None]),
        "expected a square matrix, got shape (1, 2, 2)",
    ),
}


@pytest.mark.parametrize("call", list(SHAPE_REFUSALS.values()), ids=list(SHAPE_REFUSALS))
def test_entry_points_refuse_empty_or_misshapen_input(call):
    entry, message = call
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry()


@pytest.mark.parametrize("bad", [1e200, 1e308, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", list(BOUNDED_CALLS.values()), ids=list(BOUNDED_CALLS))
def test_entry_points_refuse_unbounded_parts_without_warning(call, bad, tmp_path):
    # One bound for every array a caller hands in: a part that is non-finite
    # or above 1e150 is refused before any arithmetic could warn on it.
    entry, message = call
    with pytest.raises(ValueError, match=message):
        strictly(entry, bad, tmp_path / "family.json")
