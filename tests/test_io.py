import contextlib
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mubkit.algebra import MubFamily
from mubkit.construct import build_family
from mubkit.io import (
    FORMAT_VERSION,
    FamilyDocument,
    file_sha256,
    load_family,
    report_payload,
    save_family,
    write_json,
)
from mubkit.io import _walk
from mubkit.reconstruct import reconstruct_all
from mubkit.search import SearchConfig, run_search
from mubkit.verify import verify_family


def write_doc(path, mutate=None):
    """Save a d=2 family, optionally rewriting the JSON payload first."""
    family = build_family(2)
    save_family(family, str(path))
    if mutate is not None:
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
    return family


class TestRoundTrip:
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_constructed_family_bit_exact(self, tmp_path, d):
        family = build_family(d)
        path = tmp_path / f"family{d}.json"
        save_family(family, str(path))
        loaded = load_family(str(path))
        assert np.array_equal(loaded.projectors, family.projectors)

    def test_search_family_bit_exact(self, tmp_path):
        result = run_search(SearchConfig(dim=2, num_bases=3, seed=42))
        path = tmp_path / "searched.json"
        save_family(result.best_family, str(path))
        loaded = load_family(str(path))
        assert np.array_equal(loaded.projectors, result.best_family.projectors)

    def test_states_and_metadata_survive(self, tmp_path):
        family = build_family(3)
        states = reconstruct_all(family)
        path = tmp_path / "with_states.json"
        save_family(family, str(path), states=states, metadata={"note": "round trip"})
        payload = json.loads(path.read_text())
        doc = FamilyDocument.from_payload(payload)
        assert doc.metadata["note"] == "round trip"
        assert doc.states is not None
        flat = np.array(
            [
                [complex(re, im) for re, im in vec["amplitudes"]]
                for group in doc.states
                for vec in group["vectors"]
            ]
        )
        assert np.array_equal(flat.reshape(states.shape), states)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.integers(1, d + 1).flatmap(
                lambda n: hnp.arrays(
                    np.float64, (2, n, d, d), elements=st.floats(-1.0, 1.0, width=64)
                )
            )
        )
    )
    def test_property_random_states_bit_exact(self, tmp_path_factory, parts):
        states = parts[0] + 1j * parts[1]
        # Keep every vector away from zero so it can be normalized; the
        # other entries stay arbitrary, signed zeros and subnormals included.
        states[..., 0] += 2.0
        states /= np.linalg.norm(states, axis=-1, keepdims=True)
        family = MubFamily.from_states(states)
        path = tmp_path_factory.mktemp("roundtrip") / "family.json"
        save_family(family, str(path))
        assert load_family(str(path)).projectors.tobytes() == family.projectors.tobytes()

    def test_loaded_family_verifies(self, tmp_path):
        family = build_family(5)
        path = tmp_path / "f5.json"
        save_family(family, str(path))
        assert verify_family(load_family(str(path))).passed


ONE = ["1.0", "1.00", "1e0", "1E+0", "10e-1", "0.1e1", "1"]
ZERO = ["0.0", "-0.0", "0e0", "-0e0", "0", "5e-324", "-5e-324", "1e-320", "2.2250738585072014e-308"]
HUGE = ["1e999", "-1e999"]


@st.composite
def literal_documents(draw):
    """The d = 2 computational basis, each number spelled its own way."""

    def leaf(value):
        spellings = ONE if value else ZERO
        return draw(st.sampled_from(spellings + HUGE if draw(st.booleans()) else spellings))

    matrices = []
    for alpha in range(2):
        rows = [
            "[" + ", ".join(f"[{leaf(p == q == alpha)}, {leaf(False)}]" for q in range(2)) + "]"
            for p in range(2)
        ]
        matrices.append(f'{{"alpha": {alpha}, "matrix": [{", ".join(rows)}]}}')
    return (
        f'{{"format_version": "1", "dimension": 2, "bases": [{{"basis_index": 0, '
        f'"projectors": [{", ".join(matrices)}]}}]}}'
    )


class TestFloatLiteralCache:
    @settings(max_examples=60, deadline=None)
    @given(literal_documents())
    def test_loads_like_plain_json(self, tmp_path_factory, text):
        # Signed zeros, subnormals, several spellings of one value and
        # out-of-range literals come out bit for bit as json's own floats.
        path = tmp_path_factory.mktemp("literals") / "family.json"
        path.write_text(text)

        def plain():
            return FamilyDocument.from_payload(json.loads(text)).to_family().projectors

        def tabled():
            return load_family(str(path)).projectors

        try:
            expected = plain()
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                tabled()
            assert str(caught.value) == str(exc)
            return
        assert tabled().tobytes() == expected.tobytes()

    def test_signed_zero_keeps_its_sign(self, tmp_path):
        path = tmp_path / "family.json"
        # 0.0 == -0.0, so a cache keyed by value would hand back the 0.0
        # read first; keyed by literal, each keeps its own sign.
        path.write_text(
            '{"metadata": {"first": 0.0}, "format_version": "1", "dimension": 1, "bases": '
            '[{"basis_index": 0, "projectors": [{"alpha": 0, "matrix": [[[1.0, -0.0]]]}]}]}'
        )
        assert np.signbit(load_family(str(path)).projectors[0, 0, 0, 0].imag)


# Floats where a formatter could go wrong: signed zero, the smallest
# subnormal and other subnormals, the largest double, and json's own
# spellings of NaN and the infinities.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(allow_nan=True, allow_infinity=True),
)
PAIRS = st.lists(EDGE_FLOATS, min_size=2, max_size=2)
# Near misses of a pair block: ints or bools among the parts, triples, ragged rows.
NEAR_PAIRS = st.one_of(
    st.lists(st.one_of(EDGE_FLOATS, st.integers(), st.booleans()), min_size=2, max_size=2),
    st.lists(EDGE_FLOATS, min_size=3, max_size=3),
)
PAIR_BLOCKS = st.one_of(
    st.lists(PAIRS, min_size=1, max_size=4),
    st.integers(1, 3).flatmap(
        lambda cols: st.lists(st.lists(PAIRS, min_size=cols, max_size=cols), min_size=1, max_size=3)
    ),
    st.lists(st.lists(st.one_of(PAIRS, NEAR_PAIRS), max_size=3), max_size=3),
)
# Text with non-ASCII, control and lone surrogate characters, for strings and keys alike.
TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), EDGE_FLOATS, TEXT, PAIR_BLOCKS),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=12,
)


def written(payload, path) -> str:
    """What write_json puts in ``path``, or on stdout without a path."""
    if path is None:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            write_json(payload, None)
        return out.getvalue()
    write_json(payload, str(path))
    return path.read_bytes().decode("utf-8")


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(payload=JSON_VALUES, to_file=st.booleans())
    def test_bytes_are_json_dumps(self, tmp_path_factory, payload, to_file):
        path = tmp_path_factory.mktemp("written") / "out.json" if to_file else None
        assert written(payload, path) == json.dumps(payload) + "\n"

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            [[]],
            [[], [[]]],
            {},
            {"a": [[[]]]},
            [[[0.0, -0.0]], [[-0.0, 0.0]]],
            [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]],
            {1: [[1.0, 2.0]], 2.5: None, True: 0, None: "\x00\u00e9\U0001f600"},
            {"\u00e9\n": [[np.float64(0.1), 0.2]]},
        ],
        ids=["empty", "nested-empty", "deeper-empty", "empty-dict", "empty-in-dict",
             "signed-zeros", "ragged-matrices", "non-str-keys", "float-subclass"],
    )
    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_edge_payloads(self, tmp_path, payload, to_file):
        path = tmp_path / "out.json" if to_file else None
        assert written(payload, path) == json.dumps(payload) + "\n"

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(1, 7),
        bases=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        with_states=st.booleans(),
        to_file=st.booleans(),
    )
    def test_family_documents(self, tmp_path_factory, d, bases, seed, with_states, to_file):
        rng = np.random.default_rng(seed)
        shape = (min(bases, d + 1), d, d)
        states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        states /= np.linalg.norm(states, axis=-1, keepdims=True)
        family = MubFamily.from_states(states)
        kept = states if with_states else None
        meta = {"seed": seed, "note": "caf\u00e9"}
        expected = FamilyDocument.from_family(family, states=kept, metadata=meta).to_payload()
        if to_file:
            path = tmp_path_factory.mktemp("family") / "family.json"
            save_family(family, str(path), states=kept, metadata=meta)
            text = path.read_text()
        else:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                save_family(family, None, states=kept, metadata=meta)
            text = out.getvalue()
        assert text == json.dumps(expected) + "\n"

    def test_family_document_numbers_are_pair_blocks(self):
        # Every matrix and every amplitude vector goes through the value
        # table, so none of them is formatted by json.dumps.
        family = build_family(3)
        payload = FamilyDocument.from_family(family, states=reconstruct_all(family)).to_payload()
        pieces, blocks = [], []
        _walk(payload, pieces, blocks, set())
        assert [(nested, rows, cols) for _, nested, rows, cols in blocks] == (
            [(True, 3, 3)] * 12 + [(False, 1, 3)] * 12
        )

    @pytest.mark.parametrize(
        "payload,error",
        [
            ({"bases": [[[1.0, 2.0]]], "metadata": {"tags": {"a"}}}, TypeError),
            ({"bases": [[[1.0, 2.0]]], "metadata": {("a", 1): 0}}, TypeError),
            ({"metadata": {"x": [[0.5, 0.5]]}, "bad": object()}, TypeError),
        ],
        ids=["set", "tuple-key", "object"],
    )
    def test_failed_encode_leaves_the_file_untouched(self, tmp_path, payload, error):
        path = tmp_path / "out.json"
        path.write_bytes(b"previous contents\n")
        with pytest.raises(error):
            json.dumps(payload)
        with pytest.raises(error):
            write_json(payload, str(path))
        assert path.read_bytes() == b"previous contents\n"

    def test_circular_payload_fails_like_json(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"previous contents\n")
        payload = {"bases": [[[1.0, 2.0]]]}
        payload["metadata"] = [payload]
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            json.dumps(payload)
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            write_json(payload, str(path))
        assert path.read_bytes() == b"previous contents\n"

    def test_failed_save_family_leaves_the_file_untouched(self, tmp_path):
        path = tmp_path / "family.json"
        save_family(build_family(3), str(path))
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_family(build_family(3), str(path), metadata={"tags": {"a", "b"}})
        assert path.read_bytes() == before


class TestRejection:
    def test_truncated_file(self, tmp_path):
        path = tmp_path / "family.json"
        write_doc(path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(ValueError, match="not valid JSON"):
            load_family(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="could not read"):
            load_family(str(tmp_path / "absent.json"))

    def test_root_not_object(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_family(str(path))

    def test_bad_format_version(self, tmp_path):
        path = tmp_path / "family.json"
        write_doc(path, lambda p: p.update(format_version="999"))
        with pytest.raises(ValueError, match="format_version"):
            load_family(str(path))

    def test_missing_bases(self, tmp_path):
        path = tmp_path / "family.json"
        write_doc(path, lambda p: p.pop("bases"))
        with pytest.raises(ValueError, match="'bases'"):
            load_family(str(path))

    def test_non_hermitian_entry_is_located(self, tmp_path):
        path = tmp_path / "family.json"

        def mutate(p):
            p["bases"][1]["projectors"][0]["matrix"][0][1] = [0.9, 0.0]

        write_doc(path, mutate)
        with pytest.raises(ValueError, match=r"basis 1, vector 0, entry \(0, 1\)"):
            load_family(str(path))

    def test_trace_violation_reported(self, tmp_path):
        path = tmp_path / "family.json"

        def mutate(p):
            p["bases"][0]["projectors"][1]["matrix"][0][0] = [0.75, 0.0]

        write_doc(path, mutate)
        with pytest.raises(ValueError, match="trace deviates"):
            load_family(str(path))

    def test_indefinite_matrix_rejected(self, tmp_path):
        path = tmp_path / "family.json"

        def mutate(p):
            # Hermitian, unit trace, but eigenvalues 1.5 and -0.5.
            p["bases"][0]["projectors"][0]["matrix"] = [
                [[1.5, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [-0.5, 0.0]],
            ]

        write_doc(path, mutate)
        with pytest.raises(ValueError, match="not positive-semidefinite"):
            load_family(str(path))

    def test_duplicate_alpha(self, tmp_path):
        path = tmp_path / "family.json"

        def mutate(p):
            p["bases"][0]["projectors"][1]["alpha"] = 0

        write_doc(path, mutate)
        with pytest.raises(ValueError, match="duplicated"):
            load_family(str(path))

    def test_wrong_projector_count(self, tmp_path):
        path = tmp_path / "family.json"
        write_doc(path, lambda p: p["bases"][0]["projectors"].pop())
        with pytest.raises(ValueError, match="expected 2 projectors"):
            load_family(str(path))

    def test_basis_index_gap(self, tmp_path):
        path = tmp_path / "family.json"
        write_doc(path, lambda p: p["bases"][2].update(basis_index=7))
        with pytest.raises(ValueError, match="cover 0..2"):
            load_family(str(path))

    def test_malformed_entry_pair(self, tmp_path):
        path = tmp_path / "family.json"

        def mutate(p):
            p["bases"][0]["projectors"][0]["matrix"][1][1] = [0.5]

        write_doc(path, mutate)
        with pytest.raises(ValueError, match=r"\[re, im\] pair"):
            load_family(str(path))

    def test_non_finite_entry(self, tmp_path):
        path = tmp_path / "family.json"

        def mutate(p):
            p["bases"][0]["projectors"][0]["matrix"][0][0] = [1e400, 0.0]

        write_doc(path, mutate)
        with pytest.raises(ValueError, match="finite"):
            load_family(str(path))

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p.update(dimension=True), "dimension"),
            (lambda p: p["bases"][1].update(basis_index=True), "basis_index"),
            (lambda p: p["bases"][0]["projectors"][1].update(alpha=True), "alpha"),
            (
                # The computational projector's entry (0, 0) is [1.0, 0.0]:
                # a coerced [true, false] would load unnoticed.
                lambda p: p["bases"][2]["projectors"][0]["matrix"][0].__setitem__(0, [True, False]),
                r"entry \(0, 0\): expected an \[re, im\] pair",
            ),
        ],
        ids=["dimension", "basis_index", "alpha", "matrix_entry"],
    )
    def test_json_booleans_rejected(self, tmp_path, mutate, fragment):
        path = tmp_path / "family.json"
        write_doc(path, mutate)
        with pytest.raises(ValueError, match=fragment):
            load_family(str(path))

    def test_numeric_subclass_entries_accepted(self):
        # Not plain int/float, so the per-entry checks decide, and they
        # accept numpy floats built in process.
        family = build_family(2)
        payload = FamilyDocument.from_family(family).to_payload()
        payload["bases"][0]["projectors"][0]["matrix"][0][0] = [np.float64(0.5), np.float64(0.0)]
        loaded = FamilyDocument.from_payload(payload).to_family()
        assert loaded.projectors.tobytes() == family.projectors.tobytes()

    def test_tuple_entry_rejected(self):
        payload = FamilyDocument.from_family(build_family(2)).to_payload()
        payload["bases"][1]["projectors"][1]["matrix"][1][0] = (0.5, 0.0)
        with pytest.raises(ValueError, match=r"basis 1, vector 1, entry \(1, 0\): expected"):
            FamilyDocument.from_payload(payload).to_family()

    @pytest.mark.parametrize("entry", [[1e308, 0.0], [0.0, -1e308], [2e150, 0.0]])
    def test_huge_finite_entry_refused_before_any_warning(self, tmp_path, entry):
        path = tmp_path / "family.json"

        def mutate(p):
            p["bases"][1]["projectors"][0]["matrix"][0][0] = entry

        write_doc(path, mutate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^basis 1, vector 0: matrix entries must be"):
                load_family(str(path))

    def test_integer_beyond_float_range(self, tmp_path):
        path = tmp_path / "family.json"
        write_doc(path)
        text = path.read_text().replace("0.5", str(10**400), 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="finite"):
            load_family(str(path))

    def test_huge_dimension_rejected_before_allocating(self):
        payload = {
            "format_version": FORMAT_VERSION,
            "dimension": 100000,
            "bases": [
                {
                    "basis_index": 0,
                    "projectors": [{"alpha": 0, "matrix": [[[1.0, 0.0]]]}],
                }
            ],
        }
        doc = FamilyDocument.from_payload(payload)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="expected 100000 projectors"):
                doc.to_family()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_first_failing_matrix_reported_with_first_failed_check(self, tmp_path):
        path = tmp_path / "family.json"

        def mutate(p):
            # Basis 0, vector 1 breaks the trace; basis 1, vector 0 breaks
            # Hermitian symmetry and the trace.  Basis order decides which
            # matrix is named; within it, symmetry is checked before trace.
            p["bases"][1]["projectors"][0]["matrix"][0][0] = [0.75, 0.0]
            p["bases"][1]["projectors"][0]["matrix"][0][1] = [0.9, 0.0]
            p["bases"][0]["projectors"][1]["matrix"][0][0] = [0.75, 0.0]

        write_doc(path, mutate)
        with pytest.raises(ValueError, match=r"^basis 0, vector 1: trace deviates"):
            load_family(str(path))
        payload = json.loads(path.read_text())
        payload["bases"][0]["projectors"][1]["matrix"][0][0] = [0.5, 0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"^basis 1, vector 0, entry \(0, 1\): Hermitian"):
            load_family(str(path))

    def test_first_failure_in_document_order_within_a_basis(self, tmp_path):
        path = tmp_path / "family.json"

        def mutate(p):
            # Basis 1 lists alpha 1 before alpha 0.  Alpha 1 (first in the
            # document) breaks the trace, alpha 0 (first by label) breaks
            # Hermitian symmetry; the document order decides.
            projectors = p["bases"][1]["projectors"]
            projectors.reverse()
            projectors[0]["matrix"][0][0] = [0.75, 0.0]
            projectors[1]["matrix"][0][1] = [0.9, 0.0]

        write_doc(path, mutate)
        with pytest.raises(ValueError, match=r"^basis 1, vector 1: trace deviates from 1 by 2\.500e-01"):
            load_family(str(path))

    def test_reordered_document_loads_in_label_order(self, tmp_path):
        path = tmp_path / "family.json"
        write_doc(path, lambda p: p["bases"][1]["projectors"].reverse())
        family = load_family(str(path))
        assert np.array_equal(family.projectors, build_family(2).projectors)
        # A rank-1 document passes the loader's eigenvalue check on the
        # one-column certificate, so no spectrum is solved or kept.
        assert "spectrum" not in vars(family)

    def test_unwritable_path(self, tmp_path):
        family = build_family(2)
        with pytest.raises(OSError, match="could not write"):
            save_family(family, str(tmp_path / "no" / "such" / "dir.json"))


class TestLoadTolerance:
    def test_tiny_defect_loads(self, tmp_path):
        path = tmp_path / "family.json"

        def mutate(p):
            p["bases"][0]["projectors"][0]["matrix"][0][1][0] += 1e-10

        write_doc(path, mutate)
        load_family(str(path))

    def test_defect_beyond_tolerance_rejected(self, tmp_path):
        path = tmp_path / "family.json"

        def mutate(p):
            p["bases"][0]["projectors"][0]["matrix"][0][1][0] += 1e-8

        write_doc(path, mutate)
        with pytest.raises(ValueError, match="Hermitian symmetry"):
            load_family(str(path))
        # A looser explicit tolerance accepts the same file.
        load_family(str(path), tolerance=1e-6)


class TestHashingAndReports:
    def test_sha256_is_stable_and_content_sensitive(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text("payload")
        b.write_text("payload")
        assert file_sha256(str(a)) == file_sha256(str(b))
        b.write_text("payload!")
        assert file_sha256(str(a)) != file_sha256(str(b))

    def test_report_payload_fields(self, tmp_path):
        family = build_family(2)
        path = tmp_path / "family.json"
        save_family(family, str(path))
        report = verify_family(family, keep_gram=True)
        payload = report_payload(report, tool_version="0.1.0", source_path=str(path))
        assert payload["tool_version"] == "0.1.0"
        assert payload["input_sha256"] == file_sha256(str(path))
        assert payload["passed"] is True
        assert payload["dim"] == 2
        assert len(payload["gram"]) == 6
        # Report fields in field order, then provenance, then the Gram matrix.
        assert list(payload) == [
            "tool_version",
            "dim",
            "num_bases",
            "tolerance",
            "max_self_residual",
            "max_cross_residual",
            "trace_residual",
            "hermiticity_residual",
            "psd_min_eigenvalue",
            "angle_check",
            "passed",
            "input_path",
            "input_sha256",
            "gram",
        ]

    def test_format_version_recorded(self, tmp_path):
        path = tmp_path / "family.json"
        write_doc(path)
        assert json.loads(path.read_text())["format_version"] == FORMAT_VERSION
