import contextlib
import io
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mubkit.algebra import MAX_FAMILY_BYTES, MubFamily
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
import mubkit.io
from mubkit.io import _FloatLiterals, _texts
from mubkit.reconstruct import reconstruct_all
from mubkit.search import SearchConfig, polish, run_search
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
        # The same through the literal table, whichever parser the load chose.
        payload = json.loads(text, parse_float=_FloatLiterals().__getitem__)
        assert FamilyDocument.from_payload(payload).to_family().projectors.tobytes() == (
            expected.tobytes()
        )

    def test_table_only_for_documents_whose_numbers_repeat(self, tmp_path):
        path = str(tmp_path / "family.json")
        for d in (5, 7, 13):
            family = build_family(d)
            rng = np.random.default_rng(d)
            real = rng.standard_normal(family.projectors.shape)
            noise = real + 1j * rng.standard_normal(family.projectors.shape)
            real_noisy = family.projectors + 1e-12 * (real + real.swapaxes(-1, -2))
            noisy = family.projectors + 1e-12 * (noise + noise.conj().swapaxes(-1, -2))
            # Closed-form basis 0 at the head, distinct numbers everywhere after it.
            mixed = np.concatenate([family.projectors[:1], noisy[1:]])
            polished = polish(family, SearchConfig(dim=d, num_bases=d + 1)).best_family
            documents = [
                (family, {}, True),
                # A pooled head-and-tail distinct share of 0.05-0.11.
                (family, {"states": reconstruct_all(family)}, True),
                # A pooled share of 0.20, 0.07 and 0.01 at d = 5, 7 and 13.
                (polished, {}, True),
                (MubFamily(real_noisy), {}, False),
                (MubFamily(noisy), {}, False),
                (MubFamily(mixed), {}, False),
            ]
            for fam, extra, tabled in documents:
                save_family(fam, path, **extra)
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
                assert (mubkit.io._parse_float(text) is float) != tabled

    def test_table_is_bounded(self):
        table = _FloatLiterals()
        literals = [repr(0.001 * k) for k in range(3 * mubkit.io._FLOAT_LITERALS)]
        assert [table[x] for x in literals + literals] == [float(x) for x in literals + literals]
        assert len(table) == mubkit.io._FLOAT_LITERALS

    def test_signed_zero_keeps_its_sign(self, tmp_path):
        path = tmp_path / "family.json"
        # 0.0 == -0.0, so a cache keyed by value would hand back the 0.0
        # read first; keyed by literal, each keeps its own sign.
        path.write_text(
            '{"metadata": {"first": 0.0}, "format_version": "1", "dimension": 1, "bases": '
            '[{"basis_index": 0, "projectors": [{"alpha": 0, "matrix": [[[1.0, -0.0]]]}]}]}'
        )
        assert np.signbit(load_family(str(path)).projectors[0, 0, 0, 0].imag)
        assert np.signbit(json.loads("[0.0, -0.0]", parse_float=_FloatLiterals().__getitem__))[1]


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


# Float arrays, which the writer encodes from its value table, among other JSON values.
ARRAY_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.integers(),
        EDGE_FLOATS,
        TEXT,
        hnp.arrays(
            float,
            hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
            elements=EDGE_FLOATS,
        ),
    ),
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

    def test_family_document_numbers_go_through_the_value_table(self, tmp_path, monkeypatch):
        # Every matrix and every amplitude vector reaches the value table as
        # a float array, so none of them is formatted by json.dumps.
        family = build_family(3)
        shapes = []

        def recording(arrays):
            shapes.extend(a.shape for a in arrays)
            return _texts(arrays)

        monkeypatch.setattr(mubkit.io, "_texts", recording)
        save_family(family, str(tmp_path / "family.json"), states=reconstruct_all(family))
        assert shapes == [(3, 3, 2)] * 12 + [(3, 2)] * 12

    @settings(max_examples=100, deadline=None)
    @given(payload=ARRAY_VALUES, to_file=st.booleans())
    def test_arrays_read_as_their_lists(self, tmp_path_factory, payload, to_file):
        path = tmp_path_factory.mktemp("written") / "out.json" if to_file else None
        assert written(payload, path) == json.dumps(payload, default=np.ndarray.tolist) + "\n"

    def test_string_that_reads_as_the_placeholder(self, tmp_path):
        # Strings that read as the first placeholders, whole or after a quote.
        payload = {"a": "\0array 0", "b": np.array([[1.0, -0.0]]), "c": ["z\"\0array 1"]}
        expected = json.dumps(payload, default=np.ndarray.tolist) + "\n"
        assert written(payload, tmp_path / "out.json") == expected

    @pytest.mark.parametrize(
        "value",
        [np.arange(3), np.ones(2, dtype=complex), np.ones(2, ">f8"), np.ones(2, np.float32)],
    )
    def test_other_arrays_fail_like_json(self, tmp_path, value):
        path = tmp_path / "out.json"
        path.write_bytes(b"previous contents\n")
        with pytest.raises(TypeError) as expected:
            json.dumps({"x": value})
        with pytest.raises(TypeError, match=f"^{expected.value}$"):
            write_json({"x": np.zeros(2), "y": value}, str(path))
        assert path.read_bytes() == b"previous contents\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e151 + 0j, -2e150j])
    def test_states_refused_unless_finite_and_bounded(self, tmp_path, bad):
        path = tmp_path / "family.json"
        family = build_family(2)
        save_family(family, str(path))
        before = path.read_bytes()
        states = reconstruct_all(family)
        states[1, 0, 1] = bad
        message = r"^state amplitudes must be finite, with parts up to 1e\+150$"
        with pytest.raises(ValueError, match=message):
            save_family(family, str(path), states=states)
        assert path.read_bytes() == before

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


# Floats around the points where repr changes form: exponent notation from
# 1e16 up and below 1e-4 (1e-05), and the ends of the exponent range.
BOUNDARY_FLOATS = st.sampled_from(
    [1e16, 9999999999999998.0, 1.0000000000000002e16, 1e-5, 1e-4, 9.999999999999999e-05,
     1.0000000000000001e-05, 1e-308, 1e308, 1.5e-300, -2.5e300, 123456789.0, 0.1]
)
TABLE_FLOATS = st.one_of(EDGE_FLOATS, BOUNDARY_FLOATS, st.floats(-1e6, 1e6))


@st.composite
def float_stacks(draw):
    """A (B, rows, cols, 2) or (B, cols, 2) stack of all-distinct, all-repeated or mixed floats."""
    blocks, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(blocks, d, d, 2), (blocks, d, 2)]))
    kind = draw(st.sampled_from(["distinct", "repeated", "mixed"]))
    if kind == "repeated":
        return np.full(shape, draw(TABLE_FLOATS))
    if kind == "distinct":
        return draw(hnp.arrays(float, shape, elements=st.floats(allow_nan=False), unique=True))
    return draw(hnp.arrays(float, shape, elements=TABLE_FLOATS))


class TestFloatTable:
    @settings(max_examples=300, deadline=None)
    @given(stack=float_stacks(), run=st.sampled_from([1, 5, 1 << 14]))
    def test_block_texts_are_json_dumps(self, stack, run):
        blocks = list(stack)
        with mock.patch.object(mubkit.io, "_RUN", run):
            texts = list(_texts(blocks))
        assert texts == [json.dumps(b.tolist()) for b in blocks]

    @pytest.mark.parametrize("shape", [(), (1, 1, 1, 2), (3,), (2, 3, 1)])
    def test_any_shape(self, shape):
        arrays = [np.full(shape, -0.0), np.arange(math.prod(shape), dtype=float).reshape(shape)]
        assert list(_texts(arrays)) == [json.dumps(a.tolist()) for a in arrays]

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3, 2)])
    def test_empty_arrays_are_written_by_json(self, tmp_path, shape):
        payload = {"a": [np.ones(2), np.empty(shape), np.ones(2)]}
        expected = json.dumps({"a": [[1.0, 1.0], np.empty(shape).tolist(), [1.0, 1.0]]}) + "\n"
        assert written(payload, tmp_path / "out.json") == expected

    def test_writer_memory_does_not_grow_with_the_document(self, tmp_path):
        # 100 and 800 matrices of 26 values, as in a closed-form family.
        # Spelled run by run, eight times the numbers take about the same
        # memory; one table of the whole document took eight times as much.
        values = np.random.default_rng(13).choice(np.arange(26.0) / 7, size=(800, 13, 13, 2))
        peaks = []
        for count in (100, 800):
            payload = {"matrices": list(values[:count])}
            tracemalloc.start()
            try:
                write_json(payload, str(tmp_path / "out.json"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_signed_zeros_keep_their_sign(self):
        blocks = [np.array([[0.0, -0.0]]), np.array([[-0.0, 0.0]])]
        assert list(_texts(blocks)) == ["[[0.0, -0.0]]", "[[-0.0, 0.0]]"]


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

    def test_oversized_file_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "family.json"
        write_doc(path)
        size = path.stat().st_size
        monkeypatch.setattr(mubkit.io, "_MAX_DOCUMENT_BYTES", size - 1)
        with pytest.raises(ValueError) as caught:
            load_family(str(path))
        assert str(caught.value) == (
            f"family document {str(path)!r} has {size} bytes, above the {size - 1}-byte limit"
        )
        monkeypatch.setattr(mubkit.io, "_MAX_DOCUMENT_BYTES", size)
        assert load_family(str(path)).dim == 2

    @pytest.mark.parametrize("d", [3, 7])
    def test_size_limit_admits_the_widest_document(self, tmp_path, d):
        # Every part spelled at its widest, with states and metadata: per
        # projector entry, no more bytes than the limit allows a family of
        # MAX_FAMILY_BYTES.
        widest = -2.2250738585072014e-308 * (1 + 1j)
        family = MubFamily(np.full((d + 1, d, d, d), widest))
        path = tmp_path / "widest.json"
        metadata = {"generator": "reconstruct", "timestamp": "2026-01-01T00:00:00.000000+00:00"}
        save_family(family, str(path), states=np.full((d + 1, d, d), widest), metadata=metadata)
        per_entry = mubkit.io._MAX_DOCUMENT_BYTES / (MAX_FAMILY_BYTES // 16)
        assert path.stat().st_size <= per_entry * family.projectors.size

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


def per_matrix_projectors(doc):
    """The label-ordered projector stack as a matrix-by-matrix loader reads it, or its error.

    A copy of the loader's structure checks with the per-matrix parse it
    used before it checked all matrices at once: the reference for which
    error wins and for every bit of what loads.
    """
    d = doc.dimension

    def is_index(x):
        return isinstance(x, int) and not isinstance(x, bool)

    def is_number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def parse(raw, where):
        if not isinstance(raw, list) or len(raw) != d:
            raise ValueError(f"{where}: matrix must have {d} rows")
        for p, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != d:
                raise ValueError(f"{where}: row {p} must have {d} entries")
            for q, pair in enumerate(row):
                if not isinstance(pair, list) or len(pair) != 2 or not all(map(is_number, pair)):
                    raise ValueError(f"{where}, entry ({p}, {q}): expected an [re, im] pair")
        try:
            pairs = np.array(raw, dtype=float)
        except OverflowError:
            pairs = None
        if pairs is None or not np.all(np.abs(pairs) <= 1e150):
            raise ValueError(f"{where}: matrix entries must be finite, with parts up to 1e+150")
        return pairs.view(complex).reshape(d, d)

    indexed = {}
    for item in doc.bases:
        if not isinstance(item, dict) or "basis_index" not in item:
            raise ValueError("each basis must be an object with a 'basis_index'")
        a = item["basis_index"]
        if not is_index(a) or a in indexed:
            raise ValueError(f"basis_index {a!r} is invalid or duplicated")
        indexed[a] = item
    n = len(indexed)
    if sorted(indexed) != list(range(n)):
        raise ValueError(f"basis_index values must cover 0..{n - 1}, got {sorted(indexed)}")
    if not 1 <= n <= d + 1:
        raise ValueError(f"num_bases must lie in 1..d+1 = 1..{d + 1}, got {n}")
    parsed = {}
    for a in range(n):
        projectors = indexed[a].get("projectors")
        if not isinstance(projectors, list) or len(projectors) != d:
            raise ValueError(f"basis {a}: expected {d} projectors")
        seen = set()
        for entry in projectors:
            if not isinstance(entry, dict) or "alpha" not in entry:
                raise ValueError(f"basis {a}: each projector needs an 'alpha'")
            alpha = entry["alpha"]
            if not is_index(alpha) or not 0 <= alpha < d or alpha in seen:
                raise ValueError(f"basis {a}: alpha {alpha!r} is invalid or duplicated")
            seen.add(alpha)
            parsed[a * d + alpha] = parse(entry.get("matrix"), f"basis {a}, vector {alpha}")
    return np.array([parsed[row] for row in range(n * d)]).reshape(n, d, d, d)


# Replacements for one number or one [re, im] pair of a matrix; all are
# refused but the numpy float, which the per-matrix parse accepts.
NUMBER_MUTATIONS = [True, False, "0.5", None, 10**400, 1e151, math.nan, -math.inf]
PAIR_MUTATIONS = {
    "triple": lambda pair: pair + [0.0],
    "nested": lambda pair: [pair],
    "numpy float": lambda pair: [np.float64(pair[0]), pair[1]],
}


@st.composite
def mutated_payloads(draw):
    """A closed-form or noisy family payload, d <= 7, with at most one bad entry
    and, at times, a duplicated alpha in some basis."""
    d = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, d + 1))
    projectors = build_family(d).projectors[:n]
    size = draw(st.sampled_from([0.0, 1e-13, 1e-11]))
    if size:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        noise = rng.standard_normal(projectors.shape) + 1j * rng.standard_normal(projectors.shape)
        projectors = projectors + size * (noise + noise.conj().swapaxes(-1, -2))
    payload = FamilyDocument.from_family(MubFamily(projectors)).to_payload()
    if draw(st.booleans()):
        a, alpha, p, q = (draw(st.integers(0, k - 1)) for k in (n, d, d, d))
        row = payload["bases"][a]["projectors"][alpha]["matrix"][p]
        kind = draw(st.sampled_from(["number", "pair", "ragged"]))
        if kind == "number":
            row[q][draw(st.integers(0, 1))] = draw(st.sampled_from(NUMBER_MUTATIONS))
        elif kind == "pair":
            row[q] = PAIR_MUTATIONS[draw(st.sampled_from(sorted(PAIR_MUTATIONS)))](row[q])
        else:
            del row[q]
    if draw(st.booleans()):
        b, alpha = draw(st.integers(0, n - 1)), draw(st.integers(1, d - 1))
        entries = payload["bases"][b]["projectors"]
        entries[alpha]["alpha"] = entries[alpha - 1]["alpha"]
    return payload


def counting_parses():
    """A spy on the per-matrix parse that still parses."""
    return mock.patch.object(
        FamilyDocument, "_parse_matrix", autospec=True, side_effect=FamilyDocument._parse_matrix
    )


class TestBatchedParse:
    @settings(max_examples=200, deadline=None)
    @given(mutated_payloads())
    def test_matches_the_per_matrix_loader(self, payload):
        doc = FamilyDocument.from_payload(payload)
        try:
            expected = per_matrix_projectors(doc)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                doc.to_family()
            assert str(caught.value) == str(exc)
        else:
            assert doc.to_family().projectors.tobytes() == expected.tobytes()

    def test_well_formed_document_parses_no_matrix_alone(self, tmp_path):
        family = build_family(13)
        path = str(tmp_path / "family.json")
        save_family(family, path)
        with counting_parses() as spy:
            loaded = load_family(path)
            # A document built in memory holds arrays; they pass as their lists.
            built = FamilyDocument.from_family(family).to_family()
        assert spy.call_count == 0
        assert loaded.projectors.tobytes() == family.projectors.tobytes()
        assert built.projectors.tobytes() == family.projectors.tobytes()

    def test_numpy_float_entry_loads_matrix_by_matrix(self):
        family = build_family(13)
        payload = FamilyDocument.from_family(family).to_payload()
        pair = payload["bases"][3]["projectors"][5]["matrix"][2][1]
        pair[0] = np.float64(pair[0])
        with counting_parses() as spy:
            loaded = FamilyDocument.from_payload(payload).to_family()
        assert spy.call_count == 14 * 13
        assert loaded.projectors.tobytes() == family.projectors.tobytes()


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
