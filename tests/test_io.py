import contextlib
import copy
import gc
import hashlib
import io
import itertools
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mubkit.algebra import MAX_FAMILY_BYTES, MubFamily
from mubkit.cli import _report_payload
from mubkit.construct import build_family
from mubkit.io import (
    FORMAT_VERSION,
    FamilyDocument,
    load_family,
    save_family,
    write_json,
)
import mubkit.io
from mubkit.io import _FloatLiterals, _load_family, _texts
from mubkit.reconstruct import reconstruct_all
from mubkit.search import SearchConfig, polish, run_search
from mubkit.verify import verify_family


def listed(doc):
    """``doc``'s payload as plain nested lists, as json reads its written bytes."""
    return json.loads(json.dumps(doc.to_payload(), default=np.ndarray.tolist))


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
        expected = listed(FamilyDocument.from_family(family, states=kept, metadata=meta))
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

    def test_states_of_the_wrong_shape_are_refused(self, tmp_path):
        path = tmp_path / "family.json"
        with pytest.raises(ValueError) as caught:
            save_family(build_family(2), str(path), states=np.eye(2, 3, dtype=complex)[None])
        assert str(caught.value) == (
            "states shaped (1, 2, 3) do not match the family (3 bases, dim 2)"
        )
        assert not path.exists()

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

    def test_writer_memory_does_not_grow_with_the_document(self, tmp_path, traced_peak):
        # 100 and 800 matrices of 26 values, as in a closed-form family.
        # Spelled run by run, eight times the numbers take about the same
        # memory; one table of the whole document took eight times as much.
        values = np.random.default_rng(13).choice(np.arange(26.0) / 7, size=(800, 13, 13, 2))
        peaks = []
        for count in (100, 800):
            payload = {"matrices": list(values[:count])}
            peaks.append(traced_peak(lambda: write_json(payload, str(tmp_path / "out.json")))[1])
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

    @pytest.mark.parametrize(
        "data",
        [
            b'\xef\xbb\xbf{"format_version": "1"}',
            b'{"format_version":\r\n "1", \r\n"dimension": 2,\r\n "bases": [',
            b'{"format_version": "1",\r "dimension": 2, "bases": [{"x\r": ',
            b'{"format_version": "1", "metadata": "\xff"}',
            b'{"format_version": "1", "meta\xc3\xa9": \r\n}',
            b'{"dimension": ' + b"1" * 5000 + b"}",  # past int()'s 4300-digit default
        ],
        ids=["bom", "crlf", "lone_cr", "invalid_utf8", "non_ascii_crlf", "long_integer"],
    )
    def test_refused_like_a_text_mode_read(self, tmp_path, data):
        # Read in binary, a document still fails where and as the text-mode
        # read it replaces failed: BOM kept, line ends read as "\n".
        path = tmp_path / "family.json"
        path.write_bytes(data)
        with pytest.raises(ValueError) as expected:
            with open(path, encoding="utf-8") as handle:
                json.loads(handle.read())
        with pytest.raises(ValueError) as caught:
            load_family(str(path))
        assert str(expected.value) in str(caught.value)
        assert repr(str(path)) in str(caught.value)

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

    def test_plain_matrix_of_the_wrong_size_in_a_later_basis(self, tmp_path):
        # Plain, so converted as parsed; its shape, not its numbers, is refused.
        path = tmp_path / "family.json"
        square = [[[0.25, 0.0]] * 3] * 3
        write_doc(path, lambda p: p["bases"][2]["projectors"][1].update(matrix=square))
        with pytest.raises(ValueError) as caught:
            load_family(str(path))
        assert str(caught.value) == "basis 2, vector 1: matrix must have 2 rows"

    def test_metadata_with_alpha_and_matrix_keys_loads(self, tmp_path):
        # Shaped like a projector entry, so converted as parsed, and ignored
        # as any metadata is; a matrix the converter leaves alone is too.
        for matrix in ([[[1.0, 0.0]]], [[[1e400, True]]]):
            path = tmp_path / "family.json"
            family = write_doc(path, lambda p: p.update(metadata={"alpha": 0, "matrix": matrix}))
            assert load_family(str(path)).projectors.tobytes() == family.projectors.tobytes()

    @pytest.mark.parametrize(
        "opening, key, bad",
        [
            ("{", "format_version", '"0"'),
            ('"metadata": {', "generator", "[]"),
            ('"bases": [{', "basis_index", "7"),
            ('"projectors": [{', "matrix", "[[[9.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]"),
        ],
        ids=["root", "metadata", "basis", "projector"],
    )
    def test_repeated_key_is_refused(self, tmp_path, opening, key, bad):
        # json.loads alone keeps the last value, so these bytes, each with a
        # bad first value, would load as the valid d = 2 family.
        path = tmp_path / "family.json"
        write_doc(path, lambda p: p.update(metadata={"generator": "construct"}))
        text = path.read_text()
        path.write_text(text.replace(opening, f'{opening}"{key}": {bad}, ', 1))
        assert json.loads(path.read_text()) == json.loads(text)
        with pytest.raises(ValueError) as caught:
            load_family(str(path))
        assert str(caught.value) == f"{str(path)!r}: key {key!r} is repeated in one object"

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

    def test_null_states_refused_like_null_metadata(self, tmp_path):
        # A present section must be a list: null is not an absent one.
        path = tmp_path / "family.json"
        for key, message in [
            ("states", "'states', when present, must be a list"),
            ("metadata", "metadata must be a JSON object"),
        ]:
            write_doc(path, lambda p: p.update({key: None}))
            with pytest.raises(ValueError) as caught:
                load_family(str(path))
            assert str(caught.value) == message

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
        payload = listed(FamilyDocument.from_family(family))
        payload["bases"][0]["projectors"][0]["matrix"][0][0] = [np.float64(0.5), np.float64(0.0)]
        loaded = FamilyDocument.from_payload(payload).to_family()
        assert loaded.projectors.tobytes() == family.projectors.tobytes()

    def test_tuple_entry_rejected(self):
        payload = listed(FamilyDocument.from_family(build_family(2)))
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

    def test_huge_dimension_rejected_before_allocating(self, traced_peak):
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

        def refuse():
            with pytest.raises(ValueError, match="expected 100000 projectors"):
                doc.to_family()

        _, peak = traced_peak(refuse)
        assert peak < 1 << 20

    @pytest.mark.parametrize("dimension", [2**62, 2**63])
    def test_dimension_beyond_any_list_rejected_as_structure(self, dimension):
        # No per-basis list of the declared length is made before the
        # document's own list is checked against it.
        payload = {
            "format_version": FORMAT_VERSION,
            "dimension": dimension,
            "bases": [{"basis_index": 0, "projectors": [{"alpha": 0, "matrix": [[[1.0, 0.0]]]}]}],
        }
        with pytest.raises(ValueError, match=f"expected {dimension} projectors"):
            FamilyDocument.from_payload(payload).to_family()

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
        with mock.patch.object(mubkit.io, "eigen_hermitian", wraps=mubkit.io.eigen_hermitian) as solver:
            family = load_family(str(path))
        assert np.array_equal(family.projectors, build_family(2).projectors)
        # A rank-1 document passes the loader's eigenvalue check on the
        # one-column certificate, so nothing is solved.
        assert solver.call_count == 0

    def test_unwritable_path(self, tmp_path):
        family = build_family(2)
        with pytest.raises(OSError, match="could not write"):
            save_family(family, str(tmp_path / "no" / "such" / "dir.json"))


def per_matrix_projectors(doc):
    """The label-ordered projector stack as a matrix-by-matrix loader reads it, or its error.

    A copy of the loader's structure checks that reads and bounds each
    matrix entry by entry as the walk reaches it: the reference for which
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
    payload = listed(FamilyDocument.from_family(MubFamily(projectors)))
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
    """A spy on the entry-by-entry read of a matrix or a state that still reads."""
    return mock.patch.object(mubkit.io, "_parse_entry", wraps=mubkit.io._parse_entry)


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

    def test_matrix_arrays_of_any_layout_load(self):
        # A caller's float arrays need not be C-contiguous; the family is the same.
        family = build_family(5)
        doc = FamilyDocument.from_family(family)
        for basis in doc.bases:
            for entry in basis["projectors"]:
                entry["matrix"] = np.asfortranarray(entry["matrix"])
        assert doc.to_family().projectors.tobytes() == family.projectors.tobytes()

    def test_list_payload_loads_entry_by_entry(self):
        family = build_family(13)
        payload = listed(FamilyDocument.from_family(family))
        pair = payload["bases"][3]["projectors"][5]["matrix"][2][1]
        pair[0] = np.float64(pair[0])
        with counting_parses() as spy:
            loaded = FamilyDocument.from_payload(payload).to_family()
        # Only an array passes as it is: every list matrix is read entry by
        # entry, the one holding the numpy float among them.
        assert spy.call_count == family.num_bases * family.dim
        assert loaded.projectors.tobytes() == family.projectors.tobytes()


def plain_matrix_reference(raw):
    """The loader's plain-matrix check as it was, with a container-type scan per level."""
    m, level = len(raw), raw
    for length in (m, 2):
        if set(map(type, level)) != {list} or set(map(len, level)) != {length}:
            return None
        level = list(itertools.chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        return None
    try:
        return np.array(level, dtype=float).reshape(m, m, 2)
    except OverflowError:
        return None


def lists_in(tree):
    """``tree`` and every list nested in it."""
    found = [tree]
    for item in tree:
        if type(item) is list:
            found += lists_in(item)
    return found


@st.composite
def near_matrices(draw):
    """JSON-typed trees near the (m, m, 2) shape of a matrix: m rows of m
    [re, im] pairs of numbers, then up to two edits, each dropping an entry
    of some list, repeating one, or replacing one by true, false, null, an
    integer beyond the float range, a string of the entry's length or any
    other JSON value."""
    m = draw(st.integers(0, 4))
    number = st.one_of(EDGE_FLOATS, st.integers())
    raw = [[[draw(number), draw(number)] for _ in range(m)] for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from(lists_in(raw)))
        if not target:
            continue
        i = draw(st.integers(0, len(target) - 1))
        kind = draw(st.sampled_from(["drop", "repeat", "scalar", "text", "json"]))
        if kind == "drop":
            del target[i]
        elif kind == "repeat":
            target.insert(i, copy.deepcopy(target[i]))
        elif kind == "scalar":
            target[i] = draw(st.sampled_from([True, False, None, 10**400]))
        elif kind == "text":
            size = len(target[i]) if type(target[i]) is list else 2
            target[i] = draw(st.text(min_size=size, max_size=size))
        else:
            target[i] = draw(JSON_VALUES)
    return raw


class TestPlainMatrix:
    @settings(max_examples=300, deadline=None)
    @given(near_matrices())
    def test_matches_the_container_scanning_reference(self, raw):
        expected = plain_matrix_reference(raw)
        actual = mubkit.io._plain_matrix(raw)
        if expected is None:
            assert actual is None
        else:
            assert actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


class TestLoadMemory:
    @pytest.mark.parametrize("noise", [0.0, 1e-12], ids=["closed", "noisy"])
    def test_load_peaks_below_2_5_times_its_file(self, tmp_path, noise, traced_peak):
        # Each matrix becomes an array as json finishes it, so the tree of
        # [re, im] lists never exists whole: the traced peak of one d = 13
        # load is the bytes and the text, about 2 times the file, where the
        # whole tree took 4.19 (closed) and 4.89 (noisy) times.
        projectors = build_family(13).projectors
        if noise:
            rng = np.random.default_rng(13)
            parts = rng.standard_normal((2, *projectors.shape))
            bumps = parts[0] + 1j * parts[1]
            projectors = projectors + noise / 2 * (bumps + bumps.conj().swapaxes(-1, -2))
        path = tmp_path / "family.json"
        save_family(MubFamily(projectors), str(path))
        load_family(str(path))  # imports and caches warmed outside the trace
        _, peak = traced_peak(lambda: load_family(str(path)))
        assert peak < 2.5 * path.stat().st_size

    def test_to_family_after_a_parse_peaks_below_3_1_times_the_projectors(
        self, tmp_path, traced_peak
    ):
        # The family's one copy, its invariants and its certificate, each
        # helper working in one scratch array: 3.84x at d = 13 before.
        path = tmp_path / "family.json"
        save_family(build_family(13), str(path))
        load_family(str(path))  # imports and caches warmed outside the trace
        original, peaks = FamilyDocument.to_family, []

        def traced(doc, *args):
            families = []
            peaks.append(traced_peak(lambda: families.append(original(doc, *args)))[1])
            return families[0]

        with mock.patch.object(FamilyDocument, "to_family", traced):
            family = load_family(str(path))
        assert peaks[0] < 3.1 * family.projectors.nbytes  # 2.95x measured

    @pytest.mark.parametrize(
        "last, literal, message",
        [
            (False, "true", "basis 0, vector 0, entry (0, 0): expected an [re, im] pair"),
            (True, "true", "basis 13, vector 12, entry (0, 0): expected an [re, im] pair"),
            (
                True,
                "1e151",
                "basis 13, vector 12: matrix entries must be finite, with parts up to 1e+150",
            ),
        ],
        ids=["first_true", "last_true", "last_out_of_bound"],
    )
    def test_refusal_peaks_below_2_5_times_its_file(
        self, tmp_path, last, literal, message, traced_peak
    ):
        # Only the bad matrix is read entry by entry, and the matrices before
        # it are bounded as arrays, so a refusal holds what a load holds;
        # reading every matrix as lists again took 3.7 to 4.6 times the file.
        path = tmp_path / "family.json"
        save_family(build_family(13), str(path))
        load_family(str(path))  # imports and caches warmed outside the trace
        text, key = path.read_text(), '"matrix": [[['
        start = (text.rindex(key) if last else text.index(key)) + len(key)
        path.write_text(text[:start] + literal + text[text.index(",", start) :])
        del text

        def refuse():
            with pytest.raises(ValueError) as caught:
                load_family(str(path))
            assert str(caught.value) == message

        _, peak = traced_peak(refuse)
        assert peak < 2.5 * path.stat().st_size


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


def write_states_doc(path, mutate=None):
    """Save a d=2 family with its reconstructed states, optionally rewriting their section first."""
    family = build_family(2)
    save_family(family, str(path), states=reconstruct_all(family))
    if mutate is not None:
        payload = json.loads(path.read_text())
        mutate(payload["states"])
        path.write_text(json.dumps(payload))
    return family


def set_amplitudes(a, alpha, amplitudes):
    """A mutation that sets the amplitudes of state (a, alpha), listed at that position."""
    return lambda states: states[a]["vectors"][alpha].update(amplitudes=amplitudes)


def swap_vectors(states):
    """Basis 1's two states trade amplitudes: each is unit, and orthogonal to its projector."""
    first, second = states[1]["vectors"]
    first["amplitudes"], second["amplitudes"] = second["amplitudes"], first["amplitudes"]


# One mutation of a d = 2 document's three-basis states section per refusal.
STATE_REFUSALS = {
    "too_few_bases": (
        lambda s: s.pop(),
        "states: basis_index values must cover 0..2, got [0, 1]",
    ),
    "non_objects": (
        lambda s: s.__setitem__(slice(None), [{"basis_index": 0, "vectors": "not a vector"}, 42]),
        "states: each basis must be an object with a 'basis_index'",
    ),
    "basis_not_object": (
        lambda s: s.__setitem__(1, 42),
        "states: each basis must be an object with a 'basis_index'",
    ),
    "no_basis_index": (
        lambda s: s[1].pop("basis_index"),
        "states: each basis must be an object with a 'basis_index'",
    ),
    "basis_index_past_the_family": (
        lambda s: s[2].update(basis_index=3),
        "states: basis_index values must cover 0..2, got [0, 1, 3]",
    ),
    "too_many_bases": (
        lambda s: s.append(dict(s[0], basis_index=3)),
        "states: basis_index values must cover 0..2, got [0, 1, 2, 3]",
    ),
    "basis_index_repeated": (
        lambda s: s[2].update(basis_index=0),
        "states: basis_index 0 is invalid or duplicated",
    ),
    "basis_index_boolean": (
        lambda s: s[0].update(basis_index=False),
        "states: basis_index False is invalid or duplicated",
    ),
    "vectors_not_a_list": (
        lambda s: s[0].update(vectors="not a vector"),
        "states: basis 0: expected 2 vectors",
    ),
    "too_few_vectors": (lambda s: s[1]["vectors"].pop(), "states: basis 1: expected 2 vectors"),
    "vector_not_object": (
        lambda s: s[1]["vectors"].__setitem__(0, []),
        "states: basis 1: each vector needs an 'alpha'",
    ),
    "no_alpha": (
        lambda s: s[1]["vectors"][0].pop("alpha"),
        "states: basis 1: each vector needs an 'alpha'",
    ),
    "alpha_repeated": (
        lambda s: s[1]["vectors"][1].update(alpha=0),
        "states: basis 1: alpha 0 is invalid or duplicated",
    ),
    "alpha_past_the_dimension": (
        lambda s: s[1]["vectors"][1].update(alpha=2),
        "states: basis 1: alpha 2 is invalid or duplicated",
    ),
    "no_amplitudes": (
        lambda s: s[1]["vectors"][0].pop("amplitudes"),
        "states: basis 1, vector 0: amplitudes must have 2 entries",
    ),
    "too_many_amplitudes": (
        lambda s: s[1]["vectors"][0]["amplitudes"].append([0.0, 0.0]),
        "states: basis 1, vector 0: amplitudes must have 2 entries",
    ),
    "boolean_pair": (
        set_amplitudes(1, 0, [[0.6, 0.0], [True, False]]),
        "states: basis 1, vector 0, entry 1: expected an [re, im] pair",
    ),
    "string_part": (
        set_amplitudes(2, 1, [[0.6, "0.0"], [0.8, 0.0]]),
        "states: basis 2, vector 1, entry 0: expected an [re, im] pair",
    ),
    "triple": (
        set_amplitudes(0, 1, [[0.6, 0.0, 0.0], [0.8, 0.0]]),
        "states: basis 0, vector 1, entry 0: expected an [re, im] pair",
    ),
    "part_out_of_bound": (
        set_amplitudes(1, 1, [[0.6, 0.0], [1e151, 0.0]]),
        "states: basis 1, vector 1: amplitudes must be finite, with parts up to 1e+150",
    ),
    "integer_beyond_floats": (
        set_amplitudes(1, 1, [[0.6, 0.0], [0.0, 10**400]]),
        "states: basis 1, vector 1: amplitudes must be finite, with parts up to 1e+150",
    ),
    "not_normalized": (
        set_amplitudes(0, 0, [[9.0, 0.0], [9.0, 0.0]]),
        "states: basis 0, vector 0: squared norm deviates from 1 by 1.610e+02 "
        "(tolerance 1.0e-09)",
    ),
    "not_its_projector": (
        swap_vectors,
        "states: basis 1, vector 0: <v|P|v> with its projector deviates from 1 by 1.000e+00 "
        "(tolerance 1.0e-09)",
    ),
    # Check by check: a bad pair anywhere before a bound, a bound before a
    # norm, and within one check, basis index then document order.
    "pair_before_norm": (
        lambda s: (
            set_amplitudes(0, 0, [[9.0, 0.0], [9.0, 0.0]])(s),
            set_amplitudes(2, 1, [[0.6, 0.0], [None, 0.0]])(s),
        ),
        "states: basis 2, vector 1, entry 1: expected an [re, im] pair",
    ),
    "bound_before_norm": (
        lambda s: (
            set_amplitudes(0, 0, [[9.0, 0.0], [9.0, 0.0]])(s),
            set_amplitudes(2, 1, [[0.6, 0.0], [1e151, 0.0]])(s),
        ),
        "states: basis 2, vector 1: amplitudes must be finite, with parts up to 1e+150",
    ),
    "listed_order_within_a_basis": (
        lambda s: (
            s[1]["vectors"].reverse(),
            set_amplitudes(1, 0, [[2.0, 0.0], [0.0, 0.0]])(s),
            set_amplitudes(1, 1, [[3.0, 0.0], [0.0, 0.0]])(s),
        ),
        "states: basis 1, vector 1: squared norm deviates from 1 by 3.000e+00 "
        "(tolerance 1.0e-09)",
    ),
    "basis_index_before_listed_order": (
        lambda s: (
            s.reverse(),
            set_amplitudes(0, 0, [[2.0, 0.0], [0.0, 0.0]])(s),
            set_amplitudes(2, 0, [[3.0, 0.0], [0.0, 0.0]])(s),
        ),
        "states: basis 0, vector 0: squared norm deviates from 1 by 8.000e+00 "
        "(tolerance 1.0e-09)",
    ),
    # One rule with the bases: the first defect in document order is named,
    # a bound before a later structural defect.
    "bound_before_later_structure": (
        lambda s: (
            set_amplitudes(0, 0, [[1e151, 0.0], [0.0, 0.0]])(s),
            s[2]["vectors"][0].pop("alpha"),
        ),
        "states: basis 0, vector 0: amplitudes must be finite, with parts up to 1e+150",
    ),
}


@st.composite
def states_with_one_bad_entry(draw):
    """A closed-form payload with its states, d <= 5, one NUMBER_MUTATIONS or
    PAIR_MUTATIONS edit at a random state, at times a later basis missing an
    alpha too; with the start of the refusal it must meet, None if none."""
    d = draw(st.sampled_from([2, 3, 5]))
    family = build_family(d)
    payload = listed(FamilyDocument.from_family(family, states=reconstruct_all(family)))
    states = payload["states"]
    a, alpha, p = (draw(st.integers(0, k - 1)) for k in (d + 1, d, d))
    amplitudes = states[a]["vectors"][alpha]["amplitudes"]
    kind = draw(st.sampled_from(["number", *sorted(PAIR_MUTATIONS)]))
    if kind == "number":
        amplitudes[p][draw(st.integers(0, 1))] = draw(st.sampled_from(NUMBER_MUTATIONS))
    else:
        amplitudes[p] = PAIR_MUTATIONS[kind](amplitudes[p])
    # The numpy float is accepted; every other edit is named at its state.
    expected = None if kind == "numpy float" else f"states: basis {a}, vector {alpha}"
    if a < d and draw(st.booleans()):
        b = draw(st.integers(a + 1, d))
        states[b]["vectors"][draw(st.integers(0, d - 1))].pop("alpha")
        expected = expected or f"states: basis {b}: each vector needs an 'alpha'"
    if draw(st.booleans()):
        states.reverse()  # the walk reads the bases by index, whatever their order
    return payload, expected


class TestStatesSection:
    @settings(max_examples=150, deadline=None)
    @given(states_with_one_bad_entry())
    def test_one_bad_entry_is_named_at_its_state(self, tmp_path_factory, edit):
        payload, expected = edit
        path = tmp_path_factory.mktemp("states") / "family.json"
        path.write_text(json.dumps(payload))
        # In memory every list is read entry by entry; from a file only the edited one is.
        for load in (
            lambda: FamilyDocument.from_payload(payload).to_family(),
            lambda: load_family(str(path)),
        ):
            if expected is None:
                assert load().num_bases == payload["dimension"] + 1
                continue
            with pytest.raises(ValueError) as caught:
                load()
            message = str(caught.value)
            assert message.startswith(expected), message
            assert message[len(expected) :][:1] in ("", ":", ","), message

    @pytest.mark.parametrize("mutate, message", STATE_REFUSALS.values(), ids=list(STATE_REFUSALS))
    def test_refused_and_named(self, tmp_path, mutate, message):
        path = tmp_path / "family.json"
        write_states_doc(path, mutate)
        with pytest.raises(ValueError) as caught:
            load_family(str(path))
        assert str(caught.value) == message

    @pytest.mark.parametrize("noise", [0.0, 1e-12], ids=["closed", "noisy"])
    def test_reconstructed_documents_load_as_their_families(self, tmp_path, noise):
        projectors = build_family(13).projectors
        if noise:
            rng = np.random.default_rng(13)
            parts = rng.standard_normal((2, *projectors.shape))
            bumps = parts[0] + 1j * parts[1]
            projectors = projectors + noise / 2 * (bumps + bumps.conj().swapaxes(-1, -2))
        family = MubFamily(projectors)
        path = tmp_path / "states.json"
        save_family(family, str(path), states=reconstruct_all(family))
        assert load_family(str(path)).projectors.tobytes() == family.projectors.tobytes()

    def test_documents_in_memory_and_numpy_numbers_are_checked_too(self):
        family = build_family(3)
        states = reconstruct_all(family)
        doc = FamilyDocument.from_family(family, states=states)  # amplitudes as arrays
        assert doc.to_family().projectors.tobytes() == family.projectors.tobytes()
        payload = listed(doc)
        pair = payload["states"][2]["vectors"][1]["amplitudes"][0]
        pair[0] = np.float64(pair[0])  # not plain: read entry by entry, and accepted
        assert FamilyDocument.from_payload(payload).to_family().num_bases == 4
        states[0, 0] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match=r"^states: basis 0, vector 0: squared norm"):
            FamilyDocument.from_family(family, states=states).to_family()

    def test_checked_at_the_load_tolerance(self, tmp_path):
        family = write_states_doc(tmp_path / "family.json")
        states = reconstruct_all(family)
        states[2, 1] *= 1.0 + 1e-8  # ||v||^2 and <v|P|v> both 2e-8 off
        path = tmp_path / "off.json"
        save_family(family, str(path), states=states)
        with pytest.raises(ValueError, match=r"^states: basis 2, vector 1: squared norm"):
            load_family(str(path))
        assert load_family(str(path), tolerance=1e-6).num_bases == 3

    def test_extreme_values_raise_no_warning(self, tmp_path):
        # At tolerance 1e300, ||v||^2 = 1e298 passes and <v|P|v> = 1e448
        # reads inf; a zero state passes at tolerance 1.  No warning either way.
        mats = np.zeros((1, 2, 2, 2), dtype=complex)
        mats[0, 0, 0, 0] = mats[0, 1, 1, 1] = 1e150
        path = tmp_path / "huge.json"
        save_family(MubFamily(mats), str(path), states=np.diag([1e149, 1e149])[None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as caught:
                load_family(str(path), tolerance=1e300)
            zero = tmp_path / "zero.json"
            save_family(build_family(2), str(zero), states=np.zeros((3, 2, 2)))
            assert load_family(str(zero), tolerance=1.0).num_bases == 3
        assert str(caught.value) == (
            "states: basis 0, vector 0: <v|P|v> with its projector deviates from 1 by inf "
            "(tolerance 1.0e+300)"
        )

    def test_load_with_states_peaks_below_2_5_times_its_file(self, tmp_path, traced_peak):
        # The amplitude lists are freed as parsed, like the matrices: 2.0x measured.
        family = build_family(13)
        path = tmp_path / "states.json"
        save_family(family, str(path), states=reconstruct_all(family))
        load_family(str(path))  # imports and caches warmed outside the trace
        _, peak = traced_peak(lambda: load_family(str(path)))
        assert peak < 2.5 * path.stat().st_size

    def test_plain_section_reads_no_vector_alone(self, tmp_path):
        # Each plain amplitude list is an array once parsed, so the check
        # makes no Python call per pair: 0.24 ms at d = 13.
        family = build_family(13)
        path = str(tmp_path / "states.json")
        save_family(family, path, states=reconstruct_all(family))
        with counting_parses() as parses:
            load_family(path)
        assert parses.call_count == 0


def collections_during(call):
    """The generations of the cyclic collections that run while ``call()`` runs."""
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()  # so that no collection falls due in what the call does first
    gc.callbacks.append(record)
    try:
        call()
    finally:
        gc.callbacks.remove(record)
    return generations


@contextlib.contextmanager
def collector(enabled):
    """The cyclic collector switched on or off for the block, then as it was."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


class TestCollector:
    def test_closed_form_load_runs_no_collection(self, tmp_path):
        # The object hook frees each matrix's lists as the parser finishes
        # it, so a load never holds enough new containers for a collection
        # to fall due, with the collector left on.
        family = build_family(13)
        path = str(tmp_path / "family.json")
        save_family(family, path)
        loaded = []
        with collector(True):
            generations = collections_during(lambda: loaded.append(load_family(path)))
        assert generations == []
        assert loaded[0].projectors.tobytes() == family.projectors.tobytes()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "case, error",
        [
            ("loads", None),
            ("invalid_json", "not valid JSON"),
            ("bad_structure", "unsupported format_version"),
            ("refused_matrix", "Hermitian symmetry"),
            ("oversized", "above the"),
            ("missing", "could not read"),
            ("too_deep", "nested too deeply"),
        ],
        ids=[
            "loads", "invalid_json", "bad_structure", "refused_matrix", "oversized", "missing",
            "too_deep",
        ],
    )
    def test_load_leaves_the_collector_as_it_found_it(
        self, tmp_path, monkeypatch, enabled, case, error
    ):
        # A load changes no process-wide state: it loads or names its error
        # the same way with the collector on or off, and leaves it so.
        path = tmp_path / "family.json"

        def asymmetric(p):
            p["bases"][0]["projectors"][0]["matrix"][0][1][0] += 1e-3

        write_doc(path, asymmetric if case == "refused_matrix" else None)
        if case == "invalid_json":
            path.write_text("{")
        elif case == "bad_structure":
            path.write_text('{"format_version": "0"}')
        elif case == "oversized":
            monkeypatch.setattr(mubkit.io, "_MAX_DOCUMENT_BYTES", path.stat().st_size - 1)
        elif case == "missing":
            path = tmp_path / "absent.json"
        elif case == "too_deep":
            path.write_text("[" * 200_000)
        with collector(enabled):
            if error is None:
                assert load_family(str(path)).dim == 2
            else:
                with pytest.raises((OSError, ValueError), match=error):
                    load_family(str(path))
            assert gc.isenabled() == enabled


class TestHashingAndReports:
    def test_sha256_is_stable_and_content_sensitive(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_doc(a)
        write_doc(b)
        assert _load_family(str(a), digest=True)[1] == _load_family(str(b), digest=True)[1]
        # CRLF line ends are read as "\n": the same family from other bytes.
        b.write_bytes(b.read_bytes().replace(b", ", b",\r\n"))
        family, sha256 = _load_family(str(b), digest=True)
        assert family.projectors.tobytes() == build_family(2).projectors.tobytes()
        assert sha256 == hashlib.sha256(b.read_bytes()).hexdigest()
        assert sha256 != hashlib.sha256(a.read_bytes()).hexdigest()
        assert _load_family(str(b))[1] is None

    def test_report_payload_fields(self, tmp_path):
        family = build_family(2)
        path = tmp_path / "family.json"
        save_family(family, str(path))
        report = verify_family(family, keep_gram=True)
        sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
        payload = _report_payload(report, (str(path), sha256))
        assert payload["tool_version"] == mubkit.__version__
        assert payload["input_path"] == str(path)
        assert payload["input_sha256"] == sha256
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
