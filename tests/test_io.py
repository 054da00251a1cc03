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
)
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
        # The loader's check solved the stack; the family keeps that solve.
        assert "spectrum" in vars(family)

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
