import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mubkit.cli
from mubkit.algebra import MubFamily
from mubkit.cli import cli_dispatch
from mubkit.construct import build_family
from mubkit.io import FamilyDocument, load_family, save_family
from mubkit.verify import verify_family


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "mubkit", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def construct(tmp_path, d=2, name="family.json"):
    path = tmp_path / name
    proc = run("construct", "--d", str(d), "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


def leaf_paths(node, path=()):
    """Paths to every scalar in a JSON value, in document order."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, child in items:
        yield from leaf_paths(child, path + (key,))


def replace_at(node, path, value):
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


FAMILY_PAYLOAD = json.loads(
    json.dumps(
        FamilyDocument.from_family(build_family(3), metadata={"generator": "test"}).to_payload(),
        default=np.ndarray.tolist,
    )
)

CORRUPT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(),
    st.integers(min_value=10**308, max_value=10**400),
    st.floats(),
    st.lists(st.floats(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


class TestConstruct:
    def test_writes_verifiable_family(self, tmp_path):
        path = construct(tmp_path, d=3)
        proc = run("verify", str(path))
        assert proc.returncode == 0, proc.stderr

    def test_stdout_is_json(self):
        proc = run("construct", "--d", "2")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["dimension"] == 2
        assert len(payload["bases"]) == 3

    def test_composite_dimension_is_usage_error(self):
        proc = run("construct", "--d", "6")
        assert proc.returncode == 2
        assert "requires prime d" in proc.stderr


    @pytest.mark.parametrize("d", ["4", "1", "-7"])
    def test_small_non_prime_gets_the_primality_message(self, capsys, d):
        assert cli_dispatch(["construct", "--d", d]) == 2
        assert capsys.readouterr() == (
            "", f"error: closed-form construction requires prime d, got {d}\n"
        )

    @pytest.mark.parametrize("d", [2**61 - 1, 10**18])
    def test_huge_dimension_is_refused_by_its_size(self, capsys, d):
        # Prime or composite, the size refuses it before primality is
        # tested.
        assert cli_dispatch(["construct", "--d", str(d)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: a family of {d + 1} bases in dimension d = {d}")
        assert captured.out == ""

    def test_oversized_dimension_is_usage_error(self):
        proc = run("construct", "--d", "1009")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: a family of 1010 bases in dimension d = 1009 needs")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_unwritable_out_is_io_error(self, tmp_path):
        proc = run("construct", "--d", "2", "--out", str(tmp_path / "missing" / "f.json"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: could not write")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_verifies_once(self, tmp_path, monkeypatch):
        calls = []
        real = mubkit.cli.verify_family

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mubkit.cli, "verify_family", counting)
        assert cli_dispatch(["construct", "--d", "3", "--out", str(tmp_path / "f.json")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 13])
    def test_prints_the_certificate_summary(self, tmp_path, capsys, d):
        assert cli_dispatch(["construct", "--d", str(d), "--out", str(tmp_path / "f.json")]) == 0
        summary = verify_family(build_family(d)).summary()
        assert capsys.readouterr() == ("", summary + "\n")

    def test_failed_certificate_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def failing(family):
            return dataclasses.replace(verify_family(family), max_cross_residual=0.5)

        monkeypatch.setattr(mubkit.cli, "verify_family", failing)
        out = tmp_path / "f.json"
        assert cli_dispatch(["construct", "--d", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: constructed family failed its own certificate: FAIL")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()


def counting_solves(monkeypatch):
    """Record the stack shape of every eigensolve; returns the list."""
    import mubkit.reconstruct

    shapes = []
    real = mubkit.reconstruct.eigen_hermitian

    def counting(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return real(matrix, *args, **kwargs)

    # Every module that binds the solver by name, not just its home.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mubkit" and vars(module).get("eigen_hermitian") is real:
            monkeypatch.setattr(module, "eigen_hermitian", counting)
    return shapes


def counting_certificates(monkeypatch):
    """Record (caller, stack shape) of every one-column rank-1 certificate; returns the list.

    The caller is ``rank_one_certificate`` for the family certificate the
    readers share.
    """
    import mubkit.algebra

    shapes = []
    real = mubkit.algebra._rank_one_certificate

    def counting(sym):
        shapes.append((sys._getframe(1).f_code.co_name, sym.shape))
        return real(sym)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mubkit" and vars(module).get("_rank_one_certificate") is real:
            monkeypatch.setattr(module, "_rank_one_certificate", counting)
    return shapes


def counting_invariants(monkeypatch):
    """Record the stack shape of every Hermitian-defect pass; returns the list."""
    import mubkit.algebra

    shapes = []
    real = mubkit.algebra._hermitian_defects

    def counting(m):
        shapes.append(m.shape)
        return real(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mubkit" and vars(module).get("_hermitian_defects") is real:
            monkeypatch.setattr(module, "_hermitian_defects", counting)
    return shapes


def pipeline_argv(tmp_path, command):
    """Arguments of one pipeline command at d = 3; all but construct read a saved family."""
    path = tmp_path / "family.json"
    save_family(build_family(3), str(path))
    out = str(tmp_path / "out.json")
    return {
        "construct": ["construct", "--d", "3", "--out", out],
        "verify": ["verify", str(path)],
        "reconstruct": ["reconstruct", str(path), "--out", out],
        "search": ["search", "--d", "3", "--bases", "4", "--from", str(path), "--out", out],
    }[command]


class TestEigensolves:
    # construct and verify certify with exact eigenvalues; reconstruct and
    # search --from read a rank-1 family through the one-column certificate,
    # which the loader computes once and the readers after it reuse.
    @pytest.mark.parametrize("command", ["construct", "verify", "reconstruct", "search"])
    def test_one_stack_solve_per_command(self, tmp_path, monkeypatch, command):
        argv = pipeline_argv(tmp_path, command)
        solves = {"construct": 1, "verify": 1, "reconstruct": 0, "search": 0}[command]
        certificates = {"construct": 0, "verify": 1, "reconstruct": 1, "search": 1}[command]
        shapes = counting_solves(monkeypatch)
        certified = counting_certificates(monkeypatch)
        assert cli_dispatch(argv) == 0
        assert shapes == [(12, 3, 3)] * solves
        assert certified == [("rank_one_certificate", (12, 3, 3))] * certificates

    # A family computes its invariants once, whoever reads them; the
    # family's own solve runs with an infinite Hermitian gate, which skips
    # the solver's check.
    @pytest.mark.parametrize(
        "command,passes", [("construct", 1), ("verify", 1), ("reconstruct", 1), ("search", 1)]
    )
    def test_invariants_once_per_family(self, tmp_path, monkeypatch, command, passes):
        argv = pipeline_argv(tmp_path, command)
        shapes = counting_invariants(monkeypatch)
        assert cli_dispatch(argv) == 0
        assert shapes == [(12, 3, 3)] * passes

    def test_verify_solves_for_eigenvalues_only(self, tmp_path, monkeypatch):
        argv = pipeline_argv(tmp_path, "verify")
        shapes = counting_solves(monkeypatch)
        vector_solves = []
        real = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            vector_solves.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        assert cli_dispatch(argv) == 0
        assert shapes == [(12, 3, 3)]
        assert vector_solves == []

    def test_construct_saves_without_the_eigenvector_stack(self, tmp_path, monkeypatch):
        import mubkit.cli

        held = []

        def spy(family, path, **kwargs):
            held.append(sorted(vars(family)))
            save_family(family, path, **kwargs)

        # The certificate's solve is not kept: the family saved holds
        # its projectors and the invariants the verifier cached, nothing else.
        monkeypatch.setattr(mubkit.cli, "save_family", spy)
        assert cli_dispatch(["construct", "--d", "3", "--out", str(tmp_path / "f.json")]) == 0
        assert held == [["invariants", "projectors"]]

    def test_mixed_document_loads_with_one_solve(self, tmp_path, monkeypatch):
        # The maximally mixed I/2 is a valid density matrix the certificate
        # cannot settle, so the loader solves the stack once; the family
        # keeps no solve, and the verifier makes its own.
        mats = build_family(2).projectors.copy()
        mats[0, 0] = 0.5 * np.eye(2)
        path = tmp_path / "mixed.json"
        save_family(MubFamily(mats), str(path))
        shapes = counting_solves(monkeypatch)
        family = load_family(str(path))
        assert shapes == [(6, 2, 2)]
        assert not verify_family(family).passed
        assert shapes == [(6, 2, 2)] * 2


class TestVerify:
    def test_failing_family_exits_one(self, tmp_path):
        path = construct(tmp_path)
        payload = json.loads(path.read_text())
        # Overwrite the rotated basis with a copy of the computational one:
        # every matrix still loads, but the family is no longer unbiased.
        payload["bases"][0]["projectors"] = [
            dict(entry, alpha=i)
            for i, entry in enumerate(payload["bases"][2]["projectors"])
        ]
        path.write_text(json.dumps(payload))
        proc = run("verify", str(path))
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout or "FAIL" in proc.stderr

    def test_missing_file_is_io_error(self, tmp_path):
        proc = run("verify", str(tmp_path / "absent.json"))
        assert proc.returncode == 2
        assert "could not read" in proc.stderr

    @pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("-1", "-1.0"), ("inf", "inf")])
    def test_bad_tolerance_refused_before_reading(self, tmp_path, monkeypatch, capsys, tol, shown):
        # As reconstruct does: a missing document is not the first complaint.
        monkeypatch.setattr("mubkit.cli._load_family", lambda *a: pytest.fail("document read"))
        assert cli_dispatch(["verify", str(tmp_path / "absent.json"), "--tol", tol]) == 2
        assert capsys.readouterr() == (
            "", f"error: tolerance must be finite and non-negative, got {shown}\n"
        )

    def test_report_carries_input_hash(self, tmp_path):
        path = construct(tmp_path, d=5)
        report = tmp_path / "report.json"
        proc = run("verify", str(path), "--report", str(report))
        assert proc.returncode == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert payload["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert "gram" not in payload

    def test_empty_report_path_prints_the_certificate(self, tmp_path, capsys):
        path = tmp_path / "family.json"
        save_family(build_family(3), str(path))
        assert cli_dispatch(["verify", str(path), "--report", ""]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_gram_kept_only_for_a_certificate(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "family.json"
        save_family(build_family(3), str(path))
        kept = []

        def spy(family, tolerance, keep_gram):
            kept.append(keep_gram)
            return verify_family(family, tolerance=tolerance, keep_gram=keep_gram)

        monkeypatch.setattr(mubkit.cli, "verify_family", spy)
        assert cli_dispatch(["verify", str(path), "--full-gram"]) == 0
        assert cli_dispatch(["verify", str(path), "--full-gram", "--report", ""]) == 0
        assert kept == [False, True]
        assert "gram" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("source", ["stdin", "fifo"])
    def test_report_digests_the_bytes_verified(self, tmp_path, source):
        # A pipe or FIFO can be read once: a second open would see nothing
        # (stdin) or wait for a writer that never comes (FIFO).
        data = construct(tmp_path, d=3).read_bytes()
        report = tmp_path / "report.json"
        target, stdin = "/dev/stdin", data
        if source == "fifo":
            target, stdin = str(tmp_path / "stream"), None
            os.mkfifo(target)

            def feed():
                with open(target, "wb") as handle:
                    handle.write(data)

            threading.Thread(target=feed, daemon=True).start()
        proc = subprocess.run(
            [sys.executable, "-m", "mubkit", "verify", target, "--report", str(report)],
            input=stdin,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(report.read_text())
        assert payload["input_path"] == target
        assert payload["input_sha256"] == hashlib.sha256(data).hexdigest()

    def test_full_gram_included_on_request(self, tmp_path):
        path = construct(tmp_path, d=2)
        report = tmp_path / "report.json"
        proc = run("verify", str(path), "--report", str(report), "--full-gram")
        assert proc.returncode == 0
        payload = json.loads(report.read_text())
        assert len(payload["gram"]) == 6

    def test_loose_tolerance_flag(self, tmp_path):
        path = construct(tmp_path, d=7)
        proc = run("verify", str(path), "--tol", "1e-6")
        assert proc.returncode == 0


    @settings(max_examples=150, deadline=None)
    @given(
        path=st.sampled_from(list(leaf_paths(FAMILY_PAYLOAD))),
        value=CORRUPT_LEAVES,
    )
    def test_property_corrupted_leaf(self, tmp_path_factory, path, value):
        # One leaf anywhere in the document replaced by an arbitrary JSON
        # value: the loader either accepts the document or raises
        # ValueError, and the CLI turns every refusal into exit 2.
        payload = json.loads(json.dumps(FAMILY_PAYLOAD))
        replace_at(payload, path, value)
        doc = tmp_path_factory.mktemp("fuzz") / "family.json"
        doc.write_text(json.dumps(payload))
        try:
            load_family(str(doc))
            refused = False
        except ValueError:
            refused = True
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_dispatch(["verify", str(doc)])
        if refused:
            assert code == 2
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
        else:
            assert code in (0, 1)

    def test_oversized_document_is_usage_error(self, tmp_path, monkeypatch, capsys):
        path = construct(tmp_path)
        size = path.stat().st_size
        monkeypatch.setattr("mubkit.io._MAX_DOCUMENT_BYTES", size - 1)
        assert cli_dispatch(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: family document {str(path)!r} has {size} bytes")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_too_deep_document_is_usage_error(self, tmp_path, capsys, enabled):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = cli_dispatch(["verify", str(path)])
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if before else gc.disable)()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {str(path)!r} is nested too deeply to parse: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

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
    def test_repeated_key_is_usage_error(self, tmp_path, capsys, opening, key, bad):
        # The last value of each repeated key is valid, so without the check
        # --report would certify the SHA-256 of bytes whose first value is bad.
        path = construct(tmp_path)
        path.write_text(path.read_text().replace(opening, f'{opening}"{key}": {bad}, ', 1))
        report = tmp_path / "report.json"
        assert cli_dispatch(["verify", str(path), "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {str(path)!r}: key {key!r} is repeated in one object\n"
        assert captured.out == ""
        assert not report.exists()

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda p: p.update(metadata=[]), "metadata must be a JSON object"),
            (lambda p: p.update(states={}), "'states', when present, must be a list"),
            (lambda p: p["bases"].append([]), "each basis must be an object with a 'basis_index'"),
            (
                lambda p: p["bases"][1].pop("basis_index"),
                "each basis must be an object with a 'basis_index'",
            ),
            (
                lambda p: p["bases"].append({"basis_index": 4}),
                "num_bases must lie in 1..d+1 = 1..4, got 5",
            ),
            (
                lambda p: p["bases"][2]["projectors"][1].pop("alpha"),
                "basis 2: each projector needs an 'alpha'",
            ),
            # The first error in document order wins: a matrix out of bound
            # before a structural error, and a structural error before one.
            (
                lambda p: (
                    p["bases"][0]["projectors"][0]["matrix"][0][0].__setitem__(0, 1e151),
                    p["bases"][2]["projectors"][1].pop("alpha"),
                ),
                "basis 0, vector 0: matrix entries must be finite, with parts up to 1e+150",
            ),
            (
                lambda p: (
                    p["bases"][0]["projectors"][1].pop("alpha"),
                    p["bases"][2]["projectors"][0]["matrix"][0][0].__setitem__(0, 1e151),
                ),
                "basis 0: each projector needs an 'alpha'",
            ),
        ],
        ids=[
            "metadata",
            "states",
            "basis_not_object",
            "no_basis_index",
            "bases",
            "no_alpha",
            "bound_before_no_alpha",
            "no_alpha_before_bound",
        ],
    )
    def test_structural_refusal_is_usage_error(self, tmp_path, capsys, mutate, message):
        payload = json.loads(json.dumps(FAMILY_PAYLOAD))
        mutate(payload)
        path = tmp_path / "family.json"
        path.write_text(json.dumps(payload))
        assert cli_dispatch(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_document_not_utf8_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "family.json"
        path.write_bytes(b"\xff\xfe{}")
        assert cli_dispatch(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {str(path)!r} is not UTF-8 text: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("limit", [-1, 0], ids=["longer", "at_the_limit"])
    def test_streamed_document_is_bounded(self, tmp_path, monkeypatch, capsys, limit):
        # A pipe reports size 0, so only a counted read can refuse it.
        data = construct(tmp_path, d=3).read_bytes()
        monkeypatch.setattr("mubkit.io._MAX_DOCUMENT_BYTES", len(data) + limit)
        fifo = str(tmp_path / "stream")
        os.mkfifo(fifo)

        def feed():
            try:
                with open(fifo, "wb") as handle:
                    handle.write(data)
            except BrokenPipeError:  # the reader stopped one byte past the limit
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        code = cli_dispatch(["verify", fifo])
        writer.join(timeout=30)
        assert not writer.is_alive()
        captured = capsys.readouterr()
        if limit:
            assert code == 2
            assert captured.err == (
                f"error: family document {fifo!r} runs past the "
                f"{len(data) + limit}-byte limit\n"
            )
        else:
            assert code == 0, captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.update(dimension=True),
            lambda p: p["bases"][0].update(basis_index=False),
            # Entry (0, 0) of computational projector 0 is [1.0, 0.0], so a
            # coerced [true, false] would load and verify.
            lambda p: p["bases"][2]["projectors"][0]["matrix"][0].__setitem__(0, [True, False]),
        ],
        ids=["dimension", "basis_index", "matrix_entry"],
    )
    def test_json_booleans_are_usage_errors(self, tmp_path, mutate):
        path = construct(tmp_path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        proc = run("verify", str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


class TestSolverFailure:
    # LAPACK's LinAlgError is a ValueError: verify, which always reads the
    # spectrum, refuses the document; reconstruct, which falls back to it
    # here, reports a failed reconstruction.
    @pytest.mark.parametrize("command,code", [("verify", 2), ("reconstruct", 1)])
    def test_failed_solve_is_one_error_line(self, tmp_path, monkeypatch, capsys, command, code):
        # Projector (0, 0) is mixed by 4e-10: its one-column residual, 8e-10,
        # is within the loader's 1e-9, so the load solves nothing, but not
        # within reconstruct's 1e-10.
        mats = build_family(2).projectors.copy()
        mats[0, 0] = (1 - 4e-10) * mats[0, 0] + 4e-10 * mats[0, 1]
        path = tmp_path / "mixed.json"
        save_family(MubFamily(mats), str(path))

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        assert cli_dispatch([command, str(path)]) == code
        captured = capsys.readouterr()
        assert captured.err == "error: Eigenvalues did not converge\n"
        assert captured.out == ""


class TestReconstruct:
    def test_emits_states(self, tmp_path):
        path = construct(tmp_path, d=3)
        out = tmp_path / "states.json"
        proc = run("reconstruct", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["states"] is not None
        assert len(payload["states"]) == 4

    def test_degenerate_projector_exits_one(self, tmp_path):
        path = construct(tmp_path)
        payload = json.loads(path.read_text())
        payload["bases"][0]["projectors"][0]["matrix"] = [
            [[0.5, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.5, 0.0]],
        ]
        path.write_text(json.dumps(payload))
        proc = run("reconstruct", str(path))
        assert proc.returncode == 1
        assert "degenerate" in proc.stderr

    @pytest.mark.parametrize(
        "command,tol",
        [("reconstruct", "nan"), ("reconstruct", "-1"), ("verify", "nan"), ("verify", "inf")],
    )
    def test_bad_tolerance_is_usage_error(self, tmp_path, command, tol):
        # Projector (0, 0) is the mixed 0.5 (P_00 + P_01): it loads, and any
        # working rank-1 check refuses it, but none can fail against NaN.
        mats = build_family(3).projectors.copy()
        mats[0, 0] = 0.5 * (mats[0, 0] + mats[0, 1])
        path = tmp_path / "mixed.json"
        save_family(MubFamily(mats), str(path))
        proc = run(command, str(path), "--tol", tol)
        assert proc.returncode == 2
        message = f"tolerance must be finite and non-negative, got {float(tol)!r}"
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""


class TestStatesSection:
    @pytest.mark.parametrize(
        "section, message",
        [
            (
                [{"basis_index": 0, "vectors": "not a vector"}, 42],
                "states: each basis must be an object with a 'basis_index'",
            ),
            (None, "states: basis 3, vector 2: squared norm deviates from 1 by 4.040e+02"),
        ],
        ids=["malformed", "not_normalized"],
    )
    @pytest.mark.parametrize("command", ["verify", "search"])
    def test_refused_by_every_reader(self, tmp_path, capsys, section, message, command):
        path = tmp_path / "states.json"
        assert cli_dispatch(["reconstruct", str(construct(tmp_path, d=5)), "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        if section is None:  # five [9, 0] amplitudes: |v|^2 = 405
            payload["states"][3]["vectors"][2]["amplitudes"] = [[9.0, 0.0]] * 5
        else:
            payload["states"] = section
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        if command == "verify":
            argv = ["verify", str(path)]
        else:
            argv = ["search", "--d", "5", "--bases", "6", "--from", str(path)]
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestLooseTolerance:
    @pytest.fixture
    def noisy(self, tmp_path):
        # The d = 5 closed form plus Hermitian noise of 1e-8 per part: its
        # traces miss 1 by more than the loader's 1e-9.
        mats = build_family(5).projectors
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(mats.shape) + 1j * rng.standard_normal(mats.shape)
        path = tmp_path / "noisy.json"
        save_family(MubFamily(mats + 0.5e-8 * (noise + noise.conj().swapaxes(-1, -2))), str(path))
        return str(path)

    @pytest.mark.parametrize("command", ["verify", "reconstruct"])
    def test_default_tolerance_refuses_the_load(self, noisy, capsys, command):
        assert cli_dispatch([command, noisy]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: basis 0, vector 0: trace deviates from 1 by ")
        assert err.endswith(" (tolerance 1.0e-09)\n")

    @pytest.mark.parametrize("command", ["verify", "reconstruct"])
    def test_looser_tol_loosens_the_load(self, tmp_path, noisy, capsys, command):
        out = ["--out", str(tmp_path / "states.json")] if command == "reconstruct" else []
        assert cli_dispatch([command, noisy, "--tol", "1e-6", *out]) == 0
        assert "error" not in capsys.readouterr().err


class TestSearch:
    def test_help_names_what_from_ignores(self, capsys, monkeypatch):
        # polish runs one descent from the family: no restarts, no seed.
        monkeypatch.setenv("COLUMNS", "200")
        assert cli_dispatch(["search", "--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for flag in ("--restarts RESTARTS", "--seed SEED"):
            (line,) = [line for line in lines if line.lstrip().startswith(flag)]
            assert line.endswith("(ignored with --from)")

    def test_qubit_search_with_log(self, tmp_path):
        out = tmp_path / "found.json"
        log = tmp_path / "log.json"
        proc = run(
            "search", "--d", "2", "--bases", "3", "--seed", "42",
            "--out", str(out), "--log", str(log),
        )
        assert proc.returncode == 0, proc.stderr
        verdict = run("verify", str(out), "--tol", "1e-6")
        assert verdict.returncode == 0
        payload = json.loads(log.read_text())
        assert payload["converged"] is True
        assert list(payload["config"].items()) == [
            ("dim", 2),
            ("num_bases", 3),
            ("restarts", 20),
            ("max_iterations", 50000),
            ("seed", 42),
            ("target_residual", 1e-16),
        ]
        assert len(payload["restart_objectives"]) == payload["restarts_used"]
        assert len(payload["restart_stops"]) == payload["restarts_used"]
        assert payload["restart_stops"][-1] == "target"

    def test_empty_log_path_prints_the_log(self, tmp_path, capsys):
        out = tmp_path / "found.json"
        argv = ["search", "--d", "2", "--bases", "3", "--seed", "42", "--out", str(out)]
        assert cli_dispatch([*argv, "--log", ""]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "tool_version", "config", "best_objective", "converged", "iterations_used",
            "restarts_used", "restart_objectives", "restart_iterations", "restart_stops",
        ]
        assert payload["config"]["seed"] == 42
        assert payload["converged"] is True

    def test_non_convergence_exits_one(self, tmp_path):
        log = tmp_path / "log.json"
        proc = run(
            "search", "--d", "3", "--bases", "4",
            "--restarts", "1", "--iters", "3", "--seed", "0",
            "--out", str(tmp_path / "attempt.json"), "--log", str(log),
        )
        assert proc.returncode == 1
        assert json.loads(log.read_text())["restart_stops"] == ["iterations"]

    def test_polish_existing_family(self, tmp_path):
        path = construct(tmp_path, d=3)
        out = tmp_path / "polished.json"
        proc = run(
            "search", "--d", "3", "--bases", "4", "--from", str(path),
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert run("verify", str(out)).returncode == 0

    def test_polish_records_no_setting_it_ignored(self, tmp_path, capsys):
        # polish uses neither --restarts nor --seed, so neither file records them.
        path, out, log = construct(tmp_path, d=3), tmp_path / "polished.json", tmp_path / "log.json"
        argv = [
            "search", "--d", "3", "--bases", "4", "--from", str(path),
            "--restarts", "7", "--seed", "42", "--out", str(out), "--log", str(log),
        ]
        assert cli_dispatch(argv) == 0, capsys.readouterr().err
        assert list(json.loads(log.read_text())["config"].items()) == [
            ("dim", 3),
            ("num_bases", 4),
            ("max_iterations", 50000),
            ("target_residual", 1e-16),
        ]
        assert list(json.loads(out.read_text())["metadata"]) == [
            "generator", "tool_version", "dimension", "num_bases", "best_objective", "converged",
        ]

    def test_polish_ignores_restarts_and_seed(self, tmp_path, capsys):
        # Neither flag reaches the polish, so neither is checked: values a
        # random search would refuse change no byte of the outputs.
        path = construct(tmp_path, d=3)
        outputs = []
        for flags in ([], ["--restarts", "0", "--seed", "-1"]):
            out, log = tmp_path / f"p{len(flags)}.json", tmp_path / f"l{len(flags)}.json"
            argv = ["search", "--d", "3", "--bases", "4", "--from", str(path), *flags]
            assert cli_dispatch([*argv, "--out", str(out), "--log", str(log)]) == 0
            outputs.append((out.read_bytes(), log.read_bytes(), capsys.readouterr()))
        assert outputs[0] == outputs[1]

    def test_family_within_the_load_tolerance_polishes(self, tmp_path, capsys):
        # A Hermitian defect of 5e-10 is within the loader's 1e-9, which
        # the search start judges it by too: what the load accepts polishes.
        mats = build_family(3).projectors.copy()
        mats[0, 0, 0, 1] += 5e-10
        path, out = tmp_path / "family.json", tmp_path / "polished.json"
        save_family(MubFamily(mats), str(path))
        argv = ["search", "--d", "3", "--bases", "4", "--from", str(path), "--out", str(out)]
        assert cli_dispatch(argv) == 0
        assert capsys.readouterr().err.startswith("converged: ")
        assert cli_dispatch(["verify", str(out), "--tol", "1e-9"]) == 0

    def test_empty_from_path_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # An empty --from is a path, read and refused as reconstruct "" is,
        # not the absence of --from.
        monkeypatch.setattr("mubkit.cli.run_search", lambda cfg: pytest.fail("search ran"))
        out = tmp_path / "f.json"
        argv = ["search", "--d", "3", "--bases", "4", "--from", "", "--out", str(out)]
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: could not read ''")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_family_of_another_shape_is_usage_error(self, tmp_path, capsys):
        path, out = construct(tmp_path, d=3), tmp_path / "polished.json"
        argv = ["search", "--d", "5", "--bases", "4", "--from", str(path), "--out", str(out)]
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: family shape (4 bases, dim 3) does not match config (4 bases, dim 5)\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_bad_config_is_usage_error(self):
        proc = run("search", "--d", "3", "--bases", "9")
        assert proc.returncode == 2

    def test_oversized_problem_is_usage_error(self, monkeypatch, capsys):
        # Without the config check the guard fails the test instead of
        # letting a search allocate the 238 GiB family.
        monkeypatch.setattr("mubkit.cli.run_search", lambda cfg: pytest.fail("search ran"))
        assert cli_dispatch(["search", "--d", "2000", "--bases", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: a family of 2 bases in dimension d = 2000 needs")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_seed_beyond_the_key_range_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # Restart keys seed..seed + 2 reach 2**128: the config refuses the
        # seed before restart 0 runs, where numpy would refuse restart 1's key.
        monkeypatch.setattr("mubkit.cli.run_search", lambda cfg: pytest.fail("search ran"))
        out = tmp_path / "f.json"
        argv = ["search", "--d", "2", "--bases", "3", "--seed", str(2**128 - 1)]
        assert cli_dispatch([*argv, "--restarts", "3", "--iters", "5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: seed must be at most 2**128 - restarts = {2**128 - 3}, got {2**128 - 1}\n"
        )
        assert captured.out == ""
        assert not out.exists()


    def test_infinite_target_is_usage_error(self, tmp_path, capsys):
        # Against an infinite target the random start "converged" after 0
        # iterations, and the log held the non-JSON token Infinity.
        log = tmp_path / "log.json"
        argv = ["search", "--d", "3", "--bases", "4", "--target", "inf", "--restarts", "1"]
        assert cli_dispatch([*argv, "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: target_residual must be positive and finite, got inf\n"
        assert captured.out == ""
        assert not log.exists()


class TestGauss:
    def test_prints_sum_and_modulus(self):
        proc = run("gauss", "--u", "2", "--v", "0", "--w", "3")
        assert proc.returncode == 0
        assert "S(2, 0, 3)" in proc.stdout
        assert "|S|^2 = 3.000" in proc.stdout

    def test_invalid_parameters_rejected(self):
        proc = run("gauss", "--u", "2", "--v", "0", "--w", "4")
        assert proc.returncode == 2
        assert "gcd(u, w) must be 1" in proc.stderr

    def test_length_beyond_the_float_range_is_usage_error(self):
        # It ended in an OverflowError traceback from sqrt|w|.
        proc = run("gauss", "--u", "1", "--v", "1", "--w", str(10**400 + 1))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: |w| must be at most 2**1024 - 2**976 (about 1.798e+308), the largest "
            "length accepted, so that sqrt|w| and |S|^2 stay finite floats\n"
        )


class TestWrittenBytes:
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 13])
    def test_every_document_is_json_dumps_of_its_list_payload(self, tmp_path, monkeypatch, d):
        expected = {}
        real_save, real_write = mubkit.cli.save_family, mubkit.cli.write_json

        def save(family, path, states=None, metadata=None):
            doc = FamilyDocument.from_family(family, states=states, metadata=metadata)
            expected[path] = json.dumps(doc.to_payload(), default=np.ndarray.tolist) + "\n"
            real_save(family, path, states=states, metadata=metadata)

        def write(payload, path):
            expected[path] = json.dumps(payload, default=np.ndarray.tolist) + "\n"
            real_write(payload, path)

        monkeypatch.setattr(mubkit.cli, "save_family", save)
        monkeypatch.setattr(mubkit.cli, "write_json", write)
        family = str(tmp_path / "family.json")
        commands = [
            ["construct", "--d", str(d), "--out", family],
            ["verify", family, "--report", str(tmp_path / "report.json")],
            ["verify", family, "--report", str(tmp_path / "gram.json"), "--full-gram"],
            ["reconstruct", family, "--out", str(tmp_path / "states.json")],
            ["search", "--d", str(d), "--bases", str(d + 1), "--from", family,
             "--out", str(tmp_path / "polished.json"), "--log", str(tmp_path / "log.json")],
        ]
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in commands:
                assert cli_dispatch(argv) == 0, argv
        assert len(expected) == 6
        for path, text in expected.items():
            with open(path, encoding="utf-8") as handle:
                assert handle.read() == text, path


class TestReproducibleOutputs:
    # Every output is a function of the command's inputs and argv.  Paths
    # are relative, since metadata records the source path as given.  The
    # closed form and its reconstruction are byte-identical under every
    # OpenBLAS kernel, so their digests are pinned; certificates and search
    # outputs end in bits that follow the kernel, so they are checked run
    # to run only.
    DIGESTS = {
        "family2.json": "a00da44d2153941e1f4e9af33604fa90627609b3575b590615947a764df5379b",
        "states2.json": "c3aefd4b0dffa9715d4e06982c5d201fec9ce562d02fc7df10f5114dad3097a0",
        "family3.json": "dd4a733776e036529215cd7d23c198b878b1d76979b5c13cf4833b9d67bda7c6",
        "states3.json": "45d7dbaaccff598793e288731c43f7bc216351ad848fe197f6efebca543a7717",
        "family5.json": "b59bdfbabe3d5795ffc492ab05873964798cdb3941a51bf95f95b9e4c56fe335",
        "states5.json": "46d69294fa7f376585706fdef57379a4faaae0c156dd436e536f870ab2e76f79",
        "family7.json": "b4ea9c98bb8ab052f801c49fc2d8ef0f007f19b2197040541d53a165421c2b93",
        "states7.json": "6663ed3af1b0563feda1cc6468d8957b728f7ef6ba8cbed73483738f9043c42d",
    }

    @staticmethod
    def pipeline(d):
        family = f"family{d}.json"
        return [
            ["construct", "--d", str(d), "--out", family],
            ["verify", family, "--report", f"report{d}.json", "--full-gram"],
            ["reconstruct", family, "--out", f"states{d}.json"],
            ["search", "--d", str(d), "--bases", str(d + 1), "--from", family,
             "--out", f"polished{d}.json", "--log", f"log{d}.json"],
        ]

    def outputs(self, work, dims, dispatch):
        """Each command's (exit code, stdout, stderr), and every file written."""
        replies = [dispatch(argv) for d in dims for argv in self.pipeline(d)]
        return replies, {path.name: path.read_bytes() for path in sorted(work.iterdir())}

    def in_process(self, work, dims, monkeypatch):
        def dispatch(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_dispatch(argv)
            return code, out.getvalue(), err.getvalue()

        monkeypatch.chdir(work)
        return self.outputs(work, dims, dispatch)

    def test_pipeline_writes_the_same_bytes(self, tmp_path_factory, monkeypatch):
        dims = [2, 3, 5, 7]
        first = self.in_process(tmp_path_factory.mktemp("first"), dims, monkeypatch)
        assert self.in_process(tmp_path_factory.mktemp("second"), dims, monkeypatch) == first
        replies, files = first
        assert [code for code, _, _ in replies] == [0] * len(replies)
        assert len(files) == 5 * len(dims)
        digests = {name: hashlib.sha256(files[name]).hexdigest() for name in self.DIGESTS}
        assert digests == self.DIGESTS

    def test_fresh_interpreter_writes_the_same_bytes(self, tmp_path_factory, monkeypatch):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(mubkit.cli.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
        work = tmp_path_factory.mktemp("fresh")

        def dispatch(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "mubkit", *argv],
                cwd=work, env=env, capture_output=True, text=True, timeout=300,
            )
            return proc.returncode, proc.stdout, proc.stderr

        fresh = self.outputs(work, [3], dispatch)
        assert fresh == self.in_process(tmp_path_factory.mktemp("here"), [3], monkeypatch)


class TestDispatch:
    def test_unknown_subcommand(self):
        proc = run("frobnicate")
        assert proc.returncode == 2

    def test_no_arguments(self):
        proc = run()
        assert proc.returncode == 2

    def test_help_exits_zero(self):
        proc = run("--help")
        assert proc.returncode == 0
        for name in ("construct", "verify", "reconstruct", "search", "gauss"):
            assert name in proc.stdout

    @settings(max_examples=8, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 5]),
        seed=st.integers(0, 2**16),
        iters=st.integers(1, 40),
    )
    def test_property_stdout_matches_file(self, tmp_path_factory, d, seed, iters):
        def dispatch(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli_dispatch(argv)
            return code, out.getvalue()

        work = tmp_path_factory.mktemp("stdout")
        family = str(work / "family.json")
        commands = [
            ["construct", "--d", str(d)],
            ["reconstruct", family],
            ["search", "--d", "2", "--bases", "3", "--restarts", "1",
             "--iters", str(iters), "--seed", str(seed)],
        ]
        assert dispatch(commands[0] + ["--out", family]) == (0, "")
        for argv in commands:
            path = work / "out.json"
            file_code, printed = dispatch(argv + ["--out", str(path)])
            stdout_code, text = dispatch(argv)
            assert printed == ""
            assert stdout_code == file_code
            assert text.count("\n") == 1 and text.endswith("\n")
            assert text == path.read_text()

    def test_commands_leave_no_cyclic_garbage(self, tmp_path, capsys):
        family, out = str(tmp_path / "family.json"), str(tmp_path / "out.json")
        commands = [
            ["construct", "--d", "3", "--out", family],
            ["verify", family],
            ["reconstruct", family, "--out", out],
            ["search", "--d", "3", "--bases", "4", "--from", family, "--out", out],
        ]
        gc.collect()
        gc.disable()
        try:
            for argv in commands:
                assert cli_dispatch(argv) == 0, capsys.readouterr().err
                assert gc.collect() == 0, argv
        finally:
            gc.enable()

    def test_reused_parser_answers_as_a_fresh_one(self, tmp_path, monkeypatch):
        family = str(tmp_path / "family.json")
        commands = [
            ["construct", "--d", "3", "--out", family],
            ["verify", family],
            ["gauss", "--u", "2", "--v", "0", "--w", "3"],
            ["reconstruct", family, "--out", str(tmp_path / "states.json")],
            ["--help"],
            ["verify", "--help"],
            ["--version"],
            ["verify"],
            ["frobnicate"],
            ["construct", "--d", "3", "--frob"],
            ["verify", family, "--tol", "1e-12"],
        ]

        def answers():
            replies = []
            for argv in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_dispatch(argv)
                replies.append((code, out.getvalue(), err.getvalue()))
            return replies

        monkeypatch.setenv("COLUMNS", "80")
        assert mubkit.cli._build_parser() is mubkit.cli._build_parser()
        reused = answers()
        monkeypatch.setattr(mubkit.cli, "_build_parser", mubkit.cli._build_parser.__wrapped__)
        assert answers() == reused
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 0]

    def test_dispatch_in_process(self, tmp_path, capsys):
        path = tmp_path / "family.json"
        assert cli_dispatch(["construct", "--d", "2", "--out", str(path)]) == 0
        assert cli_dispatch(["verify", str(path)]) == 0
        captured = capsys.readouterr()
        # Diagnostics go to stderr; stdout stays machine-readable.
        assert "pass" in captured.err
