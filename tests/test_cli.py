import contextlib
import io
import json
import subprocess
import sys

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


FAMILY_PAYLOAD = FamilyDocument.from_family(
    build_family(3), metadata={"generator": "test"}
).to_payload()

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
        import mubkit.cli
        import mubkit.construct

        calls = []
        real = mubkit.construct.verify_family

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mubkit.construct, "verify_family", counting)
        monkeypatch.setattr(mubkit.cli, "verify_family", counting)
        assert cli_dispatch(["construct", "--d", "3", "--out", str(tmp_path / "f.json")]) == 0
        assert len(calls) == 1


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

    def test_construct_saves_without_the_eigenvector_stack(self, tmp_path, monkeypatch):
        import mubkit.cli

        held = []

        def spy(family, path, **kwargs):
            held.append("spectrum" in vars(family))
            save_family(family, path, **kwargs)

        monkeypatch.setattr(mubkit.cli, "save_family", spy)
        assert cli_dispatch(["construct", "--d", "3", "--out", str(tmp_path / "f.json")]) == 0
        assert held == [False]

    def test_mixed_document_loads_with_one_solve(self, tmp_path, monkeypatch):
        # The maximally mixed I/2 is a valid density matrix the certificate
        # cannot settle, so the loader solves the stack once, and the
        # verifier reads that solve instead of making its own.
        mats = build_family(2).projectors.copy()
        mats[0, 0] = 0.5 * np.eye(2)
        path = tmp_path / "mixed.json"
        save_family(MubFamily(mats), str(path))
        shapes = counting_solves(monkeypatch)
        family = load_family(str(path))
        assert shapes == [(6, 2, 2)]
        assert "spectrum" in vars(family)
        assert not verify_family(family).passed
        assert shapes == [(6, 2, 2)]


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

    def test_report_carries_input_hash(self, tmp_path):
        path = construct(tmp_path, d=5)
        report = tmp_path / "report.json"
        proc = run("verify", str(path), "--report", str(report))
        assert proc.returncode == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert len(payload["input_sha256"]) == 64
        assert "gram" not in payload

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
        "command,tol", [("reconstruct", "nan"), ("reconstruct", "-1"), ("verify", "nan")]
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


class TestSearch:
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


class TestWrittenBytes:
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 13])
    def test_every_document_is_json_dumps_of_its_list_payload(self, tmp_path, monkeypatch, d):
        expected = {}
        real_save, real_write = mubkit.cli.save_family, mubkit.cli.write_json

        def save(family, path, states=None, metadata=None):
            doc = FamilyDocument.from_family(family, states=states, metadata=metadata)
            expected[path] = json.dumps(doc.to_payload()) + "\n"
            real_save(family, path, states=states, metadata=metadata)

        def write(payload, path):
            expected[path] = json.dumps(payload) + "\n"
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

        def value(text):
            payload = json.loads(text)
            del payload["metadata"]["timestamp"]
            return payload

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
            assert value(text) == value(path.read_text())

    def test_dispatch_in_process(self, tmp_path, capsys):
        path = tmp_path / "family.json"
        assert cli_dispatch(["construct", "--d", "2", "--out", str(path)]) == 0
        assert cli_dispatch(["verify", str(path)]) == 0
        captured = capsys.readouterr()
        # Diagnostics go to stderr; stdout stays machine-readable.
        assert "pass" in captured.err
