"""Smoke test of the measurement script under ``tools/``."""

import json
import os
import pathlib
import subprocess
import sys

import mubkit

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "search_starts.py"


def test_search_starts_prints_one_record_per_restart():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mubkit.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--sets", "d2_b3", "d6_b3", "--keys", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["record"] for r in records] == ["environment"] + ["restart"] * 2 + ["set"] + [
        "restart"
    ] * 2 + ["set"]
    env_record = records[0]
    assert set(env_record) == {
        "record", "python", "numpy", "blas", "openblas_kernel", "openblas_coretype",
        "openblas_num_threads",
    }
    assert env_record["numpy"] == __import__("numpy").__version__
    restarts = [r for r in records if r["record"] == "restart"]
    assert [(r["set"], r["dim"], r["bases"], r["key"]) for r in restarts] == [
        ("d2_b3", 2, 3, 0), ("d2_b3", 2, 3, 1), ("d6_b3", 6, 3, 0), ("d6_b3", 6, 3, 1),
    ]
    for r in restarts:
        assert set(r) == {
            "record", "set", "dim", "bases", "key", "converged", "iterations", "stop",
            "objective", "objective_hex", "family_sha256", "seconds", "certified",
        }
        assert float.fromhex(r["objective_hex"]) == r["objective"]
        assert len(r["family_sha256"]) == 64 and set(r["family_sha256"]) <= set("0123456789abcdef")
        assert isinstance(r["converged"], bool) and isinstance(r["certified"], bool)
        assert isinstance(r["iterations"], int) and r["seconds"] > 0.0
        assert r["stop"] in {"target", "plateau", "line search", "iterations"}
        # A converged family certifies at 1e-6.
        assert r["certified"] or not r["converged"]
    totals = records[3]
    assert totals["keys"] == 2
    assert totals["converged"] == sum(r["converged"] for r in restarts[:2])
    assert totals["iterations"] == sum(r["iterations"] for r in restarts[:2])
