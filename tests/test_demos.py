"""Every script under demos/ runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        # Numeric warnings fail a demo as they fail the rest of the suite.
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
