"""A prime-power oracle: the Wootters-Fields family in d = 9, through every reader.

The closed form in :mod:`mubkit.construct` covers prime d only.  Over
GF(9) = GF(3)[i] / (i^2 + 1), with elements c0 + c1 i stored as the
integer c0 + 3 c1, the states omega_3^tr(a x^2 + b x) / 3 (x in GF(9),
labelled by a and b) form 9 bases unbiased to each other and to the
computational basis (Wootters & Fields, Ann. Phys. 191, 363, 1989).  The
trace tr(c) = c + c^3 to GF(3) is 2 c0 mod 3, since the Frobenius map
sends i to i^3 = -i.
"""

import numpy as np
import pytest

from mubkit.algebra import MubFamily
from mubkit.cli import cli_dispatch
from mubkit.io import load_family, save_family
from mubkit.reconstruct import reconstruct_all
from mubkit.search import SearchConfig, polish, run_search
from mubkit.verify import verify_family, verify_states

CONFIG = SearchConfig(dim=9, num_bases=10, restarts=1)


def gf9_product(x, y):
    """Product in GF(9) of elements stored as c0 + 3 c1."""
    x0, x1, y0, y1 = x % 3, x // 3, y % 3, y // 3
    return (x0 * y0 - x1 * y1) % 3 + 3 * ((x0 * y1 + x1 * y0) % 3)


def gf9_trace(c):
    """tr(c0 + c1 i) = 2 c0 mod 3."""
    return 2 * (c % 3) % 3


def wootters_fields_states():
    """The 10 bases of unit states in d = 9, the computational basis first."""
    x = np.arange(9)
    phases = np.exp(2j * np.pi * np.arange(3) / 3) / 3
    bases = [np.eye(9, dtype=complex)]
    for a in range(9):
        quadratic = gf9_trace(gf9_product(a, gf9_product(x, x)))
        bases.append(
            np.array([phases[(quadratic + gf9_trace(gf9_product(b, x))) % 3] for b in range(9)])
        )
    return np.array(bases)


@pytest.fixture(scope="module")
def oracle():
    return MubFamily.from_states(wootters_fields_states())


def test_certifies_at_roundoff(oracle):
    report = verify_family(oracle)
    assert report.passed, report.summary()
    residuals = (report.max_self_residual, report.max_cross_residual, report.angle_check)
    assert max(residuals) < 1e-13


def test_reconstructed_states_verify(oracle):
    states = reconstruct_all(oracle)
    assert verify_states(states).passed
    again = MubFamily.from_states(states)
    assert np.max(np.abs(again.projectors - oracle.projectors)) < 1e-14


def test_save_and_load_are_bit_exact(oracle, tmp_path):
    path = str(tmp_path / "wf9.json")
    save_family(oracle, path)
    assert load_family(path).projectors.tobytes() == oracle.projectors.tobytes()


def test_polish_keeps_the_oracle(oracle):
    result = polish(oracle, CONFIG)
    assert result.converged and result.iterations_used == 0


def test_polish_recovers_a_perturbed_oracle():
    rng = np.random.default_rng(9)
    states = wootters_fields_states()
    parts = rng.standard_normal((2, *states.shape))
    states = states + 0.05 * (parts[0] + 1j * parts[1])
    states /= np.linalg.norm(states, axis=2, keepdims=True)
    result = polish(MubFamily.from_states(states), CONFIG)
    assert result.converged and result.iterations_used > 0
    assert verify_family(result.best_family).passed


def test_a_random_restart_plateaus():
    # The oracle exists, but a random complete start in d = 9 stalls at a local minimum.
    result = run_search(CONFIG)
    assert not result.converged
    assert result.stop_reasons == ("plateau",)


def test_cli_reads_the_oracle(oracle, tmp_path, capsys):
    path = str(tmp_path / "wf9.json")
    save_family(oracle, path)
    assert cli_dispatch(["verify", path]) == 0
    assert cli_dispatch(["reconstruct", path, "--out", str(tmp_path / "states.json")]) == 0
    out = str(tmp_path / "polished.json")
    assert cli_dispatch(["search", "--d", "9", "--bases", "10", "--from", path, "--out", out]) == 0
    assert capsys.readouterr().out == ""
