import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubkit.algebra import MubFamily, unbiased_gram_target
from mubkit.construct import build_family
from mubkit.reconstruct import reconstruct_all
from mubkit.search import (
    _INITIAL_STEP,
    _SLOPE,
    SearchConfig,
    SearchState,
    _derive,
    _evaluate,
    _gauss_newton_direction,
    _gauss_newton_jacobian,
    _gradient_array,
    _minimize,
    _objective_value,
    _polar_factors,
    _polar_point,
    _residual,
    _retract,
    _tangent_gradient,
    gradient,
    objective,
    polish,
    run_search,
)
from mubkit.verify import verify_family


def random_state(seed, num_bases, d):
    rng = np.random.default_rng(seed)
    shape = (num_bases, d, d, d)
    return SearchState((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2))


def reference_kernels(b, target):
    """The factor-penalty kernels as plain einsum formulas.

    Kept as an oracle for the BLAS-shaped kernels in ``mubkit.search``.
    """
    n_total, d = b.shape[0], b.shape[1]
    raw = np.einsum("nki,nkj->nij", b.conj(), b)
    traces = np.einsum("nii->n", raw).real
    m = raw / traces[:, None, None]
    w = m.reshape(n_total, -1)
    gram = (w.conj() @ w.T).real
    r = gram - target
    diag = np.diagonal(r)
    value = 0.5 * float(np.sum(r * r) + np.sum(diag * diag))
    k = 2.0 * (np.einsum("ij,jkl->ikl", r, m) + diag[:, None, None] * m)
    tr_mk = np.einsum("nij,nji->n", m, k).real
    grad = (2.0 / traces)[:, None, None] * (b @ k - tr_mk[:, None, None] * b)

    return m, traces, r, value, grad


def skew_basis(d):
    """An orthonormal basis of the d x d skew-Hermitian matrices, shaped (d^2, d, d).

    The d(d-1)/2 real generators come first, then the imaginary ones with
    the same (s, t) order, then the d diagonal ones.
    """
    k, l = np.triu_indices(d, k=1)
    pairs = np.arange(k.size)
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[pairs, k, l], basis[pairs, l, k] = np.sqrt(0.5), -np.sqrt(0.5)
    imag = pairs + k.size
    basis[imag, k, l] = basis[imag, l, k] = 1j * np.sqrt(0.5)
    basis[2 * k.size + np.arange(d), np.arange(d), np.arange(d)] = 1j
    return basis


def reference_pair_jacobian(block, basis):
    """Transposed Jacobian of |Q_ab|^2 - 1/d in every generator of bases a then b.

    Row k holds the derivatives of the d^2 residuals in theta_ak (Q_ab moves
    by -E_k Q_ab), row d^2 + k those in theta_bk (Q_ab moves by Q_ab E_k).
    """
    dof = basis.shape[0]
    w = 2.0 * block.conj()
    jt = np.concatenate([-(w * (basis @ block)).real, (w * (block @ basis)).real])
    return jt.reshape(2 * dof, dof)


def reference_gauss_newton(q, r, basis, n):
    """The damped Gauss-Newton Omega over all n d^2 generators, pair by pair.

    Kept as the full-system oracle for the gauge-reduced step in
    ``mubkit.search``: every basis moves, and the gauge directions are left
    to the damping.
    """
    d = q.shape[0] // n
    dof = d * d
    normal = np.zeros((n * dof, n * dof))
    rhs = np.zeros(n * dof)
    for a, b in zip(*np.triu_indices(n, k=1)):
        jt = reference_pair_jacobian(q[a * d : (a + 1) * d, b * d : (b + 1) * d], basis)
        rows = np.r_[a * dof : (a + 1) * dof, b * dof : (b + 1) * dof]
        normal[np.ix_(rows, rows)] += jt @ jt.T
        rhs[rows] += jt @ r[a * d : (a + 1) * d, b * d : (b + 1) * d].reshape(-1)
    normal.flat[:: n * dof + 1] += 1e-10 * (float(np.trace(normal)) / (n * dof) + 1.0)
    theta = np.linalg.solve(normal, -rhs)
    return np.tensordot(theta.reshape(n, dof), basis, axes=1)


def linearized_change(q, omega, n):
    """First-order change of every cross-basis |Q_ab|^2 when U_a moves to U_a (I + Omega_a)."""
    d = q.shape[0] // n
    change = np.zeros(q.shape)
    for a in range(n):
        for b in range(n):
            if a != b:
                rows, cols = slice(a * d, (a + 1) * d), slice(b * d, (b + 1) * d)
                moved = q[rows, cols] @ omega[b] - omega[a] @ q[rows, cols]
                change[rows, cols] = 2.0 * (q[rows, cols].conj() * moved).real
    return change


def assert_close(actual, expected, rel=1e-12):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= rel * scale


class TestKernelOracle:
    @pytest.mark.parametrize("d,num_bases", [(2, 3), (3, 4), (4, 5), (6, 3)])
    def test_kernels_match_reference(self, d, num_bases):
        n_total = num_bases * d
        b = random_state(100 + d, num_bases, d).factors.reshape(n_total, d, d)
        target = unbiased_gram_target(num_bases, d)
        m_ref, traces_ref, r_ref, value_ref, grad_ref = reference_kernels(b, target)

        m, traces = _derive(b)
        assert_close(m, m_ref)
        assert_close(traces, traces_ref)
        r = _residual(m, target)
        assert_close(r, r_ref)
        assert _objective_value(r) == pytest.approx(value_ref, rel=1e-12)
        assert_close(_gradient_array(b, m, traces, r), grad_ref)

    def test_degenerate_factor_message(self):
        b = random_state(1, 2, 3).factors.reshape(6, 3, 3).copy()
        b[4] = 0.0
        with pytest.raises(
            ValueError,
            match=r"^factor \(basis 1, vector 1\) has trace norm 0\.000e\+00 below 1\.0e-14; "
            r"derived projector undefined$",
        ):
            _derive(b)


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig(dim=3, num_bases=4)
        assert cfg.restarts == 20
        assert cfg.target_residual == 1e-16

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(dim=1, num_bases=2), "dimension"),
            (dict(dim=3, num_bases=1), "num_bases"),
            (dict(dim=3, num_bases=5), "num_bases"),
            (dict(dim=3, num_bases=4, restarts=0), "restarts"),
            (dict(dim=3, num_bases=4, max_iterations=0), "max_iterations"),
            (dict(dim=3, num_bases=4, seed=-1), "seed"),
            (dict(dim=3, num_bases=4, target_residual=0.0), "target_residual"),
            (dict(dim=2000, num_bases=2), "bytes of projectors"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            SearchConfig(**kwargs)

    @pytest.mark.parametrize("target", [np.inf, np.nan, -np.inf])
    def test_refuses_non_finite_target(self, target):
        # inf would count every start as converged before its first step.
        with pytest.raises(ValueError, match=r"^target_residual must be positive and finite, got"):
            SearchConfig(dim=3, num_bases=4, target_residual=target)

    def test_family_size_limit(self):
        # 2 * 322^3 * 16 bytes fit in MAX_FAMILY_BYTES (1 GiB); 2 * 323^3 * 16 do not.
        assert SearchConfig(dim=322, num_bases=2).dim == 322
        with pytest.raises(ValueError, match=r"needs 1078344544 bytes"):
            SearchConfig(dim=323, num_bases=2)


class TestObjective:
    def test_zero_on_constructed_family(self):
        family = build_family(3)
        state = SearchState.from_family(family)
        assert objective(state) < 1e-18

    @pytest.mark.parametrize("d,num_bases", [(2, 2), (3, 4), (5, 3)])
    def test_all_identity_factors(self, d, num_bases):
        # Identity factors derive M = I/d for every projector, so every
        # within-basis overlap is 1/d instead of 0 and every purity term
        # is 1/d instead of 1; cross-basis terms are already on target.
        state = SearchState(np.broadcast_to(np.eye(d, dtype=complex), (num_bases, d, d, d)).copy())
        pairs = num_bases * d * (d - 1) // 2
        expected = pairs / d**2 + num_bases * d * (1 - 1 / d) ** 2
        assert objective(state) == pytest.approx(expected, rel=1e-12)

    def test_single_basis_of_matrix_units(self):
        d = 4
        factors = np.zeros((1, d, d, d), dtype=complex)
        for alpha in range(d):
            factors[0, alpha, alpha, alpha] = 1.0
        assert objective(SearchState(factors)) == 0.0

    def test_cached_on_state(self):
        state = random_state(3, 2, 2)
        assert state.objective == objective(state)


class TestGradient:
    def test_vanishes_at_solution(self):
        family = build_family(2)
        state = SearchState.from_family(family)
        assert np.linalg.norm(gradient(state)) < 1e-10

    @pytest.mark.parametrize("d,num_bases", [(2, 3), (3, 4)])
    def test_matches_finite_differences(self, d, num_bases):
        state = random_state(11 + d, num_bases, d)
        g = gradient(state)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(12):
            a = rng.integers(num_bases)
            alpha = rng.integers(d)
            p = rng.integers(d)
            q = rng.integers(d)
            part = rng.integers(2)
            delta = np.zeros_like(state.factors)
            delta[a, alpha, p, q] = h if part == 0 else 1j * h
            plus = objective(SearchState(state.factors + delta))
            minus = objective(SearchState(state.factors - delta))
            fd = (plus - minus) / (2 * h)
            analytic = g[a, alpha, p, q].real if part == 0 else g[a, alpha, p, q].imag
            assert abs(fd - analytic) < 1e-5 * max(1.0, abs(fd))

    def test_degenerate_factor_named(self):
        # objective and gradient refuse with the same text.
        factors = random_state(0, 2, 3).factors.copy()
        factors[1, 0] = 0.0
        for function in (objective, gradient):
            with pytest.raises(ValueError, match=r"factor \(basis 1, vector 0\) has trace norm"):
                function(SearchState(factors))

    def test_invariant_under_unitary_mixing(self):
        # The objective sees factors only through B^dagger B, so B -> UB
        # leaves it unchanged.
        state = random_state(21, 3, 3)
        rng = np.random.default_rng(22)
        rotated = state.factors.copy()
        for a in range(3):
            for alpha in range(3):
                z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                u, _ = np.linalg.qr(z)
                rotated[a, alpha] = u @ rotated[a, alpha]
        assert abs(objective(SearchState(rotated)) - objective(state)) < 1e-10


class TestRunSearch:
    def test_qubit_triple_converges(self):
        cfg = SearchConfig(dim=2, num_bases=3, restarts=20, seed=42)
        result = run_search(cfg)
        assert result.converged
        assert result.best_objective <= cfg.target_residual
        report = verify_family(result.best_family, tolerance=1e-6)
        assert report.passed

    def test_deterministic(self):
        cfg = SearchConfig(dim=2, num_bases=2, restarts=3, seed=9, max_iterations=2000)
        first = run_search(cfg)
        second = run_search(cfg)
        assert first.history == second.history
        assert first.restart_iterations == second.restart_iterations
        assert np.array_equal(first.best_family.projectors, second.best_family.projectors)

    def test_early_stop_after_convergence(self):
        cfg = SearchConfig(dim=2, num_bases=2, restarts=50, seed=1)
        result = run_search(cfg)
        assert result.converged
        assert result.restarts_used < 50
        assert len(result.history) == result.restarts_used
        assert len(result.stop_reasons) == result.restarts_used
        assert result.stop_reasons[-1] == "target"

    def test_honest_failure_keeps_best_family(self):
        # Seven bases in dimension 6 exceeds the d + 1 cap, so MubFamily
        # cannot even hold the request; the config itself refuses it.
        with pytest.raises(ValueError, match="num_bases"):
            SearchConfig(dim=6, num_bases=8)
        cfg = SearchConfig(dim=2, num_bases=3, restarts=2, seed=0, max_iterations=3)
        result = run_search(cfg)
        assert not result.converged
        assert result.restarts_used == 2
        assert result.stop_reasons == ("iterations", "iterations")
        # The reported family is still a legitimate set of projectors.
        report = verify_family(result.best_family, tolerance=1e-6)
        assert report.trace_residual < 1e-12
        assert report.hermiticity_residual < 1e-12
        assert report.psd_min_eigenvalue > -1e-12

    def test_iteration_accounting(self):
        cfg = SearchConfig(dim=2, num_bases=2, restarts=2, seed=4, max_iterations=500)
        result = run_search(cfg)
        assert result.iterations_used == sum(result.restart_iterations)
        assert all(n <= cfg.max_iterations for n in result.restart_iterations)


def haar_unitaries(seed, num_bases, d):
    rng = np.random.default_rng(seed)
    shape = (num_bases, d, d)
    return _retract(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_skew(rng, num_bases, d):
    z = rng.standard_normal((num_bases, d, d)) + 1j * rng.standard_normal((num_bases, d, d))
    return z - z.conj().swapaxes(-1, -2)


class TestMinimizeTrajectory:
    def test_objective_history_non_increasing(self):
        cfg = SearchConfig(dim=3, num_bases=4, restarts=1, seed=7, max_iterations=400)
        n, d = cfg.num_bases, cfg.dim
        u, f, _, trajectory, _ = _minimize(haar_unitaries(7, n, d), unbiased_gram_target(n, d), cfg)
        assert len(trajectory) >= 2
        assert trajectory[-1] == f
        assert all(later <= earlier for earlier, later in zip(trajectory, trajectory[1:]))
        assert np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(d))) < 1e-12


def recorded_descents(monkeypatch):
    """Record what every ``_minimize`` call returns; returns the list."""
    import mubkit.search

    descents = []
    real = mubkit.search._minimize

    def recording(u0, target, cfg):
        descents.append(real(u0, target, cfg))
        return descents[-1]

    monkeypatch.setattr(mubkit.search, "_minimize", recording)
    return descents


def counting_trials(monkeypatch):
    """Count objective evaluations and ``eigh`` factorizations; returns the live dict.

    ``_minimize`` evaluates its start once, then each trial point once.
    """
    import mubkit.search

    counts = {"evaluations": 0, "factorizations": 0}
    real_evaluate = mubkit.search._evaluate
    real_eigh = np.linalg.eigh

    def evaluating(u, target):
        counts["evaluations"] += 1
        return real_evaluate(u, target)

    def factoring(a, *args, **kwargs):
        counts["factorizations"] += 1
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(mubkit.search, "_evaluate", evaluating)
    monkeypatch.setattr(np.linalg, "eigh", factoring)
    return counts


class TestLineSearchExhaustion:
    # Each trial's Armijo target f + c t <g, direction> is formed first; once
    # it rounds to f the line search is exhausted, so every accepted step
    # lowers f strictly and no trial is spent on roundoff.
    def test_trajectory_strictly_decreasing(self):
        cfg = SearchConfig(dim=3, num_bases=4, restarts=1, seed=7, max_iterations=400)
        n, d = cfg.num_bases, cfg.dim
        _, f, _, trajectory, _ = _minimize(haar_unitaries(7, n, d), unbiased_gram_target(n, d), cfg)
        assert len(trajectory) >= 2
        assert trajectory[-1] == f
        assert all(later < earlier for earlier, later in zip(trajectory, trajectory[1:]))

    def test_trajectory_strictly_decreasing_at_dimension_six(self, monkeypatch):
        # Keys 0 and 1 converge; keys 3, 4, 5 and 7 stop on a plateau.
        descents = recorded_descents(monkeypatch)
        converged = [
            run_search(SearchConfig(dim=6, num_bases=3, restarts=1, seed=key)).converged
            for key in (0, 1, 3, 4, 5, 7)
        ]
        assert converged == [True, True, False, False, False, False]
        assert [stop for *_, stop in descents] == ["target"] * 2 + ["plateau"] * 4
        for _, f, _, trajectory, _ in descents:
            assert trajectory[-1] == f
            assert all(later < earlier for earlier, later in zip(trajectory, trajectory[1:]))

    def test_rounded_target_retracts_no_trial(self, monkeypatch):
        # Key 4's restart stops on a plateau.  Descending again from where
        # each descent stopped, the eighth ends on an exhausted line search,
        # at a point where the first gradient trial's Armijo target (step 1)
        # already rounds to f.
        descents = recorded_descents(monkeypatch)
        cfg = SearchConfig(dim=6, num_bases=3, restarts=1, seed=4)
        assert run_search(cfg).stop_reasons == ("plateau",)
        u = descents[0][0]
        target = unbiased_gram_target(3, 6)
        for _ in range(20):
            u, *_, stop = _minimize(u, target, cfg)
            if stop != "plateau":
                break
        assert stop == "line search"
        x, q, r, f = _evaluate(u, target)
        g, _ = _tangent_gradient(u, x, q, r)
        gnorm_sq = float(np.vdot(g, g).real)
        assert f > cfg.target_residual and np.sqrt(gnorm_sq) > 1e-12
        assert f + _SLOPE * _INITIAL_STEP * -gnorm_sq == f

        counts = counting_trials(monkeypatch)
        u_end, f_end, iterations, trajectory, stop = _minimize(u, target, cfg)
        assert counts == {"evaluations": 1, "factorizations": 0}
        assert (f_end, iterations, trajectory) == (f, 1, [f])
        assert u_end is u
        assert stop == "line search"

    def test_nan_slope_retracts_no_trial(self, monkeypatch):
        import mubkit.search

        def nan_gradient(u, x, q, r):
            return np.full(u.shape, np.nan), np.full(u.shape, np.nan)

        monkeypatch.setattr(mubkit.search, "_tangent_gradient", nan_gradient)
        counts = counting_trials(monkeypatch)
        cfg = SearchConfig(dim=6, num_bases=3, restarts=1)
        target = unbiased_gram_target(3, 6)
        _, f, iterations, trajectory, stop = _minimize(haar_unitaries(2, 3, 6), target, cfg)
        assert counts == {"evaluations": 1, "factorizations": 0}
        assert iterations == 1 and trajectory == [f]
        assert stop == "line search"


class TestPolarRetraction:
    # Each step factors its direction once; every trial along it is the
    # polar factor of U + t U Omega in closed form.
    def test_at_most_one_factorization_per_iteration(self, monkeypatch):
        counts = counting_trials(monkeypatch)
        cfg = SearchConfig(dim=6, num_bases=3, restarts=1, max_iterations=400)
        target = unbiased_gram_target(3, 6)
        _, _, iterations, trajectory, _ = _minimize(haar_unitaries(1, 3, 6), target, cfg)
        trials = counts["evaluations"] - 1
        assert len(trajectory) - 1 <= counts["factorizations"] <= iterations
        assert trials > counts["factorizations"]

    def test_matches_the_polar_factor(self):
        rng = np.random.default_rng(12)
        u = haar_unitaries(12, 3, 6)
        omega = random_skew(rng, 3, 6)
        factors = _polar_factors(u, omega)
        for t in (1e-6, 0.3, 1.0, 40.0):
            left, _, right = np.linalg.svd(u + t * (u @ omega))
            assert np.max(np.abs(_polar_point(factors, t) - left @ right)) < 1e-13

    def test_trials_unitary_up_to_the_step_cap(self):
        # The Barzilai-Borwein trial step is capped at 1e8.
        u = haar_unitaries(13, 3, 6)
        target = unbiased_gram_target(3, 6)
        _, z = _tangent_gradient(u, *_evaluate(u, target)[:3])
        factors = _polar_factors(u, -z)
        for t in 10.0 ** np.arange(-12, 9):
            v = _polar_point(factors, t)
            assert np.max(np.abs(v.conj().swapaxes(-1, -2) @ v - np.eye(6))) < 1e-14

    def test_failed_factorization_ends_the_restart(self, monkeypatch):
        def failing(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        cfg = SearchConfig(dim=6, num_bases=3, restarts=1)
        target = unbiased_gram_target(3, 6)
        u = haar_unitaries(2, 3, 6)
        f = _evaluate(u, target)[3]
        u_end, f_end, iterations, trajectory, stop = _minimize(u, target, cfg)
        assert (f_end, iterations, trajectory, stop) == (f, 1, [f], "factorization")
        assert u_end is u
        result = run_search(cfg)
        assert not result.converged and result.restart_iterations == (1,)
        assert result.stop_reasons == ("factorization",)


class TestDimensionSixPins:
    # Single restarts for 3 bases in d = 6, keys 0-29: which converge, and
    # in how many iterations.  A change to the line search, its stop rules
    # or the Gauss-Newton endgame that moves a converged trajectory moves
    # these counts.
    CONVERGED_ITERATIONS = {
        0: 31, 1: 19, 2: 24, 8: 26, 9: 22, 10: 27, 11: 61, 12: 15, 13: 40, 14: 43, 16: 21,
        17: 23, 18: 33, 19: 18, 20: 20, 21: 16, 22: 26, 23: 26, 24: 34, 25: 25, 27: 34, 28: 19,
        29: 27,
    }
    # Unconverged keys: (iterations, objective) where they stop on the
    # plateau of a local minimum, far above the Gauss-Newton crossover.
    LOCAL_MINIMA = {
        3: (59, 0.06559247035888745),
        4: (35, 0.05124922915751219),
        5: (51, 0.06559248139643067),
        7: (43, 0.05124922071582663),
    }

    def test_converged_keys_and_iterations(self):
        converged = {}
        for key in range(30):
            result = run_search(SearchConfig(dim=6, num_bases=3, restarts=1, seed=key))
            assert result.stop_reasons == ("target" if result.converged else "plateau",)
            if result.converged:
                converged[key] = result.restart_iterations[0]
        assert converged == self.CONVERGED_ITERATIONS

    def test_local_minima_never_reach_gauss_newton(self, monkeypatch):
        import mubkit.search

        calls = []
        real = mubkit.search._gauss_newton_direction

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mubkit.search, "_gauss_newton_direction", counting)
        for key, stop in self.LOCAL_MINIMA.items():
            result = run_search(SearchConfig(dim=6, num_bases=3, restarts=1, seed=key))
            assert (result.restart_iterations[0], result.best_objective) == stop
            assert result.stop_reasons == ("plateau",)
        assert calls == []
        assert run_search(SearchConfig(dim=6, num_bases=3, restarts=1, seed=0)).converged
        assert calls


class TestUnitaryModel:
    def test_objective_is_the_projector_penalty(self):
        # The overlap route |X^dagger X|^2 computes the factor penalty of
        # the rank-1 projectors of U's columns.
        u = haar_unitaries(3, 3, 4)
        states = u.swapaxes(-1, -2)
        projectors = states[..., :, None] * states.conj()[..., None, :]
        _, _, _, f = _evaluate(u, unbiased_gram_target(3, 4))
        assert f == pytest.approx(objective(SearchState(projectors)), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_gradient_matches_finite_differences(self, d):
        # Criterion 7's step and tolerance, along random tangent directions
        # U_a Omega_a with Omega_a skew-Hermitian, through the retraction.
        num_bases, h = 3, 1e-6
        target = unbiased_gram_target(num_bases, d)
        rng = np.random.default_rng(70 + d)
        for trial in range(5):
            u = haar_unitaries(100 * d + trial, num_bases, d)
            x, q, r, _ = _evaluate(u, target)
            g, _ = _tangent_gradient(u, x, q, r)
            direction = u @ random_skew(rng, num_bases, d)
            plus = _evaluate(_retract(u + h * direction), target)[3]
            minus = _evaluate(_retract(u - h * direction), target)[3]
            fd = (plus - minus) / (2 * h)
            analytic = float(np.vdot(g, direction).real)
            assert abs(fd - analytic) < 1e-5 * abs(fd)

    def test_gradient_is_tangent(self):
        u = haar_unitaries(5, 3, 4)
        g, z = _tangent_gradient(u, *_evaluate(u, unbiased_gram_target(3, 4))[:3])
        h = u.conj().swapaxes(-1, -2) @ g
        assert np.max(np.abs(h + h.conj().swapaxes(-1, -2))) < 1e-12
        assert np.array_equal(z, -z.conj().swapaxes(-1, -2))
        assert np.array_equal(g, u @ z)

    def test_retraction_is_unitary_and_fixes_unitaries(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        u = _retract(y)
        assert np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(5))) < 1e-14
        assert np.max(np.abs(_retract(u) - u)) < 1e-14
        # R = U^dagger y is upper triangular with a positive diagonal.
        pivots = np.diagonal(u.conj().swapaxes(-1, -2) @ y, axis1=-2, axis2=-1)
        assert np.all(pivots.real > 0.0) and np.max(np.abs(pivots.imag)) < 1e-14
        # Rank-deficient input (two equal columns) still gives a unitary.
        y[:, :, 1] = y[:, :, 0]
        v = _retract(y)
        assert np.max(np.abs(v.conj().swapaxes(-1, -2) @ v - np.eye(5))) < 1e-14
        pivots = np.diagonal(v.conj().swapaxes(-1, -2) @ y, axis1=-2, axis2=-1)
        assert np.all(pivots.real > -1e-14)

    def test_skew_basis_is_orthonormal(self):
        basis = skew_basis(4)
        assert np.array_equal(basis, -basis.conj().swapaxes(-1, -2))
        gram = np.einsum("pij,qij->pq", basis.conj(), basis).real
        assert np.max(np.abs(gram - np.eye(16))) < 1e-15

    @pytest.mark.parametrize("num_bases,d", [(3, 6), (5, 4), (6, 5), (3, 7)])
    def test_gauss_newton_jacobian_is_the_reference_kept_columns(self, num_bases, d):
        # Bases 1..n-1 keep their d^2 - d off-diagonal generators; basis 0
        # and every diagonal (phase) generator are dropped.
        u = haar_unitaries(40 + d, num_bases, d)
        q = _evaluate(u, unbiased_gram_target(num_bases, d))[1]
        sign, values = _gauss_newton_jacobian(q, num_bases)
        jac = sign[None, :, :, None] * values[:, :, None, :]
        kept, dof = d * d - d, d * d
        basis = skew_basis(d)
        for a, b in zip(*np.triu_indices(num_bases, k=1)):
            jt = reference_pair_jacobian(q[a * d : (a + 1) * d, b * d : (b + 1) * d], basis)
            if a > 0:
                left = jac[a - 1, :, :, b * d : (b + 1) * d].reshape(kept, dof)
                assert_close(left, jt[:kept], rel=1e-15)
            right = jac[b - 1, :, :, a * d : (a + 1) * d].swapaxes(-1, -2).reshape(kept, dof)
            assert_close(right, jt[dof : dof + kept], rel=1e-15)
            # The phase generators move no residual.
            assert np.max(np.abs(jt[kept:dof])) <= 1e-15 * np.max(np.abs(jt))
            assert np.max(np.abs(jt[dof + kept :])) <= 1e-15 * np.max(np.abs(jt))
        for a in range(1, num_bases):
            assert not np.any(jac[a - 1, :, :, a * d : (a + 1) * d])

    @pytest.mark.parametrize("num_bases,d", [(3, 6), (5, 4), (6, 5), (3, 7), (2, 5)])
    def test_gauss_newton_direction_matches_the_full_system(self, num_bases, d):
        # The reduced step fixes the gauge the full system leaves to its
        # damping: Omega differs, but its slope and its first-order change
        # of the residuals agree with the full system's, up to that
        # damping's pull on the gauge directions (larger for two bases).
        rel = 1e-7 if num_bases == 2 else 1e-8
        u = haar_unitaries(40 + d, num_bases, d)
        x, q, r, _ = _evaluate(u, unbiased_gram_target(num_bases, d))
        g, _ = _tangent_gradient(u, x, q, r)
        omega, slope_term = _gauss_newton_direction(u, q, r, g)
        assert np.array_equal(omega, -omega.conj().swapaxes(-1, -2))
        assert not np.any(omega[0])
        assert not np.any(np.diagonal(omega, axis1=-2, axis2=-1))
        assert slope_term == float(np.vdot(g, u @ omega).real) < 0.0
        expected = reference_gauss_newton(q, r, skew_basis(d), num_bases)
        expected_slope = float(np.vdot(g, u @ expected).real)
        assert abs(slope_term - expected_slope) <= rel * abs(expected_slope)
        assert_close(
            linearized_change(q, omega, num_bases), linearized_change(q, expected, num_bases), rel
        )

    def test_gauss_newton_step_converges_quadratically(self):
        # Near a solution one damped Gauss-Newton step takes the objective
        # from its order eps^2 to about eps^4.
        d, num_bases = 5, 6
        u = reconstruct_all(build_family(d)).swapaxes(-1, -2)
        rng = np.random.default_rng(9)
        u = _retract(u + 1e-5 * (u @ random_skew(rng, num_bases, d)))
        target = unbiased_gram_target(num_bases, d)
        x, q, r, f = _evaluate(u, target)
        g, _ = _tangent_gradient(u, x, q, r)
        omega, slope_term = _gauss_newton_direction(u, q, r, g)
        assert np.array_equal(omega, -omega.conj().swapaxes(-1, -2))
        assert slope_term == float(np.vdot(g, u @ omega).real) < 0.0
        f_next = _evaluate(_polar_point(_polar_factors(u, omega), 1.0), target)[3]
        assert 1e-10 < f < 1e-6
        assert f_next < 1e-6 * f


class TestResultContract:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 4),
        extra=st.integers(0, 3),
        seed=st.integers(0, 10_000),
        iterations=st.integers(1, 80),
        use_polish=st.booleans(),
    )
    def test_orthonormal_states_and_honest_objective(self, d, extra, seed, iterations, use_polish):
        num_bases = min(2 + extra, d + 1)
        cfg = SearchConfig(
            dim=d, num_bases=num_bases, restarts=1, max_iterations=iterations, seed=seed
        )
        if use_polish:
            rng = np.random.default_rng(seed)
            states = rng.standard_normal((num_bases, d, d)) + 1j * rng.standard_normal(
                (num_bases, d, d)
            )
            states /= np.linalg.norm(states, axis=-1, keepdims=True)
            result = polish(MubFamily.from_states(states), cfg)
        else:
            result = run_search(cfg)
        # Converged or not, every basis is orthonormal: its projectors are
        # rank-1 and mutually orthogonal, so their Gram matrix is I.
        mats = result.best_family.projectors.reshape(num_bases, d, d * d)
        gram = np.einsum("aip,ajp->aij", mats.conj(), mats).real
        assert np.max(np.abs(gram - np.eye(d))) < 1e-12
        assert result.history == (result.best_objective,)
        assert len(result.stop_reasons) == 1
        assert result.stop_reasons[0] in {"target", "plateau", "line search", "iterations"}
        recomputed = objective(SearchState(result.best_family.projectors))
        assert result.best_objective == pytest.approx(recomputed, rel=1e-12, abs=0.0)
        assert result.converged == (result.best_objective <= cfg.target_residual)


class TestPolish:
    def test_constructed_family_needs_no_steps(self):
        family = build_family(3)
        cfg = SearchConfig(dim=3, num_bases=4, target_residual=1e-16)
        result = polish(family, cfg)
        assert result.converged
        assert result.iterations_used == 0
        assert result.restarts_used == 1
        assert result.stop_reasons == ("target",)

    def test_recovers_from_small_noise(self):
        family = build_family(2)
        rng = np.random.default_rng(15)
        states = reconstruct_all(family)
        states += 1e-3 * (rng.standard_normal(states.shape) + 1j * rng.standard_normal(states.shape))
        states /= np.linalg.norm(states, axis=-1, keepdims=True)
        noisy = MubFamily.from_states(states)
        cfg = SearchConfig(dim=2, num_bases=3, target_residual=1e-16)
        result = polish(noisy, cfg)
        assert result.converged
        assert verify_family(result.best_family, tolerance=1e-6).passed

    def test_shape_mismatch_rejected(self):
        family = build_family(2)
        cfg = SearchConfig(dim=3, num_bases=3)
        with pytest.raises(ValueError, match="does not match"):
            polish(family, cfg)

    def test_indefinite_projector_rejected(self):
        mats = build_family(2).projectors.copy()
        mats[0, 0] = 1.5 * mats[0, 0] - 0.5 * mats[0, 1]
        cfg = SearchConfig(dim=2, num_bases=3)
        with pytest.raises(ValueError, match="no real square root"):
            polish(MubFamily(mats), cfg)

    def test_non_hermitian_projector_named_by_labels(self):
        p = build_family(3).projectors.copy()
        p[2, 1, 0, 1] += 0.1
        cfg = SearchConfig(dim=3, num_bases=4)
        with pytest.raises(
            ValueError,
            match=r"^projector \(basis 2, vector 1\) is not Hermitian: max deviation 1\.000e-01",
        ):
            polish(MubFamily(p), cfg)


class TestSearchState:
    def test_projectors_are_unit_trace_hermitian_psd(self):
        state = random_state(30, 3, 4)
        mats = state.projectors()
        assert mats.shape == (3, 4, 4, 4)
        flat = mats.reshape(-1, 4, 4)
        for m in flat:
            assert abs(np.trace(m) - 1.0) < 1e-12
            assert np.max(np.abs(m - m.conj().T)) < 1e-14
            assert np.linalg.eigvalsh(m).min() > -1e-12

    def test_from_family_round_trip(self):
        family = build_family(5)
        state = SearchState.from_family(family)
        assert np.max(np.abs(state.projectors() - family.projectors)) < 1e-12

    def test_from_family_rejects_indefinite_projector(self):
        mats = build_family(2).projectors.copy()
        mats[0, 0] = 1.5 * mats[0, 0] - 0.5 * mats[0, 1]
        with pytest.raises(ValueError, match=r"\(basis 0, vector 0\).*no real square root"):
            SearchState.from_family(MubFamily(mats))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shaped"):
            SearchState(np.zeros((2, 3, 3, 2), dtype=complex))

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda f: f.swapaxes(-1, -2).conj()],
        ids=["fortran", "swapped"],
    )
    def test_accepts_non_contiguous_factors(self, layout):
        factors = layout(random_state(31, 2, 3).factors)
        assert not factors.flags.c_contiguous
        state = SearchState(factors)
        assert state.factors.flags.c_contiguous
        assert np.array_equal(state.factors, factors)
        assert state.objective == objective(SearchState(np.ascontiguousarray(factors)))

    def test_rejects_non_finite(self):
        factors = np.zeros((1, 2, 2, 2), dtype=complex)
        factors[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SearchState(factors)

    @pytest.mark.parametrize("entry", [1e200, -1e200j, 1e151])
    def test_rejects_parts_above_max_entry(self, entry):
        factors = random_state(32, 2, 3).factors.copy()
        factors[1, 2, 0, 1] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = r"^factor entries must be finite, with parts up to 1e\+150$"
            with pytest.raises(ValueError, match=message):
                SearchState(factors)

    def test_parts_at_max_entry_evaluate_without_warnings(self):
        factors = random_state(32, 2, 3).factors.copy()
        factors[1, 2, 0, 1] = 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = SearchState(factors)
            assert np.isfinite(state.objective)
            assert np.all(np.isfinite(gradient(state)))
