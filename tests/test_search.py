import numpy as np
import pytest

from mubkit.algebra import unbiased_gram_target
from mubkit.construct import build_family
from mubkit.search import (
    SearchConfig,
    SearchState,
    _derive,
    _gradient_array,
    _minimize,
    _normal_system,
    _objective_value,
    _pull_back,
    _residual,
    _row_layout,
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
    """The search kernels as plain einsum formulas over a dense Jacobian.

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

    iu, ju = np.triu_indices(n_total, k=1)
    n_pairs = iu.size
    rows = n_pairs + n_total
    c = (2.0 / traces)[:, None, None, None] * (
        np.einsum("ipk,jkq->ijpq", b, m) - gram[:, :, None, None] * b[:, None, :, :]
    )
    jac = np.zeros((rows, n_total, d * d), dtype=complex)
    jac[np.arange(n_pairs), iu] = c[iu, ju].reshape(n_pairs, -1)
    jac[np.arange(n_pairs), ju] = c[ju, iu].reshape(n_pairs, -1)
    every = np.arange(n_total)
    jac[n_pairs + every, every] = 2.0 * c[every, every].reshape(n_total, -1)
    jac = jac.reshape(rows, -1)
    normal = (jac @ jac.conj().T).real
    rvec = np.concatenate([r[iu, ju], diag])
    return m, traces, r, value, grad, jac, normal, rvec


def assert_close(actual, expected, rel=1e-12):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= rel * scale


class TestKernelOracle:
    @pytest.mark.parametrize("d,num_bases", [(2, 3), (3, 4), (4, 5), (6, 3)])
    def test_kernels_match_reference(self, d, num_bases):
        n_total = num_bases * d
        b = random_state(100 + d, num_bases, d).factors.reshape(n_total, d, d)
        target = unbiased_gram_target(num_bases, d)
        m_ref, traces_ref, r_ref, value_ref, grad_ref, jac, normal_ref, rvec_ref = (
            reference_kernels(b, target)
        )

        m, traces = _derive(b)
        assert_close(m, m_ref)
        assert_close(traces, traces_ref)
        r = _residual(m, target)
        assert_close(r, r_ref)
        assert _objective_value(r) == pytest.approx(value_ref, rel=1e-12)
        assert_close(_gradient_array(b, m, traces, r), grad_ref)

        # The normal matrix is singular along gauge directions, so solved
        # steps may differ far above roundoff; compare what feeds the solve.
        layout = _row_layout(n_total)
        v, normal, rvec = _normal_system(b, m, traces, r, layout)
        assert_close(normal, normal_ref)
        assert_close(rvec, rvec_ref)
        z = np.random.default_rng(d).standard_normal(rvec.size)
        assert_close(_pull_back(z, v, layout[1]), (z @ jac).reshape(n_total, -1))

    def test_degenerate_factor_message(self):
        b = random_state(1, 2, 3).factors.reshape(6, 3, 3).copy()
        b[4] = 0.0
        with pytest.raises(ValueError, match=r"factor 4 has trace norm 0\.000e\+00"):
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
        ],
    )
    def test_rejects_bad_values(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            SearchConfig(**kwargs)


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
        assert state.gradient_norm < 1e-10

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
        factors = random_state(0, 2, 3).factors.copy()
        factors[1, 0] = 0.0
        with pytest.raises(ValueError, match=r"basis 1, vector 0"):
            gradient(SearchState(factors))

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

    def test_honest_failure_keeps_best_family(self):
        # Seven bases in dimension 6 exceeds the d + 1 cap, so MubFamily
        # cannot even hold the request; the config itself refuses it.
        with pytest.raises(ValueError, match="num_bases"):
            SearchConfig(dim=6, num_bases=8)
        cfg = SearchConfig(dim=2, num_bases=3, restarts=2, seed=0, max_iterations=3)
        result = run_search(cfg)
        assert not result.converged
        assert result.restarts_used == 2
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


class TestMinimizeTrajectory:
    def test_objective_history_non_increasing(self):
        cfg = SearchConfig(dim=3, num_bases=4, restarts=1, seed=7, max_iterations=400)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
        n, d = cfg.num_bases, cfg.dim
        b0 = (rng.standard_normal((n * d, d, d)) + 1j * rng.standard_normal((n * d, d, d))) / np.sqrt(2)
        _, _, _, trajectory = _minimize(b0, unbiased_gram_target(n, d), cfg)
        assert len(trajectory) >= 2
        assert all(later <= earlier for earlier, later in zip(trajectory, trajectory[1:]))


class TestPolish:
    def test_constructed_family_needs_no_steps(self):
        family = build_family(3)
        cfg = SearchConfig(dim=3, num_bases=4, target_residual=1e-16)
        result = polish(family, cfg)
        assert result.converged
        assert result.iterations_used == 0
        assert result.restarts_used == 1

    def test_recovers_from_small_noise(self):
        from mubkit.algebra import MubFamily
        from mubkit.reconstruct import reconstruct_all

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
        family = build_family(2)
        mats = family.projectors.copy()
        mats[0, 0] = 1.5 * mats[0, 0] - 0.5 * mats[0, 1]
        from mubkit.algebra import MubFamily

        cfg = SearchConfig(dim=2, num_bases=3)
        with pytest.raises(ValueError, match="no real square root"):
            polish(MubFamily(mats), cfg)


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

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shaped"):
            SearchState(np.zeros((2, 3, 3, 2), dtype=complex))

    def test_rejects_non_finite(self):
        factors = np.zeros((1, 2, 2, 2), dtype=complex)
        factors[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SearchState(factors)
