"""Numerical search for unbiased projector families in arbitrary dimension.

Each candidate projector is parameterized as M = B^dagger B / Tr(B^dagger B)
with an unconstrained complex d x d factor B, so Hermiticity, positive
semidefiniteness, and unit trace hold by construction and the optimizer
never leaves the feasible set.  Rank 1 is a soft constraint: for PSD unit
trace M the self trace product Tr(M^2) is 1 exactly when M has rank 1, so
the penalty includes [Tr(M^2) - 1]^2 alongside the pairwise terms.

The optimizer is monotone descent with Armijo backtracking and seeded
random restarts.  Far from a solution the direction is steepest descent
with a Barzilai-Borwein trial step; once the objective is small the
penalty's least-squares structure takes over and damped normal-equation
steps finish the job, since pure gradient steps crawl on the last ten
decades.  Every accepted step satisfies the slope condition, so the
objective trajectory never increases.  Everything is deterministic for a
fixed configuration.

Non-convergence is an outcome, not an error: the result reports the best
residual floor reached and never interprets it as evidence that no family
exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import MubFamily, unbiased_gram_target
from .reconstruct import eigen_hermitian

__all__ = [
    "SearchConfig",
    "SearchResult",
    "SearchState",
    "gradient",
    "objective",
    "polish",
    "run_search",
]

# Descent stops on gradient norms below this even when the objective target
# was not met; a flat point this deep is a residual floor, not progress.
GRADIENT_FLOOR = 1e-12

# Factors with Tr(B^dagger B) at roundoff scale have no meaningful derived
# projector; dividing by such a trace is refused.
DEGENERATE_TRACE = 1e-14

# Line-search steps below this mean no acceptable descent exists at double
# precision; the restart terminates where it stands.
_MIN_STEP = 1e-20

# Armijo backtracking: first gradient trial step, shrink factor for a
# rejected trial, and the fraction of the predicted decrease to achieve.
_INITIAL_STEP = 1.0
_SHRINK = 0.5
_SLOPE = 1e-4

# Starting factors: projector eigenvalues below this have no real square root.
_PSD_FLOOR = -1e-8

# Fallback growth for the trial step when the Barzilai-Borwein curvature
# estimate is unusable (non-positive); backtracking still shrinks every
# trial that fails the acceptance slope.
_STEP_GROWTH = 2.0

# Hand the endgame to least-squares steps only once the objective is this
# small; the damped normal equations are reliable near a solution and
# pointless far from one.
_REFINE_CROSSOVER = 1e-5

# Skip the least-squares refinement above this many residual rows (one per
# unordered projector pair plus one per self term): the step assembles a
# rows x rows normal matrix and solves it in O(rows^3); gradient steps
# still apply.
_REFINE_ROWS_CAP = 4000

# A restart that cannot shave 0.1 percent off the objective across this
# many iterations sits at a residual floor and stops.
_STALL_WINDOW = 250
_STALL_GAIN = 1e-3


@dataclass(frozen=True)
class SearchConfig:
    """Everything that determines a search run.

    ``dim`` and ``num_bases`` fix the problem; the rest control the
    optimizer.  ``target_residual`` is the objective value counted as
    convergence.  Identical configurations (seed included) give
    bit-identical runs.
    """

    dim: int
    num_bases: int
    restarts: int = 20
    max_iterations: int = 50000
    seed: int = 0
    target_residual: float = 1e-16

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        if not 2 <= self.num_bases <= self.dim + 1:
            raise ValueError(
                f"num_bases must lie in 2..dim+1 = 2..{self.dim + 1}, got {self.num_bases}"
            )
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.target_residual > 0.0:
            raise ValueError(f"target_residual must be positive, got {self.target_residual}")


@dataclass(frozen=True, eq=False)
class SearchState:
    """A point in parameter space: one complex factor per (basis, vector).

    ``factors[a, alpha]`` is the d x d factor whose derived projector is
    B^dagger B / Tr(B^dagger B).  The factors are unconstrained; objective
    and gradient norm are computed on demand and fail only if some factor
    is degenerate (trace norm at roundoff scale).
    """

    factors: np.ndarray

    def __post_init__(self):
        arr = np.array(self.factors, dtype=complex)
        if arr.ndim != 4 or arr.shape[2] != arr.shape[1] or arr.shape[3] != arr.shape[1]:
            raise ValueError(
                f"factors must be shaped (num_bases, d, d, d), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("factor entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "factors", arr)

    @property
    def dim(self) -> int:
        return self.factors.shape[1]

    @property
    def num_bases(self) -> int:
        return self.factors.shape[0]

    @cached_property
    def objective(self) -> float:
        return objective(self)

    @cached_property
    def gradient_norm(self) -> float:
        return float(np.linalg.norm(gradient(self)))

    def projectors(self) -> np.ndarray:
        """Derived projectors, shaped like a family's projector array."""
        n, d = self.num_bases, self.dim
        m, _ = _derive(self.factors.reshape(n * d, d, d))
        return m.reshape(n, d, d, d)

    def family(self) -> MubFamily:
        """The derived projectors as a family, converged or not."""
        return MubFamily(self.projectors())

    @classmethod
    def from_family(cls, family: MubFamily) -> "SearchState":
        """Factors whose derived projectors reproduce ``family``.

        Each factor is the Hermitian square root of its projector, so the
        state starts exactly at the family.  Eigenvalues below -1e-8 have no
        real square root and are refused; small negatives above that floor
        are clamped to zero.
        """
        n, d = family.num_bases, family.dim
        decomp = eigen_hermitian(family.projectors.reshape(n * d, d, d))
        vals, vecs = decomp.eigenvalues, decomp.eigenvectors
        low = vals[:, -1]
        bad = np.flatnonzero(low < _PSD_FLOOR)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"projector (basis {i // d}, vector {i % d}) has eigenvalue "
                f"{low[i]:.3e} below {_PSD_FLOOR:.1e}; no real square root"
            )
        roots = np.sqrt(np.clip(vals, 0.0, None))
        factors = np.einsum("nij,nj,nkj->nik", vecs, roots, vecs.conj())
        return cls(factors.reshape(n, d, d, d))


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of a search: best point found plus per-restart accounting.

    ``converged`` means ``best_objective <= target_residual``.  ``history``
    holds each restart's final objective and ``restart_iterations`` its
    iteration count, in restart order; both stop at the restart where the
    search first converged.
    """

    best_family: MubFamily
    best_objective: float
    iterations_used: int
    restarts_used: int
    converged: bool
    history: tuple = field(default_factory=tuple)
    restart_iterations: tuple = field(default_factory=tuple)


def _derive(b: np.ndarray):
    """Projectors M = B^dagger B / Tr(B^dagger B) for a stack of factors.

    Returns (projectors, traces).  Raises on degenerate factors; callers in
    the line search catch this and treat the trial step as rejected.
    """
    n_total = b.shape[0]
    raw = b.conj().swapaxes(-1, -2) @ b
    # Tr(B^dagger B) is the squared Frobenius norm of B.
    flat = b.reshape(n_total, -1).view(float)
    traces = np.einsum("ij,ij->i", flat, flat)
    if traces.min() < DEGENERATE_TRACE:
        bad = np.flatnonzero(traces < DEGENERATE_TRACE)
        raise _DegenerateFactor(int(bad[0]), float(traces[bad[0]]))
    return raw / traces[:, None, None], traces


class _DegenerateFactor(ValueError):
    def __init__(self, index: int, trace: float):
        self.index = index
        self.trace = trace
        super().__init__(f"factor {index} has trace norm {trace:.3e} below {DEGENERATE_TRACE:.1e}")


def _gram(m: np.ndarray):
    """G_ij = Re Tr(M_i^dagger M_j), one real product of the (re, im) views."""
    w = m.reshape(m.shape[0], -1).view(float)
    return w @ w.T


def _residual(m: np.ndarray, target: np.ndarray):
    """Gram residual R = G - target for derived projectors m."""
    return _gram(m) - target


def _objective_value(r: np.ndarray) -> float:
    # Unordered pairs once each plus the rank-1 self terms: R is symmetric,
    # so the Frobenius mass counts off-diagonal pairs twice and the
    # diagonal once; adding the diagonal again and halving fixes both.
    v = r.reshape(-1)
    diag = np.diagonal(r)
    return 0.5 * float(v @ v + diag @ diag)


def _gradient_array(b: np.ndarray, m: np.ndarray, traces: np.ndarray, r: np.ndarray):
    """Objective derivative for every factor entry, complex-packed.

    Entry (i, p, q) holds d(objective)/d(Re B_i[p, q]) in its real part and
    d(objective)/d(Im B_i[p, q]) in its imaginary part.
    """
    n_total = m.shape[0]
    # Matrix-space direction: K_i = 2 (sum_j R_ij M_j + R_ii M_i), one real
    # product of the doubled-diagonal residual with the (re, im) view of M.
    coeff = 2.0 * r
    coeff.flat[:: n_total + 1] *= 2.0
    mv = m.reshape(n_total, -1).view(float)
    kv = coeff @ mv
    k = kv.view(complex).reshape(m.shape)
    bk = b @ k
    # M_i and K_i are Hermitian, so Tr(M_i K_i) = Re <M_i, K_i>.
    tr_mk = np.einsum("ij,ij->i", mv, kv)
    return (2.0 / traces)[:, None, None] * (bk - tr_mk[:, None, None] * b)


def objective(state: SearchState) -> float:
    """Penalty value of a state: squared Gram residuals plus rank-1 terms.

    Sum over unordered projector pairs of [Tr(M_i M_j) - t]^2 with target
    t = 1/d across bases, 0 for distinct vectors of one basis, plus
    [Tr(M_i^2) - 1]^2 for every projector.  Zero exactly on families of
    mutually unbiased bases.
    """
    n, d = state.num_bases, state.dim
    b = state.factors.reshape(n * d, d, d)
    m, _ = _derive(b)
    return _objective_value(_residual(m, unbiased_gram_target(n, d)))


def gradient(state: SearchState) -> np.ndarray:
    """Analytic objective gradient with respect to every factor entry.

    Returned array has the factors' shape; the real and imaginary parts of
    entry (a, alpha, p, q) are the partial derivatives with respect to the
    real and imaginary parts of that factor entry.  A factor with trace
    norm below 1e-14 has no derived projector; the error names it.
    """
    n, d = state.num_bases, state.dim
    b = state.factors.reshape(n * d, d, d)
    try:
        m, traces = _derive(b)
    except _DegenerateFactor as exc:
        raise ValueError(
            f"factor (basis {exc.index // d}, vector {exc.index % d}) has trace norm "
            f"{exc.trace:.3e} below {DEGENERATE_TRACE:.1e}; derived projector undefined"
        ) from None
    r = _residual(m, unbiased_gram_target(n, d))
    return _gradient_array(b, m, traces, r).reshape(n, d, d, d)


def _row_layout(n_total: int):
    """Index maps of the stacked residual vector for ``n_total`` factors.

    Row k is the residual R[ends[0][k], ends[1][k]]: first the unordered
    pairs i < j in ``np.triu_indices`` order, then the self terms.
    ``row_of[n, j]`` is the row factor n shares with factor j (its self row
    when j == n), so each row touches at most two factors.  ``scatter``
    places entry (n, j, k) of the per-factor blocks at flat position
    (row_of[n, j], row_of[n, k]) of the normal matrix.
    """
    iu, ju = np.triu_indices(n_total, k=1)
    diag = np.arange(n_total)
    ends = (np.concatenate([iu, diag]), np.concatenate([ju, diag]))
    rows = ends[0].size
    row_of = np.empty((n_total, n_total), dtype=np.intp)
    row_of[ends] = np.arange(rows)
    row_of[ends[::-1]] = np.arange(rows)
    scatter = (row_of[:, :, None] * rows + row_of[:, None, :]).reshape(-1)
    return ends, row_of, scatter


def _normal_system(b, m, traces, r, layout):
    """Per-factor Jacobian blocks, normal matrix and residual vector.

    The Jacobian of the stacked residuals is never formed: row (i, j)
    touches only factors i and j, so Re(J J^dagger) is the sum over factors
    n of the Gram matrices of n's blocks, scattered to the rows n shares.
    Returns (v, normal, rvec) with v[n, j] the (re, im) view of the block
    factor n contributes to row ``row_of[n, j]``.
    """
    ends, _, scatter = layout
    n_total, d = b.shape[0], b.shape[1]
    rows = ends[0].size
    gram = _gram(m)
    # Block (n, j) is the derivative of Tr(M_n M_j) in factor n,
    # (2/s_n)(B_n M_j - G_nj B_n), complex-packed like the gradient; the
    # self term Tr(M_n^2) has twice that derivative.  Every B_n M_j comes
    # from one (n p, k) x (k, j q) product.
    prods = b.reshape(-1, d) @ m.transpose(1, 0, 2).reshape(d, -1)
    prods = prods.reshape(n_total, d, n_total, d).transpose(0, 2, 1, 3)
    v = np.ascontiguousarray(prods).reshape(n_total, n_total, -1).view(float)
    v -= gram[:, :, None] * b.reshape(n_total, 1, -1).view(float)
    coeff = np.repeat((2.0 / traces)[:, None], n_total, axis=1)
    coeff.flat[:: n_total + 1] *= 2.0
    v *= coeff[:, :, None]
    normal = np.bincount(
        scatter, weights=(v @ v.transpose(0, 2, 1)).reshape(-1), minlength=rows * rows
    ).reshape(rows, rows)
    return v, normal, r[ends]


def _pull_back(z, v, row_of):
    """z @ J for a row-space vector z: one flattened complex row per factor."""
    return (z[row_of][:, None, :] @ v).view(complex).reshape(row_of.shape[0], -1)


def _refine_direction(b, m, traces, r, g, layout):
    """Damped least-squares step on the stacked residuals, complex-packed.

    Each residual is linear in the derived projectors; the step solves the
    damped normal equations in row space, which is small (one row per
    unordered pair plus one per self term), assembled block by block by
    :func:`_normal_system` without forming the Jacobian.  Returns None when
    the solve fails or does not yield a descent direction; the caller falls
    back to the gradient.
    """
    _, row_of, _ = layout
    v, normal, rvec = _normal_system(b, m, traces, r, layout)
    rows = rvec.size
    damping = 1e-10 * (float(np.trace(normal)) / rows + 1.0)
    try:
        z = np.linalg.solve(normal + damping * np.eye(rows), rvec)
    except np.linalg.LinAlgError:
        return None, 0.0
    direction = -_pull_back(z, v, row_of).reshape(b.shape)
    slope_term = float(np.vdot(g, direction).real)
    if not slope_term < 0.0:
        return None, 0.0
    return direction, slope_term


def _minimize(b0: np.ndarray, target: np.ndarray, cfg: SearchConfig):
    """Descend from factors b0; returns (factors, objective, iterations, trajectory).

    Armijo backtracking along either the steepest-descent direction (with a
    Barzilai-Borwein trial step) or, once the objective is small, the
    damped least-squares direction.  Stops on the objective target, on
    gradient norms at the floor, on a stalled line search or stalled
    progress window, or at the iteration cap.  The trajectory of accepted
    objective values is non-increasing by construction.
    """
    b = b0
    n_total = b.shape[0]
    rows = n_total * (n_total + 1) // 2
    layout = _row_layout(n_total) if rows <= _REFINE_ROWS_CAP else None
    m, traces = _derive(b)
    r = _residual(m, target)
    f = _objective_value(r)
    g = _gradient_array(b, m, traces, r)
    trajectory = [f]
    step = _INITIAL_STEP
    window_f = np.inf
    iterations = 0
    while iterations < cfg.max_iterations:
        if f <= cfg.target_residual:
            break
        gnorm_sq = float(np.vdot(g, g).real)
        if np.sqrt(gnorm_sq) < GRADIENT_FLOOR:
            break
        if iterations % _STALL_WINDOW == 0:
            if f > window_f * (1.0 - _STALL_GAIN):
                break
            window_f = f
        iterations += 1

        direction = None
        if layout is not None and f < _REFINE_CROSSOVER:
            direction, slope_term = _refine_direction(b, m, traces, r, g, layout)
        gradient_step = direction is None
        if gradient_step:
            direction = -g
            slope_term = -gnorm_sq
            trial = step
        else:
            trial = 1.0

        accepted = False
        while trial >= _MIN_STEP:
            candidate = b + trial * direction
            try:
                m_t, traces_t = _derive(candidate)
            except _DegenerateFactor:
                trial *= _SHRINK
                continue
            r_t = _residual(m_t, target)
            f_t = _objective_value(r_t)
            if f_t <= f + _SLOPE * trial * slope_term:
                delta_b = candidate - b
                b, m, traces, r, f = candidate, m_t, traces_t, r_t, f_t
                g_next = _gradient_array(b, m, traces, r)
                if gradient_step:
                    # Barzilai-Borwein curvature estimate seeds the next
                    # trial step; unusable estimates fall back to growth.
                    delta_g = g_next - g
                    denom = float(np.vdot(delta_b, delta_g).real)
                    if denom > 0.0 and np.isfinite(denom):
                        ratio = float(np.vdot(delta_b, delta_b).real) / denom
                        step = min(max(ratio, 1e-12), 1e8)
                    else:
                        step = trial * _STEP_GROWTH
                g = g_next
                trajectory.append(f)
                accepted = True
                break
            trial *= _SHRINK
        if not accepted:
            break
    return b, f, iterations, trajectory


def run_search(cfg: SearchConfig) -> SearchResult:
    """Multi-restart search for ``cfg.num_bases`` unbiased bases in dimension ``cfg.dim``.

    Each restart draws independent standard complex Gaussian factors from a
    counter-based generator keyed by ``cfg.seed`` plus the restart index,
    then descends.  The best restart wins (ties go to the lowest index);
    later restarts are skipped once one converges.  Non-convergence is
    reported through ``converged`` and the residual floor in
    ``best_objective``, never as an exception.
    """
    n, d = cfg.num_bases, cfg.dim
    target = unbiased_gram_target(n, d)
    best_b = None
    best_f = np.inf
    finals = []
    iteration_counts = []
    total_iterations = 0
    for restart in range(cfg.restarts):
        rng = np.random.Generator(np.random.Philox(key=cfg.seed + restart))
        x = rng.standard_normal((n * d, d, d))
        y = rng.standard_normal((n * d, d, d))
        b0 = (x + 1j * y) / np.sqrt(2.0)
        b, f, iterations, _ = _minimize(b0, target, cfg)
        finals.append(f)
        iteration_counts.append(iterations)
        total_iterations += iterations
        if f < best_f:
            best_f = f
            best_b = b
        if best_f <= cfg.target_residual:
            break
    m, _ = _derive(best_b)
    return SearchResult(
        best_family=MubFamily(m.reshape(n, d, d, d)),
        best_objective=best_f,
        iterations_used=total_iterations,
        restarts_used=len(finals),
        converged=bool(best_f <= cfg.target_residual),
        history=tuple(finals),
        restart_iterations=tuple(iteration_counts),
    )


def polish(family: MubFamily, cfg: SearchConfig) -> SearchResult:
    """Refine an existing family by descending from its own factors.

    Initialization takes each projector's Hermitian square root, so an
    already unbiased family converges immediately.  Runs a single descent;
    ``cfg.restarts`` is ignored.  Rejects projectors with eigenvalues below
    -1e-8 (no real square root exists).
    """
    if family.dim != cfg.dim or family.num_bases != cfg.num_bases:
        raise ValueError(
            f"family shape ({family.num_bases} bases, dim {family.dim}) does not match "
            f"config ({cfg.num_bases} bases, dim {cfg.dim})"
        )
    state = SearchState.from_family(family)
    n, d = cfg.num_bases, cfg.dim
    target = unbiased_gram_target(n, d)
    b0 = state.factors.reshape(n * d, d, d)
    b, f, iterations, _ = _minimize(b0, target, cfg)
    m, _ = _derive(b)
    return SearchResult(
        best_family=MubFamily(m.reshape(n, d, d, d)),
        best_objective=f,
        iterations_used=iterations,
        restarts_used=1,
        converged=bool(f <= cfg.target_residual),
        history=(f,),
        restart_iterations=(iterations,),
    )
