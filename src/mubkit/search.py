"""Numerical search for mutually unbiased bases in arbitrary dimension.

Basis a is a unitary U_a whose columns are its vectors, so orthonormality
within a basis and rank 1 of every projector hold by construction.  With
the columns stacked as X (d x nd), the objective is the Gram penalty of the
projectors written through overlaps, R = |X^dagger X|^2 - target, where the
target is 1 on the diagonal, 0 within a basis and 1/d across bases.

The optimizer is monotone Riemannian descent with Armijo backtracking and
seeded Haar-random restarts: Barzilai-Borwein gradient steps far from a
solution, then, below an objective of 1e-3, damped Gauss-Newton steps in
skew-Hermitian coordinates U_a -> U_a (I + Omega_a), since gradient steps
crawl on the last decades.  The Gauss-Newton step fixes the gauge (basis 0
stays put and no vector's phase moves), so it solves for (n-1)(d^2-d)
unknowns read straight from the overlaps.
Both step kinds move along U Omega with Omega skew-Hermitian.  One
eigendecomposition of i Omega per step gives the polar retraction of
U + t U Omega, the nearest unitary, at every trial step t in closed form,
and runs are deterministic for a fixed configuration.  Every accepted step
lowers the objective strictly.  A restart stops at the objective target;
on a plateau, once its last 3 accepted steps together gained less than
1e-6 of the objective, which is how restarts stuck at a local minimum end;
at the iteration cap; when factoring a step fails; or when its line search
is exhausted: the trial step has halved until the Armijo target
f + c t <gradient, direction> rounds to f itself, where only roundoff could
pass the test.  The result names each restart's stop.

:func:`objective` and :func:`gradient` keep the paper's factor form
M = B^dagger B / Tr(B^dagger B) for any :class:`SearchState`; a search
reports that penalty evaluated on the projectors it returns, each its own
factor.  Non-convergence is an outcome, not an error: the result reports
the best residual floor reached and never interprets it as evidence that
no family exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import _MAX_ENTRY, MubFamily, _symmetrized, unbiased_gram_target
from .construct import MAX_FAMILY_BYTES

__all__ = [
    "SearchConfig",
    "SearchResult",
    "SearchState",
    "gradient",
    "objective",
    "polish",
    "run_search",
]

# Factors with Tr(B^dagger B) at roundoff scale have no meaningful derived
# projector; dividing by such a trace is refused.
DEGENERATE_TRACE = 1e-14

# Armijo backtracking: first gradient trial step, shrink factor for a
# rejected trial, and the fraction of the predicted decrease to achieve.
_INITIAL_STEP = 1.0
_SHRINK = 0.5
_SLOPE = 1e-4

# Starting factors: largest accepted Hermitian defect and lowest accepted eigenvalue.
_HERMITIAN_TOL = 1e-10
_PSD_FLOOR = -1e-8

# Largest one-column rank-1 residual, relative to ||v||^2, at which a
# projector's scaled copy M / ||v|| is taken as its square root.
_RANK_ONE_TOL = 1e-10

# Fallback growth for the trial step when the Barzilai-Borwein curvature
# estimate is unusable (non-positive); backtracking still shrinks every
# trial that fails the acceptance slope.
_STEP_GROWTH = 2.0

# Hand the endgame to Gauss-Newton steps only once the objective is this
# small; the damped normal equations are reliable near a solution and
# pointless far from one.  It must stay well below every local-minimum
# floor, or restarts stuck there would spend their last steps on it: the
# lowest seen are 0.029 (d = 7, 3 bases) and 0.047 (d = 6, 3 bases).
_GAUSS_NEWTON_CROSSOVER = 1e-3

# Skip the Gauss-Newton endgame above this many real parameters, n d^2
# (complete families up to d = 8); gradient steps still apply.  The step
# solves for the (n-1)(d^2-d) left once the gauge is fixed.  At 1 BLAS
# thread it costs 7 ms and 4 MB at 576 parameters, 0.23 s and 74 MB at 2366
# (complete d = 13), where gradient steps alone converge.
_GAUSS_NEWTON_CAP = 800

# A restart whose last 3 accepted steps together lowered the objective by
# less than 1e-6 of it sits on a plateau and stops.  That is how restarts
# stuck at a local minimum end; in every measured shape, no restart that
# converges ever met the rule.
_PLATEAU_STEPS = 3
_PLATEAU_GAIN = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    """Everything that determines a search run.

    ``dim`` and ``num_bases`` fix the problem; the rest control the
    optimizer.  ``target_residual`` is the objective value counted as
    convergence.  Identical configurations (seed included) give
    bit-identical runs.  Problems whose (num_bases, d, d, d) family array
    would exceed :data:`~mubkit.construct.MAX_FAMILY_BYTES` are refused
    here, before a search allocates anything.
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
        nbytes = self.num_bases * self.dim**3 * np.dtype(complex).itemsize
        if nbytes > MAX_FAMILY_BYTES:
            raise ValueError(
                f"a family of {self.num_bases} bases in dimension d = {self.dim} needs "
                f"{nbytes} bytes of projectors, above the {MAX_FAMILY_BYTES}-byte limit"
            )
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # Against inf every objective "converges" before the first step.
        if not 0.0 < self.target_residual < np.inf:
            raise ValueError(
                f"target_residual must be positive and finite, got {self.target_residual}"
            )


@dataclass(frozen=True, eq=False)
class SearchState:
    """A point in parameter space: one complex factor per (basis, vector).

    ``factors[a, alpha]`` is the d x d factor whose derived projector is
    B^dagger B / Tr(B^dagger B).  The factors are unconstrained apart from
    finite parts up to 1e150, which keeps every trace norm finite; the
    objective is computed on demand and fails only if some factor is
    degenerate (trace norm at roundoff scale).
    """

    factors: np.ndarray

    def __post_init__(self):
        arr = np.array(self.factors, dtype=complex, order="C")
        if arr.ndim != 4 or arr.shape[2] != arr.shape[1] or arr.shape[3] != arr.shape[1]:
            raise ValueError(
                f"factors must be shaped (num_bases, d, d, d), got {arr.shape}"
            )
        if not np.all(np.abs(arr.view(float)) <= _MAX_ENTRY):  # False for NaN too
            raise ValueError(f"factor entries must be finite, with parts up to {_MAX_ENTRY:.0e}")
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

    def projectors(self) -> np.ndarray:
        """Derived projectors, shaped like a family's projector array."""
        n, d = self.num_bases, self.dim
        m, _ = _derive(self.factors.reshape(n * d, d, d))
        return m.reshape(n, d, d, d)

    @classmethod
    def from_family(cls, family: MubFamily) -> "SearchState":
        """Factors whose derived projectors reproduce ``family``.

        Hermitian defects above 1e-10 (the family's cached invariants) are
        refused first.  When every symmetrized projector M has a one-column
        rank-1 certificate (v, r), read from
        :attr:`MubFamily.rank_one_certificate`, with r at most
        1e-10 ||v||^2, its factor is M / ||v||, the exact square root of a
        rank-1 matrix at any scale; no eigenvalue is below -r, so none needs
        a solve.  Otherwise each factor is the Hermitian square root of its
        projector, from the family's cached spectrum: eigenvalues below
        -1e-8 are refused (no real square root) and smaller negatives are
        clamped to zero.  Either way B^dagger B reproduces each symmetrized
        projector, to within r on the first path.
        """
        n, d = family.num_bases, family.dim
        mats = family.projectors.reshape(n * d, d, d)
        hermiticity = family.invariants[0]
        bad = np.flatnonzero(hermiticity > _HERMITIAN_TOL)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"projector (basis {i // d}, vector {i % d}) is not Hermitian: "
                f"max deviation {hermiticity[i]:.3e} exceeds {_HERMITIAN_TOL:.1e}"
            )
        v, r = family.rank_one_certificate
        mass = np.einsum("ni,ni->n", v.conj(), v).real
        if np.all(r <= _RANK_ONE_TOL * mass):
            factors = _symmetrized(mats) / np.sqrt(mass)[:, None, None]
            return cls(factors.reshape(n, d, d, d))
        vals, vecs = family.spectrum.eigenvalues, family.spectrum.eigenvectors
        bad = np.flatnonzero(vals[:, -1] < _PSD_FLOOR)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"projector (basis {i // d}, vector {i % d}) has eigenvalue "
                f"{vals[i, -1]:.3e} below {_PSD_FLOOR:.1e}; no real square root"
            )
        roots = np.sqrt(np.clip(vals, 0.0, None))
        factors = np.einsum("nij,nj,nkj->nik", vecs, roots, vecs.conj())
        return cls(factors.reshape(n, d, d, d))


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of a search: best point found plus per-restart accounting.

    ``converged`` means ``best_objective <= target_residual``.  ``history``
    holds the penalty of each restart's returned family,
    ``restart_iterations`` its iteration count and ``stop_reasons`` why its
    descent stopped (``"target"``, ``"plateau"``, ``"line search"``,
    ``"factorization"`` or ``"iterations"``), in restart order; all three
    stop at the restart where the search first converged.
    """

    best_family: MubFamily
    best_objective: float
    iterations_used: int
    restarts_used: int
    converged: bool
    history: tuple = field(default_factory=tuple)
    restart_iterations: tuple = field(default_factory=tuple)
    stop_reasons: tuple = field(default_factory=tuple)


def _derive(b: np.ndarray):
    """Projectors M = B^dagger B / Tr(B^dagger B) for a stack of factors.

    ``b`` stacks the (d, d) factors of every (basis, vector) in label order.
    Returns (projectors, traces).  A factor whose trace norm is at roundoff
    scale has no derived projector; the error names its labels.
    """
    n_total, d = b.shape[0], b.shape[1]
    raw = b.conj().swapaxes(-1, -2) @ b
    # Tr(B^dagger B) is the squared Frobenius norm of B.
    flat = b.reshape(n_total, -1).view(float)
    traces = np.einsum("ij,ij->i", flat, flat)
    if traces.min() < DEGENERATE_TRACE:
        i = int(np.flatnonzero(traces < DEGENERATE_TRACE)[0])
        raise ValueError(
            f"factor (basis {i // d}, vector {i % d}) has trace norm {traces[i]:.3e} "
            f"below {DEGENERATE_TRACE:.1e}; derived projector undefined"
        )
    return raw / traces[:, None, None], traces


def _residual(m: np.ndarray, target: np.ndarray):
    """Gram residual R = G - target for derived projectors m.

    G_ij = Re Tr(M_i^dagger M_j) is one real product of the (re, im) views.
    """
    w = m.reshape(m.shape[0], -1).view(float)
    return w @ w.T - target


def _objective_value(r: np.ndarray) -> float:
    # Unordered pairs once each plus the rank-1 self terms: R is symmetric,
    # so the Frobenius mass counts off-diagonal pairs twice and the
    # diagonal once; adding the diagonal again and halving fixes both.
    v = r.reshape(-1)
    diag = r.diagonal()
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


def _penalty(factors: np.ndarray) -> float:
    """The Gram penalty of the projectors derived from (n, d, d, d) factors."""
    n, d = factors.shape[0], factors.shape[1]
    m, _ = _derive(factors.reshape(n * d, d, d))
    return _objective_value(_residual(m, unbiased_gram_target(n, d)))


def objective(state: SearchState) -> float:
    """Penalty value of a state: squared Gram residuals plus rank-1 terms.

    Sum over unordered projector pairs of [Tr(M_i M_j) - t]^2 with target
    t = 1/d across bases, 0 for distinct vectors of one basis, plus
    [Tr(M_i^2) - 1]^2 for every projector.  Zero exactly on families of
    mutually unbiased bases.
    """
    return _penalty(state.factors)


def gradient(state: SearchState) -> np.ndarray:
    """Analytic objective gradient with respect to every factor entry.

    Returned array has the factors' shape; the real and imaginary parts of
    entry (a, alpha, p, q) are the partial derivatives with respect to the
    real and imaginary parts of that factor entry.  A factor with trace
    norm below 1e-14 has no derived projector; the error names it.
    """
    n, d = state.num_bases, state.dim
    b = state.factors.reshape(n * d, d, d)
    m, traces = _derive(b)
    r = _residual(m, unbiased_gram_target(n, d))
    return _gradient_array(b, m, traces, r).reshape(n, d, d, d)


def _retract(y: np.ndarray) -> np.ndarray:
    """The unitary QR factor of each (d, d) matrix, with R's diagonal made positive.

    Fixing the phases makes the factor unique, so the retraction is smooth
    and a Gaussian matrix maps to a Haar-random unitary.  A rank-deficient
    input still yields a unitary (its zero pivots keep phase 1).  LAPACK's
    pivots are real, so each phase is an exact sign.
    """
    q, r = np.linalg.qr(y)
    pivots = np.diagonal(r, axis1=-2, axis2=-1).real
    return q * np.where(pivots < 0.0, -1.0, 1.0)[..., None, :]


def _polar_factors(u: np.ndarray, omega: np.ndarray):
    """Factor a step direction U Omega once for every trial point along it.

    With i Omega = V diag(lam) V^dagger (one ``eigh`` per basis), U (I + t Omega)
    is W diag(1 - i t lam) V^dagger for W = U V, so its polar factor, the
    nearest unitary, is W diag(exp(-i arctan(t lam))) V^dagger at every t.
    Returns (W, lam, V^dagger) for :func:`_polar_point`.
    """
    lam, v = np.linalg.eigh(1j * omega)
    return u @ v, lam, v.conj().swapaxes(-1, -2)


def _polar_point(factors, t: float) -> np.ndarray:
    """The polar retraction of U + t U Omega from its :func:`_polar_factors`.

    Unitary to roundoff at any t, since only the phases depend on it.
    """
    w, lam, vh = factors
    return (w * np.exp(-1j * np.arctan(t * lam))[..., None, :]) @ vh


def _evaluate(u: np.ndarray, target: np.ndarray):
    """Stacked columns X, overlaps Q = X^dagger X, residual R = |Q|^2 - target, objective."""
    n, d = u.shape[0], u.shape[1]
    x = u.transpose(1, 0, 2).reshape(d, n * d)
    q = x.conj().T @ x
    r = q.real**2
    r += q.imag**2
    r -= target
    return x, q, r, _objective_value(r)


def _tangent_gradient(u, x, q, r):
    """Riemannian gradient of the objective, as (g, Z) with one (d, d) block per basis.

    The Euclidean gradient in X is G = 4 X (C o Q), C being R with its
    diagonal doubled; its tangent part at U_a is g_a = U_a Z_a, with Z_a the
    skew-Hermitian part of U_a^dagger G_a.  The factor 4 is applied with the
    halving of that skew part, as 2, which is exact for powers of two.
    """
    n, d = u.shape[0], u.shape[1]
    c = r * q
    c.flat[:: n * d + 1] *= 2.0
    g = (x @ c).reshape(d, n, d).transpose(1, 0, 2)
    h = u.conj().swapaxes(-1, -2) @ g
    z = 2.0 * (h - h.conj().swapaxes(-1, -2))
    return u @ z, z


def _gauss_newton_jacobian(q: np.ndarray, n: int):
    """Cross-basis residual derivatives of bases 1..n-1, as two factors read from Q.

    Generator k = (s, t), s < t, of a basis is E_k = (e_s e_t^T - e_t e_s^T) / sqrt 2
    for k < d(d-1)/2 and i (e_s e_t^T + e_t e_s^T) / sqrt 2 for the imaginary
    ones after them.  Moving basis a along E_k changes only rows s and t of
    Q_ab (by -E_k Q_ab, a before b) and columns s and t of Q_ba (by Q_ba E_k,
    b before a).  With P_k = 2 conj(Q[a s, :]) Q[a t, :], both give row s of
    |Q|^2 the derivative -Re P_k / sqrt 2 (real E_k) or Im P_k / sqrt 2
    (imaginary E_k), and row t its negative.  Returns (sign, values): the
    derivative of residual |Q[a i, j]|^2 - 1/d in generator k of basis a is
    sign[k, i] * values[a-1, k, j], where sign (d^2-d, d) holds +1 at s and
    -1 at t, and values (n-1, d^2-d, nd) is zero where j lies in basis a.
    """
    d = q.shape[0] // n
    upper = ~np.tri(d, dtype=bool)
    rows = q[d:].reshape(n - 1, d, n * d)
    p = (2.0 * rows.conj()[:, :, None] * rows[:, None])[:, upper]
    own = np.arange(n - 1)
    p.reshape(n - 1, -1, n, d)[own, :, own + 1] = 0.0
    values = np.sqrt(0.5) * np.concatenate([-p.real, p.imag], axis=1)
    eye = np.eye(d)
    sign = np.tile((eye[:, None] - eye)[upper], (2, 1))
    return sign, values


def _gauss_newton_direction(u, q, r, g):
    """Damped Gauss-Newton step in gauge-reduced skew-Hermitian coordinates, as (Omega, slope).

    Basis a moves as U_a (I + Omega_a), so the overlap block
    Q_ab = U_a^dagger U_b changes by Q_ab Omega_b - Omega_a Q_ab.  The
    residuals |Q_ab|^2 - 1/d do not change when every basis moves by one
    left unitary, nor when one vector's phase changes, so basis 0 stays
    fixed (Omega_0 = 0) and the other bases drop their d diagonal
    generators: (n-1)(d^2-d) unknowns reach every first-order change of the
    residuals.  The Jacobian is the product of the two factors that
    :func:`_gauss_newton_jacobian` reads from Q, so every block of the
    normal matrix is an elementwise product of two small matrix products
    and the Jacobian itself is never formed.  Returns the (n, d, d)
    skew-Hermitian Omega and the slope <g, U Omega>, or (None, 0) when the
    solve fails or yields no descent direction (the caller then takes a
    gradient step).
    """
    n, d = u.shape[0], u.shape[1]
    sign, values = _gauss_newton_jacobian(q, n)
    moved, dof = values.shape[0], values.shape[1]
    size = moved * dof
    # Entry (k, l) of block (a, b) sums sign[k, i] values[a, k, b j]
    # sign[l, j] values[b, l, a i] over (i, j): the product of
    # z[a, b, k, l] and z[b, a, l, k], with z[a, b] = values[a, :, b] sign^T.
    # z[a, a] is zero, and a diagonal block sums over basis a's own rows.
    z = values.reshape(moved, dof, n, d)[:, :, 1:].transpose(0, 2, 1, 3) @ sign.T
    normal = np.empty((moved, dof, moved, dof))
    np.multiply(z, z.transpose(1, 0, 3, 2), out=normal.transpose(0, 2, 1, 3))
    own = np.arange(moved)
    normal[own, :, own] = (sign @ sign.T) * (values @ values.swapaxes(-1, -2))
    normal = normal.reshape(size, size)
    rhs = (values * (sign @ r[d:].reshape(moved, d, n * d))).sum(axis=-1)
    normal.flat[:: size + 1] += 1e-10 * (float(np.trace(normal)) / size + 1.0)
    try:
        theta = np.linalg.solve(normal, -rhs.reshape(-1))
    except np.linalg.LinAlgError:
        return None, 0.0
    theta = np.sqrt(0.5) * theta.reshape(moved, 2, -1)
    upper = np.zeros((n, d, d), dtype=complex)
    upper[1:, ~np.tri(d, dtype=bool)] = theta[:, 0] + 1j * theta[:, 1]
    omega = upper - upper.conj().swapaxes(-1, -2)
    slope_term = float(np.vdot(g, u @ omega).real)
    if not slope_term < 0.0:
        return None, 0.0
    return omega, slope_term


def _minimize(u0: np.ndarray, target: np.ndarray, cfg: SearchConfig):
    """Descend from unitaries u0; returns (unitaries, objective, iterations, trajectory, stop).

    Armijo backtracking along either the Riemannian steepest-descent
    direction (with a Barzilai-Borwein trial step) or, once the objective
    is below 1e-3 and the problem has at most 800 parameters, the
    gauge-reduced damped Gauss-Newton direction, falling back to the
    gradient when that solve fails or gives no descent.  Either is U Omega
    with Omega skew-Hermitian, factored once per step by
    :func:`_polar_factors`; every trial point is then the polar retraction
    of U + t U Omega in closed form.  An accepted trial value f_t is at most
    its Armijo target, which is below f, so the trajectory of accepted
    objective values is strictly decreasing.

    ``stop`` names why the descent ended, checked in this order before each
    iteration and during its line search:

    - ``"target"``: f is at most ``cfg.target_residual``;
    - ``"plateau"``: the last 3 accepted steps together lowered f by less
      than 1e-6 of f;
    - ``"iterations"``: the iteration cap is reached;
    - ``"line search"``: a trial's Armijo target f + c t <g, direction> has
      rounded to f (or is NaN), where only roundoff could pass the test; the
      trial is not evaluated, nor the direction factored if it is the
      first.  Halving the step always gets there, since f stays positive,
      so no step floor is needed;
    - ``"factorization"``: factoring the direction failed.
    """
    u = u0
    n, d = u.shape[0], u.shape[1]
    gauss_newton = n * d * d <= _GAUSS_NEWTON_CAP
    x, q, r, f = _evaluate(u, target)
    g, z = _tangent_gradient(u, x, q, r)
    trajectory = [f]
    step = _INITIAL_STEP
    iterations = 0
    while True:
        if f <= cfg.target_residual:
            return u, f, iterations, trajectory, "target"
        if (
            len(trajectory) > _PLATEAU_STEPS
            and f > trajectory[-1 - _PLATEAU_STEPS] * (1.0 - _PLATEAU_GAIN)
        ):
            return u, f, iterations, trajectory, "plateau"
        if iterations == cfg.max_iterations:
            return u, f, iterations, trajectory, "iterations"
        iterations += 1

        omega = None
        if gauss_newton and f < _GAUSS_NEWTON_CROSSOVER:
            omega, slope_term = _gauss_newton_direction(u, q, r, g)
        gradient_step = omega is None
        if gradient_step:
            omega = -z
            slope_term = -float(np.vdot(g, g).real)
            trial = step
        else:
            trial = 1.0

        factors = None
        while (bound := f + _SLOPE * trial * slope_term) < f:
            if factors is None:
                try:
                    factors = _polar_factors(u, omega)
                except np.linalg.LinAlgError:
                    return u, f, iterations, trajectory, "factorization"
            candidate = _polar_point(factors, trial)
            x_t, q_t, r_t, f_t = _evaluate(candidate, target)
            if f_t <= bound:
                break
            trial *= _SHRINK
        else:
            # The Armijo target has rounded to f (or is NaN): only roundoff
            # could pass the test.
            return u, f, iterations, trajectory, "line search"

        g_next, z = _tangent_gradient(candidate, x_t, q_t, r_t)
        if gradient_step:
            # Barzilai-Borwein curvature estimate seeds the next trial step;
            # unusable estimates fall back to growth.
            delta_u = candidate - u
            denom = float(np.vdot(delta_u, g_next - g).real)
            if denom > 0.0 and math.isfinite(denom):
                ratio = float(np.vdot(delta_u, delta_u).real) / denom
                step = min(max(ratio, 1e-12), 1e8)
            else:
                step = trial * _STEP_GROWTH
        u, q, r, f, g = candidate, q_t, r_t, f_t, g_next
        trajectory.append(f)


def _family_and_penalty(u: np.ndarray):
    """The family of U's columns and its Gram penalty, each projector its own factor."""
    states = u.swapaxes(-1, -2)
    family = MubFamily(states[..., :, None] * states.conj()[..., None, :])
    return family, _penalty(family.projectors)


def _descend(starts, cfg: SearchConfig) -> SearchResult:
    """The restart loop of :func:`run_search`, over the (n, d, d) unitaries ``starts`` yields."""
    target = unbiased_gram_target(cfg.num_bases, cfg.dim)
    best_family = None
    best_f = np.inf
    finals = []
    iteration_counts = []
    stops = []
    for u0 in starts:
        u, _, iterations, _, stop = _minimize(u0, target, cfg)
        family, f = _family_and_penalty(u)
        finals.append(f)
        iteration_counts.append(iterations)
        stops.append(stop)
        if f < best_f:
            best_f = f
            best_family = family
        if best_f <= cfg.target_residual:
            break
    return SearchResult(
        best_family=best_family,
        best_objective=best_f,
        iterations_used=sum(iteration_counts),
        restarts_used=len(finals),
        converged=bool(best_f <= cfg.target_residual),
        history=tuple(finals),
        restart_iterations=tuple(iteration_counts),
        stop_reasons=tuple(stops),
    )


def run_search(cfg: SearchConfig) -> SearchResult:
    """Multi-restart search for ``cfg.num_bases`` unbiased bases in dimension ``cfg.dim``.

    Each restart draws one Haar-random unitary per basis (the QR retraction
    of a standard complex Gaussian matrix) from a counter-based generator
    keyed by ``cfg.seed`` plus the restart index, then descends through the
    loop that :func:`polish` shares.  A restart's objective is the Gram
    penalty of the family it returns.  The best restart wins (ties go to
    the lowest index); later restarts are skipped once one converges.
    Non-convergence is reported through ``converged`` and the residual
    floor in ``best_objective``, never as an exception.
    """
    n, d = cfg.num_bases, cfg.dim

    def haar_starts():
        for restart in range(cfg.restarts):
            rng = np.random.Generator(np.random.Philox(key=cfg.seed + restart))
            x = rng.standard_normal((n, d, d))
            y = rng.standard_normal((n, d, d))
            yield _retract(x + 1j * y)

    return _descend(haar_starts(), cfg)


def polish(family: MubFamily, cfg: SearchConfig) -> SearchResult:
    """Refine an existing family by descending from its own states.

    The start is :meth:`SearchState.from_family` (which refuses indefinite
    projectors).  Each derived projector gives its column at its largest
    diagonal entry, which for rank 1 is its state up to scale and phase,
    and the QR retraction orthonormalizes every basis; an unbiased family
    thus converges at once.  This is one descent of the loop that
    :func:`run_search` runs per restart; ``cfg.restarts`` is ignored.
    """
    if family.dim != cfg.dim or family.num_bases != cfg.num_bases:
        raise ValueError(
            f"family shape ({family.num_bases} bases, dim {family.dim}) does not match "
            f"config ({cfg.num_bases} bases, dim {cfg.dim})"
        )
    n, d = cfg.num_bases, cfg.dim
    m = SearchState.from_family(family).projectors().reshape(n * d, d, d)
    pivot = np.argmax(np.diagonal(m, axis1=-2, axis2=-1).real, axis=-1)
    u0 = _retract(m[np.arange(n * d), :, pivot].reshape(n, d, d).swapaxes(-1, -2))
    return _descend([u0], cfg)
