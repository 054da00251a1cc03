"""Numerical search for mutually unbiased bases in arbitrary dimension.

Every restart of :func:`run_search` searches where the paper's closed form
puts a complete family in prime dimension, basis a at D_a F: basis 0 is the
computational basis and basis a >= 1 is diag(exp(i theta_a)) H, with H the
Fourier matrix of the group Z_p1 x Z_p2 x ... over d's prime factors.  Each
such basis is orthonormal and unbiased to basis 0, and bases a and b are
unbiased exactly when g = exp(i (theta_b - theta_a)) is biunimodular: every
entry of g C, C = sqrt(d) H, has modulus sqrt(d) (Bjorck 1990; Haagerup,
arXiv:0803.2629).  So the search descends in the (n-1) x d phases theta
(:class:`_PhaseChart`), on the Gram penalty of those bases' projectors,
f = d^-3 sum_(a<b) sum_m (|(g_ab C)_m|^2 - d)^2, and builds their family
once, from the phases it ends at.  :func:`polish` starts from a family's
own states, which need not lie on that manifold, and descends on the
unitaries whose columns they are (:class:`_UnitaryChart`), with gradient
steps only, each trial point put back on the unitaries by a QR factor.

The optimizer is one loop, :func:`_minimize`, of monotone descent with
Armijo backtracking and seeded restarts: Barzilai-Borwein gradient steps
far from a solution, then, once the objective is below 3e-2, a damped
Gauss-Newton step first on every iteration, where gradient steps crawl;
a gradient step stands in when it gives none.  The Gauss-Newton step
solves for the (n-2)(d-1) phases left once the gauge is fixed, and every
trial point is theta + arctan(t delta), the polar retraction of the
unitaries along the matching skew-Hermitian move.  Every accepted step
lowers the objective strictly, runs are deterministic for a fixed
configuration, and the result names why each restart stopped.

:func:`objective` and :func:`gradient` keep the paper's factor form
M = B^dagger B / Tr(B^dagger B) for any :class:`SearchState`; a search
reports the penalty its descent reached, that of the projectors it returns
to within :class:`SearchResult`'s roundoff bound.  Non-convergence is an
outcome, not an error: the result reports the best residual floor reached
and never interprets it as evidence that no family exists.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import (
    LOAD_TOLERANCE,
    MubFamily,
    _check_family_size,
    _check_parts,
    _symmetrized,
    _where,
    unbiased_gram_target,
)
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

# Factors with Tr(B^dagger B) at roundoff scale have no meaningful derived
# projector; dividing by such a trace is refused.
DEGENERATE_TRACE = 1e-14

# Armijo backtracking: first gradient trial step, shrink factor for a
# rejected trial, and the fraction of the predicted decrease to achieve.
_INITIAL_STEP = 1.0
_SHRINK = 0.5
_SLOPE = 1e-4

# Starting factors: lowest accepted eigenvalue.  Hermitian defects are judged
# at the loader's LOAD_TOLERANCE, so every family a load accepts starts.
_PSD_FLOOR = -1e-8

# Largest one-column rank-1 residual, relative to ||v||^2, at which a
# projector's scaled copy M / ||v|| is taken as its square root.
_RANK_ONE_TOL = 1e-10

# Fallback growth for the trial step when the Barzilai-Borwein curvature
# estimate is unusable (non-positive); backtracking still shrinks every
# trial that fails the acceptance slope.
_STEP_GROWTH = 2.0

# The numbers below come from run_search's starts, one restart per key: the
# scan is d = 3..12 with 3 to min(d + 1, 6) bases and complete d = 7 and 8,
# keys 0-39, 1 560 restarts taking 49 658 iterations.

# Below this objective every step tries Gauss-Newton first, and takes a
# gradient step when the attempt yields no descent direction; the damped
# normal equations are reliable near a solution and pointless far from one.
# Damped by f, the normal matrix is positive definite, so all 4 493 attempts
# in the scan gave a step.  The window pays: with Gauss-Newton only below
# 1e-3 the scan takes 51 810 iterations, and 3 bases in d = 12 take 1 025,
# not 600.  Its cost is the floors inside it, at d = 12 with 4 bases
# (1.769e-2, and 1.362e-2 over keys 0-199): a restart stuck on one takes a
# Gauss-Newton step each time, which crawls there as gradient steps do,
# until the plateau rule ends it (keys 6 and 32 after 111 and 147
# iterations, 88 and 135 of them Gauss-Newton).
_GAUSS_NEWTON_BELOW = 3e-2

# Skip Gauss-Newton above this many unknowns, (n-2)(d-1); gradient steps
# still apply.  A step forms a Jacobian of (n-1)(n-2)/2 d rows, so at 1 BLAS
# thread it takes 0.95 ms and 1.5 MB at 144 unknowns (complete d = 13), 35
# ms and 25 MB at 484 (complete d = 23), and about 4 d^5 bytes for complete
# d: 22 GB at d = 89, the largest complete family a SearchConfig admits.
# Where it runs it pays: keys 0-9 with 4 bases in d = 16 take 245
# iterations with it and 3 380 without.
_GAUSS_NEWTON_CAP = 400

# A restart whose last 3 accepted steps together lowered the objective by
# less than 1e-6 of it sits on a plateau and stops.  That is how restarts
# stuck at a local minimum end: 535 of the scan's.  Without it, 532 of those
# run on until the line search runs out, still on a floor, and take 47 941
# iterations instead of 33 796.  The other 3 would crawl off and converge,
# but late: complete d = 7 key 0 after 212 iterations, while the rule stops
# it at 29 and key 1 then converges in 30.
_PLATEAU_STEPS = 3
_PLATEAU_GAIN = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    """Everything that determines a search run.

    ``dim`` and ``num_bases`` fix the problem; the rest control the
    optimizer.  ``target_residual`` is the objective value counted as
    convergence.  Identical configurations (seed included) give
    bit-identical runs.  The integer fields take anything
    :func:`operator.index` accepts and are stored as ``int``.  Problems
    whose (num_bases, d, d, d) family array would exceed
    :data:`~mubkit.algebra.MAX_FAMILY_BYTES`, and seeds whose last restart
    key ``seed + restarts - 1`` would leave the generator's key range
    (below 2**128), are refused here, before a search allocates anything.
    """

    dim: int
    num_bases: int
    restarts: int = 20
    max_iterations: int = 50000
    seed: int = 0
    target_residual: float = 1e-16

    def __post_init__(self):
        # A float cap would never equal an iteration count, and a float
        # dimension fails deep inside numpy.
        for name in ("dim", "num_bases", "restarts", "max_iterations", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        if not 2 <= self.num_bases <= self.dim + 1:
            raise ValueError(
                f"num_bases must lie in 2..dim+1 = 2..{self.dim + 1}, got {self.num_bases}"
            )
        _check_family_size(self.num_bases, self.dim)
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # Restart k draws from a Philox generator keyed by seed + k, below 2**128.
        if self.seed + self.restarts > 2**128:
            raise ValueError(
                f"seed must be at most 2**128 - restarts = {2**128 - self.restarts}, "
                f"got {self.seed}"
            )
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
    finite parts up to 1e150, which keeps every trace norm finite;
    :func:`objective` of a state fails only if some factor is degenerate
    (trace norm at roundoff scale).
    """

    factors: np.ndarray

    def __post_init__(self):
        arr = np.array(self.factors, dtype=complex, order="C")
        if arr.ndim != 4 or arr.shape[2] != arr.shape[1] or arr.shape[3] != arr.shape[1]:
            raise ValueError(
                f"factors must be shaped (num_bases, d, d, d), got {arr.shape}"
            )
        _check_parts(arr, "factor entries")
        arr.setflags(write=False)
        object.__setattr__(self, "factors", arr)

    @property
    def dim(self) -> int:
        return self.factors.shape[1]

    @property
    def num_bases(self) -> int:
        return self.factors.shape[0]

    @classmethod
    def from_family(cls, family: MubFamily) -> "SearchState":
        """Factors whose derived projectors reproduce ``family``.

        Hermitian defects above the loader's
        :data:`~mubkit.algebra.LOAD_TOLERANCE` (1e-9), read from the
        family's cached invariants as the loader reads them, are refused
        first, so every family a load accepts starts.  When every
        symmetrized projector M has a one-column rank-1 certificate
        (v, r), read from :attr:`MubFamily.rank_one_certificate`, with r
        at most 1e-10 ||v||^2, its factor is M / ||v||, the exact square
        root of a rank-1 matrix at any scale; no eigenvalue is below -r, so none needs
        a solve.  Otherwise each factor is the Hermitian square root of its
        projector, from one solve of the family's stack: eigenvalues below
        -1e-8 are refused (no real square root) and smaller negatives are
        clamped to zero.  Either way B^dagger B reproduces each symmetrized
        projector, to within r on the first path.
        """
        n, d = family.num_bases, family.dim
        mats = family.projectors.reshape(n * d, d, d)
        hermiticity = family.invariants[0]
        bad = np.flatnonzero(hermiticity > LOAD_TOLERANCE)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"projector ({_where(i, d)}) is not Hermitian: "
                f"max deviation {hermiticity[i]:.3e} exceeds {LOAD_TOLERANCE:.1e}"
            )
        v, r = family.rank_one_certificate
        mass = np.einsum("ni,ni->n", v.conj(), v).real
        if np.all(r <= _RANK_ONE_TOL * mass):
            factors = _symmetrized(mats)
            factors /= np.sqrt(mass)[:, None, None]
            return cls(factors.reshape(n, d, d, d))
        spectrum = eigen_hermitian(mats, hermiticity_tol=np.inf)
        vals, vecs = spectrum.eigenvalues, spectrum.eigenvectors
        bad = np.flatnonzero(vals[:, -1] < _PSD_FLOOR)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"projector ({_where(i, d)}) has eigenvalue "
                f"{vals[i, -1]:.3e} below {_PSD_FLOOR:.1e}; no real square root"
            )
        roots = np.sqrt(np.clip(vals, 0.0, None))
        factors = np.einsum("nij,nj,nkj->nik", vecs, roots, vecs.conj())
        return cls(factors.reshape(n, d, d, d))


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of a search: best point found plus per-restart accounting.

    ``history``, ``restart_iterations`` and ``stop_reasons`` hold each restart's descent objective
    bit for bit, its iterations and why it stopped (``"target"``, ``"plateau"``, ``"line search"``
    or ``"iterations"``), up to the first ``"target"``; ``converged`` holds
    exactly when the last stop is ``"target"``.  The least objective, f = ``best_objective``, and
    f' = ``objective(SearchState(best_family.projectors))`` differ at roundoff: with N = n d and
    gamma_k = k u / (1 - k u), u = 2**-53 (Higham 2002, sections 3.1 and 3.6; see README),
    |f - f'| <= N (dQ + dM) (sqrt(2 f) + sqrt(2 f')) / sqrt(2) + gamma_(N^2 + 1) (f + f').
    Each is ||R||_w^2 / 2, weighted 2 on the diagonal (the weights sum to at most 2 N^2), of an R
    within dQ or dM entrywise of that of the states' normalized projectors: Cauchy-Schwarz gives
    the first term, summing the N^2 + N squares the second.  dQ = 4 gamma_(2d) + 2 eta + eta^2:
    an overlap (a length-d complex inner product) is off by sqrt(2) gamma_(2d), its squared
    modulus twice that plus gamma_2, the target's subtraction u; the states are unit to
    eta = max |<v|v> - 1| <= tau + gamma_(d+2) (1 + tau) only, tau the largest of
    ``best_family.invariants[1]``.  dM = 8 gamma_(2 d^2): forming v v^dagger moves a normalized
    projector by 4 sqrt(2) gamma_2, B^dagger B by sqrt(2) gamma_(2d), its trace norm by
    gamma_(2 d^2) and the quotient by u, twice over in a Gram entry; the Gram product adds
    gamma_(2 d^2), the target u.  To first order these sum to 3.6 gamma_(2d) and
    7.7 gamma_(2 d^2); rounding up covers the rest while eta < 1e-2.  :func:`run_search` forms its
    overlaps as gh_m / d from exp(i theta) and C, not from the states: up to about 20 u more each,
    which the derivation covers from d = 14 on; below that the bound holds in measurement only.
    """

    best_family: MubFamily
    best_objective: float
    iterations_used: int
    restarts_used: int
    converged: bool
    history: tuple = field(default_factory=tuple)
    restart_iterations: tuple = field(default_factory=tuple)
    stop_reasons: tuple = field(default_factory=tuple)


def _traces(b: np.ndarray) -> np.ndarray:
    """Tr(B^dagger B) of each factor in a label-order stack; one at roundoff scale is refused.

    Such a factor has no derived projector; the error names its labels.
    """
    flat = b.reshape(b.shape[0], -1).view(float)  # Tr(B^dagger B) = ||B||_F^2
    traces = np.einsum("ij,ij->i", flat, flat)
    if traces.min() < DEGENERATE_TRACE:
        i = int(np.flatnonzero(traces < DEGENERATE_TRACE)[0])
        raise ValueError(
            f"factor ({_where(i, b.shape[1])}) has trace norm {traces[i]:.3e} "
            f"below {DEGENERATE_TRACE:.1e}; derived projector undefined"
        )
    return traces


def _derive(b: np.ndarray):
    """(M, traces) with M = B^dagger B / Tr(B^dagger B) for a label-order stack of factors."""
    traces = _traces(b)
    raw = b.conj().swapaxes(-1, -2) @ b
    raw /= traces[:, None, None]
    return raw, traces


def _residual(m: np.ndarray, target: np.ndarray):
    """Gram residual R = G - target for derived projectors m.

    G_ij = Re Tr(M_i^dagger M_j) is one real product of the (re, im) views.
    """
    w = m.reshape(m.shape[0], -1).view(float)
    r = w @ w.T
    r -= target
    return r


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
    del coeff
    # M_i and K_i are Hermitian, so Tr(M_i K_i) = Re <M_i, K_i>.
    tr_mk = np.einsum("ij,ij->i", mv, kv)
    k = kv.view(complex).reshape(m.shape)
    bk = b @ k
    del kv, k  # k views kv: both go before the correction is formed
    bk -= tr_mk[:, None, None] * b
    bk *= (2.0 / traces)[:, None, None]
    return bk


def objective(state: SearchState) -> float:
    """Penalty value of a state: squared Gram residuals plus rank-1 terms.

    Sum over unordered projector pairs of [Tr(M_i M_j) - t]^2 with target
    t = 1/d across bases, 0 for distinct vectors of one basis, plus
    [Tr(M_i^2) - 1]^2 for every projector.  Zero exactly on families of
    mutually unbiased bases.
    """
    n, d = state.num_bases, state.dim
    m, _ = _derive(state.factors.reshape(n * d, d, d))
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
    m, traces = _derive(b)
    r = _residual(m, unbiased_gram_target(n, d))
    return _gradient_array(b, m, traces, r).reshape(n, d, d, d)


def _retract(y: np.ndarray) -> np.ndarray:
    """The unitary QR factor of each (d, d) matrix, with R's diagonal made positive.

    Fixing the phases makes the factor unique: it depends on the input
    alone, not on the signs a LAPACK build's Householder reflections pick,
    and a unitary input comes back as itself.  So :func:`polish` starts from
    a point fixed by the family it is given, and each of its trial points
    U + S is put back on the unitaries, with columns unit to a few u
    however many steps came before (a retraction: Absil, Mahony and
    Sepulchre 2008, section 4.1).  A rank-deficient input still yields a
    unitary (its zero pivots keep phase 1), and QR refuses no input, NaN or
    inf included.  LAPACK's pivots are real, so each phase is an exact sign.
    """
    q, r = np.linalg.qr(y)
    pivots = np.diagonal(r, axis1=-2, axis2=-1).real
    return q * np.where(pivots < 0.0, -1.0, 1.0)[..., None, :]


def _evaluate(u: np.ndarray, target: np.ndarray):
    """Overlaps Q = X^dagger X of the stacked columns X, residual R = |Q|^2 - target, objective."""
    n, d = u.shape[0], u.shape[1]
    x = u.transpose(1, 0, 2).reshape(d, n * d)
    q = x.conj().T @ x
    r = q.real**2
    r += q.imag**2
    r -= target
    return q, r, _objective_value(r)


def _tangent_gradient(u, q, r):
    """Riemannian gradient of the objective, U Z with one (d, d) block per basis.

    The Euclidean gradient in X is G = 4 X (C o Q), C being R with its
    diagonal doubled.  U_a^dagger X is block row a of Q, so the tangent part
    at U_a is U_a Z_a with Z_a the skew part of 4 Q[a, :] (C o Q)[:, a]; the
    4 and the skew part's halving are applied as 2, exact for powers of two.
    """
    n, d = u.shape[0], u.shape[1]
    c = r * q
    c.reshape(-1)[:: n * d + 1] *= 2.0
    h = q.reshape(n, d, n * d) @ c.reshape(n * d, n, d).transpose(1, 0, 2)
    z = h - h.conj().swapaxes(-1, -2)
    z *= 2.0
    return u @ z


class _UnitaryChart:
    """Bases as unitaries U_a, moved along U_a Omega_a with Omega_a skew-Hermitian: polish's chart.

    It has no Gauss-Newton step; a step S retracts to the QR factor of U + S.
    """

    gauss_newton = None

    def __init__(self, num_bases: int, dim: int):
        self.target = unbiased_gram_target(num_bases, dim)

    def evaluate(self, u):
        q, r, f = _evaluate(u, self.target)
        return (q, r), f

    @staticmethod
    def gradient(u, state):
        return _tangent_gradient(u, *state)

    @staticmethod
    def retract(u, step):
        return _retract(u + step)

    @staticmethod
    def unitaries(u):
        return u


class _PhaseChart:
    """Phases theta (n-1, d) of bases I and diag(exp(i theta_a)) H: :func:`run_search`'s chart.

    For each pair a < b of phased bases, g = exp(i (theta_b - theta_a)) and
    its transform gh = g C, with C = sqrt(d) H (symmetric, as H is): overlap
    (alpha, beta) of the two bases is gh_m / d at m = beta - alpha in the
    group, so rho = |gh|^2 - d gives f = d^-3 sum rho^2 and
    df/d(theta_b - theta_a) = -(4 / d^3) Im(g o C(rho o conj(gh))).  Basis 0
    is unbiased to every phased basis, and each basis orthonormal, exactly.
    A move delta of theta_a is Omega_a = H^dagger i diag(delta_a) H.
    """

    def __init__(self, num_bases: int, dim: int):
        self.dim = dim
        self.fourier = _group_fourier(dim)
        self.characters = np.sqrt(dim) * self.fourier
        self.unknowns = (num_bases - 2) * (dim - 1)
        self.first, self.second = np.triu_indices(num_bases - 1, 1)
        # d(theta_b - theta_a) / d theta, one row per pair.
        phased = np.eye(num_bases - 1)
        self.incidence = phased[self.second] - phased[self.first]

    def evaluate(self, theta):
        """((g, gh, rho) of every pair, f)."""
        d = self.dim
        e = np.exp(1j * theta)
        g = e[self.first].conj() * e[self.second]
        gh = g @ self.characters
        rho = gh.real**2 + gh.imag**2 - d
        return (g, gh, rho), float(np.vdot(rho, rho)) / d**3

    def gradient(self, theta, state):
        """df/dtheta."""
        g, gh, rho = state
        grad = self.incidence.T @ (g * ((rho * gh.conj()) @ self.characters)).imag
        grad *= -4.0 / self.dim**3
        return grad

    def jacobian(self, state):
        """Derivatives of the residuals rho / d^1.5 in the gauge-fixed phases, (pairs d, unknowns).

        f is unchanged when every theta_a moves by one vector (one diagonal
        unitary on the left of every basis) and when one theta_a moves by a
        constant (one phase on all of basis a's vectors).  So theta_1 and
        entry 0 of every later theta_a are fixed, and the other (n-2)(d-1)
        are the unknowns, with d rho_m / d(theta_b - theta_a)_p =
        -2 Im(conj(gh_m) C_mp g_p).
        """
        g, gh, rho = state
        pair = (gh.conj()[:, :, None] * self.characters * g[:, None, :]).imag
        pair *= -2.0 * self.dim**-1.5
        return (self.incidence[:, None, 1:, None] * pair[:, :, None, 1:]).reshape(rho.size, -1)

    def gauss_newton(self, theta, state, grad):
        """Damped Gauss-Newton step in the :meth:`jacobian`'s unknowns, as (delta, slope).

        The damping is f itself (Levenberg-Marquardt with mu = ||residual||^2;
        Yamashita and Fukushima 2001): it vanishes near a solution and keeps
        the step short where the Jacobian is nearly singular away from one.
        The fixed phases stay put, bit for bit.  Returns (None, 0.0) when the
        solve fails or yields no descent direction (then a gradient step is taken).
        """
        jac = self.jacobian(state)
        residual = self.dim**-1.5 * state[2].reshape(-1)
        normal = jac.T @ jac
        normal.reshape(-1)[:: self.unknowns + 1] += float(residual @ residual)
        try:
            delta = np.linalg.solve(normal, -(jac.T @ residual))
        except np.linalg.LinAlgError:
            return None, 0.0
        slope = float(grad[1:, 1:].reshape(-1) @ delta)
        if not slope < 0.0:
            return None, 0.0
        step = np.zeros_like(theta)
        step[1:, 1:] = delta.reshape(step[1:, 1:].shape)
        return step, slope

    @staticmethod
    def retract(theta, step):
        """theta + arctan(step): the unitaries' polar retraction along H^dagger i diag(step) H."""
        return theta + np.arctan(step)

    def unitaries(self, theta):
        """I, then diag(exp(i theta_a)) H: the bases the phases stand for."""
        d = self.dim
        u = np.empty((theta.shape[0] + 1, d, d), dtype=complex)
        u[0] = np.eye(d)
        u[1:] = np.exp(1j * theta)[:, :, None] * self.fourier
        return u


def _minimize(x0, chart, cfg: SearchConfig):
    """Descend from ``x0`` in ``chart``; returns (point, objective, iterations, trajectory, stop).

    Armijo backtracking along either the steepest-descent direction (with a
    Barzilai-Borwein trial step) or, when the chart has a Gauss-Newton step
    with at most 400 unknowns and f is below 3e-2, the damped Gauss-Newton
    direction, falling back to the gradient whenever that solve fails or
    gives no descent.  A trial point is ``chart.retract(x, t * direction)``.
    An accepted trial value f_t is at most its Armijo target, which is below
    f, so the trajectory of accepted objective values is strictly
    decreasing.

    ``stop`` names why the descent ended, checked in this order before each
    iteration and during its line search:

    - ``"target"``: f is at most ``cfg.target_residual``;
    - ``"plateau"``: the last 3 accepted steps together lowered f by less
      than 1e-6 of f;
    - ``"iterations"``: the iteration cap is reached;
    - ``"line search"``: a trial's Armijo target f + c t <g, direction> has
      rounded to f (or is NaN), where only roundoff could pass the test; the
      trial is not retracted or evaluated.  Halving the step always gets
      there, since f stays positive, so no step floor is needed.
    """
    x = x0
    window = 0.0  # Gauss-Newton is tried while f < window
    if chart.gauss_newton is not None and chart.unknowns <= _GAUSS_NEWTON_CAP:
        window = _GAUSS_NEWTON_BELOW
    state, f = chart.evaluate(x)
    g = None  # at the start and after a Gauss-Newton step, formed only if a step follows
    trajectory = [f]
    step = _INITIAL_STEP
    iterations = 0
    while True:
        if f <= cfg.target_residual:
            return x, f, iterations, trajectory, "target"
        if (
            len(trajectory) > _PLATEAU_STEPS
            and f > trajectory[-1 - _PLATEAU_STEPS] * (1.0 - _PLATEAU_GAIN)
        ):
            return x, f, iterations, trajectory, "plateau"
        if iterations == cfg.max_iterations:
            return x, f, iterations, trajectory, "iterations"
        iterations += 1
        if g is None:
            g = chart.gradient(x, state)

        direction = None
        if f < window:
            direction, slope_term = chart.gauss_newton(x, state, g)
        gradient_step = direction is None
        if gradient_step:
            direction = -g
            slope_term = -float(np.vdot(g, g).real)
            trial = step
        else:
            trial = 1.0

        while (bound := f + _SLOPE * trial * slope_term) < f:
            candidate = chart.retract(x, trial * direction)
            state_t, f_t = chart.evaluate(candidate)
            if f_t <= bound:
                break
            trial *= _SHRINK
        else:
            # The Armijo target has rounded to f (or is NaN): only roundoff
            # could pass the test.
            return x, f, iterations, trajectory, "line search"

        g_next = None
        if gradient_step:
            # Barzilai-Borwein curvature estimate seeds the next trial step;
            # unusable estimates fall back to growth.
            g_next = chart.gradient(candidate, state_t)
            delta = candidate - x
            denom = float(np.vdot(delta, g_next - g).real)
            if denom > 0.0 and math.isfinite(denom):
                ratio = float(np.vdot(delta, delta).real) / denom
                step = min(max(ratio, 1e-12), 1e8)
            else:
                step = trial * _STEP_GROWTH
        x, state, f, g = candidate, state_t, f_t, g_next
        trajectory.append(f)


def _descend(starts, chart, cfg: SearchConfig) -> SearchResult:
    """The restart loop, over the points of ``chart`` that ``starts`` yields."""
    best_x = None
    best_f = np.inf
    finals = []
    iteration_counts = []
    stops = []
    for x0 in starts:
        x, f, iterations, _, stop = _minimize(x0, chart, cfg)
        finals.append(f)
        iteration_counts.append(iterations)
        stops.append(stop)
        if f < best_f:
            best_f, best_x = f, x
        if stop == "target":
            break
    states = chart.unitaries(best_x).swapaxes(-1, -2)
    return SearchResult(
        best_family=MubFamily(states[..., :, None] * states.conj()[..., None, :]),
        best_objective=best_f,
        iterations_used=sum(iteration_counts),
        restarts_used=len(finals),
        converged=stops[-1] == "target",
        history=tuple(finals),
        restart_iterations=tuple(iteration_counts),
        stop_reasons=tuple(stops),
    )


@lru_cache(maxsize=8)
def _group_fourier(d: int) -> np.ndarray:
    """The character table of Z_p1 x Z_p2 x ... for d = p1 p2 ..., as a unitary.

    H is the Kronecker product of F_p = (omega_p^(jk)) / sqrt(p) over d's
    prime factors in ascending order, with multiplicity: F_2 (x) F_2 at
    d = 4, not the cyclic F_4.  Each exponent jk is reduced mod p first,
    so equal phases are bit-identical.  H is read-only and kept for the
    last 8 dimensions asked for, at most 1.6 MB each (d = 322, the largest
    two-basis problem under the family size limit).
    """
    h = np.ones((1, 1), dtype=complex)
    p = 2
    while d > 1:
        while d % p == 0:
            k = np.arange(p)
            h = np.kron(h, np.exp(2j * np.pi * (np.outer(k, k) % p) / p) / np.sqrt(p))
            d //= p
        p += 1
    h.setflags(write=False)
    return h


def _structured_start(num_bases: int, dim: int, key: int) -> np.ndarray:
    """Restart ``key``'s phases theta, uniform on [0, 2 pi)^((n-1) x d), from Philox keyed by it."""
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.uniform(0.0, 2.0 * np.pi, (num_bases - 1, dim))


def run_search(cfg: SearchConfig) -> SearchResult:
    """Multi-restart search for ``cfg.num_bases`` unbiased bases in dimension ``cfg.dim``.

    Every restart searches the shape of the known complete families in
    prime-power dimension: basis 0 is the computational basis and basis
    a >= 1 is diag(exp(i theta_a)) H, with H the group Fourier matrix of
    :func:`_group_fourier`, kept between searches.  It descends in the
    phases theta (:class:`_PhaseChart`) from theta uniform on
    [0, 2 pi)^((n-1) x d), drawn from a counter-based generator keyed by
    ``cfg.seed`` plus the restart index.  Every such basis is unbiased to
    basis 0, so a two-basis search converges at iteration 0.  A restart's
    objective is the value its descent reached (see :class:`SearchResult`).
    The best restart wins (ties go to the lowest index); later restarts are
    skipped once one converges.  Non-convergence is reported through ``converged`` and the residual
    floor in ``best_objective``, never as an exception.
    """
    keys = range(cfg.seed, cfg.seed + cfg.restarts)
    starts = (_structured_start(cfg.num_bases, cfg.dim, key) for key in keys)
    return _descend(starts, _PhaseChart(cfg.num_bases, cfg.dim), cfg)


def _check_shape(family: MubFamily, cfg: SearchConfig) -> None:
    """Refuse a family whose bases and dimension are not the config's."""
    if family.dim != cfg.dim or family.num_bases != cfg.num_bases:
        raise ValueError(
            f"family shape ({family.num_bases} bases, dim {family.dim}) does not match "
            f"config ({cfg.num_bases} bases, dim {cfg.dim})"
        )


def polish(family: MubFamily, cfg: SearchConfig) -> SearchResult:
    """Refine an existing family by descending from its own states.

    The start is :meth:`SearchState.from_family`'s factors (it refuses
    indefinite projectors; a zero factor is refused as :func:`objective`
    refuses it).  A factor, M / ||v|| or sqrt(M) for rank-1 M = v v^dagger,
    holds its state up to scale and phase in its column at its largest
    diagonal entry, and the QR retraction orthonormalizes every basis; an
    unbiased family thus converges at once.  This is one descent of the
    loop that :func:`run_search` runs per restart, on the unitaries
    (:class:`_UnitaryChart`) and with gradient steps only, each trial point
    retracted by the same QR, so the states it returns are unit to a few u
    however long it ran; ``cfg.restarts`` is ignored.
    """
    _check_shape(family, cfg)
    n, d = cfg.num_bases, cfg.dim
    b = SearchState.from_family(family).factors.reshape(n * d, d, d)
    _traces(b)  # a zero factor holds no state
    pivot = np.argmax(np.diagonal(b, axis1=-2, axis2=-1).real, axis=-1)
    u0 = _retract(b[np.arange(n * d), :, pivot].reshape(n, d, d).swapaxes(-1, -2))
    del b  # so the descent runs beside the family alone
    return _descend([u0], _UnitaryChart(n, d), cfg)
