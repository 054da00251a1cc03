"""Numerical search for mutually unbiased bases in arbitrary dimension.

Basis a is a unitary U_a whose columns are its vectors, so orthonormality
within a basis and rank 1 of every projector hold by construction.  With
the columns stacked as X (d x nd), the objective, its gradient and the
Gauss-Newton step all read one matrix, the overlaps Q = X^dagger X: the
objective is the Gram penalty of the projectors, R = |Q|^2 - target, where
the target is 1 on the diagonal, 0 within a basis and 1/d across bases.

The optimizer is monotone Riemannian descent with Armijo backtracking and
seeded restarts: Barzilai-Borwein gradient steps far from a solution, then
damped Gauss-Newton steps in skew-Hermitian coordinates
U_a -> U_a (I + Omega_a), since gradient steps crawl on the last decades.
Each restart of :func:`run_search` starts where the known complete families
in prime-power dimension lie: the computational basis, then randomly phased
copies diag(exp(i theta_a)) H of the Fourier matrix H of the group
Z_p1 x Z_p2 x ... over d's prime factors.
Gauss-Newton is first tried once the objective is below 3e-2, and kept
there only while it works: the first attempt above 1e-3 that yields no
direction, or whose step leaves the objective above a quarter of where it
started, hands the restart back to gradient steps until the objective is
below 1e-3, where Gauss-Newton is tried at every step.  A restart stuck on
a low local-minimum floor thus spends one attempt on it, not one per step.
The Gauss-Newton step fixes the gauge (basis 0 stays put and no vector's
phase moves), so it solves for (n-1)(d^2-d) unknowns and leaves basis 0
where it is, bit for bit: i Omega_0 = 0 factors as lam = 0 and V = I exactly.
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
reports the penalty its descent reached on the unitaries' overlaps, that of
the projectors it returns to within :class:`SearchResult`'s roundoff bound.
Non-convergence is an outcome, not an error: the result reports the best
residual floor reached and never interprets it as evidence that no family exists.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cache, lru_cache

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

# Below this objective every step tries Gauss-Newton first; the damped
# normal equations are reliable near a solution and pointless far from one.
# This fallback rule must stay below every local-minimum floor, or restarts
# stuck there would spend their last steps on it.  From run_search's starts
# (d = 3..12 with 3 to min(d + 1, 6) bases, and complete d = 7 and 8, keys
# 0-39) the lowest floor is 1.769e-2, at d = 12 with 4 bases: 17.7 times
# above this.  Each restart on a floor ends on the plateau rule below.
# Converging restarts whose early attempt failed (see _GAUSS_NEWTON_REACH)
# need the return to Gauss-Newton here.  If a failed attempt ended
# Gauss-Newton for the restart, 3 bases in d = 9 would take 360 631
# iterations over keys 0-39 instead of 535 and converge on 33 keys, not 40;
# in d = 11 they would take 26 834 instead of 533.
_GAUSS_NEWTON_CROSSOVER = 1e-3

# Gauss-Newton is tried early, below this multiple of the crossover (3e-2),
# until an attempt there fails: it yields no direction, or its accepted
# step leaves the objective above this fraction of where it started.  From
# then on the restart waits for the crossover.  Measured from run_search's
# starts with 3 bases, the early window saves iterations: keys 0-29 in d = 6
# take 251 with it and 284 without, keys 0-19 in d = 10 266 and 400.  The
# only floors seen inside the window, 1.769e-2 (d = 12) and 2.049e-2
# (d = 10), both with 4 bases, make one failed attempt each; without the
# drop they make 14 to 45, one per step below 3e-2 until the plateau rule
# ends them.  The drop costs converging restarts little: keys 0-19 in d = 7
# with 3 bases take 176 iterations with it and 169 without.
_GAUSS_NEWTON_REACH = 30.0
_GAUSS_NEWTON_DROP = 0.25

# Skip the Gauss-Newton endgame above this many real parameters, n d^2
# (complete families up to d = 8); gradient steps still apply.  The step
# solves for the (n-1)(d^2-d) left once the gauge is fixed.  At 1 BLAS
# thread it costs 7 ms and 4 MB at 576 parameters, 0.23 s and 74 MB at 2366
# (complete d = 13), where gradient steps alone converge.
_GAUSS_NEWTON_CAP = 800

# A restart whose last 3 accepted steps together lowered the objective by
# less than 1e-6 of it sits on a plateau and stops.  That is how restarts
# stuck at a local minimum end.  In the scan of _GAUSS_NEWTON_CROSSOVER,
# 535 of 1 560 restarts stop on it.  Without it, 532 of those run on until
# the line search runs out, still on a floor, and take 58 308 iterations
# instead of 34 406.  The other 3 would crawl off and converge, but late:
# complete d = 7 key 0 after 235 iterations, while the rule stops it at 29
# and key 1 then converges in 25.
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
    bit for bit, its iterations and why it stopped (``"target"``, ``"plateau"``, ``"line search"``,
    ``"factorization"`` or ``"iterations"``), up to the first ``"target"``; ``converged`` holds
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
    7.7 gamma_(2 d^2); rounding up covers the rest while eta < 1e-2.
    """

    best_family: MubFamily
    best_objective: float
    iterations_used: int
    restarts_used: int
    converged: bool
    history: tuple = field(default_factory=tuple)
    restart_iterations: tuple = field(default_factory=tuple)
    stop_reasons: tuple = field(default_factory=tuple)


@lru_cache(maxsize=8)
def _gram_target(num_bases, dim):
    """:func:`~mubkit.algebra.unbiased_gram_target`, read-only, kept for the last 8 problems."""
    target = unbiased_gram_target(num_bases, dim)
    target.setflags(write=False)
    return target


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
    and a unitary input comes back as itself.  So :func:`polish`, the one
    caller, starts from a point fixed by the family it is given.  A
    rank-deficient input still yields a unitary (its zero pivots keep
    phase 1).  LAPACK's pivots are real, so each phase is an exact sign.
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
    """Overlaps Q = X^dagger X of the stacked columns X, residual R = |Q|^2 - target, objective."""
    n, d = u.shape[0], u.shape[1]
    x = u.transpose(1, 0, 2).reshape(d, n * d)
    q = x.conj().T @ x
    r = q.real**2
    r += q.imag**2
    r -= target
    return q, r, _objective_value(r)


def _tangent_gradient(u, q, r):
    """Riemannian gradient of the objective, as (g, Z) with one (d, d) block per basis.

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
    return u @ z, z


@cache
def _gauss_newton_pattern(d: int):
    """Generator pairs (s, t) = ``np.triu_indices(d, 1)``, their sign and its Gram.

    sign (d^2-d, d) holds +1 at s and -1 at t, for the real then the imaginary
    generators; gram = sign sign^T.  Gauss-Newton runs only up to n d^2 = 800,
    so d <= 20; the table is built once per d and kept read-only.
    """
    s, t = np.triu_indices(d, 1)
    eye = np.eye(d)
    sign = np.tile(eye[s] - eye[t], (2, 1))
    gram = sign @ sign.T
    for table in (s, t, sign, gram):
        table.setflags(write=False)
    return s, t, sign, gram


def _gauss_newton_jacobian(q: np.ndarray, n: int):
    """Cross-basis residual derivatives of bases 1..n-1, as two factors read from Q.

    Generator k of a basis is E_k = (e_s e_t^T - e_t e_s^T) / sqrt 2 for pair k = (s, t) of
    :func:`_gauss_newton_pattern`, then i (e_s e_t^T + e_t e_s^T) / sqrt 2 for each pair
    again.  Moving basis a along E_k changes only rows s and t of Q_ab (by -E_k Q_ab, a
    before b) and columns s and t of Q_ba (by Q_ba E_k, b before a).  With the pair product
    P_k = 2 conj(Q[a s, :]) Q[a t, :], the only product formed, both give row s of |Q|^2
    the derivative -Re P_k / sqrt 2 (real E_k) or Im P_k / sqrt 2 (imaginary E_k), and
    row t its negative.  Returns (sign, values) with the table's sign: the derivative of
    residual |Q[a i, j]|^2 - 1/d in generator k of basis a is sign[k, i] * values[a-1, k, j],
    and values (n-1, d^2-d, nd) is zero where j lies in basis a.
    """
    d = q.shape[0] // n
    s, t, sign, _ = _gauss_newton_pattern(d)
    rows = q[d:].reshape(n - 1, d, n * d)
    p = 2.0 * rows.conj()[:, s] * rows[:, t]
    for a in range(1, n):
        p[a - 1, :, a * d : (a + 1) * d] = 0.0
    values = np.empty((n - 1, 2 * s.size, n * d))
    np.multiply(p.real, -np.sqrt(0.5), out=values[:, : s.size])
    np.multiply(p.imag, np.sqrt(0.5), out=values[:, s.size :])
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
    s, t, _, gram = _gauss_newton_pattern(d)
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
    blocks = values @ values.swapaxes(-1, -2)
    for a in range(moved):
        np.multiply(gram, blocks[a], out=normal[a, :, a])
    normal = normal.reshape(size, size)
    rhs = (values * (sign @ r[d:].reshape(moved, d, n * d))).sum(axis=-1)
    diagonal = normal.reshape(-1)[:: size + 1]
    diagonal += 1e-10 * (float(diagonal.sum()) / size + 1.0)
    try:
        theta = np.linalg.solve(normal, -rhs.reshape(-1))
    except np.linalg.LinAlgError:
        return None, 0.0
    theta = np.sqrt(0.5) * theta.reshape(moved, 2, -1)
    upper = np.zeros((n, d, d), dtype=complex)
    upper[1:, s, t] = theta[:, 0] + 1j * theta[:, 1]
    omega = upper - upper.conj().swapaxes(-1, -2)
    slope_term = float(np.vdot(g, u @ omega).real)
    if not slope_term < 0.0:
        return None, 0.0
    return omega, slope_term


def _minimize(u0: np.ndarray, target: np.ndarray, cfg: SearchConfig):
    """Descend from unitaries u0; returns (unitaries, objective, iterations, trajectory, stop).

    Armijo backtracking along either the Riemannian steepest-descent
    direction (with a Barzilai-Borwein trial step) or, when the problem has
    at most 800 parameters and f is below 3e-2, the gauge-reduced damped
    Gauss-Newton direction, falling back to the gradient when that solve
    fails or gives no descent.  The first attempt at or above 1e-3 that
    fails (see ``_GAUSS_NEWTON_REACH``) confines Gauss-Newton to f below
    1e-3 for the rest of the descent.  Either direction is U Omega
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
    # Gauss-Newton is tried while f < reach, which drops to the crossover
    # once an early attempt fails.
    reach = 0.0
    if n * d * d <= _GAUSS_NEWTON_CAP:
        reach = _GAUSS_NEWTON_REACH * _GAUSS_NEWTON_CROSSOVER
    q, r, f = _evaluate(u, target)
    g = None  # at the start and after a Gauss-Newton step, formed only if a step follows
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
        if g is None:
            g, z = _tangent_gradient(u, q, r)

        omega = None
        early = False
        if f < reach:
            early = f >= _GAUSS_NEWTON_CROSSOVER
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
            q_t, r_t, f_t = _evaluate(candidate, target)
            if f_t <= bound:
                break
            trial *= _SHRINK
        else:
            # The Armijo target has rounded to f (or is NaN): only roundoff
            # could pass the test.
            return u, f, iterations, trajectory, "line search"

        if early and (gradient_step or f_t > _GAUSS_NEWTON_DROP * f):
            reach = _GAUSS_NEWTON_CROSSOVER
        g_next = None
        if gradient_step:
            # Barzilai-Borwein curvature estimate seeds the next trial step;
            # unusable estimates fall back to growth.
            g_next, z = _tangent_gradient(candidate, q_t, r_t)
            delta_u = candidate - u
            denom = float(np.vdot(delta_u, g_next - g).real)
            if denom > 0.0 and math.isfinite(denom):
                ratio = float(np.vdot(delta_u, delta_u).real) / denom
                step = min(max(ratio, 1e-12), 1e8)
            else:
                step = trial * _STEP_GROWTH
        u, q, r, f, g = candidate, q_t, r_t, f_t, g_next
        trajectory.append(f)


def _descend(starts, cfg: SearchConfig) -> SearchResult:
    """The restart loop of :func:`run_search`, over the (n, d, d) unitaries ``starts`` yields."""
    n, d = cfg.num_bases, cfg.dim
    # Targets of n d <= 90 (64 KiB; every problem Gauss-Newton reaches has
    # n d <= 72) are kept between searches.  Larger ones, up to 512 MiB for
    # complete d = 89, cost little against their descents, and keeping them
    # would hold them for the process's life.
    target = (_gram_target if n * d <= 90 else unbiased_gram_target)(n, d)
    best_u = None
    best_f = np.inf
    finals = []
    iteration_counts = []
    stops = []
    for u0 in starts:
        u, f, iterations, _, stop = _minimize(u0, target, cfg)
        finals.append(f)
        iteration_counts.append(iterations)
        stops.append(stop)
        if f < best_f:
            best_f, best_u = f, u
        if stop == "target":
            break
    states = best_u.swapaxes(-1, -2)
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


def _structured_start(fourier: np.ndarray, num_bases: int, key: int) -> np.ndarray:
    """Restart ``key``'s start: I, then diag(exp(i theta_a)) H for bases a = 1..n-1.

    theta is uniform on [0, 2 pi)^((n-1) x d), drawn from the Philox
    generator keyed by ``key``; H is ``fourier``.
    """
    d = fourier.shape[0]
    rng = np.random.Generator(np.random.Philox(key=key))
    theta = rng.uniform(0.0, 2.0 * np.pi, (num_bases - 1, d))
    u = np.empty((num_bases, d, d), dtype=complex)
    u[0] = np.eye(d)
    u[1:] = np.exp(1j * theta)[:, :, None] * fourier
    return u


def run_search(cfg: SearchConfig) -> SearchResult:
    """Multi-restart search for ``cfg.num_bases`` unbiased bases in dimension ``cfg.dim``.

    Every restart starts from the shape of the known complete families in
    prime-power dimension: basis 0 is the computational basis and basis
    a >= 1 is diag(exp(i theta_a)) H, with H the group Fourier matrix of
    :func:`_group_fourier`, kept between searches, and theta uniform on
    [0, 2 pi)^((n-1) x d) from a counter-based generator keyed by
    ``cfg.seed`` plus the restart index.  Every start basis is unbiased to
    basis 0, so a two-basis search converges at iteration 0.  Each restart
    descends through the loop that :func:`polish` shares.  A restart's
    objective is the value its descent reached (see :class:`SearchResult`).
    The best restart wins (ties go to the lowest index); later restarts are
    skipped once one converges.  Non-convergence is reported through ``converged`` and the residual
    floor in ``best_objective``, never as an exception.
    """
    fourier = _group_fourier(cfg.dim)
    keys = range(cfg.seed, cfg.seed + cfg.restarts)
    return _descend((_structured_start(fourier, cfg.num_bases, key) for key in keys), cfg)


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
    loop that :func:`run_search` runs per restart; ``cfg.restarts`` is ignored.
    """
    _check_shape(family, cfg)
    n, d = cfg.num_bases, cfg.dim
    b = SearchState.from_family(family).factors.reshape(n * d, d, d)
    _traces(b)  # a zero factor holds no state
    pivot = np.argmax(np.diagonal(b, axis1=-2, axis2=-1).real, axis=-1)
    u0 = _retract(b[np.arange(n * d), :, pivot].reshape(n, d, d).swapaxes(-1, -2))
    del b  # so the descent runs beside the family alone
    return _descend([u0], cfg)
