"""State vectors from rank-1 projectors: a one-column certificate, else Jacobi.

A Hermitian M that is rank 1 up to noise is certified from one column:
with k the index of its largest diagonal entry, v = M[:, k] / sqrt(M_kk)
and r = ||M - v v^dagger||_F, Weyl's inequality puts every eigenvalue of M
within r of the spectrum (||v||^2, 0, ..., 0) of v v^dagger.  When r is
small that settles every rank-1 check without an eigensolve, and one power
step M v gives the state with a Davis-Kahan angle of order r^2 to the top
eigenvector.  A family caches its certificate on
:attr:`MubFamily.rank_one_certificate`, beside its Hermitian defects on
:attr:`MubFamily.invariants`; the loader, :func:`reconstruct_all` and the
search start read both, and only a stack the certificate cannot settle
falls back to the spectrum, so every rejection keeps its message.

The eigensolver is a cyclic-by-row Jacobi iteration for complex Hermitian
matrices, written out here rather than delegated: each sweep visits every
off-diagonal pivot once and annihilates it with a unitary plane rotation.
Off-diagonal mass never increases, so convergence is monotone and the sweep
cap is a hard safety net, not a tuning knob.  :func:`eigen_hermitian` takes
one (d, d) matrix or an (N, d, d) stack; a stack is solved in one pass, each
pivot rotating every still-unconverged matrix at once; a family's stack is
solved at most once and cached on :attr:`MubFamily.spectrum`, which the
verifier always reads.  A member that would sweep but whose one-column
certificate already meets the stopping rule, r <= 1e-13 ||M||_F, is deflated
first (Householder deflation; Golub & Van Loan, *Matrix Computations*,
ch. 8): with H the reflector taking the power step M v to a multiple of
e_1, the sweeps run on H M H, which is diagonal up to r, and the
eigenvectors are H V.  A
closed-form family's stack thus solves in zero sweeps, and every other
member is swept exactly as it stands.  The recovered states have their
global phase fixed by :func:`canonical_phase`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import (
    _MAX_ENTRY,
    MubFamily,
    _check_tolerance,
    _hermitian_defects,
    _symmetrized,
    canonical_phase,
)

__all__ = [
    "EigenDecomposition",
    "eigen_hermitian",
    "reconstruct_all",
    "state_from_projector",
]

_MAX_SWEEPS = 30
_CONVERGED = 1e-13  # off-diagonal mass, relative to the Frobenius norm

# Largest one-column residual at which a certified state is returned without
# a solve: the power step's angle to the top eigenvector is of order r^2,
# below double-precision roundoff from here down, whatever the tolerance.
_EXACT_RESIDUAL = 1e-8


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix or a stack of them.

    ``eigenvalues`` are real, sorted in descending order along the last
    axis; column j of ``eigenvectors`` is the unit eigenvector for
    ``eigenvalues[..., j]``.  For an (N, d, d) input both carry the leading
    stack axis.  ``sweeps`` counts full Jacobi passes until the off-diagonal
    mass fell below the convergence threshold, summed over the stack; a
    deflated member counts the sweeps it ran, 0 for a closed form.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int

    def __post_init__(self):
        # Copied, so a caller's arrays are neither frozen nor aliased.
        vals = np.array(self.eigenvalues, dtype=float)
        self._freeze(vals, np.array(self.eigenvectors, dtype=complex))

    def _freeze(self, vals: np.ndarray, vecs: np.ndarray) -> None:
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @classmethod
    def _adopt(cls, vals: np.ndarray, vecs: np.ndarray, sweeps: int) -> "EigenDecomposition":
        """Wrap float and complex arrays nobody else holds, without copying them."""
        decomp = object.__new__(cls)
        decomp._freeze(vals, vecs)
        object.__setattr__(decomp, "sweeps", sweeps)
        return decomp

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def reconstruct(self) -> np.ndarray:
        """Reassemble V diag(w) V^dagger; equals the input up to roundoff."""
        vecs = self.eigenvectors
        return (vecs * self.eigenvalues[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _off_mass(a: np.ndarray) -> np.ndarray:
    """Off-diagonal Frobenius mass of each matrix in an (N, d, d) stack."""
    return np.sqrt(2.0) * np.linalg.norm(np.triu(a, 1), axis=(1, 2))


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Annihilate entry (p, q) of every matrix in the stack ``a``, in place.

    Each matrix gets the unitary plane rotation in coordinates (p, q) that
    makes its transformed (p, q) entry vanish exactly; ``v`` accumulates the
    same rotations.  A matrix whose (p, q) entry is already zero gets the
    identity rotation, which leaves it unchanged.
    """
    beta = a[:, p, q]
    mod = np.abs(beta)
    rotating = mod > 0.0
    safe_mod = np.where(rotating, mod, 1.0)
    # conj(beta) / |beta| from the angle: a subnormal pivot has too few
    # significant bits for the quotient to have unit modulus, and a
    # non-unit phi would scale column q instead of rotating it.
    phi = np.where(rotating, np.exp(-1j * np.angle(beta)), 1.0)
    # tau overflows only when the pivot is negligible against the diagonal
    # gap; t then rounds to 0, which is the exact limit.
    with np.errstate(over="ignore"):
        tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * safe_mod)
        t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    t = np.where(rotating, t, 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c

    c_, s_ = c[:, None], s[:, None]
    s_phi, c_phi = (s * phi)[:, None], (c * phi)[:, None]
    s_phi_bar, c_phi_bar = (s * phi.conj())[:, None], (c * phi.conj())[:, None]

    col_p, col_q = a[:, :, p], a[:, :, q]
    a[:, :, p], a[:, :, q] = c_ * col_p - s_phi * col_q, s_ * col_p + c_phi * col_q
    row_p, row_q = a[:, p, :], a[:, q, :]
    a[:, p, :], a[:, q, :] = c_ * row_p - s_phi_bar * row_q, s_ * row_p + c_phi_bar * row_q
    a[:, p, q] = 0.0
    a[:, q, p] = 0.0
    a[:, p, p] = a[:, p, p].real
    a[:, q, q] = a[:, q, q].real

    vec_p, vec_q = v[:, :, p], v[:, :, q]
    v[:, :, p], v[:, :, q] = c_ * vec_p - s_phi * vec_q, s_ * vec_p + c_phi * vec_q


def _jacobi(matrices: np.ndarray):
    """Diagonalize an (N, d, d) stack of complex Hermitian matrices by cyclic Jacobi rotations.

    Every sweep visits the pivots in cyclic-by-row order and applies each to
    the whole stack at once; a matrix leaves the sweep loop as soon as its
    own off-diagonal mass is within 1e-13 of its Frobenius norm.  Returns
    the unsorted (eigenvalues, eigenvectors) and, per matrix, the sweeps it
    ran, its off-diagonal mass after the last of them and its Frobenius norm.
    """
    a = np.array(matrices, dtype=complex)
    n, d = a.shape[0], a.shape[-1]
    v = np.broadcast_to(np.eye(d, dtype=complex), a.shape).copy()
    norms = np.linalg.norm(a, axis=(1, 2))
    threshold = _CONVERGED * norms
    off = _off_mass(a)
    sweeps = np.zeros(n, dtype=int)
    pivots = [(p, q) for p in range(d - 1) for q in range(p + 1, d)]

    for _ in range(_MAX_SWEEPS):
        active = np.flatnonzero(off > threshold)
        if active.size == 0:
            break
        sub_a, sub_v = a[active], v[active]
        for p, q in pivots:
            _rotate(sub_a, sub_v, p, q)
        a[active], v[active] = sub_a, sub_v
        off[active] = _off_mass(sub_a)
        sweeps[active] += 1

    vals = np.diagonal(a, axis1=1, axis2=2).real.copy()
    return vals, v, sweeps, off, norms


def _householder(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Householder reflectors H taking the power step M v of each member onto e_1.

    ``m`` is an (N, d, d) Hermitian stack and ``v`` its certificate columns.
    One power step M v turns the certificate's O(r) angle to the top
    eigenvector into O(r^2), so the first row of H M H is negligible and
    its top eigenvector is H e_1 to roundoff.  Each
    H = I - 2 w w^dagger / (w^dagger w) with w = u + e^{i theta} ||u|| e_1,
    for u the power step scaled by its largest part and theta the angle of
    u_0; H is Hermitian and unitary.  Scaling by the largest part, before
    and after the step, keeps ||u|| in [1, sqrt(d)] for parts from
    subnormal up to 1e150, and the sign choice keeps w^dagger w at least 2.
    """
    d = v.shape[1]
    u = v / np.max(np.abs(v), axis=1, keepdims=True)
    u = np.einsum("nij,nj->ni", m, u)
    u /= np.max(np.abs(u), axis=1, keepdims=True)
    w = u.copy()
    w[:, 0] += np.exp(1j * np.angle(u[:, 0])) * np.linalg.norm(u, axis=1)
    mass = np.einsum("ni,ni->n", w.conj(), w).real
    return np.eye(d) - (2.0 / mass)[:, None, None] * w[:, :, None] * w[:, None, :].conj()


def _normalized(sym: np.ndarray):
    """Each member of an (N, d, d) stack times an even power of two, and its exponent.

    The power brings the member's largest real or imaginary part into
    [0.5, 2), so the squares in its norms neither underflow nor overflow:
    unscaled, a member whose entries are all below about 1e-154 has zero
    off-diagonal mass and zero norm, and would never be swept.  Scaling by
    a power of two is exact, and an even one also scales the certificate's
    square root exactly, so a solve at ordinary scale keeps every bit.
    A member already in that range, or zero, is unchanged.
    """
    _, exponent = np.frexp(np.max(np.abs(sym.view(float)), axis=(1, 2)))
    shift = -2 * (exponent // 2)
    return np.ldexp(sym.view(float), shift[:, None, None]).view(complex), shift


def _checked_stack(matrix):
    """``matrix`` as an (N, d, d) complex stack, whether it was one matrix, and sizes.

    The sizes are each member's largest real or imaginary part.  Refuses
    anything but a nonempty square matrix or stack of them, and entries
    that are non-finite or have a part above 1e150, naming the first such
    stack member.  Checked before any arithmetic: NaN passes every "> tol"
    test, inf - inf in a Hermitian defect would warn before anything could
    reject it, and squares of entries near the float limit overflow the
    norms.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise ValueError(
            f"expected a nonempty square matrix or stack of them, got shape {m.shape}"
        )
    single = m.ndim == 2
    stack = m.reshape(-1, *m.shape[-2:])
    largest = np.max(np.maximum(np.abs(stack.real), np.abs(stack.imag)), axis=(1, 2))
    finite = largest <= _MAX_ENTRY  # False for NaN too
    if not finite.all():
        i = int(np.argmin(finite))
        label = "matrix" if single else f"matrix {i}"
        raise ValueError(f"{label} has non-finite entries or parts above {_MAX_ENTRY:.0e}")
    return stack, single, largest


def eigen_hermitian(matrix, hermiticity_tol: float = 1e-10) -> EigenDecomposition:
    """Eigenvalues and eigenvectors of Hermitian matrices, descending order.

    ``matrix`` is one (d, d) matrix or an (N, d, d) stack of them; the
    result carries the same leading axis.  Rejects non-finite entries and
    matrices whose Hermitian defect max|M - M^dagger| exceeds
    ``hermiticity_tol`` times the larger of 1 and the member's largest real
    or imaginary part: an absolute gate at ordinary scale, a relative one
    above it, so a scaled matrix's roundoff asymmetry scales with its
    bound.  The iteration itself then works on the symmetrized matrix
    (M + M^dagger) / 2 so the arithmetic sees exact Hermitian data,
    scaled by an even power of two that brings its largest part near 1, so
    that entries as small as subnormals are swept like any others.
    A member that would sweep and whose one-column certificate meets the
    stopping rule is swept after Householder deflation; all others are
    swept as they stand.
    """
    stack, single, largest = _checked_stack(matrix)
    defects, _ = _hermitian_defects(stack)
    bounds = hermiticity_tol * np.maximum(1.0, largest)
    bad = np.flatnonzero(defects > bounds)
    if bad.size:
        i = int(bad[0])
        label = "matrix" if single else f"matrix {i}"
        raise ValueError(
            f"{label} is not Hermitian: max deviation {defects[i]:.3e} exceeds {bounds[i]:.1e}"
        )
    sym, shift = _normalized(_symmetrized(stack))
    v, r = _rank_one_certificate(sym)
    threshold = _CONVERGED * np.linalg.norm(sym, axis=(1, 2))
    deflate = np.flatnonzero((r <= threshold) & (_off_mass(sym) > threshold))
    if deflate.size:
        reflectors = _householder(sym[deflate], v[deflate])
        sym[deflate] = _symmetrized(reflectors @ sym[deflate] @ reflectors)
    # The norms are of the matrices swept, deflated ones included.
    vals, vecs, sweeps, off, norms = _jacobi(sym)
    if deflate.size:
        vecs[deflate] = reflectors @ vecs[deflate]
    stuck = np.flatnonzero(off > _CONVERGED * norms)
    if stuck.size:
        i = int(stuck[0])
        label = "" if single else f" (matrix {i})"
        raise RuntimeError(
            f"eigensolver did not converge within {_MAX_SWEEPS} sweeps{label}: "
            f"off-diagonal mass {np.ldexp(off[i], -shift[i]):.3e} "
            f"against scale {np.ldexp(norms[i], -shift[i]):.3e}"
        )
    order = np.argsort(-vals, axis=1, kind="stable")
    vals = np.take_along_axis(np.ldexp(vals, -shift[:, None]), order, axis=1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    if single:
        vals, vecs = vals[0], vecs[0]
    # Both arrays were built here and are referenced nowhere else.
    return EigenDecomposition._adopt(vals, vecs, int(sweeps.sum()))


def _rank_one_certificate(sym: np.ndarray):
    """One-column rank-1 certificate (v, r) of an (N, d, d) Hermitian stack.

    For each M, k is the index of its largest diagonal entry,
    v = M[:, k] / sqrt(M_kk) and r = ||M - v v^dagger||_F.  By Weyl's
    inequality each eigenvalue of M lies within r of the matching one of
    (||v||^2, 0, ..., 0); in particular none is below -r.  Where M_kk is not
    positive, or the column is too large against it for v v^dagger to stay
    within 1e150 (a positive-semidefinite M has |M_pk|^2 <= M_kk^2), v is
    zero and r is inf: the certificate settles nothing there.  Parts up to
    1e150 raise no floating-point warning.
    """
    n = sym.shape[0]
    rows = np.arange(n)
    diag = np.diagonal(sym, axis1=1, axis2=2).real
    k = np.argmax(diag, axis=1)
    pivot = diag[rows, k]
    column = sym[rows, :, k]
    largest = np.max(np.abs(column), axis=1)
    usable = (pivot > 0.0) & (largest * largest <= _MAX_ENTRY * pivot)
    v = np.where(usable[:, None], column, 0.0) / np.sqrt(np.where(usable, pivot, 1.0))[:, None]
    size = np.abs(sym - v[:, :, None] * v[:, None, :].conj())
    # Scaled by the largest entry, so squares neither overflow nor underflow.
    scale = np.max(size, axis=(1, 2))
    unit = size / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    r = scale * np.sqrt(np.einsum("nij,nij->n", unit, unit))
    return v, np.where(usable, r, np.inf)


def _rank_one_states(projectors, defects, certificate, spectrum, tol: float, prefix: str):
    """Canonical-phase unit states of an (N, d, d) stack of rank-1 projectors.

    Each projector must pass, in order: Hermitian symmetry (its entry of
    ``defects``, max |M - M^dagger|), a top eigenvalue separated from the
    rest by at least ``tol``, vanishing remaining eigenvalues, a top
    eigenvalue of 1.  The one-column ``certificate`` (v, r) of the
    symmetrized stack settles the last three by Weyl's bounds: remaining
    eigenvalues at most r, the top within |(||v||^2) - 1| + r of 1, the gap
    at least ||v||^2 - 2r.  When it settles every projector with r at most
    1e-8 the state is the power step M v, normalized, equal to the top
    eigenvector to roundoff.  Otherwise ``spectrum()`` supplies the
    decomposition of the symmetrized stack, the states are its top
    eigenvectors, and the first projector in stack order that fails raises
    ``ValueError`` naming its first failed check; the message starts with
    ``prefix`` formatted with the labels ``a``, ``alpha`` of stack index
    a*d + alpha.
    """
    v, r = certificate
    mass = np.einsum("ni,ni->n", v.conj(), v).real
    settled = (
        (defects <= tol)
        & (r <= min(tol, _EXACT_RESIDUAL))
        & (abs(mass - 1.0) + r <= tol)
        & (mass - 2 * r >= tol)
    )
    if settled.all():
        states = np.einsum("nij,nj->ni", _symmetrized(projectors), v)
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        return np.array([canonical_phase(state) for state in states])

    decomp = spectrum()
    vals = decomp.eigenvalues
    top = vals[:, 0]
    gap = top - vals[:, 1] if vals.shape[1] > 1 else np.full(top.shape, np.inf)
    residual = np.max(np.abs(vals[:, 1:]), axis=1, initial=0.0)
    failing = (defects > tol) | (gap < tol) | (residual > tol) | (np.abs(top - 1.0) > tol)
    if failing.any():
        i = int(np.argmax(failing))
        if defects[i] > tol:
            message = f"matrix is not Hermitian: max deviation {defects[i]:.3e} exceeds {tol:.1e}"
        elif gap[i] < tol:
            message = (
                f"top eigenvalue is degenerate (gap {gap[i]:.3e}); "
                "projector does not define a ray"
            )
        elif residual[i] > tol:
            message = f"matrix has rank above 1: residual eigenvalue mass {residual[i]:.3e}"
        else:
            message = f"top eigenvalue {top[i]:.3e} deviates from 1 beyond {tol:.1e}"
        a, alpha = divmod(i, vals.shape[1])
        raise ValueError(prefix.format(a=a, alpha=alpha) + message)
    return np.array([canonical_phase(vec) for vec in decomp.eigenvectors[:, :, 0]])


def state_from_projector(projector, tol: float = 1e-10) -> np.ndarray:
    """Recover the unit state vector of a rank-1 projector.

    Checks, in order: Hermitian symmetry within ``tol``, the top eigenvalue
    is separated from the rest by more than ``tol`` (a degenerate top
    eigenvalue means no single ray is defined, so an arbitrary pick is
    refused), the remaining eigenvalues vanish, and the top eigenvalue is 1.
    A projector the one-column certificate settles needs no eigensolve.
    The returned vector has its global phase fixed by
    :func:`canonical_phase`.
    """
    _check_tolerance(tol)
    m = np.asarray(projector, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    stack = _checked_stack(m[None])[0]
    certificate = _rank_one_certificate(_symmetrized(stack))
    spectrum = partial(eigen_hermitian, stack, hermiticity_tol=np.inf)
    defects, _ = _hermitian_defects(stack)
    return _rank_one_states(stack, defects, certificate, spectrum, tol, "")[0]


def reconstruct_all(family: MubFamily, tol: float = 1e-10) -> np.ndarray:
    """State vectors for every projector of a family.

    Returns a (num_bases, d, d) array; entry [a, alpha] is the state for
    projector (a, alpha).  The Hermitian defects are the family's cached
    :attr:`~MubFamily.invariants`; its cached
    :attr:`~MubFamily.rank_one_certificate` settles a rank-1 family without
    an eigensolve, otherwise the states come from its cached
    :attr:`~MubFamily.spectrum`.  A failing projector is annotated with its
    labels so bad entries are easy to locate.
    """
    _check_tolerance(tol)
    n, d = family.num_bases, family.dim
    prefix = "projector (basis {a}, vector {alpha}): "
    stack = family.projectors.reshape(n * d, d, d)
    certificate, spectrum = family.rank_one_certificate, lambda: family.spectrum
    states = _rank_one_states(stack, family.invariants[0], certificate, spectrum, tol, prefix)
    return states.reshape(n, d, d)
