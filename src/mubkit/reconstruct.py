"""State vectors from rank-1 projectors via a complex Jacobi eigensolver.

The eigensolver is a cyclic-by-row Jacobi iteration for complex Hermitian
matrices, written out here rather than delegated: each sweep visits every
off-diagonal pivot once and annihilates it with a unitary plane rotation.
Off-diagonal mass never increases, so convergence is monotone and the sweep
cap is a hard safety net, not a tuning knob.  :func:`eigen_hermitian` takes
one (d, d) matrix or an (N, d, d) stack; a stack is solved in one pass, each
pivot rotating every still-unconverged matrix at once; a family's stack is
solved once and cached on :attr:`MubFamily.spectrum` for all its readers.
For a projector known to have rank 1 the eigenvector of the top eigenvalue
recovers the state up to a global phase, which :func:`canonical_phase` then
fixes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _MAX_ENTRY, MubFamily, _check_tolerance, canonical_phase

__all__ = [
    "EigenDecomposition",
    "eigen_hermitian",
    "reconstruct_all",
    "state_from_projector",
]

_MAX_SWEEPS = 30
_CONVERGED = 1e-13  # off-diagonal mass, relative to the Frobenius norm


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix or a stack of them.

    ``eigenvalues`` are real, sorted in descending order along the last
    axis; column j of ``eigenvectors`` is the unit eigenvector for
    ``eigenvalues[..., j]``.  For an (N, d, d) input both carry the leading
    stack axis.  ``sweeps`` counts full Jacobi passes until the off-diagonal
    mass fell below the convergence threshold, summed over the stack.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        vecs = np.array(self.eigenvectors, dtype=complex)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

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
    """Diagonalize complex Hermitian matrices by cyclic Jacobi rotations.

    ``matrices`` is one (d, d) matrix or an (N, d, d) stack.  Every sweep
    visits the pivots in cyclic-by-row order and applies each to the whole
    stack at once; a matrix leaves the sweep loop as soon as its own
    off-diagonal mass is within 1e-13 of its Frobenius norm.

    Returns (eigenvalues, eigenvectors, off_history) where off_history[k] is
    the off-diagonal Frobenius mass after sweep k.  For a stack the first
    two carry the stack axis and off_history is one such list per matrix.
    Unsorted; the caller orders the spectrum.
    """
    single = matrices.ndim == 2
    a = np.array(matrices, dtype=complex, ndmin=3)
    n, d = a.shape[0], a.shape[-1]
    v = np.broadcast_to(np.eye(d, dtype=complex), a.shape).copy()
    threshold = _CONVERGED * np.linalg.norm(a, axis=(1, 2))
    off = _off_mass(a)
    history = [[float(x)] for x in off]
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
        for i in active:
            history[i].append(float(off[i]))

    vals = np.diagonal(a, axis1=1, axis2=2).real.copy()
    if single:
        return vals[0], v[0], history[0]
    return vals, v, history


def _hermitian_defects(m: np.ndarray) -> np.ndarray:
    """max |M - M^dagger| of each matrix in an (N, d, d) stack."""
    return np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(1, 2))


def eigen_hermitian(matrix, hermiticity_tol: float = 1e-10) -> EigenDecomposition:
    """Eigenvalues and eigenvectors of Hermitian matrices, descending order.

    ``matrix`` is one (d, d) matrix or an (N, d, d) stack of them; the
    result carries the same leading axis.  Rejects non-finite entries and
    matrices whose Hermitian defect max|M - M^dagger| exceeds
    ``hermiticity_tol``; the iteration itself then works on the symmetrized
    matrix (M + M^dagger) / 2 so the arithmetic sees exact Hermitian data.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise ValueError(
            f"expected a nonempty square matrix or stack of them, got shape {m.shape}"
        )
    single = m.ndim == 2
    stack = m.reshape(-1, *m.shape[-2:])
    # Checked first: NaN passes every "> tol" test below, inf - inf in the
    # Hermitian defect would warn before anything could reject it, and
    # squares of entries near the float limit overflow the norms.
    parts = np.maximum(np.abs(stack.real), np.abs(stack.imag))
    finite = (parts <= _MAX_ENTRY).all(axis=(1, 2))
    if not finite.all():
        i = int(np.argmin(finite))
        label = "matrix" if single else f"matrix {i}"
        raise ValueError(f"{label} has non-finite entries or parts above {_MAX_ENTRY:.0e}")
    defects = _hermitian_defects(stack)
    bad = np.flatnonzero(defects > hermiticity_tol)
    if bad.size:
        i = int(bad[0])
        label = "matrix" if single else f"matrix {i}"
        raise ValueError(
            f"{label} is not Hermitian: max deviation {defects[i]:.3e} "
            f"exceeds {hermiticity_tol:.1e}"
        )
    sym = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    vals, vecs, history = _jacobi(sym)
    scale = np.linalg.norm(sym, axis=(1, 2))
    final = np.array([h[-1] for h in history])
    stuck = np.flatnonzero(final > _CONVERGED * scale)
    if stuck.size:
        i = int(stuck[0])
        label = "" if single else f" (matrix {i})"
        raise RuntimeError(
            f"eigensolver did not converge within {_MAX_SWEEPS} sweeps{label}: "
            f"off-diagonal mass {final[i]:.3e} against scale {scale[i]:.3e}"
        )
    order = np.argsort(-vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    sweeps = sum(len(h) - 1 for h in history)
    if single:
        return EigenDecomposition(vals[0], vecs[0], sweeps=sweeps)
    return EigenDecomposition(vals, vecs, sweeps=sweeps)


def _rank_one_states(projectors, decomp: EigenDecomposition, tol: float, prefix: str):
    """Canonical-phase unit states of an (N, d, d) stack of rank-1 projectors.

    ``decomp`` is the spectrum of the symmetrized stack.  The first
    projector in stack order that fails raises ``ValueError`` naming its
    first failed check, in the order: Hermitian symmetry, a top eigenvalue
    separated from the rest by more than ``tol``, vanishing remaining
    eigenvalues, a top eigenvalue of 1; the message starts with ``prefix``
    formatted with the labels ``a``, ``alpha`` of stack index a*d + alpha.
    """
    vals = decomp.eigenvalues
    defects = _hermitian_defects(projectors)
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
            message = f"top eigenvalue {top[i]!r} deviates from 1 beyond {tol:.1e}"
        a, alpha = divmod(i, vals.shape[1])
        raise ValueError(prefix.format(a=a, alpha=alpha) + message)
    return np.array([canonical_phase(vec) for vec in decomp.eigenvectors[:, :, 0]])


def state_from_projector(projector, tol: float = 1e-10) -> np.ndarray:
    """Recover the unit state vector of a rank-1 projector.

    Checks, in order: Hermitian symmetry within ``tol``, the top eigenvalue
    is separated from the rest by more than ``tol`` (a degenerate top
    eigenvalue means no single ray is defined, so an arbitrary pick is
    refused), the remaining eigenvalues vanish, and the top eigenvalue is 1.
    The returned vector has its global phase fixed by
    :func:`canonical_phase`.
    """
    _check_tolerance(tol)
    m = np.asarray(projector, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return _rank_one_states(m[None], eigen_hermitian(m[None], hermiticity_tol=np.inf), tol, "")[0]


def reconstruct_all(family: MubFamily, tol: float = 1e-10) -> np.ndarray:
    """State vectors for every projector of a family.

    Returns a (num_bases, d, d) array; entry [a, alpha] is the state for
    projector (a, alpha).  The states come from the family's cached
    :attr:`~MubFamily.spectrum`; a failing projector is annotated with its
    labels so bad entries are easy to locate.
    """
    _check_tolerance(tol)
    n, d = family.num_bases, family.dim
    prefix = "projector (basis {a}, vector {alpha}): "
    states = _rank_one_states(family.projectors.reshape(n * d, d, d), family.spectrum, tol, prefix)
    return states.reshape(n, d, d)
