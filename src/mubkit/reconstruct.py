"""State vectors from rank-1 projectors: a one-column certificate, else LAPACK.

A Hermitian M that is rank 1 up to noise is certified from one column
(``algebra._rank_one_certificate``): with k the index of its largest
diagonal entry, v = M[:, k] / sqrt(M_kk) and r = ||M - v v^dagger||_F,
Weyl's inequality puts every eigenvalue of M within r of the spectrum
(||v||^2, 0, ..., 0) of v v^dagger.  When r is small that settles every
rank-1 check without an eigensolve, and one power step M v gives the state
with a Davis-Kahan angle of order r^2 to the top eigenvector.  A family
computes its certificate itself and caches it on
:attr:`MubFamily.rank_one_certificate`, beside its Hermitian defects on
:attr:`MubFamily.invariants`; the loader, :func:`reconstruct_all` and the
search start read both, and only a stack the certificate cannot settle
falls back to the spectrum, so every rejection keeps its message.

:func:`eigen_hermitian` takes one (d, d) matrix or an (N, d, d) stack,
checks it, and solves the symmetrized stack with one ``np.linalg.eigh``
call (LAPACK's divide-and-conquer ``zheevd``; Golub & Van Loan, *Matrix
Computations*, ch. 8), each member first scaled by an even power of two
so that its solve does not depend on its size.  A family's stack is
solved at most once and cached on :attr:`MubFamily.spectrum`, which the
verifier always reads.  The recovered states have their global phase
fixed by :func:`canonical_phase`.
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
    _rank_one_certificate,
    _symmetrized,
    canonical_phase,
)

__all__ = [
    "EigenDecomposition",
    "eigen_hermitian",
    "reconstruct_all",
    "state_from_projector",
]

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
    stack axis.  ``sweeps`` is always 0 for a solve of
    :func:`eigen_hermitian`, which runs no iteration it could count; the
    field stays because callers, a benchmark tracer among them, read it.
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


def _normalized(sym: np.ndarray):
    """Each member of an (N, d, d) stack times an even power of two, and its exponent.

    The power brings the member's largest real or imaginary part into
    [0.5, 2).  LAPACK's solve is not exactly equivariant under scaling far
    from ordinary scale: it rescales a matrix whose largest entry lies
    outside about [1e-146, 1e146] by a factor that is not a power of two,
    and its intermediate products underflow sooner (4^k times a d = 5
    projector solves to other bits than the projector once its largest
    entry is below about 1e-106).  Scaled here, exactly, every member is
    solved at ordinary scale, and its result does not depend on its size.
    A member already in that range, such as one with parts of 1, or zero,
    is unchanged.
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
    bound; an infinite ``hermiticity_tol`` skips the check, which could
    refuse nothing.  One ``np.linalg.eigh`` call (LAPACK) then solves the
    symmetrized stack (M + M^dagger) / 2, so the solver sees exact
    Hermitian data, each member scaled by an even power of two that brings
    its largest part near 1; the eigenvalues are scaled back exactly.
    Equal eigenvalues keep LAPACK's order.  A LAPACK failure raises
    ``np.linalg.LinAlgError``, which is a ``ValueError``.
    """
    stack, single, largest = _checked_stack(matrix)
    if hermiticity_tol < np.inf:  # an infinite gate could refuse nothing
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
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(-vals, axis=1, kind="stable")
    vals = np.take_along_axis(np.ldexp(vals, -shift[:, None]), order, axis=1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    if single:
        vals, vecs = vals[0], vecs[0]
    # Both arrays were built here and are referenced nowhere else.
    return EigenDecomposition._adopt(vals, vecs, 0)


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
