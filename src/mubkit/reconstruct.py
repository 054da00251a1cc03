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
falls back to an eigensolve, so every rejection keeps its message.

:func:`eigen_hermitian` takes one (d, d) matrix or an (N, d, d) stack,
checks it, and solves the symmetrized stack with one ``np.linalg.eigh``
call (LAPACK's divide-and-conquer ``zheevd``; Golub & Van Loan, *Matrix
Computations*, ch. 8), or ``np.linalg.eigvalsh`` when only eigenvalues
are asked for; LAPACK rescales a matrix of extreme size itself, and its
ascending order is reversed.  The verifier solves a family's stack for
eigenvalues every time; the loader (for eigenvalues too), reconstruction
and the search start solve it only for what the certificate cannot
settle, and nothing keeps the solve.  The recovered states have their
global phase fixed by :func:`~mubkit.algebra.canonical_phase`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    MubFamily,
    _bounded,
    _canonical_phases,
    _check_parts,
    _check_tolerance,
    _hermitian_defects,
    _rank_one_certificate,
    _symmetrized,
    _where,
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
    stack axis.  A values-only solve (``eigen_hermitian(...,
    values_only=True)``) marks its missing eigenvectors with an empty
    complex array of zero columns, shaped (..., d, 0), and :meth:`reconstruct`
    refuses it.  Both arrays are read-only copies of those it is given,
    a solve's own among them.  ``sweeps`` is always 0 for a solve of
    :func:`eigen_hermitian`, which runs no iteration it could count; the
    field stays because callers, a benchmark tracer among them, read it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int

    def __post_init__(self):
        # Copied, so a caller's arrays are neither frozen nor aliased.
        for name, dtype in (("eigenvalues", float), ("eigenvectors", complex)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def reconstruct(self) -> np.ndarray:
        """Reassemble V diag(w) V^dagger; equals the input up to roundoff.

        Raises ``ValueError`` for a values-only solve, which kept no eigenvectors.
        """
        vecs = self.eigenvectors
        if self.dim and not vecs.shape[-1]:
            raise ValueError("a values-only decomposition has no eigenvectors to reassemble")
        return (vecs * self.eigenvalues[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _checked_stack(matrix):
    """``matrix`` as a contiguous (N, d, d) complex stack, and whether it was one matrix.

    Refuses anything but a nonempty square matrix or stack of them, and
    names the first member with a part that :func:`~mubkit.algebra._bounded`
    refuses: non-finite or above 1e150.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise ValueError(
            f"expected a nonempty square matrix or stack of them, got shape {m.shape}"
        )
    single = m.ndim == 2
    stack = np.ascontiguousarray(m.reshape(-1, *m.shape[-2:]))
    i = int(np.argmin(_bounded(stack).all(axis=(1, 2))))  # the first member out of bound, if any
    label = "matrix" if single else f"matrix {i}"
    _check_parts(stack[i], label, "has non-finite entries or parts above")
    return stack, single


def eigen_hermitian(
    matrix, hermiticity_tol: float = 1e-10, *, values_only: bool = False
) -> EigenDecomposition:
    """Eigenvalues and eigenvectors of Hermitian matrices, descending order.

    ``matrix`` is one (d, d) matrix or an (N, d, d) stack of them; the
    result carries the same leading axis.  Rejects non-finite entries and
    matrices whose Hermitian defect max|M - M^dagger| exceeds
    ``hermiticity_tol`` times the larger of 1 and the member's largest real
    or imaginary part: an absolute gate at ordinary scale, a relative one
    above it, so a scaled matrix's roundoff asymmetry scales with its
    bound; an infinite ``hermiticity_tol`` skips the check, which could
    refuse nothing, and a NaN or negative one is refused.  One
    ``np.linalg.eigh`` call (LAPACK) then solves the symmetrized stack
    (M + M^dagger) / 2, so the solver sees exact Hermitian data, and its
    ascending order is reversed: equal eigenvalues come out in reverse
    LAPACK order, and the zero matrix gives the reversed identity.  With
    ``values_only`` the solve is ``np.linalg.eigvalsh`` of the same stack,
    which forms no eigenvector, and the result's eigenvectors are the
    empty marker described on :class:`EigenDecomposition`.  A LAPACK
    failure raises ``np.linalg.LinAlgError``, which is a ``ValueError``.
    """
    stack, single = _checked_stack(matrix)
    _check_tolerance(hermiticity_tol, infinite=True)
    if hermiticity_tol != np.inf:  # an infinite gate could refuse nothing
        defects = _hermitian_defects(stack)
        largest = np.abs(stack.view(float)).max(axis=(1, 2))  # each member's largest part
        bounds = hermiticity_tol * np.maximum(1.0, largest)
        bad = np.flatnonzero(defects > bounds)
        if bad.size:
            i = int(bad[0])
            label = "matrix" if single else f"matrix {i}"
            raise ValueError(
                f"{label} is not Hermitian: max deviation {defects[i]:.3e} exceeds {bounds[i]:.1e}"
            )
    sym = _symmetrized(stack)
    if values_only:
        vals, vecs = np.linalg.eigvalsh(sym), np.empty((*sym.shape[:-1], 0), dtype=complex)
    else:
        vals, vecs = np.linalg.eigh(sym)
    vals, vecs = vals[:, ::-1], vecs[:, :, ::-1]  # descending; the result copies the views
    if single:
        vals, vecs = vals[0], vecs[0]
    return EigenDecomposition(vals, vecs, 0)


def _rank_one_states(projectors, defects, certificate, tol: float, prefix: str):
    """Canonical-phase unit states of an (N, d, d) stack of rank-1 projectors.

    Each projector must pass, in order: Hermitian symmetry (its entry of
    ``defects``, max |M - M^dagger|), a top eigenvalue separated from the
    rest by at least ``tol``, vanishing remaining eigenvalues, a top
    eigenvalue of 1.  The one-column ``certificate`` (v, r) of the
    symmetrized stack settles the last three by Weyl's bounds: remaining
    eigenvalues at most r, the top within |(||v||^2) - 1| + r of 1, the gap
    at least ||v||^2 - 2r.  When it settles every projector with r at most
    1e-8 the state is the power step M v, normalized, equal to the top
    eigenvector to roundoff.  Otherwise the symmetrized stack is solved
    here, with no Hermitian gate; the states are its top eigenvectors,
    and the first projector in stack order that fails raises
    ``ValueError`` naming its first failed check; the message starts with
    ``prefix`` formatted with the labels "basis a, vector alpha" of stack
    index a*d + alpha.
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
        return _canonical_phases(states)

    decomp = eigen_hermitian(projectors, hermiticity_tol=np.inf)
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
        raise ValueError(prefix.format(_where(i, vals.shape[1])) + message)
    return _canonical_phases(decomp.eigenvectors[:, :, 0])


def state_from_projector(projector, tol: float = 1e-10) -> np.ndarray:
    """Recover the unit state vector of a rank-1 projector.

    Checks, in order: Hermitian symmetry within ``tol``, the top eigenvalue
    is separated from the rest by more than ``tol`` (a degenerate top
    eigenvalue means no single ray is defined, so an arbitrary pick is
    refused), the remaining eigenvalues vanish, and the top eigenvalue is 1.
    A projector the one-column certificate settles needs no eigensolve.
    The returned vector has its global phase fixed by
    :func:`~mubkit.algebra.canonical_phase`.
    """
    _check_tolerance(tol)
    m = np.asarray(projector, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    stack = _checked_stack(m)[0]
    certificate = _rank_one_certificate(stack)
    defects = _hermitian_defects(stack)
    return _rank_one_states(stack, defects, certificate, tol, "")[0]


def reconstruct_all(family: MubFamily, tol: float = 1e-10) -> np.ndarray:
    """State vectors for every projector of a family.

    Returns a (num_bases, d, d) array; entry [a, alpha] is the state for
    projector (a, alpha).  The Hermitian defects are the family's cached
    :attr:`~MubFamily.invariants`; its cached
    :attr:`~MubFamily.rank_one_certificate` settles a rank-1 family without
    an eigensolve, otherwise the states come from one solve of its stack.
    A failing projector is annotated with its labels so bad entries are
    easy to locate.
    """
    _check_tolerance(tol)
    n, d = family.num_bases, family.dim
    prefix = "projector ({}): "
    stack = family.projectors.reshape(n * d, d, d)
    certificate = family.rank_one_certificate
    states = _rank_one_states(stack, family.invariants[0], certificate, tol, prefix)
    return states.reshape(n, d, d)
