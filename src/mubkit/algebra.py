"""Dense complex algebra for rank-1 projectors and their flattened vectors.

A rank-1 projector on C^d is stored as an ordinary (d, d) complex Hermitian
matrix with unit trace.  Reading its entries in row-major (dictionary) order
turns it into a vector in C^(d*d); under this flattening the Hilbert-Schmidt
trace product of two Hermitian matrices equals the usual complex inner
product of their vectors, which removes the modulus from unbiasedness
checks.  Everything here is plain numpy on small dense arrays; all
operations are pure and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "MubFamily",
    "canonical_phase",
    "flatten",
    "matrix_unit",
    "projector_from_state",
    "trace_product",
    "unbiased_gram_target",
    "unflatten",
    "w_inner",
]

DEFAULT_TOL = 1e-12

# Components whose modulus falls within this relative slack of the maximum
# are treated as tied when picking the phase-fixing pivot.  Bases of interest
# have many exactly-equal moduli, so an ulp-sensitive argmax would make the
# canonical representative unstable.
_PIVOT_SLACK = 1e-8

# Largest real or imaginary part accepted by families, the loader and the
# eigensolver: their Frobenius norms stay finite for any d up to ~9000.
_MAX_ENTRY = 1e150


def _check_tolerance(tol) -> None:
    """Refuse a tolerance that is NaN, infinite or negative, naming it.

    Against NaN every ``x > tol`` test is False, so such a tolerance would
    switch off the checks it gates instead of failing them.
    """
    if not 0.0 <= tol < np.inf:
        shown = tol.item() if isinstance(tol, np.generic) else tol  # no np.float64(...) repr
        raise ValueError(f"tolerance must be finite and non-negative, got {shown!r}")


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """(M + M^dagger) / 2 of each matrix in an (N, d, d) stack."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _hermitian_defects(m: np.ndarray):
    """Each (N, d, d) member's max |M - M^dagger| and the row-major index where it first occurs."""
    n = m.shape[0]
    defect = np.abs(m - m.conj().swapaxes(-1, -2)).reshape(n, -1)
    worst_entry = defect.argmax(axis=1)
    return defect[np.arange(n), worst_entry], worst_entry


def matrix_unit(dim: int, p: int, q: int) -> np.ndarray:
    """Matrix unit |p><q|: all zeros except a single one at row p, column q."""
    if not (0 <= p < dim and 0 <= q < dim):
        raise ValueError(f"matrix unit indices must lie in 0..{dim - 1}, got ({p}, {q})")
    unit = np.zeros((dim, dim), dtype=complex)
    unit[p, q] = 1.0
    return unit


def flatten(matrix) -> np.ndarray:
    """Flatten a (d, d) matrix to a length d*d vector in row-major order.

    Component p*d + q of the result is entry (p, q) of the matrix.  The map
    is exact (a reordering, no arithmetic) and inverted by :func:`unflatten`.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.reshape(-1).copy()


def unflatten(vec, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rebuild the (d, d) matrix whose row-major flattening is ``vec``.

    Rejects vectors whose length is not a perfect square and vectors whose
    components violate Hermitian symmetry (component (p, q) must equal the
    conjugate of component (q, p)) beyond ``tol``.
    """
    _check_tolerance(tol)
    v = np.asarray(vec, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size or v.size == 0:
        raise ValueError(f"vector length {v.size} is not a positive perfect square")
    m = v.reshape(d, d).copy()
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > tol:
        raise ValueError(
            f"components are not Hermitian-symmetric: max deviation {defect:.3e} exceeds {tol:.1e}"
        )
    return m


def w_inner(x, y) -> complex:
    """Inner product sum_i conj(x_i) * y_i of two flattened operators.

    For Hermitian-symmetric inputs the value is real up to roundoff and
    equals ``trace_product(unflatten(x), unflatten(y))``.
    """
    xv = np.asarray(x, dtype=complex)
    yv = np.asarray(y, dtype=complex)
    if xv.ndim != 1 or yv.ndim != 1 or xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: got shapes {xv.shape} and {yv.shape}")
    return complex(np.vdot(xv, yv))


def trace_product(m1, m2) -> float:
    """Hilbert-Schmidt product Tr(m1 @ m2) of two Hermitian matrices.

    The trace of a product of Hermitian matrices is real; the real part is
    returned.
    """
    a = np.asarray(m1, dtype=complex)
    b = np.asarray(m2, dtype=complex)
    if a.ndim != 2 or a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: got shapes {a.shape} and {b.shape}")
    return float(np.einsum("ij,ji->", a, b).real)


def projector_from_state(state, tol: float = 1e-10) -> np.ndarray:
    """Rank-1 projector |v><v| of a unit-norm state vector ``v``.

    The result is Hermitian, positive-semidefinite, and has unit trace; its
    only nonzero eigenvalue is 1.
    """
    _check_tolerance(tol)
    v = np.asarray(state, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-D state vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state vector norm {norm} deviates from 1 beyond {tol:.1e}")
    return np.outer(v, v.conj())


def canonical_phase(state) -> np.ndarray:
    """Fix the global phase of a state so one component is real non-negative.

    The pivot is the lowest-index component whose modulus ties the maximum
    (ties meaning within a small relative slack, since equal moduli only
    agree to roundoff after arithmetic).  Projectors are phase-blind, so this
    picks one representative per ray and makes round trips comparable.
    """
    v = np.asarray(state, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-D state vector, got shape {v.shape}")
    mods = np.abs(v)
    top = float(mods.max())
    if top == 0.0:
        raise ValueError("cannot fix the phase of a zero vector")
    pivot = int(np.argmax(mods >= top * (1.0 - _PIVOT_SLACK)))
    # Python's complex division rounds each part once; numpy's scalar
    # division goes through a reciprocal, so an already real pivot would
    # not map to a phase of exactly 1.
    out = v * (complex(v[pivot]).conjugate() / float(mods[pivot]))
    # The rotated pivot equals |v_pivot| only to rounding; pinning it makes
    # the pivot exactly real and a second call a no-op.
    out[pivot] = mods[pivot]
    return out


def unbiased_gram_target(num_bases: int, dim: int) -> np.ndarray:
    """Target Gram matrix of flattened projectors for unbiased bases.

    Row/column index a*dim + alpha labels projector (a, alpha).  Entries are
    1 on the diagonal, 0 for distinct vectors of the same basis, and 1/dim
    across bases.  Both the verifier and the numerical search measure
    distance to this one matrix, which keeps certificate and penalty
    consistent.
    """
    if num_bases < 1 or dim < 1:
        raise ValueError(f"need num_bases >= 1 and dim >= 1, got ({num_bases}, {dim})")
    labels = np.repeat(np.arange(num_bases), dim)
    same_basis = labels[:, None] == labels[None, :]
    target = np.where(same_basis, 0.0, 1.0 / dim)
    np.fill_diagonal(target, 1.0)
    return target


@dataclass(frozen=True)
class MubFamily:
    """A set of rank-1 projector bases indexed by (basis, vector) labels.

    ``projectors[a, alpha]`` is the (d, d) matrix for vector ``alpha`` of
    basis ``a``.  A complete family in dimension d has d + 1 bases; partial
    families with fewer bases are allowed.  The stored array is a read-only
    copy, so instances are safe to share between threads.
    """

    projectors: np.ndarray

    def __post_init__(self):
        arr = np.array(self.projectors, dtype=complex, order="C")
        if arr.ndim != 4:
            raise ValueError(
                f"projectors must be a (num_bases, d, d, d) array, got {arr.ndim} axes"
            )
        num_bases, d = arr.shape[0], arr.shape[1]
        if arr.shape[2] != d or arr.shape[3] != d:
            raise ValueError(f"inconsistent dimensions in projector array: shape {arr.shape}")
        if d < 1:
            raise ValueError("dimension must be positive")
        if num_bases < 1 or num_bases > d + 1:
            raise ValueError(f"num_bases must lie in 1..d+1 = 1..{d + 1}, got {num_bases}")
        if not np.all(np.abs(arr.view(float)) <= _MAX_ENTRY):  # False for NaN too
            raise ValueError(f"projector entries must be finite, with parts up to {_MAX_ENTRY:.0e}")
        arr.setflags(write=False)
        object.__setattr__(self, "projectors", arr)

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    @property
    def num_bases(self) -> int:
        return self.projectors.shape[0]

    @cached_property
    def invariants(self):
        """Per-projector (hermiticity, worst_entry, trace), in label order, computed once.

        max |M - M^dagger|, the row-major index of its first worst entry, and
        |Tr M - 1|, as read-only arrays; each reader applies its own tolerance.
        """
        n, d = self.num_bases, self.dim
        mats = self.projectors.reshape(n * d, d, d)
        hermiticity, worst_entry = _hermitian_defects(mats)
        trace = np.abs(np.einsum("nii->n", mats) - 1.0)
        for array in (hermiticity, worst_entry, trace):
            array.setflags(write=False)
        return hermiticity, worst_entry, trace

    @cached_property
    def spectrum(self):
        """Eigendecomposition of the (n*d, d, d) projector stack, in label order.

        Solved once, on first use, for the symmetrized matrices with no
        Hermitian gate; each reader judges the Hermitian defect from
        :attr:`invariants`.  The verifier always reads it.  The loader,
        reconstruction and the search start read it only for a family
        whose projectors :attr:`rank_one_certificate` cannot settle, so a
        rank-1 family they read holds no eigenvector stack.  The projectors
        are read-only, so the cached solve never goes stale.
        """
        from .reconstruct import eigen_hermitian  # reconstruct imports this module

        n, d = self.num_bases, self.dim
        return eigen_hermitian(self.projectors.reshape(n * d, d, d), hermiticity_tol=np.inf)

    @cached_property
    def rank_one_certificate(self):
        """One-column rank-1 certificate (v, r) of the symmetrized stack, in label order.

        For each symmetrized projector M, with k the index of its largest
        diagonal entry, v = M[:, k] / sqrt(M_kk) and r = ||M - v v^dagger||_F:
        every eigenvalue of M lies within r of (||v||^2, 0, ..., 0).  r is
        inf where M_kk is not positive.  Computed once, on first use; each
        reader compares r with its own threshold and reads :attr:`spectrum`
        for what the certificate cannot settle.  Both arrays are read-only.
        """
        from . import reconstruct  # looked up at call time, like eigen_hermitian

        n, d = self.num_bases, self.dim
        sym = _symmetrized(self.projectors.reshape(n * d, d, d))
        v, r = reconstruct._rank_one_certificate(sym)
        v.setflags(write=False)
        r.setflags(write=False)
        return v, r

    def projector(self, a: int, alpha: int) -> np.ndarray:
        """The projector for vector ``alpha`` of basis ``a``."""
        if not (0 <= a < self.num_bases and 0 <= alpha < self.dim):
            raise ValueError(f"no projector with labels ({a}, {alpha}) in this family")
        return self.projectors[a, alpha]

    def as_vectors(self) -> np.ndarray:
        """All projectors flattened to rows; row a*d + alpha is projector (a, alpha)."""
        n, d = self.num_bases, self.dim
        return self.projectors.reshape(n * d, d * d).copy()

    def labels(self) -> list[tuple[int, int]]:
        """(basis, vector) label pairs in the row order used by :meth:`as_vectors`."""
        return [(a, alpha) for a in range(self.num_bases) for alpha in range(self.dim)]

    @classmethod
    def from_states(cls, bases, tol: float = 1e-10) -> "MubFamily":
        """Build a family from nested state vectors ``bases[a][alpha]``."""
        _check_tolerance(tol)
        groups = [list(group) for group in bases]
        if not groups or any(not group for group in groups):
            raise ValueError("need at least one basis with at least one state")
        mats = np.array(
            [[projector_from_state(state, tol) for state in group] for group in groups]
        )
        return cls(mats)
