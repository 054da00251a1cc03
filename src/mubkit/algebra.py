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

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MubFamily",
    "canonical_phase",
    "projector_from_state",
    "unbiased_gram_target",
]

# Components whose modulus falls within this relative slack of the maximum
# are treated as tied when picking the phase-fixing pivot.  Bases of interest
# have many exactly-equal moduli, so an ulp-sensitive argmax would make the
# canonical representative unstable.
_PIVOT_SLACK = 1e-8

# Relative margin around the tie threshold, (1 - _PIVOT_SLACK) times the
# largest modulus, inside which roundoff decides a tie: a rotation moves a
# modulus by a few ulps (about 2^-50), and the 1e150 guard below by 2^-48.
_PIVOT_ROUNDOFF = 2.0**-46

# Largest real or imaginary part that _bounded accepts, at every entry point
# that takes an array: norms stay finite for any d up to ~9000.
_MAX_ENTRY = 1e150

# Largest projector array, in bytes, that build_family or a search
# allocates.  A complete family takes 16 (d + 1) d^3 bytes, which outgrows
# memory long before anything else does; 1 GiB admits every prime d up to 89.
MAX_FAMILY_BYTES = 1 << 30

# Looser than construction tolerances: serialized third-party families may
# carry a few more ulps of noise than freshly built ones.  The loader judges
# a document's invariants at it, and a search start its Hermitian defects.
LOAD_TOLERANCE = 1e-9


def _bounded(values: np.ndarray) -> np.ndarray:
    """Where each real and imaginary part of ``values`` is at most 1e150 in magnitude.

    False for NaN and inf too.  Checked before any arithmetic: NaN passes every
    ``x > tol`` test, inf - inf warns, and squares near the float limit overflow.
    """
    if np.iscomplexobj(values):
        return (np.abs(values.real) <= _MAX_ENTRY) & (np.abs(values.imag) <= _MAX_ENTRY)
    return np.abs(values) <= _MAX_ENTRY


def _check_parts(values: np.ndarray, what: str, rule: str = "must be finite, with parts up to"):
    """Refuse ``values``, naming them ``what``, unless :func:`_bounded` holds throughout."""
    if not _bounded(values).all():
        raise ValueError(f"{what} {rule} {_MAX_ENTRY:.0e}")


def _check_tolerance(tol, *, infinite: bool = False) -> None:
    """Refuse a tolerance that is NaN, negative or (unless ``infinite``) infinite, naming it.

    Against NaN every ``x > tol`` test is False, so such a tolerance would
    switch off the checks it gates instead of failing them.
    """
    if not (0.0 <= tol < np.inf or infinite and tol == np.inf):
        shown = tol.item() if isinstance(tol, np.generic) else tol  # no np.float64(...) repr
        rule = "non-negative (inf for no gate)" if infinite else "finite and non-negative"
        raise ValueError(f"tolerance must be {rule}, got {shown!r}")


def _check_family_size(num_bases: int, dim: int) -> None:
    """Refuse a (num_bases, d, d, d) projector array above :data:`MAX_FAMILY_BYTES`.

    Checked before anything is allocated.
    """
    nbytes = num_bases * dim**3 * np.dtype(complex).itemsize
    if nbytes > MAX_FAMILY_BYTES:
        raise ValueError(
            f"a family of {num_bases} bases in dimension d = {dim} needs "
            f"{nbytes} bytes of projectors, above the {MAX_FAMILY_BYTES}-byte limit"
        )


def _integer(name: str, value) -> int:
    """``value`` as an ``int``, by :func:`operator.index`; a ``bool`` or non-integer is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _where(i: int, d: int, prefix: str = "") -> str:
    """``prefix`` and the (basis, vector) labels of row i = a*d + alpha of a family's stack."""
    return "{}basis {}, vector {}".format(prefix, *divmod(i, d))


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """(M + M^dagger) / 2 of each matrix in an (N, d, d) stack, in one new array."""
    total = np.conjugate(m.swapaxes(-1, -2), order="C")
    total += m
    total *= 0.5
    return total


def _hermitian_defects(m: np.ndarray) -> np.ndarray:
    """Each (N, d, d) member's max |M - M^dagger|."""
    diff = np.conjugate(m.swapaxes(-1, -2), order="C")
    return np.abs(np.subtract(m, diff, out=diff)).max(axis=(1, 2))


def _rank_one_certificate(stack: np.ndarray):
    """One-column rank-1 certificate (v, r) of an (N, d, d) stack, symmetrized.

    For each M of the symmetrized stack (a scratch array of its own, worked
    in place, so ``stack`` is unchanged and an already Hermitian stack is
    certified as it is), k is the index of its largest diagonal entry,
    v = M[:, k] / sqrt(M_kk) and r = ||M - v v^dagger||_F.  By Weyl's
    inequality each eigenvalue of M lies within r of the matching one of
    (||v||^2, 0, ..., 0); in particular none is below -r.  Where M_kk is not
    positive, or the column is too large against it for v v^dagger to stay
    within 1e150 (a positive-semidefinite M has |M_pk|^2 <= M_kk^2), v is
    zero and r is inf: the certificate settles nothing there.  Parts up to
    1e150 raise no floating-point warning.
    """
    sym = _symmetrized(stack)
    n = sym.shape[0]
    rows = np.arange(n)
    diag = np.diagonal(sym, axis1=1, axis2=2).real
    k = np.argmax(diag, axis=1)
    pivot = diag[rows, k]
    column = sym[rows, :, k]
    largest = np.max(np.abs(column), axis=1)
    usable = (pivot > 0.0) & (largest * largest <= _MAX_ENTRY * pivot)
    v = np.where(usable[:, None], column, 0.0) / np.sqrt(np.where(usable, pivot, 1.0))[:, None]
    conj = v.conj()
    for p in range(sym.shape[1]):  # a row at a time: no second (N, d, d) array
        sym[:, p, :] -= v[:, p, None] * conj
    size = np.abs(sym)
    # Scaled by the largest entry, so squares neither overflow nor underflow.
    scale = np.max(size, axis=(1, 2))
    size /= np.where(scale > 0.0, scale, 1.0)[:, None, None]
    r = scale * np.sqrt(np.einsum("nij,nij->n", size, size))
    return v, np.where(usable, r, np.inf)


def _state_vector(state) -> np.ndarray:
    """``state`` as a complex vector, refused unless nonempty, 1-D and bounded.

    Bounded means parts and moduli alike up to 1e150: a canonical form puts
    a modulus into a real part, so that form is a state this accepts too.
    """
    v = np.asarray(state, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-D state vector, got shape {v.shape}")
    _check_parts(v, "state vector entries")
    _check_parts(np.abs(v), "state vector moduli", "must be at most")
    return v


def projector_from_state(state, tol: float = 1e-10) -> np.ndarray:
    """Rank-1 projector |v><v| of a unit-norm state vector ``v``.

    The result is Hermitian, positive-semidefinite, and has unit trace; its
    only nonzero eigenvalue is 1.  A state counts as unit when ||v||^2, the
    projector's trace, lies within ``tol`` of 1, as a family's trace
    invariant is judged.
    """
    _check_tolerance(tol)
    v = _state_vector(state)
    squared = float(np.vdot(v, v).real)
    if abs(squared - 1.0) > tol:
        raise ValueError(f"state vector squared norm {squared} deviates from 1 beyond {tol:.1e}")
    return np.outer(v, v.conj())


def canonical_phase(state) -> np.ndarray:
    """Fix the global phase of a state so one component is real non-negative.

    The pivot is the lowest-index component whose modulus ties the maximum
    (ties meaning within a small relative slack, since equal moduli only
    agree to roundoff after arithmetic).  Projectors are phase-blind, so this
    picks one representative per ray and makes round trips comparable.  A
    second call returns its input: where a tie is decided by roundoff, a
    component already real and positive stays the pivot.
    """
    return _canonical_phases(_state_vector(state)[None])[0]


def _canonical_phases(states: np.ndarray) -> np.ndarray:
    """:func:`canonical_phase` of each row of an (N, d) stack of bounded states."""
    mods = np.abs(states)
    top = mods.max(axis=1)
    if not top.all():
        raise ValueError("cannot fix the phase of a zero vector")
    rows = np.arange(len(states))
    pivot = np.argmax(mods >= (top * (1.0 - _PIVOT_SLACK))[:, None], axis=1)
    # Rotation rounds each modulus by a few ulps, so a second call can see a
    # tie the first did not, or miss the one it saw.  A real positive
    # component tied within roundoff of the slack, with no component before
    # it tied beyond roundoff, is the pivot: its phase is exactly 1, so the
    # state is kept, and the pivot a first call leaves is such a component.
    near = (top * ((1.0 - _PIVOT_SLACK) * (1.0 - _PIVOT_ROUNDOFF)))[:, None]
    clear = (top * ((1.0 - _PIVOT_SLACK) * (1.0 + _PIVOT_ROUNDOFF)))[:, None]
    kept = (states.imag == 0.0) & (states.real > 0.0) & (mods >= near)
    kept &= np.arange(states.shape[1]) <= np.argmax(mods >= clear, axis=1)[:, None]
    pivot = np.where(kept.any(axis=1), np.argmax(kept, axis=1), pivot)
    size = mods[rows, pivot]
    # conj(v_pivot) / |v_pivot| as Python's complex division (_Py_c_quot)
    # rounds it, each part once: a division through a reciprocal would not
    # map an already real pivot to a phase of exactly 1.
    a = states[rows, pivot].conj()
    phase = np.stack((a.real + a.imag * 0.0, a.imag - a.real * 0.0), axis=1) / size[:, None]
    out = states * phase.view(complex)
    # Rotation can round a modulus up by a few ulps; one it takes past 1e150
    # is scaled down by 2^-48 of itself, so the result is a state this accepts.
    out[~_bounded(np.abs(out))] *= 1.0 - 2.0**-48
    # The rotated pivot equals |v_pivot| only to rounding; pinning it makes
    # the pivot exactly real and a second call a no-op.
    out[rows, pivot] = size
    return out


def unbiased_gram_target(num_bases: int, dim: int) -> np.ndarray:
    """Target Gram matrix of flattened projectors for unbiased bases.

    Row/column index a*dim + alpha labels projector (a, alpha).  Read as
    (num_bases, dim, num_bases, dim) blocks, it is I_dim on each same-basis
    block and 1/dim across bases.  The numerical search's penalty measures
    distance to this matrix; the verifier holds each block of the Gram to
    the same targets without forming it, so certificate and penalty agree.
    """
    if num_bases < 1 or dim < 1:
        raise ValueError(f"need num_bases >= 1 and dim >= 1, got ({num_bases}, {dim})")
    target = np.full((num_bases, dim, num_bases, dim), 1.0 / dim)
    b = np.arange(num_bases)
    target[b, :, b, :] = np.eye(dim)  # I_d on each same-basis block
    return target.reshape(num_bases * dim, num_bases * dim)


def _checked_projectors(arr: np.ndarray) -> np.ndarray:
    """``arr``, set read-only, once its shape and entry bounds are a family's."""
    if arr.ndim != 4:
        raise ValueError(f"projectors must be a (num_bases, d, d, d) array, got {arr.ndim} axes")
    num_bases, d = arr.shape[0], arr.shape[1]
    if arr.shape[2] != d or arr.shape[3] != d:
        raise ValueError(f"inconsistent dimensions in projector array: shape {arr.shape}")
    if d < 1:
        raise ValueError("dimension must be positive")
    if num_bases < 1 or num_bases > d + 1:
        raise ValueError(f"num_bases must lie in 1..d+1 = 1..{d + 1}, got {num_bases}")
    _check_parts(arr, "projector entries")
    arr.setflags(write=False)
    return arr


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
        object.__setattr__(self, "projectors", _checked_projectors(arr))

    @classmethod
    def _own(cls, arr: np.ndarray) -> "MubFamily":
        """A family holding ``arr`` itself, checked as the constructor checks a copy.

        For complex C-order arrays the package has just made and keeps no
        other reference to: ``arr`` is set read-only in place, so the
        family's peak is one projector array, not two.
        """
        if arr.dtype != complex or not arr.flags.c_contiguous:
            raise ValueError("a family owns only C-order complex arrays")
        family = object.__new__(cls)
        object.__setattr__(family, "projectors", _checked_projectors(arr))
        return family

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    @property
    def num_bases(self) -> int:
        return self.projectors.shape[0]

    @cached_property
    def invariants(self):
        """Per-projector (hermiticity, trace), in label order, computed once.

        max |M - M^dagger| and |Tr M - 1|, as read-only arrays; each reader
        applies its own tolerance.
        """
        n, d = self.num_bases, self.dim
        mats = self.projectors.reshape(n * d, d, d)
        hermiticity = _hermitian_defects(mats)
        trace = np.abs(np.einsum("nii->n", mats) - 1.0)
        for array in (hermiticity, trace):
            array.setflags(write=False)
        return hermiticity, trace

    @cached_property
    def rank_one_certificate(self):
        """One-column rank-1 certificate (v, r) of the symmetrized stack, in label order.

        For each symmetrized projector M, with k the index of its largest
        diagonal entry, v = M[:, k] / sqrt(M_kk) and r = ||M - v v^dagger||_F:
        every eigenvalue of M lies within r of (||v||^2, 0, ..., 0).  r is
        inf where M_kk is not positive.  Computed once, on first use; each
        reader compares r with its own threshold and solves the stack itself
        for what the certificate cannot settle.  Both arrays are read-only.
        """
        n, d = self.num_bases, self.dim
        v, r = _rank_one_certificate(self.projectors.reshape(n * d, d, d))
        v.setflags(write=False)
        r.setflags(write=False)
        return v, r

    def projector(self, a: int, alpha: int) -> np.ndarray:
        """The projector for vector ``alpha`` of basis ``a``; both labels are integers."""
        a, alpha = _integer("a", a), _integer("alpha", alpha)
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
