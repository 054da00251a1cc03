"""Residual certificates for unbiasedness of projector families.

Verification works on the flattened projectors: with every projector read
row-major into C^(d*d), the Gram matrix of those vectors must equal the
identity on same-basis pairs and the constant 1/d on cross-basis pairs.
This removes the modulus from the defining overlap condition, so the checks
below are plain linear-algebra residuals with no phase bookkeeping.  The
report never says "unbiased", it says how far from unbiased.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import MubFamily, _bounded, _check_tolerance, _where
from .reconstruct import eigen_hermitian

__all__ = [
    "VerificationReport",
    "pairwise_angle",
    "verify_family",
    "verify_states",
]


@dataclass(frozen=True)
class VerificationReport:
    """Worst-case residuals of a family against the unbiasedness targets.

    ``max_self_residual`` is the largest deviation of a same-basis trace
    product from its Kronecker-delta target; ``max_cross_residual`` the
    largest deviation of a cross-basis trace product from 1/d.
    ``angle_check`` is the largest deviation of a cross-basis angle from
    arccos(1/d).  ``passed`` is true when every residual is within
    ``tolerance`` and the smallest projector eigenvalue is above
    ``-tolerance``.
    """

    dim: int
    num_bases: int
    tolerance: float
    max_self_residual: float
    max_cross_residual: float
    trace_residual: float
    hermiticity_residual: float
    psd_min_eigenvalue: float
    angle_check: float
    passed: bool = field(init=False)
    gram: Optional[np.ndarray] = None

    def __post_init__(self):
        # Comparisons, not max(): a NaN residual fails its comparison,
        # while max() may drop it depending on argument order.
        tol = self.tolerance
        passed = (
            self.hermiticity_residual <= tol
            and self.trace_residual <= tol
            and self.psd_min_eigenvalue >= -tol
            and self.max_self_residual <= tol
            and self.max_cross_residual <= tol
            and self.angle_check <= tol
        )
        object.__setattr__(self, "passed", passed)
        if self.gram is not None:
            g = np.array(self.gram, dtype=float)
            g.setflags(write=False)
            object.__setattr__(self, "gram", g)

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{verdict}: d={self.dim} bases={self.num_bases} "
            f"self={self.max_self_residual:.3e} cross={self.max_cross_residual:.3e} "
            f"trace={self.trace_residual:.3e} herm={self.hermiticity_residual:.3e} "
            f"min_eig={self.psd_min_eigenvalue:.3e} angle={self.angle_check:.3e} "
            f"(tol {self.tolerance:.1e})"
        )


def pairwise_angle(v1, v2) -> float:
    """Angle between two flattened projectors under the real inner product.

    For projectors from distinct unbiased bases the angle is arccos(1/d)
    regardless of which pair is chosen.
    """
    x = np.asarray(v1, dtype=complex)
    y = np.asarray(v2, dtype=complex)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"dimension mismatch: got shapes {x.shape} and {y.shape}")
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("cannot measure an angle against a zero vector")
    cosine = float(np.vdot(x, y).real) / (nx * ny)
    return float(np.arccos(np.clip(cosine, -1.0, 1.0)))


def _gram(rows: np.ndarray) -> np.ndarray:
    """``rows.conj() @ rows.T``, each entry independent of where its rows stand.

    A BLAS product may round an entry differently at a different position
    in the matrix, so the rows go through it sorted by their raw bytes, an
    order fixed by the rows themselves, and the result is put back in the
    given order.  Relisting the rows then relists the Gram matrix exactly,
    and every residual read from it depends on the family, not on the
    order in which its bases and vectors are listed.
    """
    rows = np.ascontiguousarray(rows)
    as_bytes = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(as_bytes, kind="stable")
    ordered = rows[order]
    product = ordered.conj() @ ordered.T
    del ordered  # so the gather below stands beside the product alone
    rank = np.argsort(order)
    return product[np.ix_(rank, rank)]


def _overlap_residuals(overlaps: np.ndarray, d: int, norms: Optional[np.ndarray] = None):
    """(max_self, max_cross, angle_check) of an (n*d, n*d) overlap matrix.

    ``overlaps[i, j]`` is the trace product of projectors i and j, rows
    ordered a*d + alpha, read as (n, d, n, d) blocks: the n same-basis
    blocks against I_d, every cross-basis entry against 1/d.  Rounded
    subtraction is monotone (x <= y gives fl(x - c) <= fl(y - c)), so the
    largest |x - 1/d| over the cross-basis entries is that of their
    smallest or their largest, and arccos is monotone, so the worst angle
    is that of the smallest or the largest cosine.  Each pair of extremes
    is read through a broadcast (n, 1, n, 1) basis-pair mask.  The cosines
    are the overlaps themselves, one pair of extremes serving both checks,
    unless ``norms`` is given; then they are the overlaps divided, in
    place, into the outer product of ``norms``, the one N x N array formed,
    and a cosine whose norm product is zero or not finite is NaN, which
    fails the angle check without a floating-point warning.  The extremes
    start at 1/d: a single basis, with no cross-basis terms, reads 0.0 for
    both.
    """
    n = overlaps.shape[0] // d
    across = ~np.eye(n, dtype=bool)[:, None, :, None]  # by basis pair, over the blocks
    blocks = overlaps.reshape(n, d, n, d)
    same = np.diagonal(blocks, axis1=0, axis2=2)  # a (d, d, n) view, basis a's own block last
    max_self = float(np.abs(same - np.eye(d)[:, :, None]).max())
    low, high = (f(blocks, where=across, initial=1.0 / d) for f in (np.min, np.max))
    max_cross = float(max(abs(low - 1.0 / d), abs(high - 1.0 / d)))
    if norms is not None:
        cosines = np.outer(norms, norms)
        cosines[~((cosines > 0.0) & (cosines < np.inf))] = np.nan
        blocks = np.divide(overlaps, cosines, out=cosines).reshape(n, d, n, d)
        low, high = (f(blocks, where=across, initial=1.0 / d) for f in (np.min, np.max))
    angles = np.arccos(np.clip([low, high, 1.0 / d], -1.0, 1.0))
    return max_self, max_cross, float(np.abs(angles[:2] - angles[2]).max())


def verify_family(
    family: MubFamily,
    tolerance: float = 1e-10,
    keep_gram: bool = False,
) -> VerificationReport:
    """Measure how far a family is from a set of mutually unbiased bases.

    Five independent residuals: Hermitian defect, unit-trace defect, the
    most negative projector eigenvalue, Gram deviations split into same- and
    cross-basis parts, and cross-basis angles against arccos(1/d).  Passing
    requires every residual within ``tolerance``; the sign check on
    eigenvalues allows ``-tolerance``.  Reads the family's cached invariants
    and solves its projector stack for eigenvalues only, once per call.
    Never raises on bad numbers, only on malformed shapes: a corrupted
    family yields a failing report.
    """
    _check_tolerance(tolerance)
    n, d = family.num_bases, family.dim
    hermiticity, traces = family.invariants
    trace_residual = float(traces.max())
    # The exact eigenvalues of the symmetrized stack, with no Hermitian
    # gate: a non-Hermitian matrix shows up in its defect, not as a crash here.
    stack = family.projectors.reshape(n * d, d, d)
    spectrum = eigen_hermitian(stack, hermiticity_tol=np.inf, values_only=True)
    min_eig = float(spectrum.eigenvalues[:, -1].min())

    gram_complex = _gram(family.projectors.reshape(n * d, d * d))
    gram = gram_complex.real
    # Trace products of Hermitian matrices are real; any imaginary leakage
    # is another symptom of broken Hermitian symmetry.
    hermiticity = max(float(hermiticity.max()), float(np.max(np.abs(gram_complex.imag))))

    norms = np.sqrt(np.diagonal(gram))
    max_self, max_cross, angle_check = _overlap_residuals(gram, d, norms)
    return VerificationReport(
        dim=d,
        num_bases=n,
        tolerance=float(tolerance),
        max_self_residual=max_self,
        max_cross_residual=max_cross,
        trace_residual=trace_residual,
        hermiticity_residual=hermiticity,
        psd_min_eigenvalue=min_eig,
        angle_check=angle_check,
        gram=gram if keep_gram else None,
    )


def verify_states(states, tolerance: float = 1e-10) -> VerificationReport:
    """Verify unbiasedness directly on state vectors.

    ``states[a][alpha]`` are unit vectors; the check is on the squared
    overlaps |<v_a_alpha | v_b_beta>|^2 against the same targets as
    :func:`verify_family`.  Useful as the second leg of a round trip
    projectors -> states -> overlaps that never reuses the Gram route.
    Rejects vectors whose squared norm deviates from 1 beyond
    ``tolerance``; the overlap targets assume normalization, so checking
    unnormalized input would misreport.
    """
    _check_tolerance(tolerance)
    arr = np.asarray(states, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected states shaped (num_bases, d, d), got {arr.shape}")
    n, d = arr.shape[0], arr.shape[1]
    if n < 1 or n > d + 1:
        raise ValueError(f"num_bases must lie in 1..d+1 = 1..{d + 1}, got {n}")

    # A part _bounded refuses makes its norm NaN, unnormalized, before a square can overflow.
    flat = np.where(_bounded(arr), arr, np.nan).reshape(n * d, d)
    norms = np.linalg.norm(flat, axis=1)
    trace_residual = float(np.max(np.abs(norms**2 - 1.0)))
    if not trace_residual <= tolerance:  # a NaN residual is not normalized either
        worst = int(np.argmax(np.abs(norms**2 - 1.0)))
        raise ValueError(
            f"state ({_where(worst, d)}) is not normalized: "
            f"squared norm deviates by {trace_residual:.3e}"
        )

    # The squared overlap is exactly the trace product of the rank-1
    # projectors these states generate, and also the cosine between them.
    overlap_sq = np.abs(_gram(flat)) ** 2
    max_self, max_cross, angle_check = _overlap_residuals(overlap_sq, d)
    return VerificationReport(
        dim=d,
        num_bases=n,
        tolerance=float(tolerance),
        max_self_residual=max_self,
        max_cross_residual=max_cross,
        trace_residual=trace_residual,
        hermiticity_residual=0.0,
        psd_min_eigenvalue=0.0,
        angle_check=angle_check,
    )
