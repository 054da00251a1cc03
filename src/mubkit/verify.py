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

from .algebra import MubFamily, _check_tolerance, unbiased_gram_target

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


def _overlap_residuals(overlaps: np.ndarray, d: int, norms: Optional[np.ndarray] = None):
    """(max_self, max_cross, angle_check) of an (n*d, n*d) overlap matrix.

    ``overlaps[i, j]`` is the trace product of projectors i and j, rows
    ordered a*d + alpha, and is compared against
    :func:`unbiased_gram_target`.  The cross-basis entries, divided by the
    outer product of ``norms`` when given, are the cosines whose angles are
    compared against arccos(1/d).  A single basis has no cross-basis terms.
    """
    n = overlaps.shape[0] // d
    deviation = np.abs(overlaps - unbiased_gram_target(n, d))
    labels = np.repeat(np.arange(n), d)
    same_basis = labels[:, None] == labels[None, :]
    max_self = float(deviation[same_basis].max())
    if n == 1:
        return max_self, 0.0, 0.0
    max_cross = float(deviation[~same_basis].max())
    cosines = overlaps[~same_basis]
    if norms is not None:
        cosines = cosines / np.outer(norms, norms)[~same_basis]
    angles = np.arccos(np.clip(cosines, -1.0, 1.0))
    return max_self, max_cross, float(np.max(np.abs(angles - np.arccos(1.0 / d))))


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
    and spectrum.  Never raises on bad numbers, only on malformed shapes: a
    corrupted family yields a failing report.
    """
    _check_tolerance(tolerance)
    n, d = family.num_bases, family.dim
    hermiticity, _, traces = family.invariants
    trace_residual = float(traces.max())
    # The exact eigenvalues, from the family's cached spectrum of the
    # symmetrized stack: a non-Hermitian matrix shows up in its defect, not
    # as a crash here.
    min_eig = float(family.spectrum.eigenvalues[:, -1].min())

    vectors = family.as_vectors()
    gram_complex = vectors.conj() @ vectors.T
    gram = gram_complex.real
    # Trace products of Hermitian matrices are real; any imaginary leakage
    # is another symptom of broken Hermitian symmetry.
    hermiticity = max(float(hermiticity.max()), float(np.max(np.abs(gram_complex.imag))))

    norms = np.sqrt(np.einsum("ij,ij->i", vectors.conj(), vectors).real)
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
    Rejects vectors whose norm deviates from 1 beyond ``tolerance``; the
    overlap targets assume normalization, so checking unnormalized input
    would misreport.
    """
    _check_tolerance(tolerance)
    arr = np.asarray(states, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected states shaped (num_bases, d, d), got {arr.shape}")
    n, d = arr.shape[0], arr.shape[1]
    if n < 1 or n > d + 1:
        raise ValueError(f"num_bases must lie in 1..d+1 = 1..{d + 1}, got {n}")

    flat = arr.reshape(n * d, d)
    norms = np.linalg.norm(flat, axis=1)
    trace_residual = float(np.max(np.abs(norms**2 - 1.0)))
    if not trace_residual <= tolerance:  # a NaN residual is not normalized either
        worst = int(np.argmax(np.abs(norms**2 - 1.0)))
        raise ValueError(
            f"state (basis {worst // d}, vector {worst % d}) is not normalized: "
            f"squared norm deviates by {trace_residual:.3e}"
        )

    # The squared overlap is exactly the trace product of the rank-1
    # projectors these states generate, and also the cosine between them.
    overlap_sq = np.abs(flat.conj() @ flat.T) ** 2
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
