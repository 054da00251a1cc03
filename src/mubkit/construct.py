"""Closed-form complete families of mutually unbiased bases for prime dimension.

For prime d the d*d + d projectors of a complete family have explicit
entries: projector (a, alpha) of the d "rotated" bases has entry (p, q)
equal to exp(i pi (p - q) ((d - 2 - p - q) a - 2 alpha) / d) / d, and the
final basis is the computational one.  The phase exponent is an integer
multiple of pi/d, so it is computed in exact integer arithmetic modulo 2d
before touching floating point; equal phases are then bit-identical.

Primality is what makes the construction work: for composite d the same
formula produces bases that are not unbiased, so the entry point refuses
composite dimensions outright.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .algebra import MubFamily, _check_tolerance
from .verify import verify_family

__all__ = [
    "build_family",
    "computational_coefficient",
    "is_prime",
    "w_coefficient",
]


# Largest projector array, in bytes, that build_family or a search
# allocates.  A complete family takes 16 (d + 1) d^3 bytes, which outgrows
# memory long before anything else does; 1 GiB admits every prime d up to 89.
MAX_FAMILY_BYTES = 1 << 30


def is_prime(n: int) -> bool:
    """Trial-division primality test; fine for the small dimensions used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _phase(numerator: int, d: int) -> complex:
    """exp(i pi numerator / d) with the exponent reduced exactly mod 2d."""
    return cmath.exp(1j * math.pi * (numerator % (2 * d)) / d)


def w_coefficient(d: int, a: int, alpha: int, p: int, q: int) -> complex:
    """Coefficient (p, q) of projector (a, alpha) in one of the d rotated bases.

    ``a`` labels the basis (0..d-1), ``alpha`` the vector within it
    (0..d-1).  The diagonal entries are all 1/d; the phases encode the
    basis and vector labels.  Only defined for prime d; elsewhere the
    formula stops producing unbiased bases.
    """
    if not is_prime(d):
        raise ValueError(f"closed-form coefficients require prime d, got {d}")
    if not 0 <= a < d:
        raise ValueError(f"basis label must lie in 0..{d - 1}, got {a}")
    if not 0 <= alpha < d:
        raise ValueError(f"vector label must lie in 0..{d - 1}, got {alpha}")
    if not (0 <= p < d and 0 <= q < d):
        raise ValueError(f"entry indices must lie in 0..{d - 1}, got ({p}, {q})")
    exponent = (p - q) * ((d - 2 - p - q) * a - 2 * alpha)
    return _phase(exponent, d) / d


def computational_coefficient(d: int, alpha: int, p: int, q: int) -> complex:
    """Entry (p, q) of computational-basis projector ``alpha``: 1 iff p = q = alpha."""
    if not 0 <= alpha < d:
        raise ValueError(f"vector label must lie in 0..{d - 1}, got {alpha}")
    if not (0 <= p < d and 0 <= q < d):
        raise ValueError(f"entry indices must lie in 0..{d - 1}, got ({p}, {q})")
    return 1.0 + 0.0j if p == q == alpha else 0.0j


def build_family(
    d: int,
    include_computational: bool = True,
    tol: float = 1e-10,
    *,
    with_report: bool = False,
):
    """Construct a complete family in prime dimension ``d``.

    The result is self-certified: construction runs verify_family at
    ``tol`` and raises rather than hand out a family with violations.
    With ``include_computational`` the family has d + 1 bases (complete),
    otherwise just the d rotated ones.  With ``with_report`` the return
    value is (family, report), so a caller that shows the certificate
    need not verify a second time.

    Dimensions whose (num_bases, d, d, d) projector array would exceed
    :data:`MAX_FAMILY_BYTES` are refused before anything is allocated.

    Every phase exponent is an integer mod 2d, so the entries are gathered
    from a table of the 2d distinct coefficients; each table entry is
    computed exactly as :func:`w_coefficient` computes it, so the family
    is bit-identical to one assembled coefficient by coefficient.
    """
    _check_tolerance(tol)
    if not is_prime(d):
        raise ValueError(f"closed-form construction requires prime d, got {d}")

    num_bases = d + 1 if include_computational else d
    nbytes = num_bases * d**3 * np.dtype(complex).itemsize
    if nbytes > MAX_FAMILY_BYTES:
        raise ValueError(
            f"a family in dimension d = {d} needs {nbytes} bytes of projectors, "
            f"above the {MAX_FAMILY_BYTES}-byte limit"
        )
    a, alpha, p, q = np.ogrid[:d, :d, :d, :d]
    exponent = ((p - q) * ((d - 2 - p - q) * a - 2 * alpha)) % (2 * d)
    table = np.array([_phase(k, d) / d for k in range(2 * d)])
    mats = np.zeros((num_bases, d, d, d), dtype=complex)
    mats[:d] = table[exponent]
    if include_computational:
        labels = np.arange(d)
        mats[d, labels, labels, labels] = 1.0

    family = MubFamily(mats)
    report = verify_family(family, tolerance=tol)
    if not report.passed:
        raise ValueError(f"constructed family failed its own certificate: {report.summary()}")
    return (family, report) if with_report else family
