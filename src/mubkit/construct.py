"""Closed-form complete families of mutually unbiased bases for prime dimension.

For prime d the d*d + d projectors of a complete family have explicit
entries: projector (a, alpha) of the d "rotated" bases has entry (p, q)
equal to exp(i pi (p - q) ((d - 2 - p - q) a - 2 alpha) / d) / d, and the
final basis is the computational one.  The phase exponent is an integer
multiple of pi/d, so it is computed in exact integer arithmetic modulo 2d
before touching floating point; equal phases are then bit-identical.

Primality is what makes the construction work: for composite d the same
formula produces bases that are not unbiased, so the entry point refuses
composite dimensions outright.  The module builds and does not certify:
:func:`mubkit.verify.verify_family` does, as the ``construct`` command
does before it writes a family.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .algebra import MubFamily, _check_family_size

__all__ = [
    "build_family",
    "is_prime",
    "w_coefficient",
]


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


def build_family(d: int) -> MubFamily:
    """Construct the complete family of d + 1 bases in prime dimension ``d``.

    The d rotated bases come first and the computational basis last.  The
    family is returned uncertified: :func:`mubkit.verify.verify_family`
    certifies it.

    Dimensions whose (d + 1, d, d, d) projector array would exceed
    :data:`mubkit.algebra.MAX_FAMILY_BYTES` are refused before anything is
    allocated, and before primality is tested: trial division costs
    O(sqrt(d)), seconds from d = 10**16 on.

    Every phase exponent is an integer mod 2d, so the entries are gathered
    from a table of the 2d distinct coefficients; each table entry is
    computed exactly as :func:`w_coefficient` computes it, so the family
    is bit-identical to one assembled coefficient by coefficient.
    """
    if d >= 2:  # any smaller d gets the primality message
        _check_family_size(d + 1, d)
    if not is_prime(d):
        raise ValueError(f"closed-form construction requires prime d, got {d}")

    a, alpha, p, q = np.ogrid[:d, :d, :d, :d]
    exponent = ((p - q) * ((d - 2 - p - q) * a - 2 * alpha)) % (2 * d)
    table = np.array([_phase(k, d) / d for k in range(2 * d)])
    mats = np.zeros((d + 1, d, d, d), dtype=complex)
    mats[:d] = table[exponent]
    labels = np.arange(d)
    mats[d, labels, labels, labels] = 1.0
    return MubFamily(mats)
