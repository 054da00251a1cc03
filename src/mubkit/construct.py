"""Closed-form complete families of mutually unbiased bases for prime dimension.

For prime d the d*d + d projectors of a complete family have explicit
entries: projector (a, alpha) of the d "rotated" bases has entry (p, q)
equal to exp(i pi (p - q) ((d - 2 - p - q) a - 2 alpha) / d) / d, and the
final basis is the computational one.  The phase exponent is an integer
multiple of pi/d, so it is computed in exact integer arithmetic modulo 2d
before touching floating point; equal phases are then bit-identical.  It
separates as g(p) - g(q) with g(p) = ((d - 2) a - 2 alpha) p - a p^2, so
a family is built one basis at a time, with one basis of scratch.

Primality is what makes the construction work: for composite d the same
formula produces bases that are not unbiased, so the entry point refuses
composite dimensions outright.  The module builds and does not certify:
:func:`mubkit.verify.verify_family` does, as the ``construct`` command
does before it writes a family.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

from .algebra import MubFamily, _check_family_size

__all__ = [
    "build_family",
    "is_prime",
    "w_coefficient",
]


# The first 13 primes.  Strong-probable-prime tests to these bases decide
# primality of every n below psi_13, the least composite that passes all 13
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017): 1 287 836 182 261 * 2 575 672 364 521.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, proven for every n below psi_13.

    Trial division by the 13 primes up to 41, then a strong-probable-prime
    test to each of them as base: O(log n) multiplications per base.  From
    psi_13 = 3 317 044 064 679 887 385 961 981 on, these bases could call a
    composite prime, so such n are refused with ValueError.
    """
    n = operator.index(n)
    if n >= _PSI_13:
        raise ValueError(f"primality is proven only below psi_13 = {_PSI_13}, got {n}")
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in _BASES:
        x = pow(base, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    allocated, and before primality is tested, so a huge d gets the size
    message whether or not :func:`is_prime` could decide it.

    Every phase exponent is an integer mod 2d, so the entries are gathered
    from a table of the 2d distinct coefficients; each table entry is
    computed exactly as :func:`w_coefficient` computes it, so the family
    is bit-identical to one assembled coefficient by coefficient.  Basis a
    gathers its (d, d, d) entries through the separable exponent
    g(p) - g(q), from the (d, d) integers g(p) of its d vectors, so the
    only scratch beside the family is one basis's index and entries; the
    family takes the array it was built in, without a copy.
    """
    if d >= 2:  # any smaller d gets the primality message
        _check_family_size(d + 1, d)
    if not is_prime(d):
        raise ValueError(f"closed-form construction requires prime d, got {d}")

    alpha, p = np.ogrid[:d, :d]
    table = np.array([_phase(k, d) / d for k in range(2 * d)])
    mats = np.zeros((d + 1, d, d, d), dtype=complex)
    for a in range(d):
        g = (((d - 2) * a - 2 * alpha) * p - a * p * p) % (2 * d)
        # g(p) - g(q) lies in (-2d, 2d); a negative index wraps to its residue mod 2d.
        mats[a] = table[g[:, :, None] - g[:, None, :]]
    labels = np.arange(d)
    mats[d, labels, labels, labels] = 1.0
    return MubFamily._own(mats)
