"""Quadratic exponential sums and the factoring identity behind unbiasedness.

The cross-basis overlaps of the closed-form prime-dimension families reduce
to sums S(u, v, w) = sum_k exp(i pi (u k^2 + v k) / w) over k = 0..|w|-1.
When gcd(u, w) = 1, u w != 0, and u w + v is even, |S|^2 = |w| exactly;
instantiated with basis labels this is precisely the statement that two
distinct rotated bases are unbiased.  The parameter validation is therefore
not defensive fluff, it is the hypothesis of the identity, and every
instantiation asserts it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import _integer
from .construct import is_prime

__all__ = [
    "GaussSumParams",
    "check_factoring",
    "gauss_sum",
    "mub_gauss_params",
]


@dataclass(frozen=True)
class GaussSumParams:
    """Validated parameter triple (u, v, w) of a quadratic exponential sum.

    Construction fails unless gcd(u, w) = 1, u w != 0, and u w + v is even;
    those three conditions are exactly what the modulus identity
    |S(u, v, w)|^2 = |w| requires.  All violations are reported at once.
    Each of u, v and w is an integer, ``bool`` refused, stored as ``int``.
    """

    u: int
    v: int
    w: int

    def __post_init__(self):
        u, v, w = map(_integer, ("u", "v", "w"), (self.u, self.v, self.w))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        problems = []
        if u * w == 0:
            problems.append(f"u*w must be nonzero, got u={u}, w={w}")
        else:
            if math.gcd(u, w) != 1:
                problems.append(f"gcd(u, w) must be 1, got gcd({u}, {w}) = {math.gcd(u, w)}")
            if (u * w + v) % 2 != 0:
                problems.append(f"u*w + v must be even, got {u * w + v}")
        if problems:
            raise ValueError("invalid quadratic sum parameters: " + "; ".join(problems))

    @property
    def length(self) -> int:
        """Number of terms |w| in the sum."""
        return abs(self.w)


def gauss_sum(params: GaussSumParams) -> complex:
    """Evaluate sum_{k=0}^{|w|-1} exp(i pi (u k^2 + v k) / w) in O(log |w|) steps.

    Each step first maps (u, v) to (u - t w, v + t w) with t = round(u / w),
    which changes no term since k^2 - k is even, and reduces v mod 2|w|, so
    |u| <= |w| / 2.  The reciprocity law (Berndt, Evans & Williams, *Gauss
    and Jacobi Sums*, Thm 1.2.2) then gives
    S(u, v, w) = sqrt|w/u| exp(i pi (|u w| - v^2) / (4 u w)) S(-w, -v, u),
    a sum of at most half as many terms, down to the single term of |w| = 1.
    The factors sqrt|w/u| telescope to sqrt|w|, and the phases are summed
    as exact fractions mod 2, so one sine and cosine round once at the end.
    For parameters passing :class:`GaussSumParams` validation, which is
    the law's hypothesis and is kept by every step, |result|^2 = |w|.
    Raises ``ValueError`` for |w| above 2**1024 - 2**976, where sqrt|w|
    and |S|^2 could leave the float range.
    """
    u, v, w = params.u, params.v, params.w
    # 2**-48 below the float range: the few roundings of sqrt|w|, the phase
    # and |S| cannot carry |S|^2 past it from here down.
    if params.length > 2**1024 - 2**976:
        raise ValueError(
            "|w| must be at most 2**1024 - 2**976 (about 1.798e+308), the largest "
            "length accepted, so that sqrt|w| and |S|^2 stay finite floats"
        )
    modulus = math.sqrt(params.length)
    turns = Fraction(0)  # the phase, in units of pi, mod 2
    while abs(w) > 1:
        t = (2 * u + w) // (2 * w)  # round(u / w), in exact integers
        u, v = u - t * w, (v + t * w) % (2 * abs(w))
        turns = (turns + Fraction(abs(u * w) - v * v, 4 * u * w)) % 2
        u, v, w = -w, -v, u
    angle = math.pi * float(turns)
    return complex(modulus * math.cos(angle), modulus * math.sin(angle))


def mub_gauss_params(a: int, b: int, alpha: int, beta: int, d: int) -> GaussSumParams:
    """Parameters of the quadratic sum giving the overlap of two basis vectors.

    ``(a, alpha)`` and ``(b, beta)`` label vectors of two distinct rotated
    bases in prime dimension ``d``; the resulting sum S satisfies
    |S|^2 = d, which is the unbiasedness of the pair.  Requires integer
    labels (``bool`` refused) and a != b, since same-basis overlaps are not
    quadratic sums.  Validity of the resulting triple is asserted on every
    call, never assumed; on paper
    u*w + v = 2(a-b) + 2(alpha-beta) is even and 0 < |u| < d prime gives
    gcd(u, d) = 1, but the constructor re-checks both.
    """
    names = ("a", "b", "alpha", "beta")
    a, b, alpha, beta = map(_integer, names, (a, b, alpha, beta))
    if not is_prime(d):
        raise ValueError(f"quadratic-sum overlap parameters require prime d, got {d}")
    for name, label in zip(names, (a, b, alpha, beta)):
        if not 0 <= label < d:
            raise ValueError(f"label {name} must lie in 0..{d - 1}, got {label}")
    if a == b:
        raise ValueError(f"basis labels must differ, got a = b = {a}")
    u = a - b
    v = -(a - b) * (d - 2) + 2 * (alpha - beta)
    return GaussSumParams(u=u, v=v, w=d)


def check_factoring(a: int, b: int, alpha: int, beta: int, d: int) -> float:
    """Residual of the double-sum factoring identity for one label pair.

    The squared overlap of vectors (a, alpha) and (b, beta) has two
    expressions: a double sum over matrix indices (p, q) and |S|^2 / d^2
    for the single quadratic sum S of :func:`mub_gauss_params`.  Both are
    evaluated through independent code paths and the absolute difference is
    returned; for exact unbiasedness it is roundoff-sized, and |S|^2 / d^2
    itself equals 1 / d.
    """
    params = mub_gauss_params(a, b, alpha, beta, d)

    double_total = 0.0 + 0.0j
    for p in range(d):
        for q in range(d):
            exponent = (p - q) * ((d - 2 - p - q) * (b - a) + 2 * (alpha - beta))
            double_total += cmath.exp(1j * math.pi * exponent / d)
    double_form = double_total.real / (d * d)

    # Independent route: raw unreduced phases, plain accumulation.
    u, v, w = params.u, params.v, params.w
    single = sum(cmath.exp(1j * math.pi * (u * k * k + v * k) / w) for k in range(abs(w)))
    single_form = abs(single) ** 2 / (d * d)

    return abs(double_form - single_form)
