"""Biquadratic fields Q(sqrt(a), sqrt(b)) as coprime squarefree triples.

A field is stored as (m, a1, b1) with m = gcd(|a|, |b|) > 0 and
a = m*a1, b = m*b1.  Its three quadratic subfields have squarefree
kernels m*a1, m*b1 and a1*b1, and the field discriminant is the product
of the three fundamental discriminants.  Distinct triples can name the
same field (signs can migrate between components); the sorted
fundamental discriminants of the three subfields tell them apart.
"""

from __future__ import annotations

import math

from .arith import is_squarefree


class InvalidFieldError(ValueError):
    """Raised for inputs that do not define a genuine biquadratic field."""


def from_generators(a: int, b: int) -> tuple[int, int, int]:
    """The triple (m, a1, b1) of Q(sqrt(a), sqrt(b)) from squarefree
    generators a, b, as a plain tuple.

    Rejects quadratic degenerations: a or b equal to 1, or a == b (for
    squarefree inputs a*b is a perfect square exactly when a == b).
    """
    for g in (a, b):
        if g == 1:
            raise InvalidFieldError("generator 1 yields a quadratic, not biquadratic, field")
        if not is_squarefree(g):
            raise InvalidFieldError(f"generator {g} is not squarefree")
    if a == b:
        raise InvalidFieldError(f"generators {a}, {b} span a quadratic field")
    m = math.gcd(abs(a), abs(b))
    return m, a // m, b // m


def field_values(m: int, a1: int, b1: int) -> tuple[int, ...]:
    """(k1, k2, k3, d1, d2, d3, c, disc) of the field (m, a1, b1): the
    subfield kernels, their fundamental discriminants, the power of two
    c in {1, 4, 8} with disc = (c m |a1 b1|)^2, and the field
    discriminant.  Raises InvalidFieldError where _check rejects the
    triple, or where the parity law or that identity fails."""
    _check(m, a1, b1)
    k1, k2, k3 = m * a1, m * b1, a1 * b1
    one1, one2, one3 = k1 & 3 == 1, k2 & 3 == 1, k3 & 3 == 1
    d1 = k1 if one1 else 4 * k1
    d2 = k2 if one2 else 4 * k2
    d3 = k3 if one3 else 4 * k3
    ones = one1 + one2 + one3
    if ones == 3:
        c = 1
    elif ones == 1:
        c = 4
    elif ones == 0:
        c = 8
    else:
        # two kernels = 1 mod 4 force the third one too
        raise InvalidFieldError(f"kernel parity law violated for {_name(m, a1, b1)}")
    field_disc = abs(d1 * d2 * d3)
    root = c * m * abs(k3)
    if field_disc != root * root:
        raise InvalidFieldError(f"discriminant identity violated for {_name(m, a1, b1)}")
    return k1, k2, k3, d1, d2, d3, c, field_disc


def _check(m: int, a1: int, b1: int) -> None:
    """Raise InvalidFieldError unless (m, a1, b1) names a field: m >= 1,
    nonzero pairwise coprime components, and no kernel equal to 1 or
    repeated.  from_generators and oracle_row test squarefreeness."""
    if m < 1:
        raise InvalidFieldError(f"m must be positive, got {m}")
    if a1 == 0 or b1 == 0:
        raise InvalidFieldError("a1 and b1 must be nonzero")
    if math.gcd(m, a1) != 1 or math.gcd(m, b1) != 1 or math.gcd(a1, b1) != 1:
        raise InvalidFieldError(f"components of {_name(m, a1, b1)} are not pairwise coprime")
    # degenerate exactly when two subfield kernels collide or equal 1
    if a1 == b1 and abs(a1) == 1:
        raise InvalidFieldError(f"{_name(m, a1, b1)} has a repeated quadratic subfield")
    if m == 1 and 1 in (a1, b1):
        raise InvalidFieldError(f"{_name(m, a1, b1)} contains the kernel 1 (quadratic field)")


def _name(m: int, a1: int, b1: int) -> str:
    """The error-text form of the triple (m, a1, b1).  The name FieldTriple
    stays in it so that the pinned error texts keep their bytes."""
    return f"FieldTriple(m={m!r}, a1={a1!r}, b1={b1!r})"
