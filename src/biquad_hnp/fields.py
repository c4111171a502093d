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
from dataclasses import FrozenInstanceError
from typing import NamedTuple

from .arith import is_squarefree


class InvalidFieldError(ValueError):
    """Raised for inputs that do not define a genuine biquadratic field."""


class FieldTriple(NamedTuple("_Components", [("m", int), ("a1", int), ("b1", int)])):
    """Canonical generators (m, a1, b1); see module docstring.

    Construction checks coprimality, signs and nondegeneracy, which are
    cheap.  Squarefreeness of the components is the caller's contract
    (``from_generators`` and ``validate`` enforce it; the enumeration
    produces squarefree components by construction);
    ``enumeration.invalid_rows`` applies the same checks to int64 arrays.
    A tuple: it equals the plain tuple (m, a1, b1).
    """

    __slots__ = ()

    def __new__(cls, m: int, a1: int, b1: int) -> FieldTriple:
        _check(m, a1, b1)
        return tuple.__new__(cls, (m, a1, b1))

    @classmethod
    def _make(cls, iterable) -> FieldTriple:
        # namedtuple's _make, which _replace calls, skips __new__
        return cls(*iterable)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def kernels(self) -> tuple[int, int, int]:
        """Squarefree kernels of the three quadratic subfields."""
        m, a1, b1 = self
        return (m * a1, m * b1, a1 * b1)

    def validate(self) -> None:
        """Full invariant check including squarefreeness of each component."""
        for part in self:
            if not is_squarefree(part):
                raise InvalidFieldError(f"component {part} of {self} is not squarefree")


def quadratic_discriminant(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d)): d if d = 1 mod 4, else 4d."""
    if d in (0, 1):
        raise InvalidFieldError(f"{d} does not define a quadratic field")
    if not is_squarefree(d):
        raise InvalidFieldError(f"{d} is not squarefree")
    return d if d % 4 == 1 else 4 * d


def from_generators(a: int, b: int) -> FieldTriple:
    """Triple for Q(sqrt(a), sqrt(b)) from squarefree generators a, b.

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
    return FieldTriple(m=m, a1=a // m, b1=b // m)


def field_values(m: int, a1: int, b1: int) -> tuple[int, ...]:
    """(k1, k2, k3, d1, d2, d3, c, disc) of the field (m, a1, b1): the
    subfield kernels, their fundamental discriminants, the power of two
    c in {1, 4, 8} with disc = (c m |a1 b1|)^2, and the field
    discriminant.  Raises InvalidFieldError where FieldTriple(m, a1, b1)
    would, or where the parity law or that identity fails."""
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
    """Raise InvalidFieldError unless (m, a1, b1) passes FieldTriple's checks."""
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
    """The repr of FieldTriple(m, a1, b1), for error texts."""
    return f"FieldTriple(m={m!r}, a1={a1!r}, b1={b1!r})"
