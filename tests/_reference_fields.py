"""Per-triple references for field keys, class labels and residue
symbols, used only by the tests.

``canonical_key`` is the scalar form of the key the dedup sorts by, and
``class_label`` the scalar form of the kernel's class of a triple; a
triple is the plain tuple (m, a1, b1).  ``jacobi`` and ``kronecker`` are
the textbook residue symbols and ``quadratic_discriminant`` the
fundamental discriminant of one kernel, the references the kernel's
symbols and ``fields.field_values`` are held against.
"""

from biquad_hnp.arith import is_squarefree
from biquad_hnp.fields import InvalidFieldError, field_values


def canonical_key(t: tuple[int, int, int]) -> tuple[int, int, int]:
    """Sorted fundamental discriminants; equal keys mean equal fields."""
    d = sorted(field_values(*t)[3:6])
    return (d[0], d[1], d[2])


def class_label(t: tuple[int, int, int]) -> tuple[int, int, int, tuple[int, int, int]]:
    """Sign / factor-of-2 / odd-residue class of a triple, as
    (sign2, sign3, even_slot, residues).

    At most one component is even (pairwise coprimality), so the factor
    of 2 sits in slot 0 (none), 1, 2 or 3.  Residues are the positive odd
    parts of the components mod 8.
    """
    m, a1, b1 = t
    even_slot = 0
    odd = []
    for i, v in enumerate((m, a1, b1), start=1):
        u = abs(v)
        if u % 2 == 0:
            even_slot = i
            u //= 2
        odd.append(u % 8)
    return (1 if a1 > 0 else -1, 1 if b1 > 0 else -1, even_slot, (odd[0], odd[1], odd[2]))


def quadratic_discriminant(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d)): d if d = 1 mod 4, else 4d."""
    if d in (0, 1):
        raise InvalidFieldError(f"{d} does not define a quadratic field")
    if not is_squarefree(d):
        raise InvalidFieldError(f"{d} is not squarefree")
    return d if d % 4 == 1 else 4 * d


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n.

    Binary reduction, no factorization.  Negative a is reduced mod n,
    which agrees with the product-of-Legendre-symbols definition.
    Returns 0 iff gcd(a, n) > 1.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"jacobi modulus must be odd and positive, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for any nonzero n.

    Extends jacobi by the sign rule (a|-1) = sign(a) and the 2-part rule
    (a|2) = 0 for even a, +1 for a = +-1 mod 8 and -1 for a = +-3 mod 8.
    """
    if n == 0:
        raise ValueError("kronecker modulus must be nonzero")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    if n == 1:
        return result  # jacobi(a, 1) = 1
    return result * jacobi(a, n)
