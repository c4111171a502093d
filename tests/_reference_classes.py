"""Scalar reference for the kernel's class tables, ``_kernels._class_tables``.

These are the per-class functions the exact class sums in ``asymptotics``
used before they were computed over the kernel's tables, kept as plain
Python so the tests can compare the tables with them entry by entry: the
weight factor c of a class, whether its signed residues are failure
compatible, and its reciprocity sign u, a product of Kronecker symbols
and of the signs of quadratic reciprocity (``reciprocity_exponent``).
``class_index`` is the scalar encoder of a class id, the oracle for
``_kernels.class_labels``.
"""

from _reference_fields import kronecker

EVEN_SLOTS = (0, 1, 2, 3)
ODD_RESIDUES = (1, 3, 5, 7)


def class_index(sign2: int, sign3: int, even_slot: int, residues) -> int:
    """Flat index of a tuple class in the kernel tally arrays."""
    s = (0 if sign2 > 0 else 2) + (0 if sign3 > 0 else 1)
    ecode = ((residues[0] >> 1) << 4) | ((residues[1] >> 1) << 2) | (residues[2] >> 1)
    return ((s * 4 + even_slot) << 6) | ecode


def reciprocity_exponent(b: int) -> int:
    """0 if b = 1 mod 4 and 1 otherwise, for odd b (negative b reduced mod 4).

    This is the exponent that drives the sign in quadratic reciprocity:
    (m|n)(n|m) = (-1)^(reciprocity_exponent(m) * reciprocity_exponent(n)).
    """
    if b % 2 == 0:
        raise ValueError(f"argument must be odd, got {b}")
    return 0 if b % 4 == 1 else 1


def in_failure_class(even_slot: int, eps: tuple[int, int, int]) -> bool:
    """Membership of signed residues (mod 8) in the failure-compatible set.

    eps is the residue triple of the signed components.  With all
    components odd (slot 0): either all residues agree mod 4, or two are
    equal mod 8 and opposite to the third mod 4.  With an even component,
    the two odd residues must be equal mod 8.
    """
    if even_slot not in EVEN_SLOTS:
        raise ValueError("even_slot must be 0..3")
    if any(e not in ODD_RESIDUES for e in eps):
        raise ValueError(f"residues must lie in {ODD_RESIDUES}")
    e1, e2, e3 = eps
    if even_slot == 0:
        if e1 % 4 == e2 % 4 == e3 % 4:
            return True
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            if eps[i] == eps[j] and eps[i] % 4 == (-eps[k]) % 4:
                return True
        return False
    if even_slot == 1:
        return e2 == e3
    if even_slot == 2:
        return e1 == e3
    return e1 == e2


def u_factor(
    k1: int, k2: int, k3: int, even_slot: int, sign2: int, sign3: int
) -> int:
    """Reciprocity sign attached to a class: +1 or -1.

    For odd k1, k2, k3 this is
    (-1)^(nu(k1)nu(k2) + nu(k2)nu(k3) + nu(k3)nu(k1)) times the three
    Kronecker symbols (t2 | k2 k3)(t3 | k3 k1)(t4 | k1 k2), where the
    upper entries carry the factor of 2 of the even slot and the signs of
    the last two components.  Depends on the k_i only mod 8.
    """
    for k in (k1, k2, k3):
        if k % 2 == 0:
            raise ValueError(f"u_factor arguments must be odd, got {k}")
    if even_slot not in EVEN_SLOTS:
        raise ValueError("even_slot must be 0..3")
    n1, n2, n3 = (
        reciprocity_exponent(k1),
        reciprocity_exponent(k2),
        reciprocity_exponent(k3),
    )
    sign = -1 if (n1 * n2 + n2 * n3 + n3 * n1) % 2 else 1
    top2 = 2 if even_slot == 1 else 1
    top3 = (2 if even_slot == 2 else 1) * sign2
    top4 = (2 if even_slot == 3 else 1) * sign3
    return (
        sign
        * kronecker(top2, k2 * k3)
        * kronecker(top3, k3 * k1)
        * kronecker(top4, k1 * k2)
    )


def class_c(
    sign2: int,
    sign3: int,
    eps: tuple[int, int, int],
    even_slot: int,
    context: str = "mod8",
) -> int:
    """The scale factor c of a class.

    context "mod4": eps lies in {+1, -1}^3 (mod-4 sign classes of the odd
    parts) and the full {1, 4, 8} table applies.  context "mod8": eps lies
    in {1,3,5,7}^3 and only failure-compatible classes occur, collapsing
    the table to 1 (slot 0, all signed residues equal mod 4) or 4.
    """
    if context == "mod4":
        if any(e not in (1, -1) for e in eps):
            raise ValueError("mod4 context expects residues in {+1, -1}")
        e1, e2, e3 = eps[0], sign2 * eps[1], sign3 * eps[2]
        if even_slot == 0:
            return 1 if e1 == e2 == e3 else 4
        if even_slot == 1:
            return 4 if e2 == e3 else 8
        if even_slot == 2:
            return 4 if e1 == e3 else 8
        if even_slot == 3:
            return 4 if e1 == e2 else 8
        raise ValueError("even_slot must be 0..3")
    if context == "mod8":
        if any(e not in ODD_RESIDUES for e in eps):
            raise ValueError(f"mod8 context expects residues in {ODD_RESIDUES}")
        e1, e2, e3 = eps[0], (sign2 * eps[1]) % 8, (sign3 * eps[2]) % 8
        if even_slot == 0 and e1 % 4 == e2 % 4 == e3 % 4:
            return 1
        return 4
    raise ValueError(f"unknown context {context!r}")
