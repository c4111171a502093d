"""Per-triple references for field keys and class labels, used only by
the tests.

``canonical_key`` is the scalar form of the key the dedup sorts by, and
``class_label`` the scalar form of the kernel's class of a triple.
"""

from biquad_hnp.fields import FieldTriple, field_values


def canonical_key(t: FieldTriple) -> tuple[int, int, int]:
    """Sorted fundamental discriminants; equal keys mean equal fields."""
    d = sorted(field_values(*t)[3:6])
    return (d[0], d[1], d[2])


def class_label(t: FieldTriple) -> tuple[int, int, int, tuple[int, int, int]]:
    """Sign / factor-of-2 / odd-residue class of a triple, as
    (sign2, sign3, even_slot, residues).

    At most one component is even (pairwise coprimality), so the factor
    of 2 sits in slot 0 (none), 1, 2 or 3.  Residues are the positive odd
    parts of the components mod 8.
    """
    parts = (t.m, t.a1, t.b1)
    even_slot = 0
    odd = []
    for i, v in enumerate(parts, start=1):
        u = abs(v)
        if u % 2 == 0:
            even_slot = i
            u //= 2
        odd.append(u % 8)
    return (1 if t.a1 > 0 else -1, 1 if t.b1 > 0 else -1, even_slot, (odd[0], odd[1], odd[2]))
