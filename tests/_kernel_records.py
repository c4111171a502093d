"""The kernel's records, for the tests that read them.

The package delivers fields, deduplicated; these tests check the
kernel's one record per field that the dedup starts from, and the six
ordered records of each field, unfolded from it by
``enumeration.unfold_records``.
"""

import numpy as np

from biquad_hnp import _kernels
from biquad_hnp.arith import build_sieve
from biquad_hnp.enumeration import _sieve_root, unfold_records


def kernel_rows(X: int) -> np.ndarray:
    """The kernel's records (v1, v2, v3, disc, c, fails), one per field
    with disc <= X, from one kernel call; X must lie in [1, 2^63)."""
    root = _sieve_root(X)
    sieve = build_sieve(max(root, 1))
    spf = sieve.smallest_prime_factor
    slabs = _kernels._core_slabs(root, spf, sieve.mobius)
    _, _, records = _kernels.enumerate_block(slabs, root, spf, True)
    return records


def field_records(X: int) -> np.ndarray:
    """Records (v1, v2, v3, disc, c, fails) of every ordered tuple with
    disc <= X: the kernel's records, unfolded."""
    return unfold_records(kernel_rows(X))
