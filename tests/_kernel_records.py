"""The kernel's raw ordered-tuple records, for the tests that read them.

The package delivers fields, deduplicated; these tests check the six
ordered records of each field that the dedup starts from.
"""

import numpy as np

from biquad_hnp import _kernels
from biquad_hnp.arith import build_sieve
from biquad_hnp.enumeration import _sieve_root


def field_records(X: int) -> np.ndarray:
    """Records (v1, v2, v3, disc, c, fails) of every ordered tuple with
    disc <= X, from one kernel call; X must lie in [1, 2^63)."""
    root = _sieve_root(X)
    sieve = build_sieve(max(root, 1))
    _, _, records = _kernels.enumerate_block(
        1, root, root, sieve.smallest_prime_factor, sieve.mobius, True
    )
    return records
