"""Sort-everything reference for ``enumeration.unique_field_rows``.

This is an earlier dedup of every ordered record: a lexsort by (disc,
sorted fundamental discriminants, v1, v2, v3), keeping the first row of
each key.  It is kept as it was so the tests can compare it, run on the
six ordered records of each field, byte for byte (rows and keys) with
the package's dedup of one record per field.
"""

import numpy as np


def _fundamental(k: np.ndarray) -> np.ndarray:
    return np.where(k % 4 == 1, k, 4 * k)


def unique_field_rows(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One representative record per field, sorted by (disc, key).

    Returns (rows, keys) where keys holds the sorted fundamental
    discriminants.  The representative is the lexicographically smallest
    record of each field, so the result does not depend on how the
    enumeration was partitioned.
    """
    if len(records) == 0:
        return records.reshape(0, 6), np.empty((0, 3), dtype=np.int64)
    v1, v2, v3 = records[:, 0], records[:, 1], records[:, 2]
    keys = np.stack(
        (_fundamental(v1 * v2), _fundamental(v1 * v3), _fundamental(v2 * v3)), axis=1
    )
    keys.sort(axis=1)
    order = np.lexsort((v3, v2, v1, keys[:, 2], keys[:, 1], keys[:, 0], records[:, 3]))
    srec = records[order]
    skey = keys[order]
    first = np.ones(len(srec), dtype=bool)
    first[1:] = np.any(skey[1:] != skey[:-1], axis=1)
    return srec[first], skey[first]
