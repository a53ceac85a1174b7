"""Vectorized arithmetic on numpy arrays of ring element indices.

Used where brute-force scale demands it (naive enumeration oracles, closure
verification, code spans and dual-code sweeps).  Every ring is table-backed,
so element indices fit in ``uint8``; the functions operate on arrays whose
values are element indices.
"""

from __future__ import annotations

import numpy as np


def all_tuples(order, length):
    """All vectors in R^length as an (order**length, length) index array,
    in lexicographic order (first coordinate most significant)."""
    count = order ** length
    out = np.empty((count, length), dtype=np.uint8)
    x = np.arange(count, dtype=np.int64)
    for j in range(length - 1, -1, -1):
        out[:, j] = x % order
        x //= order
    return out


def fold_add(ring, arrays):
    """Ring sum of an iterable of equal-shape index arrays."""
    add = ring.add_np
    it = iter(arrays)
    acc = next(it)
    for a in it:
        acc = add[acc, a]
    return acc


def batch_matmul(ring, a, b):
    """Matrix product over the ring; a is (..., n, m), b is (..., m, p),
    broadcasting on the leading axes."""
    mul = ring.mul_np
    t = mul[a[..., :, :, None], b[..., None, :, :]]  # (..., n, m, p)
    return fold_add(ring, (t[..., k, :] for k in range(t.shape[-2])))


def batch_dot(ring, u, v):
    """Inner products along the last axis, broadcasting on the rest."""
    mul = ring.mul_np
    t = mul[u, v]
    return fold_add(ring, (t[..., k] for k in range(t.shape[-1])))


def row_keys(flat):
    """One fixed-width bytes key per row of a uint8 array, exact at any row
    length; keys sort like the rows read as tuples."""
    flat = np.ascontiguousarray(flat)
    return flat.view(np.dtype((np.void, flat.shape[-1])))[..., 0]
