"""Vectorized arithmetic on numpy arrays of ring element indices.

Every ring is table-backed, so element indices fit in ``uint8``; the
functions operate on arrays whose values are element indices.  The search,
the censuses, the orthogonality predicates, closure, the CRT bijection, code
spans and dual sweeps all run here.  `gram_is_scalar` is the one Gram test
behind every k-orthogonality check.
"""

from __future__ import annotations

import math

import numpy as np

# entries of the widest temporary a chunked batch op builds
CHUNK = 1 << 22


def chunks(total, width):
    """Slices covering range(total), each at most CHUNK // width long."""
    step = max(1, CHUNK // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, total, step)]


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


def fold_add(ring, t):
    """Ring sum of t along its last axis; zero when that axis is empty."""
    if t.shape[-1] == 0:
        return np.full(t.shape[:-1], ring.zero, dtype=np.uint8)
    add = ring.add_np
    acc = t[..., 0]
    for j in range(1, t.shape[-1]):
        acc = add[acc, t[..., j]]
    return acc


def batch_matmul(ring, a, b):
    """Matrix product over the ring; a is (..., n, m), b is (..., m, p),
    broadcasting on the leading axes."""
    t = ring.mul_np[a[..., :, None, :], b.swapaxes(-1, -2)[..., None, :, :]]
    return fold_add(ring, t)  # t is (..., n, p, m)


def batch_dot(ring, u, v):
    """Inner products along the last axis, broadcasting on the rest."""
    return fold_add(ring, ring.mul_np[u, v])


def gram_is_scalar(ring, vecs, k):
    """True where the r vectors of a (..., r, length) array have Gram
    matrix k*I, i.e. pairwise inner products 0 and self products k."""
    *lead, r, length = vecs.shape
    flat = vecs.reshape(math.prod(lead), r, length)
    target = np.full((r, r), ring.zero, dtype=np.uint8)
    np.fill_diagonal(target, k)
    out = np.empty(len(flat), dtype=bool)
    for part in chunks(len(flat), r * r * length):
        v = flat[part]
        gram = batch_matmul(ring, v, v.swapaxes(-1, -2))
        out[part] = (gram == target).all(axis=(-2, -1))
    return out.reshape(lead)


def row_keys(flat):
    """One fixed-width bytes key per row of a uint8 array, exact at any row
    length; keys sort like the rows read as tuples."""
    flat = np.ascontiguousarray(flat)
    return flat.view(np.dtype((np.void, flat.shape[-1])))[..., 0]
