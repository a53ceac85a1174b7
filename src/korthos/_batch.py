"""Vectorized arithmetic on numpy arrays of ring element indices.

Every ring is table-backed, so element indices fit in ``uint8``; the
functions operate on arrays whose values are element indices.  This is the
one place that does matrix arithmetic over a ring: `Mat` products, sums and
determinants, the search, the censuses, the orthogonality predicates,
closure, the CRT bijection, the GL sweep, code spans and dual joins all run
here.  `gram_is_scalar` is the one Gram test behind every k-orthogonality
check.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import SizeCapError

# entries of the widest temporary a chunked batch op builds
CHUNK = 1 << 22
# largest n whose n! permutations `det` sums
DET_CAP = 6


def chunks(total, width):
    """Slices covering range(total), each at most CHUNK // width long."""
    step = max(1, CHUNK // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, total, step)]


def all_tuples(order, length):
    """All vectors in R^length as an (order**length, length) index array,
    in lexicographic order (first coordinate most significant)."""
    out = np.empty((order ** length, length), dtype=np.uint8)
    for j in range(length):   # coordinate j runs through R in blocks of order**(length-1-j)
        view = out.reshape(order ** j, order, order ** (length - 1 - j), length)
        view[..., j] = np.arange(order, dtype=np.uint8)[:, None]
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


def det(ring, a):
    """Determinants of a (..., n, n) array by the Leibniz formula: the ring
    sum over the permutations s of sign(s) * prod_i a[i, s(i)]."""
    n = a.shape[-1]
    if n > DET_CAP:
        raise SizeCapError(f"determinant capped at {DET_CAP}x{DET_CAP}")
    perms, odd = _permutations(n)
    terms = a[..., np.arange(n), perms]          # (..., n!, n)
    prod = np.full(terms.shape[:-1], ring.one, dtype=np.uint8)
    for j in range(n):
        prod = ring.mul_np[prod, terms[..., j]]
    return fold_add(ring, np.where(odd, ring.neg_np[prod], prod))


@functools.cache
def _permutations(n):
    """The n! permutations of range(n) as rows, and which of them are odd;
    read-only, as every call shares them."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    odd = np.triu(perms[:, :, None] > perms[:, None, :]).sum(axis=(1, 2)) % 2 == 1
    perms.flags.writeable = odd.flags.writeable = False
    return perms, odd


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
    if flat.shape[-1] == 0:   # a key needs at least one byte; empty rows are all equal
        flat = np.zeros(flat.shape[:-1] + (1,), dtype=np.uint8)
    flat = np.ascontiguousarray(flat)
    return flat.view(np.dtype((np.void, flat.shape[-1])))[..., 0]


def lookup(table, keys):
    """Position of each key in the sorted array `table`, or -1 where the key
    is absent; keys of any shape, scalars included."""
    if len(table) == 0:
        return np.full(np.shape(keys), -1, dtype=np.intp)
    pos = np.asarray(np.searchsorted(table, keys))
    np.minimum(pos, len(table) - 1, out=pos)
    pos[table[pos] != keys] = -1
    return pos
