"""Vectorized arithmetic on numpy arrays of ring element indices.

Every ring is table-backed, so element indices fit in ``uint8``; the
functions operate on arrays whose values are element indices.  This is the
one place that does matrix arithmetic over a ring: `Mat` products, sums and
determinants, the search, the censuses, the orthogonality predicates,
closure, the CRT bijection, the GL sweep, code spans and dual joins all run
here.  `gram_is_scalar` is the one Gram test of a given matrix; the search
tests its row Grams by comparing keys.

Every sum or product of index arrays is one gather from the flat table,
`_gather`: a ring has order q <= 256, so x*q + y is a ``uint16`` index.
`batch_matmul` is the one product; it sums its inner index term by term, so
no temporary outgrows the result.  `fold_add` sums a determinant's terms.
Sets of rows are held as `row_keys`, one ``uint64`` per row when the row
fits in 64 bits, and are matched by `lookup`; `path_keys` gives the same
keys for matrices held as paths through a candidate list, and `key_rows`
turns keys back into rows.  Sets of
candidates are `pack_bits` rows of ``uint64`` words, one bit per candidate.
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
# most rows `row_keys` packs by one product: between the row counts where
# its column loop overtakes the product for rows of 3 and of 16 entries
PRODUCT_ROWS = 1024


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


def _gather(table, x, y):
    """table[x, y] for a (q, q) ring table and index arrays (or scalars) x
    and y, broadcasting: one gather from the flat table at x*q + y.  That
    is at most 65,535, and NumPy 2 promotes uint8 operands times a uint16
    q to uint16, so the index is uint16.  `take` gathers by it directly,
    where fancy indexing would first cast it to intp on a slower path."""
    return table.ravel().take(x * np.uint16(table.shape[1]) + y)


def fold_add(ring, t):
    """Ring sum of t along its last axis; zero when that axis is empty.
    Each round adds the second half of the terms onto the first (an odd
    last term onto the first sum), so L terms take about log2 L gathers."""
    if t.shape[-1] == 0:
        return np.full(t.shape[:-1], ring.zero, dtype=np.uint8)
    while t.shape[-1] > 1:
        half = t.shape[-1] // 2
        sums = _gather(ring.add_np, t[..., :half], t[..., half:2 * half])
        if t.shape[-1] % 2:
            sums[..., 0] = _gather(ring.add_np, sums[..., 0], t[..., -1])
        t = sums
    return t[..., 0]


def batch_matmul(ring, a, b):
    """Matrix product over the ring; a is (..., n, m), b is (..., m, p),
    broadcasting on the leading axes.  The sum runs over the inner index,
    one (..., n, p) term at a time."""
    m = a.shape[-1]
    if m == 0:
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
        return np.full(shape, ring.zero, dtype=np.uint8)
    add, mul = ring.add_np, ring.mul_np
    acc = _gather(mul, a[..., :, 0, None], b[..., 0, None, :])
    for j in range(1, m):
        acc = _gather(add, acc, _gather(mul, a[..., :, j, None], b[..., j, None, :]))
    return acc


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
        prod = _gather(ring.mul_np, prod, terms[..., j])
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


def row_keys(flat, order):
    """One key per row of a uint8 array of indices below `order`: equal
    exactly for equal rows, and sorting like the rows read as tuples.

    A row of L entries of b = bit_length(order - 1) bits each packs first
    entry most significant into one uint64 when L*b <= 64, so keys compare
    as integers.  Up to `PRODUCT_ROWS` rows, one product with the weights
    2^(b*(L-1-j)) packs them (its terms occupy disjoint bits); more rows are
    packed column by column, 2L whole-array steps.  The product has the
    lower fixed cost and the loop the lower cost per row: the product is
    the faster below about 700 rows of 3 entries and 6,000 rows of 16.  A
    wider row keeps its L bytes as one fixed-width bytes key, the only
    exact key there.  Keys are comparable only between rows of the same
    length and order.
    """
    length = flat.shape[-1]
    bits = max(1, (order - 1).bit_length())
    if length * bits <= 64:
        if flat.size <= PRODUCT_ROWS * length:
            shifts = np.arange(length - 1, -1, -1, dtype=np.uint64) * np.uint64(bits)
            return np.matmul(flat, np.left_shift(np.uint64(1), shifts), dtype=np.uint64)
        keys = np.zeros(flat.shape[:-1], dtype=np.uint64)
        for j in range(length):
            keys <<= bits
            keys |= flat[..., j]
        return keys
    flat = np.ascontiguousarray(flat)
    return flat.view(np.dtype((np.void, length)))[..., 0]


def key_rows(keys, order, length):
    """The (count, length) uint8 rows whose `row_keys` are `keys`: a packed
    key is unpacked entry by entry, a bytes key is its own entries."""
    if keys.dtype.kind == "V":
        return np.ascontiguousarray(keys).view(np.uint8).reshape(-1, length).copy()
    bits = max(1, (order - 1).bit_length())
    rows, entry = np.empty((len(keys), length), np.uint8), np.empty(len(keys), np.uint64)
    for j in range(length):
        np.right_shift(keys, np.uint64(bits * (length - 1 - j)), out=entry)
        rows[:, j] = np.bitwise_and(entry, np.uint64((1 << bits) - 1), out=entry)
    return rows


def path_keys(cands, paths, order, columns=True):
    """`row_keys` of the (count, n, n) matrices whose columns (rows unless
    `columns`) are the vectors cands[paths], without forming them.

    Vector j of a matrix sits at the key positions of vector 0 shifted by
    j entries (a column) or j*n entries (a row), so each candidate is
    spread once onto vector 0's positions and a key is the OR of the n
    shifted spreads along its path.  Where `row_keys` keeps byte keys, the
    matrices are formed and keyed by it.
    """
    n = cands.shape[-1]
    bits = max(1, (order - 1).bit_length())
    if n * n * bits > 64:
        mats = cands[paths]
        return row_keys((mats.swapaxes(1, 2) if columns else mats).reshape(-1, n * n), order)
    stride = n if columns else 1                 # entry i of vector 0 is entry i*stride
    spread = np.zeros(len(cands), dtype=np.uint64)
    for i in range(n):
        spread |= cands[:, i].astype(np.uint64) << np.uint64((n * n - 1 - i * stride) * bits)
    step = bits if columns else n * bits
    keys = np.zeros(len(paths), dtype=np.uint64)
    for j in range(n):
        keys |= spread[paths[:, j]] >> np.uint64(step * j)
    return keys


def pack_bits(rows):
    """A (..., m) bool array as (..., ceil(m / 64)) uint64 words: bit j of a
    row is bit j % 64 of word j // 64, and the padding bits are zero."""
    packed = np.packbits(rows, axis=-1, bitorder="little")
    words = np.zeros(rows.shape[:-1] + (8 * -(-rows.shape[-1] // 64),), dtype=np.uint8)
    words[..., :packed.shape[-1]] = packed
    return words.view("<u8")


def unpack_bits(words, m):
    """The (..., m) bool rows that `pack_bits` packed into `words`."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=m, bitorder="little").view(bool)


def lookup(table, keys):
    """Position of each key in the sorted array `table`, or -1 where the key
    is absent; keys of any shape, scalars included."""
    if len(table) == 0:
        return np.full(np.shape(keys), -1, dtype=np.intp)
    pos = np.asarray(np.searchsorted(table, keys))
    np.minimum(pos, len(table) - 1, out=pos)
    pos[table[pos] != keys] = -1
    return pos
