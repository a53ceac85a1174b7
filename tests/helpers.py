"""Shared fixtures, batched sweep utilities and scalar references for the
test suite."""

from __future__ import annotations

import numpy as np

from korthos import Mat, _batch
from korthos.rings import (
    make_galois_field,
    make_product,
    make_r2,
    make_v_extension,
    make_zmod,
)


def ring_family():
    """A representative spread of small rings for exhaustive property tests."""
    return [
        make_zmod(2),
        make_zmod(3),
        make_zmod(4),
        make_zmod(6),
        make_zmod(12),
        make_galois_field(2, 2),
        make_galois_field(3, 1),
        make_r2(),
        make_v_extension(make_galois_field(3, 1), "1"),
        make_product([make_zmod(2), make_zmod(3)]),
    ]


def all_matrices_array(ring, rows, cols):
    """Every rows x cols matrix over the ring as one index array."""
    return _batch.all_tuples(ring.order, rows * cols).reshape(-1, rows, cols)


def batched_gram(ring, mats, transposed=False):
    """Gram matrices of the rows (A A^T) or columns (A^T A) of a matrix batch."""
    at = mats.swapaxes(-1, -2)
    if transposed:
        return _batch.batch_matmul(ring, at, mats)
    return _batch.batch_matmul(ring, mats, at)


def batched_pairwise_all_zero(ring, words, chunk=4096):
    """For a batch of codeword sets words (g, M, n): True per g iff every
    pairwise inner product of codewords vanishes (i.e. C is weakly self-dual,
    straight from the definition)."""
    g = words.shape[0]
    out = np.empty(g, dtype=bool)
    for lo in range(0, g, chunk):
        w = words[lo:lo + chunk]
        t = _batch.batch_matmul(ring, w, w.swapaxes(-1, -2))
        out[lo:lo + chunk] = (t == ring.zero).all(axis=(1, 2))
    return out


def batched_words(ring, gens):
    """Spans of a generator batch gens (g, k, n) -> (g, |R|^k, n)."""
    k = gens.shape[-2]
    u = _batch.all_tuples(ring.order, k)           # (M, k)
    return _batch.batch_matmul(ring, u[None, :, :], gens)


# ---------------------------------------------------------------------------
# scalar references: element by element through Ring.add/mul/neg, no _batch

def scalar_matmul(a, b):
    """A B by the triple loop over `Ring.add` and `Ring.mul`."""
    R = a.ring
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = R.zero
            for t in range(a.cols):
                acc = R.add(acc, R.mul(a[i, t], b[t, j]))
            out.append(acc)
    return Mat(R, a.rows, b.cols, out)


def det_rec(R, rows):
    """Determinant of a list of rows by cofactor expansion along the first
    row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return R.sub(R.mul(rows[0][0], rows[1][1]), R.mul(rows[0][1], rows[1][0]))
    acc = R.zero
    rest = rows[1:]
    for j, a in enumerate(rows[0]):
        if a == R.zero:
            continue
        minor = [r[:j] + r[j + 1:] for r in rest]
        term = R.mul(a, det_rec(R, minor))
        acc = R.add(acc, term if j % 2 == 0 else R.neg(term))
    return acc
