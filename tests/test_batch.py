"""The `_batch` kernels against element-by-element references through
`Ring.add` and `Ring.mul`, and the row keys at both of their widths."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from korthos import Mat, make_galois_field, make_zmod, systematic_from_A
from korthos import _batch

from helpers import ring_family

# the order-256 rings reach the largest flat-table index, 255 * 256 + 255;
# GF(2,8) is built on the AES modulus x^8 + x^4 + x^3 + x + 1
KERNEL_RINGS = ring_family() + [make_zmod(256),
                                make_galois_field(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))]
ring_ids = pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.literal)


def _scalar_dot(ring, u, v):
    """sum_j u[j] * v[j] by `Ring.add` and `Ring.mul`."""
    acc = ring.zero
    for x, y in zip(u, v):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


def _random(ring, shape, seed):
    return np.random.default_rng(seed).integers(0, ring.order, shape, dtype=np.uint8)


@ring_ids
def test_gather_is_the_table_on_every_pair(ring):
    x = np.arange(ring.order, dtype=np.uint8)
    for table, op in ((ring.add_np, ring.add), (ring.mul_np, ring.mul)):
        got = _batch._gather(table, x[:, None], x[None, :])
        assert got.dtype == np.uint8 and got.shape == (ring.order, ring.order)
        assert got.tolist() == [[op(a, b) for b in range(ring.order)]
                                for a in range(ring.order)]
        # a scalar operand broadcasts like an array
        top = ring.order - 1
        assert _batch._gather(table, top, x).tolist() == [op(top, b) for b in x.tolist()]


@ring_ids
def test_batch_matmul_matches_the_scalar_loops(ring):
    a = _random(ring, (2, 1, 3, 4), 1)
    b = _random(ring, (5, 4, 2), 2)
    a[0, 0] = b[0] = ring.order - 1
    got = _batch.batch_matmul(ring, a, b)
    assert got.dtype == np.uint8 and got.shape == (2, 5, 3, 2)
    for s, t, i, j in itertools.product(range(2), range(5), range(3), range(2)):
        assert got[s, t, i, j] == _scalar_dot(ring, a[s, 0, i], b[t, :, j])


@ring_ids
def test_batch_matmul_over_an_empty_inner_dimension_is_zero(ring):
    got = _batch.batch_matmul(ring, _random(ring, (2, 1, 3, 0), 3), _random(ring, (4, 0, 2), 4))
    assert got.dtype == np.uint8 and got.shape == (2, 4, 3, 2)
    assert (got == ring.zero).all()


@ring_ids
def test_batch_dot_matches_the_scalar_loops(ring):
    # the inner products of two sets of vectors, as the adjacency, the
    # closure's dot table and the naive oracle's row table take them
    u = _random(ring, (3, 1, 5), 5)
    v = _random(ring, (4, 5), 6)
    u[0, 0] = v[0] = ring.order - 1
    got = _batch.batch_matmul(ring, u[:, 0], v.T)
    assert got.dtype == np.uint8 and got.shape == (3, 4)
    for s, t in itertools.product(range(3), range(4)):
        assert got[s, t] == _scalar_dot(ring, u[s, 0], v[t])
    empty = _batch.batch_matmul(ring, _random(ring, (3, 1, 0), 7)[:, 0],
                                _random(ring, (4, 0), 8).T)
    assert empty.shape == (3, 4) and (empty == ring.zero).all()


@ring_ids
def test_fold_add_matches_the_scalar_loops(ring):
    # lengths whose halving rounds meet odd and even counts
    for length in (1, 2, 3, 6, 7, 24):
        t = _random(ring, (3, 4, length), length)
        got = _batch.fold_add(ring, t)
        assert got.shape == (3, 4)
        for s, u in itertools.product(range(3), range(4)):
            acc = ring.zero
            for x in t[s, u].tolist():
                acc = ring.add(acc, x)
            assert got[s, u] == acc
    empty = _batch.fold_add(ring, t[..., :0])
    assert empty.dtype == np.uint8 and empty.shape == (3, 4) and (empty == ring.zero).all()


# ---------------------------------------------------------------------------
# row keys

KEY_ORDERS = [2, 3, 4, 6, 15, 16, 17, 256]


def _bits(order):
    return max(1, (order - 1).bit_length())


def _key_cases():
    """(order, row length): the widest packed row, the narrowest byte row
    and the empty row for every order."""
    for order in KEY_ORDERS:
        widest = 64 // _bits(order)
        for length in (widest, widest + 1, 0):
            yield order, length


def _rows(order, length, seed):
    """Random rows with repeats, rows differing in one entry only, and the
    extreme rows, in random order."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, order, (60, length), dtype=np.uint8)
    near = base[:20].copy()
    if length:
        near[:10, 0] = (near[:10, 0].astype(int) + 1) % order
        near[10:, -1] = (near[10:, -1].astype(int) + 1) % order
    extreme = np.array([[0] * length, [order - 1] * length], dtype=np.uint8).reshape(2, length)
    rows = np.concatenate([base, base[:15], near, extreme])
    return rows[rng.permutation(len(rows))]


@pytest.mark.parametrize("order,length", list(_key_cases()), ids=str)
def test_row_keys_sort_and_match_like_the_rows(order, length):
    rows = _rows(order, length, order * 100 + length)
    keys = _batch.row_keys(rows, order)
    packed = length * _bits(order) <= 64
    assert keys.shape == (len(rows),)
    assert (keys.dtype == np.uint64) if packed else (keys.dtype.kind == "V")
    # a stable sort by key is the lexicographic sort of the rows
    by_key = np.argsort(keys, kind="stable")
    by_rows = np.lexsort(rows.T[::-1]) if length else np.arange(len(rows))
    assert by_key.tolist() == by_rows.tolist()
    # equal keys exactly for equal rows
    same_rows = (rows[:, None, :] == rows[None, :, :]).all(axis=-1)
    assert np.array_equal(keys[:, None] == keys[None, :], same_rows)
    # lookup finds every present row at its key and misses every absent one
    table = np.unique(keys)
    pos = _batch.lookup(table, keys)
    assert (pos >= 0).all() and (table[pos] == keys).all()
    present = set(map(tuple, rows.tolist()))
    absent = [r for r in _rows(order, length, 7).tolist() if tuple(r) not in present]
    assert absent or length == 0            # the empty row is the only row of length 0
    absent = np.array(absent, dtype=np.uint8).reshape(len(absent), length)
    assert (_batch.lookup(table, _batch.row_keys(absent, order)) == -1).all()
    # one row is one (0-d) key
    assert _batch.lookup(table, _batch.row_keys(rows[0], order)) == pos[0]
    # past PRODUCT_ROWS rows the packing runs column by column: the same keys
    copies = (_batch.PRODUCT_ROWS + 1) // len(rows) + 1
    assert np.array_equal(_batch.row_keys(np.tile(rows, (copies, 1)), order),
                          np.tile(keys, copies))


# (order, n) with n^2 entries of bit_length(order - 1) bits: exactly 64 bits
# (order 16 at n = 4, order 2 at n = 8), past 64 (order 17 at n = 4, Z256 at
# n = 3, order 5 at n = 5, order 2 at n = 9), within 64, and n = 1
PATH_KEY_CASES = [(16, 4), (2, 8), (17, 4), (256, 3), (5, 5), (2, 9), (6, 3), (4, 2),
                  (3, 1), (256, 1)]


@pytest.mark.parametrize("order,n", PATH_KEY_CASES, ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_path_keys_are_the_row_keys_of_the_formed_matrices(order, n, data):
    cands = data.draw(arrays(np.uint8, st.tuples(st.integers(0, 6), st.just(n)),
                             elements=st.integers(0, order - 1)), label="cands")
    paths = data.draw(arrays(np.intp, st.tuples(st.integers(0, 8 if len(cands) else 0),
                                                st.just(n)),
                             elements=st.integers(0, max(0, len(cands) - 1))), label="paths")
    for columns in (True, False):
        mats = cands[paths]                              # the vectors as rows
        if columns:
            mats = mats.swapaxes(1, 2)
        want = _batch.row_keys(mats.reshape(-1, n * n), order)
        for some in (paths, paths[:0]):
            got = _batch.path_keys(cands, some, order, columns)
            assert got.dtype == want.dtype and got.shape == (len(some),)
            assert got.tobytes() == want[:len(some)].tobytes()
        assert (want.dtype == np.uint64) is (n * n * _bits(order) <= 64)


def test_a_length_66_binary_code_spans_and_answers_on_byte_keys():
    # [I_2 : A] over GF(2) has 66 one-bit entries per word, past the 64 a
    # packed key holds
    gf2 = make_galois_field(2)
    rng = np.random.default_rng(66)
    a = rng.integers(0, 2, (2, 64)).tolist()
    code = systematic_from_A(Mat(gf2, 2, 64, [x for row in a for x in row]))
    assert code._keys.dtype.kind == "V"
    g = np.hstack([np.eye(2, dtype=int), np.array(a)])
    expected = {tuple(((u0 * g[0] + u1 * g[1]) % 2).tolist())
                for u0 in range(2) for u1 in range(2)}
    assert code.words == expected and code.size == 4
    for word in expected:
        assert word in code
        flipped = list(word)
        flipped[-1] ^= 1
        assert tuple(flipped) not in code
