import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korthos import (
    DimensionMismatchError,
    Mat,
    RingMismatchError,
    SizeCapError,
    classify_k_orthogonal,
    find_k,
    identity,
    is_left_k_orthogonal,
    is_right_k_orthogonal,
    make_r2,
    make_zmod,
    reversal,
    scalar_mat,
    zeros,
)
from korthos import _batch
from korthos.search import enumerate_naive, enumerate_semigroup

from helpers import all_matrices_array, det_rec, ring_family, scalar_matmul

Z6 = make_zmod(6)
R2 = make_r2()
V = R2.v
ONE_PLUS_V = R2.add(R2.one, V)


def z6_mats_3x3():
    return st.lists(st.integers(0, 5), min_size=9, max_size=9).map(
        lambda e: Mat(Z6, 3, 3, e)
    )


# ---------------------------------------------------------------------------
# constructors

def test_scalar_matrix_is_two_sided_orthogonal_for_idempotent_k():
    m = scalar_mat(R2, V, 2)
    cls = classify_k_orthogonal(m, V)
    assert cls.left_k and cls.right_k and cls.two_sided


def test_reversal_is_an_involution():
    j = reversal(Z6, 2)
    assert j.mul(j) == identity(Z6, 2)
    j4 = reversal(Z6, 4)
    assert j4.mul(j4) == identity(Z6, 4)


def test_zero_matrix_is_zero_orthogonal():
    z = zeros(Z6, 3, 3)
    assert classify_k_orthogonal(z, 0).two_sided


def test_from_text_round_trip():
    a = Mat.from_text(Z6, "2,5;1,2")
    assert a.to_text() == "2,5;1,2"
    b = Mat.from_text(R2, "v,0;1+v,1")
    assert b.entries == (V, 0, ONE_PLUS_V, R2.one)


def test_matrix_json_dict():
    a = Mat.from_text(Z6, "2,5;1,2")
    assert a.to_json_dict() == {
        "ring": "Z6", "rows": 2, "cols": 2, "entries": ["2", "5", "1", "2"],
    }


# ---------------------------------------------------------------------------
# worked matrices

def test_two_sided_5_orthogonal_over_z6():
    a = Mat.from_text(Z6, "2,5;1,2")
    five_i = scalar_mat(Z6, 5, 2)
    assert a.transpose().mul(a) == five_i
    assert a.mul(a.transpose()) == five_i


def test_right_only_v_orthogonal_matrix():
    a = Mat.from_text(R2, "v,0;1+v,1")
    assert a.mul(a.transpose()) == scalar_mat(R2, V, 2)
    assert a.transpose().mul(a) == Mat.from_text(R2, "1,1+v;1+v,1")
    cls = classify_k_orthogonal(a, V)
    assert cls.right_k and not cls.left_k and not cls.two_sided
    assert a.det() == V
    assert not a.is_invertible()
    # transposition swaps the one-sided flags
    tcls = classify_k_orthogonal(a.transpose(), V)
    assert tcls.left_k and not tcls.right_k


def test_circulant_two_sided_v_orthogonal():
    a = Mat.from_text(R2, "1+v,1;1,1+v")
    assert classify_k_orthogonal(a, V).two_sided


def test_three_by_three_self_orthogonal():
    b = Mat.from_text(R2, "1+v,0,1+v;1,v,1+v;v,v,0")
    assert classify_k_orthogonal(b, R2.zero).two_sided


# ---------------------------------------------------------------------------
# determinant and invertibility

def test_det_values():
    assert Mat.from_text(Z6, "2,5;1,2").det() == 5
    assert Mat.from_text(R2, "v,0;1+v,1").det() == V
    for ring in (Z6, R2):
        assert identity(ring, 3).det() == ring.one


def _dets_match_cofactor_expansion(ring, mats):
    n = mats.shape[-1]
    got = _batch.det(ring, mats)
    assert got.shape == mats.shape[:-2]
    want = [det_rec(ring, [e[i * n:(i + 1) * n] for i in range(n)])
            for e in mats.reshape(-1, n * n).tolist()]
    assert got.ravel().tolist() == want


@pytest.mark.parametrize("ring", ring_family(), ids=lambda r: r.literal)
def test_det_matches_cofactor_expansion_on_every_2x2(ring):
    _dets_match_cofactor_expansion(ring, all_matrices_array(ring, 2, 2))


@pytest.mark.parametrize("ring", [make_zmod(2), make_zmod(3), R2], ids=["Z2", "Z3", "R2"])
def test_det_matches_cofactor_expansion_on_every_3x3(ring):
    _dets_match_cofactor_expansion(ring, all_matrices_array(ring, 3, 3))


@given(n=st.integers(4, 6), data=st.data())
@settings(max_examples=30, deadline=None)
def test_det_matches_cofactor_expansion_on_large_z6_batches(n, data):
    count = data.draw(st.integers(1, 6))
    entries = data.draw(st.lists(st.integers(0, 5), min_size=count * n * n,
                                 max_size=count * n * n))
    mats = np.array(entries, dtype=np.uint8).reshape(count, n, n)
    _dets_match_cofactor_expansion(Z6, mats)


def test_det_errors():
    with pytest.raises(DimensionMismatchError):
        zeros(Z6, 2, 3).det()
    with pytest.raises(SizeCapError):
        identity(Z6, 7).det()


def test_det_cap_boundary_is_inclusive():
    assert identity(Z6, 6).det() == 1


def test_invertibility():
    assert not zeros(Z6, 2, 2).is_invertible()
    assert identity(Z6, 4).is_invertible()
    census = enumerate_semigroup(Z6, 2, 1, "two_sided")
    for m in census.elements:
        assert m.is_invertible()
        assert m.det() in (1, 5)
        assert Z6.mul(m.det(), m.det()) == 1


def test_det_multiplicative_all_2x2_pairs_over_z6():
    mats = all_matrices_array(Z6, 2, 2)          # (1296, 2, 2)
    mul, add = Z6.mul_np, Z6.add_np

    def det2(batch):
        a, b = batch[..., 0, 0], batch[..., 0, 1]
        c, d = batch[..., 1, 0], batch[..., 1, 1]
        neg = np.array([Z6.neg(x) for x in range(6)], dtype=mul.dtype)
        return add[mul[a, d], neg[mul[b, c]]]

    dets = det2(mats)
    chunk = 64
    for lo in range(0, len(mats), chunk):
        left = mats[lo:lo + chunk]
        prods = _batch.batch_matmul(Z6, left[:, None], mats[None, :])
        want = mul[dets[lo:lo + chunk, None], dets[None, :]]
        assert (det2(prods) == want).all()


@given(a=z6_mats_3x3(), b=z6_mats_3x3())
@settings(max_examples=60, deadline=None)
def test_det_multiplicative_random_3x3(a, b):
    assert a.mul(b).det() == Z6.mul(a.det(), b.det())


# ---------------------------------------------------------------------------
# algebraic laws

@given(a=z6_mats_3x3())
@settings(max_examples=50, deadline=None)
def test_transpose_involution(a):
    assert a.transpose().transpose() == a


@given(a=z6_mats_3x3(), b=z6_mats_3x3())
@settings(max_examples=60, deadline=None)
def test_transpose_antihomomorphism(a, b):
    assert a.mul(b).transpose() == b.transpose().mul(a.transpose())


def test_matmul_associative_all_2x2_triples_over_r2():
    mats = all_matrices_array(R2, 2, 2)          # 256 matrices
    prods = _batch.batch_matmul(R2, mats[:, None], mats[None, :])
    # every product is itself a 2x2 matrix; index it by its lexicographic rank
    weights = R2.order ** np.arange(3, -1, -1)
    table = (prods.reshape(256, 256, 4).astype(np.int64) * weights).sum(axis=-1)
    lhs = table[table, :]            # (i,j,k) -> P[P[i,j], k]
    rhs = table[:, table]            # (i,j,k) -> P[i, P[j,k]]
    assert (lhs == rhs).all()


def test_shape_and_ring_mismatch_errors():
    a = zeros(Z6, 2, 3)
    b = zeros(Z6, 2, 3)
    with pytest.raises(DimensionMismatchError):
        a.mul(b)
    with pytest.raises(RingMismatchError):
        zeros(Z6, 2, 2).mul(zeros(make_zmod(4), 2, 2))
    with pytest.raises(RingMismatchError):
        zeros(Z6, 2, 2) == zeros(make_zmod(4), 2, 2)


def test_equality_against_other_types_is_false_not_an_error():
    assert (zeros(Z6, 2, 2) == "nope") is False


def test_same_ring_different_descriptor_instances_interoperate():
    other = make_zmod(6)
    assert Mat.from_text(Z6, "1,2;3,4") == Mat.from_text(other, "1,2;3,4")


# ---------------------------------------------------------------------------
# k-orthogonality classification

def test_find_k_examples():
    got = find_k(Mat.from_text(Z6, "2,5;1,2"))
    assert got is not None
    k, cls = got
    assert k == 5 and cls.two_sided
    k, cls = find_k(identity(Z6, 3))
    assert k == 1 and cls.two_sided
    f2 = make_zmod(2)
    assert find_k(Mat.from_text(f2, "1,0;0,0")) is None


def test_left_k_orthogonal_det_squared_is_k_to_n():
    for ring, n, ks in [(R2, 2, list(R2.elements())), (Z6, 2, [0, 1, 3, 4, 5])]:
        for k in ks:
            census = enumerate_semigroup(ring, n, k, "left")
            for m in census.elements:
                d = m.det()
                # det^2 = k^n
                kn = ring.one
                for _ in range(n):
                    kn = ring.mul(kn, k)
                assert ring.mul(d, d) == kn
                if ring is R2:
                    # over a Boolean ring the determinant equals k itself
                    assert d == k


def test_scaling_preserves_orthogonality_for_idempotent_k():
    for k in R2.elements():  # every element of R2 is idempotent
        census = enumerate_semigroup(R2, 2, k, "left")
        for m in census.elements:
            assert is_left_k_orthogonal(m.scale(k), k)


def test_scaling_converse_fails_on_the_reversal_witness():
    # (1+v) * J2 is right (1+v)-orthogonal but J2 itself is not
    j = reversal(R2, 2)
    scaled = j.scale(ONE_PLUS_V)
    assert is_right_k_orthogonal(scaled, ONE_PLUS_V)
    assert not is_right_k_orthogonal(j, ONE_PLUS_V)
    a = Mat.from_text(R2, "0,1+v;1,v")
    assert is_right_k_orthogonal(a, ONE_PLUS_V)
    assert is_right_k_orthogonal(a.scale(ONE_PLUS_V), ONE_PLUS_V)


@pytest.mark.parametrize("ring", [R2, make_zmod(4)], ids=["R2", "Z4"])
def test_gram_predicates_match_matrix_products(ring):
    # the numpy Gram kernel against A^T A and A A^T from the scalar product
    for flat in all_matrices_array(ring, 2, 2).reshape(-1, 4).tolist():
        a = Mat(ring, 2, 2, flat)
        left, right = scalar_matmul(a.transpose(), a), scalar_matmul(a, a.transpose())
        for k in ring.elements():
            want = scalar_mat(ring, k, 2)
            assert is_left_k_orthogonal(a, k) == (left == want)
            assert is_right_k_orthogonal(a, k) == (right == want)


@given(a=z6_mats_3x3())
@settings(max_examples=60, deadline=None)
def test_gram_predicates_match_matrix_products_3x3(a):
    for k in range(6):
        want = scalar_mat(Z6, k, 3)
        assert is_left_k_orthogonal(a, k) == (scalar_matmul(a.transpose(), a) == want)
        assert is_right_k_orthogonal(a, k) == (scalar_matmul(a, a.transpose()) == want)


@pytest.mark.parametrize("ring", [make_zmod(2), make_zmod(3)])
def test_left_equals_right_for_k_one_over_fields(ring):
    left = enumerate_naive(ring, 2, ring.one, "left")
    right = enumerate_naive(ring, 2, ring.one, "right")
    assert left == right


def test_matrix_add_scale_neg():
    a = Mat.from_text(Z6, "1,2;3,4")
    b = Mat.from_text(Z6, "5,5;5,5")
    assert a.add(b) == Mat.from_text(Z6, "0,1;2,3")
    assert a.neg() == Mat.from_text(Z6, "5,4;3,2")
    assert a.scale(2) == Mat.from_text(Z6, "2,4;0,2")


@pytest.mark.parametrize("ring", ring_family(), ids=lambda r: r.literal)
def test_matrix_arithmetic_matches_the_scalar_loops(ring):
    rng = np.random.default_rng(ring.order)

    def draw(rows, cols):
        return Mat(ring, rows, cols, rng.integers(ring.order, size=rows * cols).tolist())

    for r, m, p in [(1, 1, 1), (2, 3, 2), (3, 1, 4), (2, 3, 0), (4, 4, 4)]:
        a, b, c = draw(r, m), draw(m, p), draw(r, m)
        k = int(rng.integers(ring.order))
        assert a.mul(b) == scalar_matmul(a, b)
        assert a.add(c) == Mat(ring, r, m, [ring.add(x, y) for x, y in zip(a.entries, c.entries)])
        assert a.neg() == Mat(ring, r, m, [ring.neg(x) for x in a.entries])
        assert a.scale(k) == Mat(ring, r, m, [ring.mul(k, x) for x in a.entries])
