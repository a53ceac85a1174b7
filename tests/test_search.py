import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korthos import (
    BudgetExceededError,
    InvalidParameterError,
    InvariantViolationError,
    Mat,
    NotApplicableError,
    RingMismatchError,
    SizeCapError,
    antiorthogonal_exists,
    census_table,
    circulant_characterization_check,
    classify_k_orthogonal,
    count_semigroup,
    disjoint_or_equal_check,
    enumerate_naive,
    enumerate_semigroup,
    gl_order_bruteforce,
    identity,
    make_galois_field,
    make_r2,
    make_zmod,
    reversal,
    scalar_mat,
    transpose_bijection_check,
    verify_closure,
    verify_group,
    verify_semigroup_isomorphism,
)
from korthos import _batch, search
from korthos.crt import split
from korthos.search import SIDES, SemigroupCensus, resolve_budget

from helpers import ring_family

Z6 = make_zmod(6)
R2 = make_r2()
F2 = make_zmod(2)
V = R2.v
ONE_PLUS_V = R2.add(R2.one, V)


def mats(ring, *texts):
    return {Mat.from_text(ring, t) for t in texts}


# ---------------------------------------------------------------------------
# enumeration

def test_lo2_v_census_matches_published_listing():
    census = enumerate_semigroup(R2, 2, V, "left")
    assert census.count == 8
    assert set(census.elements) == mats(
        R2,
        "v,0;0,v", "1,1+v;1+v,1", "0,v;v,0", "1+v,1;1,1+v",
        "1,0;1+v,v", "v,1+v;0,1", "0,1;v,1+v", "1+v,v;1,0",
    )


def test_lo2_one_plus_v_census_matches_published_listing():
    census = enumerate_semigroup(R2, 2, ONE_PLUS_V, "left")
    assert set(census.elements) == mats(
        R2,
        "1+v,0;0,1+v", "1,v;v,1", "0,1+v;1+v,0", "v,1;1,v",
        "1,0;v,1+v", "v,1+v;1,0", "0,1;1+v,v", "1+v,v;0,1",
    )


def test_f2_zero_orthogonal_censuses_match_listing():
    left = enumerate_semigroup(F2, 2, 0, "left")
    right = enumerate_semigroup(F2, 2, 0, "right")
    two = enumerate_semigroup(F2, 2, 0, "two_sided")
    assert set(left.elements) == mats(F2, "0,0;0,0", "1,1;1,1", "0,1;0,1", "1,0;1,0")
    assert set(right.elements) == mats(F2, "0,0;0,0", "1,1;1,1", "0,0;1,1", "1,1;0,0")
    assert set(two.elements) == mats(F2, "0,0;0,0", "1,1;1,1")


def test_two_sided_z6_n3_zero_count():
    census = enumerate_semigroup(Z6, 3, 0, "two_sided")
    assert census.count == 330


def test_left_equals_right_for_k_one():
    for ring in (Z6, R2):
        left = enumerate_semigroup(ring, 2, ring.one, "left")
        right = enumerate_semigroup(ring, 2, ring.one, "right")
        assert left.elements == right.elements


def test_degree_one_census():
    census = enumerate_semigroup(Z6, 1, 1, "left")
    assert [m.entries for m in census.elements] == [(1,), (5,)]


def test_census_metadata():
    census = enumerate_semigroup(Z6, 2, 1, "left")
    assert census.checks["identity_present"] is True
    assert census.checks["closure_verified"] is None
    assert scalar_mat(Z6, 1, 2) in census.element_set()
    assert census.nodes > 0
    other = enumerate_semigroup(Z6, 2, 4, "left")
    assert other.checks["identity_present"] is False


def test_census_elements_are_canonically_sorted():
    census = enumerate_semigroup(Z6, 2, 4, "left")
    ents = [m.entries for m in census.elements]
    assert ents == sorted(ents)


@pytest.mark.parametrize("ring", [R2, Z6], ids=["R2", "Z6"])
@pytest.mark.parametrize("side", ["left", "right", "two_sided"])
def test_census_array_is_canonical_and_matches_elements(ring, side):
    for k in ring.elements():
        census = enumerate_semigroup(ring, 2, k, side)
        arr = census.array
        assert arr.dtype == np.uint8 and arr.shape == (census.count, 2, 2)
        rows = [tuple(r) for r in arr.reshape(-1, 4).tolist()]
        assert rows == sorted(rows) and len(set(rows)) == len(rows)
        assert rows == [m.entries for m in census.elements]


def test_census_membership_by_binary_search():
    census = enumerate_semigroup(Z6, 2, 4, "left")
    assert census.elements[3] in census
    assert scalar_mat(Z6, 4, 2) in census
    assert identity(Z6, 2) not in census
    assert identity(Z6, 3) not in census


def test_membership_consistent_with_classifier():
    for k in (0, 1, 3, 4, 2):
        census = enumerate_semigroup(Z6, 2, k, "left")
        have = census.element_set()
        for m in enumerate_naive(Z6, 2, k, "left"):
            assert m in have
        for m in census.elements:
            assert classify_k_orthogonal(m, k).left_k


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        enumerate_semigroup(Z6, 0, 1, "left")
    with pytest.raises(InvalidParameterError):
        enumerate_semigroup(Z6, 2, 1, "sideways")
    with pytest.raises(Exception):
        enumerate_semigroup(Z6, 2, 7, "left")  # element out of range


DEGREE_CALLS = {
    "enumerate_semigroup": lambda n: enumerate_semigroup(Z6, n, 0),
    "census_table": lambda n: census_table(Z6, n),
    "enumerate_naive": lambda n: enumerate_naive(Z6, n, 0),
    "gl_order_bruteforce": lambda n: gl_order_bruteforce(Z6, n),
    "antiorthogonal_exists": lambda n: antiorthogonal_exists(Z6, n),
}


@pytest.mark.parametrize("entry", DEGREE_CALLS)
def test_degree_must_be_an_integer_of_at_least_one(entry):
    call = DEGREE_CALLS[entry]
    for n, message in [(True, "an integer, got bool"), (False, "an integer, got bool"),
                       (2.0, "an integer, got float"), ("2", "an integer, got str"),
                       (None, "an integer, got NoneType"), (0, ">= 1"), (-1, ">= 1")]:
        with pytest.raises(InvalidParameterError, match=f"degree n must be {message}"):
            call(n)
    call(np.int64(1))   # any integral type but bool is a degree


ELEMENT_CALLS = {
    "enumerate_semigroup": lambda k: enumerate_semigroup(Z6, 2, k),
    "enumerate_naive": lambda k: enumerate_naive(Z6, 2, k),
    "verify_semigroup_isomorphism": lambda k: verify_semigroup_isomorphism(Z6, 2, k),
    "Mat.from_rows": lambda k: Mat.from_rows(Z6, [[k, 0], [0, 1]]),
}


@pytest.mark.parametrize("entry", ELEMENT_CALLS)
def test_a_bool_is_not_a_ring_element(entry):
    # True == 1 and False == 0 as ints, but neither is an element index
    call = ELEMENT_CALLS[entry]
    for k in (True, False):
        with pytest.raises(RingMismatchError, match=f"{k} is not an element index of Z6"):
            call(k)
    call(1)


# ---------------------------------------------------------------------------
# oracle equivalence (the full sweep lives in the acceptance suite)

def test_pruned_equals_naive_spot():
    for k in range(6):
        for side in ("left", "right", "two_sided"):
            pruned = enumerate_semigroup(Z6, 2, k, side)
            naive = enumerate_naive(Z6, 2, k, side)
            assert pruned.elements == naive


def _naive_by_products(ring, n, k, side):
    """Reference sweep: form both Grams of every matrix with `batch_matmul`."""
    mats = _batch.all_tuples(ring.order, n * n).reshape(-1, n, n)
    at = mats.swapaxes(-1, -2)
    target = np.full((n, n), ring.zero, dtype=np.uint8)
    np.fill_diagonal(target, k)
    ok_left = (_batch.batch_matmul(ring, at, mats) == target).all(axis=(1, 2))
    ok_right = (_batch.batch_matmul(ring, mats, at) == target).all(axis=(1, 2))
    return mats[{"left": ok_left, "right": ok_right, "two_sided": ok_left & ok_right}[side]]


@pytest.mark.parametrize("ring,n", [(ring, n) for ring in ring_family() for n in (1, 2)]
                         + [(make_zmod(4), 3), (make_zmod(3), 3), (make_galois_field(2), 3),
                            (make_galois_field(2), 4)],   # two rows on each side of the join
                         ids=lambda x: getattr(x, "literal", str(x)))
@pytest.mark.parametrize("side", SIDES)
def test_naive_sweep_matches_forming_every_gram(ring, n, side):
    for k in ring.elements() if n < 3 else ring.idempotents():
        naive = search._naive_array(ring, n, k, side)
        expected = _naive_by_products(ring, n, k, side)
        assert naive.dtype == expected.dtype and naive.shape == expected.shape
        assert naive.tobytes() == expected.tobytes()


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("first", ["array", "_keys"])
def test_census_keys_are_the_keys_its_listing_sorted_by(side, first, monkeypatch):
    census = enumerate_semigroup(Z6, 2, 0, side)
    assert census.count > 1
    getattr(census, first)

    def refuse(*args):
        raise AssertionError("the listing keys every element once")

    with monkeypatch.context() as patch:
        patch.setattr(_batch, "row_keys", refuse)
        keys, array = census._keys, census.array
    assert np.array_equal(keys, _batch.row_keys(array.reshape(-1, 4), Z6.order))
    assert (keys[1:] > keys[:-1]).all()
    given = SemigroupCensus(Z6, 2, 0, side, array.copy())   # keyed on first use
    assert np.array_equal(given._keys, keys)


def test_census_sorts_a_given_array_once():
    # D = diag(5, 1) sorts after I, so {D, I} is not in canonical order
    d, ident = np.diag([5, 1]).astype(np.uint8), np.eye(2, dtype=np.uint8)
    census = SemigroupCensus(Z6, 2, 1, "left", np.stack([d, ident]))
    assert identity(Z6, 2) in census
    assert Mat.from_text(Z6, "5,0;0,1") in census
    assert Mat.from_text(Z6, "5,0;0,5") not in census
    assert census.array.tobytes() == np.stack([ident, d]).tobytes()
    assert (census._keys[1:] > census._keys[:-1]).all()
    assert verify_group(census)["is_group"] is True
    # duplicates are kept as given
    twice = SemigroupCensus(Z6, 2, 1, "left", np.stack([d, ident, d]))
    assert twice.count == 3
    assert twice.array.tobytes() == np.stack([ident, d, d]).tobytes()


@pytest.mark.parametrize("ring,n,k", [(Z6, 2, 0), (Z6, 2, 1), (R2, 2, V), (Z6, 3, 3)],
                         ids=["Z6-2-0", "Z6-2-1", "R2-2-v", "Z6-3-3"])
def test_reversed_arrays_give_the_same_answers(ring, n, k):
    listed = {side: enumerate_semigroup(ring, n, k, side) for side in SIDES}
    given = {side: SemigroupCensus(ring, n, k, side, c.array[::-1].copy())
             for side, c in listed.items()}
    for side in SIDES:
        assert np.array_equal(given[side].array, listed[side].array)
        assert np.array_equal(given[side]._keys, listed[side]._keys)
        assert all(a in given[side] for a in listed[side].elements)
        assert verify_group(given[side]) == verify_group(listed[side])
    assert transpose_bijection_check(given["left"], given["right"]) is True
    assert transpose_bijection_check(given["left"], listed["right"]) is True


@pytest.mark.parametrize("side", SIDES)
def test_keys_and_closure_form_no_array(side):
    # both kinds of census key and check their elements as paths through
    # their sorted vectors; `array` is formed only when asked for
    listed = enumerate_semigroup(Z6, 3, 0, side)
    given = SemigroupCensus(Z6, 3, 0, side, listed.array[::-1].copy())
    for census in (enumerate_semigroup(Z6, 3, 0, side), given):
        census._keys
        assert "array" not in census.__dict__
        assert verify_closure(census) is True
        assert "array" not in census.__dict__
        assert np.array_equal(census.array, listed.array)


def test_transpose_check_forms_no_array():
    left, right = (enumerate_semigroup(Z6, 3, 0, side) for side in ("left", "right"))
    assert transpose_bijection_check(left, right) is True
    assert "array" not in left.__dict__ and "array" not in right.__dict__


def test_naive_cap():
    with pytest.raises(BudgetExceededError):
        enumerate_naive(Z6, 3, 0, "left")  # 6^9 > the naive cap


# ---------------------------------------------------------------------------
# closure and group structure

def test_closure_of_idempotent_censuses():
    for ring, n, k in [(R2, 2, V), (Z6, 2, 4), (Z6, 2, 0), (R2, 2, R2.one)]:
        census = enumerate_semigroup(ring, n, k, "left")
        assert verify_closure(census) is True
        assert census.checks["closure_verified"] is True


def _closure_by_products(census):
    """Reference closure: form every product and look it up by row key."""
    arr, n = census.array, census.n
    keys = _batch.row_keys(arr.reshape(-1, n * n), census.ring.order)
    for part in _batch.chunks(len(arr), len(arr) * n ** 3):
        prod = _batch.batch_matmul(census.ring, arr[part, None], arr[None])
        if not np.isin(_batch.row_keys(prod.reshape(-1, n * n), census.ring.order), keys).all():
            return False
    return True


CLOSURE_CASES = (
    [(ring, n, k, side) for ring in ring_family() for n in (1, 2)
     for k in ring.elements() for side in SIDES]
    + [(ring, 3, k, side) for ring in (Z6, R2, make_zmod(4))
       for k in ring.idempotents() for side in SIDES]
    # 90 used columns: the state masks take two 64-bit words
    + [(make_zmod(10), 3, 1, "left")])


@pytest.mark.parametrize("ring,n,k,side", CLOSURE_CASES,
                         ids=lambda x: getattr(x, "literal", str(x)))
def test_closure_agrees_with_forming_every_product(ring, n, k, side):
    census = enumerate_semigroup(ring, n, k, side)
    assert verify_closure(census) is _closure_by_products(census)
    if ring.mul(k, k) == k:
        assert census.checks["closure_verified"] is True


@pytest.mark.parametrize("ring,k", [(Z6, 2), (make_zmod(8), 5), (make_zmod(5), 4)],
                         ids=["Z6-2", "Z8-5", "Z5-4"])
@pytest.mark.parametrize("side", SIDES)
def test_non_idempotent_censuses_are_not_closed(ring, k, side):
    # products of k-orthogonal matrices are k^2-orthogonal, so a nonempty
    # census with k^2 != k cannot be closed
    census = enumerate_semigroup(ring, 2, k, side)
    assert census.count > 0
    assert verify_closure(census) is False
    assert census.checks["closure_verified"] is False


def test_closure_over_two_mask_words_misses_a_removed_element():
    # LO_3(1, Z10) is a group on 90 used columns, two mask words; a finite
    # group less one element is not closed
    census = enumerate_semigroup(make_zmod(10), 3, 1, "left")
    assert census.count == 1440
    assert len(np.unique(census._paths[1])) == 90
    short = SemigroupCensus(census.ring, 3, 1, "left", census.array[1:])
    assert verify_closure(short) is _closure_by_products(short) is False


def test_prefix_tree_tables_are_charged_before_they_are_built():
    # four rows over 3 symbols: 2 * 3 entries for the root's table, then
    # (2 + 1) * 3 for the nodes (0,) and (1,), then (3 + 1) * 3 for the
    # three nodes of depth 2
    code = np.array([[0, 0, 1], [0, 2, 2], [1, 0, 0], [0, 0, 2]])
    tables = search._prefix_tree(code, 3, 6 + 9 + 12)
    assert [len(t) for t in tables] == [6, 9, 12]
    assert int(tables[-1].max()) == 4                  # the distinct rows
    with pytest.raises(BudgetExceededError, match="needs 27 table entries by depth 3"):
        search._prefix_tree(code, 3, 26)
    # a caller deriving 5 more entries per node (the CRT check's tables on
    # the direct candidates) is charged 8 per node
    assert len(search._prefix_tree(code, 3, 72, derived=5)) == 3
    with pytest.raises(BudgetExceededError, match="needs 72 table entries by depth 3"):
        search._prefix_tree(code, 3, 71, derived=5)


def test_non_idempotent_k_closure_is_reported_not_asserted():
    # products of 2-orthogonal matrices are 4-orthogonal over Z6, so the
    # (nonempty) k=2 census cannot be closed
    census = enumerate_semigroup(Z6, 2, 2, "left")
    assert census.count > 0
    assert verify_closure(census) is False
    assert scalar_mat(Z6, 2, 2) not in census.element_set()


@pytest.mark.parametrize("ring,n,k,side", [(Z6, 3, 4, "left"), (Z6, 3, 0, "right"),
                                           (Z6, 3, 0, "left"),
                                           (R2, 3, V, "two_sided"), (Z6, 2, 2, "left"),
                                           (make_zmod(8), 2, 5, "right")],
                         ids=lambda x: getattr(x, "literal", str(x)))
def test_closure_in_small_blocks_gives_the_same_answer(monkeypatch, ring, n, k, side):
    census = enumerate_semigroup(ring, n, k, side)
    expected = verify_closure(census)
    monkeypatch.setattr(_batch, "CHUNK", 64)
    assert verify_closure(census) is expected


def _hand_built(ring, n, *texts, side="left"):
    mats = sorted(Mat.from_text(ring, t).entries for t in texts)
    return SemigroupCensus(ring, n, 1, side, np.array(mats, dtype=np.uint8).reshape(-1, n, n))


def test_closure_compares_every_entry_of_wide_matrices():
    # over Z256 at n = 3 a matrix is 72 bits wide; D^2 = diag(4,1,1) is
    # missing from {I, D} although it differs from I in the first entry only
    z256 = make_zmod(256)
    ident = np.eye(3, dtype=np.uint8)
    d = ident.copy()
    d[0, 0] = 2
    census = SemigroupCensus(z256, 3, 1, "left", np.stack([ident, d]))
    assert verify_closure(census) is False


@pytest.mark.parametrize("side", SIDES)
def test_hand_built_sets_that_are_not_closed(side):
    # a product column the set never uses: D^2 has the column (4, 0)
    census = _hand_built(Z6, 2, "1,0;0,1", "2,0;0,1", side=side)
    assert verify_closure(census) is False
    # every product column is used, but the tuple is absent: X = [e1 e1] and
    # P = [e2 e1] map e1 and e2 into {e1, e2}, yet P^2 = [e1 e2] = I and
    # PX = [e2 e2] are not elements
    census = _hand_built(F2, 2, "1,1;0,0", "0,1;1,0", side=side)
    assert _closure_by_products(census) is False
    assert verify_closure(census) is False
    # all four matrices with columns in {e1, e2} are closed
    census = _hand_built(F2, 2, "1,1;0,0", "0,1;1,0", "1,0;0,1", "0,0;1,1", side=side)
    assert _closure_by_products(census) is True
    assert verify_closure(census) is True


def test_empty_census_is_closed():
    census = enumerate_semigroup(Z6, 1, 2, "left")      # 2 is not a square mod 6
    assert census.count == 0
    assert verify_closure(census) is True
    empty = SemigroupCensus(Z6, 3, 0, "right", np.zeros((0, 3, 3), dtype=np.uint8))
    assert verify_closure(empty) is True


def test_closure_over_the_budget_is_a_hard_error(monkeypatch):
    census = enumerate_semigroup(Z6, 3, 4, "left")
    used = len(np.unique(_batch.row_keys(census.array.swapaxes(1, 2).reshape(-1, 3), 6)))
    charge = census.count * used + census.count ** 2
    monkeypatch.setenv("KORTHOS_BUDGET", str(charge))
    assert verify_closure(census) is True
    monkeypatch.setenv("KORTHOS_BUDGET", str(charge - 1))
    with pytest.raises(BudgetExceededError,
                       match=f"closure of {census.count} elements over {used} columns "
                             f"needs {census.count * used} images and {census.count ** 2} "
                             f"product lookups, over the node budget of {charge - 1}"):
        verify_closure(census)


def _permutation_set(n, *maps):
    """A hand-built left census over F2 of the matrices A with A e_j =
    e_{f(j)}, one per map f; the product AB is the composite f_A(f_B)."""
    mats = sorted(np.eye(n, dtype=np.uint8)[:, list(f)].tobytes() for f in maps)
    return SemigroupCensus(F2, n, 1, "left",
                           np.frombuffer(b"".join(mats), np.uint8).reshape(-1, n, n))


def test_closure_has_no_width_limit():
    # the identity of degree n has n^n column tuples: 16^16 = 2^64 and
    # 20^20 > 2^86 fit no fixed-width code, and the tree needs none
    for n in (16, 20):
        assert verify_closure(SemigroupCensus(F2, n, 1, "left", np.eye(n, dtype=np.uint8)[None]))
    ident = list(range(16))
    swap = [1, 0] + ident[2:]             # an involution: {I, P} is closed
    census = _permutation_set(16, ident, swap)
    assert verify_closure(census) is _closure_by_products(census) is True
    cycle = [1, 2, 0] + ident[3:]         # C^2 is missing from {I, C}
    census = _permutation_set(16, ident, cycle)
    assert verify_closure(census) is _closure_by_products(census) is False


@pytest.mark.parametrize("n", [65, 70])
def test_closure_over_two_mask_words(n):
    # the n used columns take two 64-bit words; e_j is column n - 1 - j in
    # key order, so e_0 is in the second word
    ident = list(range(n))
    census = _permutation_set(n, ident, [1, 0] + ident[2:])
    assert verify_closure(census) is _closure_by_products(census) is True
    census = _permutation_set(n, ident, [1, 2, 0] + ident[3:])
    assert verify_closure(census) is _closure_by_products(census) is False
    # PQ = (..., n - 1, n - 1) agrees with P up to the last column
    census = _permutation_set(n, ident, ident[:-2] + [n - 1, n - 2], ident[:-2] + [n - 2, n - 2])
    assert verify_closure(census) is _closure_by_products(census) is False
    # P swaps e_0 and e_(n-1), Q maps both to e_(n-1): PQ = (0, 1, ..., n - 2, 0)
    # agrees with I up to its last column e_0, a bit of the second word
    swap = [n - 1] + ident[1:-1] + [0]
    onto = [n - 1] + ident[1:-1] + [n - 1]
    census = _permutation_set(n, ident, swap, onto)
    assert _first_dead_depth(census) == n
    assert verify_closure(census) is _closure_by_products(census) is False
    # adding PQ closes the set
    census = _permutation_set(n, ident, swap, onto, [0] + ident[1:-1] + [0])
    assert verify_closure(census) is _closure_by_products(census) is True


def test_closure_tests_every_distinct_map():
    # I and G = (0, 1, 1, 2, 4) share their first row and the image of the
    # first used column e_4, and I sorts first; G^2 = (0, 1, 1, 1, 4) is no
    # element, so G's map must be walked although I's passes
    census = _permutation_set(5, range(5), [0, 1, 1, 2, 4])
    assert verify_closure(census) is _closure_by_products(census) is False
    assert census.elements[0] == identity(F2, 5)


def _first_dead_depth(census):
    """The least j such that the first j columns of some product of two
    elements start no element (None when the set is closed)."""
    arr, n = census.array, census.n
    prefixes = {arr[e, :, :j].tobytes() for e in range(len(arr)) for j in range(n + 1)}
    prods = _batch.batch_matmul(census.ring, arr[:, None], arr[None]).reshape(-1, n, n)
    dead = [min(j for j in range(n + 1) if p[:, :j].tobytes() not in prefixes)
            for p in prods if p.tobytes() not in prefixes]
    return min(dead, default=None)


@pytest.mark.parametrize("maps,depth", [
    # {I, C} with C a 4-cycle: C^2 = (2, 3, 0, 1) starts with e_2, and no
    # element's first column is e_2
    (([0, 1, 2, 3], [1, 2, 3, 0]), 1),
    # {I, G} with G = (0, 1, 3, 0): G^2 = (0, 1, 0, 0) shares its first two
    # columns with both elements and its first three with none
    (([0, 1, 2, 3], [0, 1, 3, 0]), 3),
    # {I, P, H} with P = (1, 0, 2, 3) and H = (1, 0, 2, 2): PH, HP and H^2
    # are (0, 1, 2, 2), which agrees with I up to the last column
    (([0, 1, 2, 3], [1, 0, 2, 3], [1, 0, 2, 2]), 4),
], ids=["depth-1", "depth-n-1", "depth-n"])
def test_closure_when_a_product_prefix_dies(monkeypatch, maps, depth):
    census = _permutation_set(4, *maps)
    assert _first_dead_depth(census) == depth
    assert _closure_by_products(census) is False
    assert verify_closure(census) is False
    monkeypatch.setattr(_batch, "CHUNK", 64)
    assert verify_closure(census) is False


def test_group_structure_of_k_one_censuses():
    census = enumerate_semigroup(Z6, 2, 1, "left")
    verify_closure(census)
    report = verify_group(census)
    assert report["is_group"] is True
    assert census.count == 16
    assert report["identity"] == identity(Z6, 2)
    assert len(report["inverse_witnesses"]) == 16


def _group_by_search(census):
    """Reference group check: an inverse for every element, trying its
    transpose first and then every element."""
    ident = identity(census.ring, census.n)
    have = census.element_set()
    if ident not in have:
        return {"is_group": False, "identity": None, "inverse_witnesses": {}}
    witnesses = {}
    for a in census.elements:
        for b in [a.transpose(), *census.elements]:
            if b in have and a.mul(b) == ident and b.mul(a) == ident:
                witnesses[a] = b
                break
        else:
            return {"is_group": False, "identity": ident, "inverse_witnesses": {}}
    return {"is_group": True, "identity": ident, "inverse_witnesses": witnesses}


@pytest.mark.parametrize("ring", [Z6, R2], ids=["Z6", "R2"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("side", SIDES)
def test_group_witnesses_are_the_inverses_found_by_search(ring, n, side):
    for k in ring.elements():
        census = enumerate_semigroup(ring, n, k, side)
        report = verify_group(census)
        assert report == _group_by_search(census)
        assert report["is_group"] is (k == ring.one) is census.checks["is_group"]
        assert all(b == a.transpose() for a, b in report["inverse_witnesses"].items())


def test_hand_built_set_without_transposes_is_not_a_group():
    # I and the invertible D = diag(2, 1) over Z5: D D^T = diag(4, 1) is not I
    z5 = make_zmod(5)
    census = _hand_built(z5, 2, "1,0;0,1", "2,0;0,1")
    report = verify_group(census)
    assert report == {"is_group": False, "identity": identity(z5, 2), "inverse_witnesses": {}}
    assert census.checks["is_group"] is False


def test_klein_four_profile_of_o2_r2():
    census = enumerate_semigroup(R2, 2, R2.one, "two_sided")
    assert census.count == 4
    ident = identity(R2, 2)
    for m in census.elements:
        if m != ident:
            assert m.mul(m) == ident


def test_lo2_v_is_not_a_group():
    census = enumerate_semigroup(R2, 2, V, "left")
    report = verify_group(census)
    assert report["is_group"] is False
    assert census.checks["identity_present"] is False


# ---------------------------------------------------------------------------
# structural checks

def test_transpose_bijection():
    lo = enumerate_semigroup(R2, 2, V, "left")
    ro = enumerate_semigroup(R2, 2, V, "right")
    assert transpose_bijection_check(lo, ro)
    lo1 = enumerate_semigroup(Z6, 2, 1, "left")
    ro1 = enumerate_semigroup(Z6, 2, 1, "right")
    assert transpose_bijection_check(lo1, ro1)
    assert lo1.elements == ro1.elements  # k=1: the bijection is the identity map
    lo3 = enumerate_semigroup(Z6, 3, 3, "left")
    ro3 = enumerate_semigroup(Z6, 3, 3, "right")
    assert lo3.count == ro3.count == 630
    assert transpose_bijection_check(lo3, ro3)


def test_transpose_bijection_needs_a_left_and_a_right_census():
    # LO_2(0, Z4) is closed under transposition, so a check of lo against
    # itself would answer True for a bijection onto the right census that
    # it never compared
    z4 = make_zmod(4)
    lo, ro, two = (enumerate_semigroup(z4, 2, 0, side) for side in SIDES)
    for a, b in [(lo, lo), (ro, ro), (ro, lo), (lo, two), (two, ro)]:
        with pytest.raises(InvalidParameterError,
                           match=f"needs a left and a right census, got {a.side} and {b.side}"):
            transpose_bijection_check(a, b)
    assert transpose_bijection_check(lo, ro)


def test_disjoint_or_equal():
    assert disjoint_or_equal_check(R2, 2, ONE_PLUS_V, V) == "disjoint"
    assert disjoint_or_equal_check(R2, 2, V, V) == "equal"
    assert disjoint_or_equal_check(Z6, 2, 0, 3) == "disjoint"
    with pytest.raises(InvalidParameterError):
        disjoint_or_equal_check(Z6, 2, 2, 4)  # 2 is not idempotent


def test_circulant_characterization():
    for k in R2.elements():
        census = enumerate_semigroup(R2, 2, k, "two_sided")
        assert circulant_characterization_check(census) is True
    with pytest.raises(NotApplicableError):
        circulant_characterization_check(enumerate_semigroup(Z6, 2, 1, "two_sided"))
    with pytest.raises(NotApplicableError):
        circulant_characterization_check(enumerate_semigroup(R2, 2, V, "left"))


def test_two_sided_semigroups_generated_by_shifting_the_zero_census():
    # O_2(k, R2) = {X + k*J2 : X in O_2(0, R2)} for every k
    j = reversal(R2, 2)
    zero_census = enumerate_semigroup(R2, 2, R2.zero, "two_sided")
    for k in R2.elements():
        want = {x.add(j.scale(k)) for x in zero_census.elements}
        got = set(enumerate_semigroup(R2, 2, k, "two_sided").elements)
        assert want == got


def test_census_table_f2():
    rows = census_table(F2, 2)
    by_k = {r["k"]: r for r in rows}
    assert by_k["1"]["lo"] == 2 and by_k["1"]["o"] == 2


@pytest.mark.parametrize("ring,n", [(ring, n) for ring in ring_family() for n in (1, 2)]
                         + [(Z6, 3), (R2, 3)],
                         ids=lambda x: getattr(x, "literal", str(x)))
def test_census_table_matches_separate_searches(ring, n):
    rows = census_table(ring, n)
    assert [r["k"] for r in rows] == [ring.render(k) for k in ring.idempotents()]
    for row, k in zip(rows, ring.idempotents()):
        left = enumerate_semigroup(ring, n, k, "left")
        two = enumerate_semigroup(ring, n, k, "two_sided")
        assert (row["lo"], row["o"], row["diff"]) == (left.count, two.count,
                                                      left.count - two.count)
        assert row["nodes"] == left.nodes


def test_node_counts_are_pinned():
    # the walk visits multisets of columns: one node per sorted path
    assert enumerate_semigroup(Z6, 3, 0, "left").nodes == 1663
    assert enumerate_semigroup(Z6, 3, 4, "left").nodes == 836
    assert enumerate_semigroup(make_galois_field(3), 4, 1, "two_sided").nodes == 621


# ---------------------------------------------------------------------------
# antiorthogonal search

def test_no_3x3_antiorthogonal_over_z6():
    assert antiorthogonal_exists(Z6, 3) is None


def test_minus_one_is_not_a_square_in_z6():
    assert all(Z6.mul(x, x) != 5 for x in Z6.elements())


def test_antiorthogonal_witnesses():
    w = antiorthogonal_exists(Z6, 2)
    assert w is not None
    assert classify_k_orthogonal(w, 5).two_sided
    z4 = make_zmod(4)
    w4 = antiorthogonal_exists(z4, 4)
    assert w4 is not None
    assert classify_k_orthogonal(w4, 3).two_sided


def test_antiorthogonal_search_is_deterministic():
    assert antiorthogonal_exists(Z6, 2) == antiorthogonal_exists(Z6, 2)


# ---------------------------------------------------------------------------
# budget

def test_budget_exceeded_is_a_hard_error():
    with pytest.raises(BudgetExceededError):
        enumerate_semigroup(Z6, 3, 0, "left", budget=50)


def test_budget_error_names_the_limit_and_the_nodes_counted():
    # the candidate sweep over Z6^3 charges its 216 nodes in one step
    with pytest.raises(BudgetExceededError, match=r"budget of 50 \(216 nodes counted\)"):
        enumerate_semigroup(Z6, 3, 0, "left", budget=50)


def test_oversize_search_fails_before_sweeping():
    # 256^4 candidate vectors exceed the default budget: the charge comes
    # before the sweep, so nothing of that size is built or walked
    with pytest.raises(BudgetExceededError, match="4294967296 nodes counted"):
        enumerate_semigroup(make_zmod(256), 4, 0, "left")


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("KORTHOS_BUDGET", "50")
    with pytest.raises(BudgetExceededError):
        enumerate_semigroup(Z6, 3, 0, "left")
    monkeypatch.setenv("KORTHOS_BUDGET", "10000000")
    assert enumerate_semigroup(Z6, 2, 1, "left").count == 16


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
def test_invalid_budget_is_a_parameter_error(monkeypatch, value):
    monkeypatch.setenv("KORTHOS_BUDGET", value)
    with pytest.raises(InvalidParameterError, match="KORTHOS_BUDGET"):
        resolve_budget()
    monkeypatch.delenv("KORTHOS_BUDGET")
    with pytest.raises(InvalidParameterError):
        enumerate_semigroup(Z6, 2, 1, "left", budget=value)


# ---------------------------------------------------------------------------
# the blocked frontier: count-only and listing walks

WALK_CASES = ([(ring, n) for ring in ring_family() for n in (1, 2)]
              + [(Z6, 3), (R2, 3), (make_zmod(4), 3)])


def _crt_z6_count(n, k, side):
    """|X_n(k, Z6)| as the product of the naive Z2 and Z3 counts (CRT)."""
    return (len(enumerate_naive(F2, n, k % 2, side))
            * len(enumerate_naive(make_zmod(3), n, k % 3, side)))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_count_list_and_naive_agree(data):
    ring, n = data.draw(st.sampled_from(WALK_CASES), label="case")
    k = data.draw(st.sampled_from(list(ring.elements())), label="k")
    side = data.draw(st.sampled_from(SIDES), label="side")
    count, nodes = count_semigroup(ring, n, k, side)
    census = enumerate_semigroup(ring, n, k, side)
    assert (census.count, census.nodes) == (count, nodes)
    assert len(census.array) == count
    if ring.order ** (n * n) <= search.NAIVE_CAP:
        assert np.array_equal(census.array, search._naive_array(ring, n, k, side))
    else:
        assert count == _crt_z6_count(n, k, side)


def test_a_census_walks_once(monkeypatch):
    calls = []
    real = search._search

    def counting_search(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "_search", counting_search)
    census = enumerate_semigroup(Z6, 3, 0, "left")
    census.array, census._keys
    assert scalar_mat(Z6, 0, 3) in census
    assert verify_closure(census)
    assert len(calls) == 1
    # the CRT check walks its own census once; its factors are naive sweeps
    assert verify_semigroup_isomorphism(Z6, 3, 0, "left")["bijection_ok"]
    assert len(calls) == 2


def _block_words(census):
    return sum(p.size + leaves.size for p, leaves in census._blocks[1])


def test_past_the_cap_a_census_is_counted_but_not_listed(monkeypatch):
    # LO_3(0, Z15) lists 78,225 * 3 = 234,675 path words from 15,030 words of
    # leaf blocks: it lists at a cap of exactly its paths
    z15 = make_zmod(15)
    monkeypatch.setattr(search, "LIST_CAP", 234675)
    full = {side: enumerate_semigroup(z15, 3, 0, side) for side in SIDES}
    assert (full["left"].count * 3, _block_words(full["left"])) == (234675, 15030)
    monkeypatch.setattr(search, "LIST_CAP", 234674)
    capped = {side: enumerate_semigroup(z15, 3, 0, side) for side in ("left", "right")}
    for side, census in capped.items():
        assert census._blocks[1] is None
        assert (census.count, census.nodes, census.profile) == (
            full[side].count, full[side].nodes, full[side].profile)
    left = capped["left"]
    for use in (lambda: left.array, lambda: left._keys,
                lambda: identity(z15, 3) in left, lambda: verify_closure(left),
                lambda: transpose_bijection_check(left, full["right"]),
                lambda: transpose_bijection_check(full["left"], capped["right"])):
        with pytest.raises(SizeCapError, match="78225 elements.*234674 words"):
            use()
    # O_3(0, Z15) lists 4,785 * 3 = 14,355 path words from 15,030 words of
    # leaf blocks: it lists at a cap of exactly its blocks
    two = full["two_sided"]
    assert (two.count * 3, _block_words(two)) == (14355, 15030)
    monkeypatch.setattr(search, "LIST_CAP", 15030)
    assert enumerate_semigroup(z15, 3, 0, "two_sided").array.tobytes() == two.array.tobytes()
    monkeypatch.setattr(search, "LIST_CAP", 15029)
    capped = enumerate_semigroup(z15, 3, 0, "two_sided")
    assert capped._blocks[1] is None and capped.count == 4785
    with pytest.raises(SizeCapError, match="4785 elements.*15029 words"):
        capped.array


@pytest.mark.parametrize("ring,n", WALK_CASES, ids=lambda x: getattr(x, "literal", str(x)))
def test_unit_k_two_sided_census_is_the_left_census(ring, n):
    # A^T A = kI with k a unit makes A invertible, so A A^T = kI: the two
    # walks agree, and agree with the naive two-sided sweep where it runs
    for k in sorted(ring.units()):
        left = enumerate_semigroup(ring, n, k, "left")
        two = enumerate_semigroup(ring, n, k, "two_sided")
        assert (two.count, two.nodes, two.profile) == (left.count, left.nodes, left.profile)
        assert two.array.tobytes() == left.array.tobytes()
        if ring.order ** (n * n) <= search.NAIVE_CAP:
            assert np.array_equal(two.array, search._naive_array(ring, n, k, "two_sided"))


def test_large_counts_factor_over_the_residue_fields():
    # |LO_4(0, Z6)| = |LO_4(0, F2)| * |LO_4(0, F3)| = 736 * 51,201
    f3 = count_semigroup(make_zmod(3), 4, 0)[0]
    assert f3 == 51201
    census = enumerate_semigroup(Z6, 4, 0)
    assert census.count == len(enumerate_naive(F2, 4, 0)) * f3 == 37683936
    # its paths pass LIST_CAP: the census keeps no blocks and does not list
    assert census._blocks[1] is None
    with pytest.raises(SizeCapError, match=f"37683936 elements.*{search.LIST_CAP} words"):
        census.array


def test_the_listing_cap_admits_lo4_zero_over_r2():
    # LO_4(0, R2) lists 541,696 * 4 = 2,166,784 path words, within LIST_CAP;
    # LO_5(0, GF(3)) and LO_6(0, GF(2)) keep fewer words of leaf blocks, but
    # their paths pass it: they are counted and refuse to list
    census = enumerate_semigroup(R2, 4, 0)
    assert census.count * 4 == 2166784 <= search.LIST_CAP
    assert len(census._keys) == 541696
    for ring, n, count in [(make_galois_field(3), 5, 2332881), (F2, 6, 3810304)]:
        census = enumerate_semigroup(ring, n, 0)
        assert census.count == count and census._blocks[1] is None
        with pytest.raises(SizeCapError, match=f"{count} elements.*{search.LIST_CAP} words"):
            census._keys


def _isotropic_subspaces(q, n, r):
    """N_r, the number of r-dimensional totally isotropic subspaces of F_q^n
    for the dot product x.y, for r <= n // 2; there are none above.  Every
    exponent below is then >= 0, so the arithmetic stays in integers."""
    def s(m, r):                                  # prod_{i<r} (q^(2(m-i)) - 1)/(q^(i+1) - 1)
        return math.prod(q ** (2 * (m - i)) - 1 for i in range(r)) // math.prod(
            q ** (i + 1) - 1 for i in range(r))

    if q % 2 == 0:              # isotropic vectors span the hyperplane sum x_i = 0
        return s((n - 1) // 2, r) if n % 2 else (
            (s((n - 2) // 2, r - 1) if r else 0) + q ** r * s((n - 2) // 2, r))
    if n % 2:
        return s(n // 2, r)
    m = n // 2
    eps = 1 if m % 2 == 0 or q % 4 == 1 else -1   # (-1)^m a square in F_q
    top = math.prod((q ** (m - i) - eps) * (q ** (m - i - 1) + eps) for i in range(r))
    return top // math.prod(q ** (i + 1) - 1 for i in range(r))


def _onto(q, n, r):
    """The number of linear maps of F_q^n onto F_q^r: prod_{i<r} (q^n - q^i).
    At n = r it is |GL_r(F_q)|."""
    return math.prod(q ** n - q ** i for i in range(r))


def _lo_zero_over_a_field(q, n):
    """|LO_n(0, F_q)| = sum_r N_r prod_{i<r} (q^n - q^i): a matrix with
    A^T A = 0 maps F_q^n onto a totally isotropic subspace of dimension r,
    and N_r is the number of those subspaces, for the dot product x.y."""
    count = sum(_isotropic_subspaces(q, n, r) * _onto(q, n, r) for r in range(n // 2 + 1))
    assert type(count) is int
    return count


def _o_zero_over_a_field(q, n):
    """|O_n(0, F_q)| = sum_r N_r^2 |GL_r(F_q)|: A A^T = 0 as well makes the
    row space totally isotropic too, and A is fixed by its image U and its
    row space W, both of dimension r, and the isomorphism it induces from
    F_q^n / W^perp onto U."""
    count = sum(_isotropic_subspaces(q, n, r) ** 2 * _onto(q, r, r) for r in range(n // 2 + 1))
    assert type(count) is int
    return count


LO_ZERO_CASES = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 1), (3, 1, 2), (3, 1, 3),
                 (2, 2, 1), (2, 2, 2), (2, 2, 3), (5, 1, 1), (5, 1, 2), (7, 1, 2), (3, 2, 2)]


@pytest.mark.parametrize("p,r,n,side", [
    pytest.param(p, r, n, side, id=f"{p}-{r}-{n}" + ("" if side == "left" else "-two_sided"))
    for side in ("left", "two_sided") for p, r, n in LO_ZERO_CASES])
def test_lo_zero_closed_form_matches_the_naive_sweep(p, r, n, side):
    field = make_galois_field(p, r)
    closed = _lo_zero_over_a_field if side == "left" else _o_zero_over_a_field
    assert closed(p ** r, n) == len(search._naive_array(field, n, 0, side))


@pytest.mark.parametrize("q,n,count", [(2, 7, 272922112), (3, 6, 148069377)])
def test_orderly_walk_counts_past_the_sequence_walks_reach(monkeypatch, q, n, count):
    # a walk over sequences of columns passes the default budget on both
    monkeypatch.delenv("KORTHOS_BUDGET", raising=False)
    assert _lo_zero_over_a_field(q, n) == count
    census = enumerate_semigroup(make_galois_field(q), n, 0)
    assert census.count == count and census.nodes < search.DEFAULT_BUDGET
    assert census._blocks[1] is None            # count * n passes LIST_CAP


@pytest.mark.parametrize("p,r,n,count", [(2, 1, 5, 1576), (2, 1, 6, 72512), (2, 1, 7, 3661120),
                                         (3, 1, 5, 80001), (2, 2, 4, 5824), (5, 1, 4, 74305)])
def test_two_sided_walk_matches_the_o_zero_closed_form(monkeypatch, p, r, n, count):
    # two-sided walks with a non-unit k past n = 4, where the row test runs
    # at every leaf block of depth n - 1
    monkeypatch.delenv("KORTHOS_BUDGET", raising=False)
    assert _o_zero_over_a_field(p ** r, n) == count
    assert count_semigroup(make_galois_field(p, r), n, 0, "two_sided")[0] == count


@pytest.mark.parametrize("ring,n", [(ring, n) for ring in (make_zmod(4), Z6, R2)
                                    for n in (2, 3)],
                         ids=lambda x: getattr(x, "literal", str(x)))
@pytest.mark.parametrize("side", SIDES)
def test_repeated_columns_list_each_ordering_once(ring, n, side):
    # k = 0 leaves repeat columns (kI itself is one column n times), and
    # each leaf lists only its distinct orderings
    census = enumerate_semigroup(ring, n, 0, side)
    paths = census._paths[1]
    assert (paths[:, 1:] == paths[:, :-1]).any()
    assert len(np.unique(census._keys)) == census.count
    if ring.order ** (n * n) <= search.NAIVE_CAP:
        assert np.array_equal(census.array, search._naive_array(ring, n, 0, side))
    else:
        assert census.count == _crt_z6_count(n, 0, side)


def _walk_results():
    out = []
    for ring, n in [(Z6, 3), (R2, 3), (make_zmod(4), 3), (make_zmod(12), 2)]:
        for k in ring.idempotents():
            for side in SIDES:
                c = enumerate_semigroup(ring, n, k, side)
                out.append((ring.literal, n, k, side, c.count, c.nodes, c.array.tobytes()))
    for ring, n, k in [(make_galois_field(3), 4, 1), (F2, 5, 0), (R2, 4, V)]:
        c = enumerate_semigroup(ring, n, k, "two_sided")
        lo = next(r["lo"] for r in census_table(ring, n) if r["k"] == ring.render(k))
        out.append((c.count, c.nodes, lo, c.array.tobytes()))
    out.append(census_table(R2, 3))
    for ring, n in [(Z6, 2), (Z6, 3), (make_zmod(4), 4), (make_zmod(5), 2), (R2, 2)]:
        w = antiorthogonal_exists(ring, n)
        out.append(w.entries if w is not None else None)
    return out


def test_small_blocks_give_identical_results(monkeypatch):
    expected = _walk_results()
    shapes = []
    real_walk = search._walk

    def recording_walk(ring, cands, adj, n, k, counter, two_sided):
        for paths, children, leaves in real_walk(ring, cands, adj, n, k, counter, two_sided):
            shapes.append((len(paths), len(cands) + n * n))
            # one bit per candidate, the padding bits of the last word zero
            unpacked = _batch.unpack_bits(leaves, len(cands))
            assert np.array_equal(_batch.pack_bits(unpacked), leaves)
            yield paths, children, leaves

    monkeypatch.setattr(_batch, "CHUNK", 64)
    monkeypatch.setattr(search, "_walk", recording_walk)
    assert _walk_results() == expected
    # a block holds one row per node, and at most CHUNK entries unless a
    # single row is wider
    assert max(rows for rows, _ in shapes) > 1
    assert all(rows * width <= max(64, width) for rows, width in shapes)


@pytest.mark.parametrize("k", [0, 1])
def test_two_sided_leaves_compare_wide_keys(k):
    # over Z256 at n = 3 a row Gram is 72 bits, so the walk compares byte
    # keys; the candidates give products that differ from kI in one entry
    # only, first (16 e1, 16^2 = 0) or last (2 e3, 128 e1 + e3); kI's
    # columns are among them, as the walk checks
    z256, n = make_zmod(256), 3
    cands = np.array(sorted([(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 255), (0, 1, 0), (1, 0, 0),
                             (1, 0, 128), (16, 0, 0), (128, 0, 1), (255, 0, 0)]),
                     dtype=np.uint8)
    m = len(cands)
    assert _batch.row_keys(np.zeros((1, n * n), np.uint8), z256.order).dtype.kind == "V"
    counter = search._NodeCounter(10 ** 6, n)
    got = set()
    adj = _batch.pack_bits(np.ones((m, m), bool))
    for paths, _, leaves in search._walk(z256, cands, adj, n, k, counter, True):
        got.update((*map(int, paths[f]), int(j))
                   for f, j in zip(*np.nonzero(_batch.unpack_bits(leaves, m))))
    triples = np.array(list(np.ndindex(m, m, m)))
    mats = cands[triples].swapaxes(1, 2)                  # chosen vectors as columns
    gram = _batch.batch_matmul(z256, mats, mats.swapaxes(1, 2))
    want = {tuple(map(int, t)) for t, g in zip(triples, gram) if (g == k * np.eye(n)).all()}
    assert got == want and len(want) > 0
    assert counter.spent == m + m * m + m ** 3


def _walk_by_brute_force(ring, cands, adj, n, k, two_sided):
    """(leaves, nodes) of `_walk` over all tuples of candidate indices: a
    tuple is a node when adj[i_a, i_b] for every a < b, and a leaf when it
    has n entries and, two-sided, its columns have row Gram kI; leaves in
    lexicographic order."""
    m, tuples, nodes = len(cands), np.zeros((1, 0), np.intp), 0
    for _ in range(n):
        ok = np.ones((len(tuples), m), bool)
        for a in range(tuples.shape[1]):
            ok &= adj[tuples[:, a]]
        f, j = np.nonzero(ok)
        tuples = np.column_stack([tuples[f], j])
        nodes += len(tuples)
    if two_sided:
        mats = cands[tuples].swapaxes(1, 2)               # chosen vectors as columns
        gram = _batch.batch_matmul(ring, mats, mats.swapaxes(1, 2))
        tuples = tuples[(gram == np.diag(np.full(n, k))).all(axis=(1, 2))]
    return tuples, nodes


def _check_packed_walk(m, two_sided, orderly):
    # m candidates fill ceil(m / 64) words per row, the last one padded;
    # a sparse random adjacency, with kI's columns among the candidates and
    # pairwise adjacent, as the walk checks for idempotent k = 1; orderly,
    # row i admits only j >= i, as `_search` builds it
    rng = np.random.default_rng(m)
    vecs = _batch.all_tuples(Z6.order, 3)
    unit = [36, 6, 1]                                     # e1, e2, e3
    rest = rng.permutation(np.setdiff1d(np.arange(len(vecs)), unit))[:m - 3]
    cands = vecs[np.sort(np.concatenate([unit, rest]))]
    adj = rng.random((m, m)) < 0.15
    e = [int(np.flatnonzero((cands == vecs[u]).all(axis=1))[0]) for u in unit]
    adj[np.ix_(e, e)] = True
    if orderly:
        adj = np.triu(adj)
    counter = search._NodeCounter(10 ** 7, 3)
    got = []
    for paths, children, leaves in search._walk(Z6, cands, _batch.pack_bits(adj), 3, 1,
                                                counter, two_sided):
        unpacked = _batch.unpack_bits(leaves, m)
        assert np.array_equal(_batch.pack_bits(unpacked), leaves)   # padding bits stay 0
        assert not (leaves & ~children).any() and (two_sided or children is leaves)
        f, j = np.nonzero(unpacked)
        got.append(np.column_stack([paths[f], j]))
    want, nodes = _walk_by_brute_force(Z6, cands, adj, 3, 1, two_sided)
    assert np.array_equal(np.concatenate(got), want) and len(want) >= (1 if orderly else 6)
    assert counter.spent == nodes


@pytest.mark.parametrize("m", [63, 64, 65, 128, 129])
@pytest.mark.parametrize("two_sided", [False, True])
def test_packed_walk_at_word_boundaries(m, two_sided):
    _check_packed_walk(m, two_sided, orderly=False)


@pytest.mark.parametrize("m", [63, 64, 65, 128, 129])
@pytest.mark.parametrize("two_sided", [False, True])
def test_orderly_packed_walk_at_word_boundaries(m, two_sided):
    _check_packed_walk(m, two_sided, orderly=True)


def test_walks_without_deeper_nodes():
    # Z4 at n = 1 has no c with c^2 = 2: no candidate, and zero words per row
    assert count_semigroup(make_zmod(4), 1, 2, "two_sided") == (0, 4)
    # Z4 at n = 3, k = 3: the eight columns of odd entries are pairwise
    # non-orthogonal, so the walk stops at depth 1 (64 + 36 + 8 nodes)
    census = enumerate_semigroup(make_zmod(4), 3, 3, "two_sided")
    assert (census.count, census.nodes) == (0, 108)
    assert census.array.shape == (0, 3, 3)


# |LO_4(k, R2)|, |O_4(k, R2)| and the nodes of each two-sided walk, k = 0, v, 1, 1+v
R2_N4_ROWS = [
    {"k": "0", "lo": 541696, "o": 10816, "diff": 530880, "nodes": 40280},
    {"k": "v", "lo": 35328, "o": 4992, "diff": 30336, "nodes": 5920},
    {"k": "1", "lo": 2304, "o": 2304, "diff": 0, "nodes": 3392},
    {"k": "1+v", "lo": 35328, "o": 4992, "diff": 30336, "nodes": 5920},
]


def test_pinned_r2_rows_are_products_over_the_crt_factors():
    s = split(R2)
    naive = {(a, side): len(search._naive_array(f, 4, a, side))
             for f in s.factors for a in (0, 1) for side in ("left", "two_sided")}
    for row, k in zip(R2_N4_ROWS, R2.idempotents()):
        assert row["k"] == R2.render(k)
        parts = s.forward(k)
        assert row["lo"] == naive[parts[0], "left"] * naive[parts[1], "left"]
        assert row["o"] == naive[parts[0], "two_sided"] * naive[parts[1], "two_sided"]


@pytest.mark.parametrize("chunk", [_batch.CHUNK, 64])
def test_census_large_cases_are_pinned(monkeypatch, chunk):
    # at CHUNK = 64 a block holds one node
    monkeypatch.setattr(_batch, "CHUNK", chunk)
    assert census_table(R2, 4) == R2_N4_ROWS
    assert count_semigroup(make_zmod(5), 4, 4, "two_sided") == (28800, 13405)
    assert count_semigroup(make_galois_field(3), 4, 1, "two_sided") == (1152, 621)


@pytest.mark.parametrize("ring,n,k", [(Z6, 3, 4), (Z6, 1, 3), (R2, 2, V), (F2, 3, 0)],
                         ids=lambda x: getattr(x, "literal", str(x)))
@pytest.mark.parametrize("side", SIDES)
def test_missing_scalar_column_is_an_invariant_violation(monkeypatch, ring, n, k, side):
    real = search._column_candidates

    def without_k_en(ring, n, k, counter):
        cands = real(ring, n, k, counter)
        return cands[(cands[:, :-1] != 0).any(axis=1) | (cands[:, -1] != k)]

    monkeypatch.setattr(search, "_column_candidates", without_k_en)
    with pytest.raises(InvariantViolationError, match="scalar matrix missing"):
        enumerate_semigroup(ring, n, k, side)


def test_antiortho_search_reports_its_nodes():
    # no witness over Z6 at n = 3, so the search walks the whole tree
    assert search._antiorthogonal_search(Z6, 3) == (None, count_semigroup(Z6, 3, 5)[1])
    witness, nodes = search._antiorthogonal_search(Z6, 2)
    assert witness == antiorthogonal_exists(Z6, 2)
    assert 0 < nodes <= count_semigroup(Z6, 2, 5)[1]


def test_budget_error_carries_the_profile_per_stage():
    total = count_semigroup(Z6, 3, 0)[1]
    assert count_semigroup(Z6, 3, 0, budget=total)[1] == total
    with pytest.raises(BudgetExceededError) as err:
        count_semigroup(Z6, 3, 0, budget=total - 1)
    profile = err.value.profile
    assert list(profile) == ["candidates", "pairs", "depth 1", "depth 2", "depth 3"]
    assert profile["candidates"] == 216 and profile["depth 3"] > 0
    assert sum(profile.values()) == total
    assert str(err.value).endswith(
        "nodes counted): " + ", ".join(f"{s} {c}" for s, c in profile.items()))
    with pytest.raises(BudgetExceededError) as err:
        enumerate_semigroup(Z6, 3, 0, "left", budget=50)
    assert err.value.profile == {"candidates": 216, "pairs": 0, "depth 1": 0,
                                 "depth 2": 0, "depth 3": 0}


def test_huge_degree_is_refused_before_any_sweep():
    # n >= the budget's bit length proves |R|^n candidates over the budget,
    # so nothing is counted or formed; a message never formats a huge number
    for call in (lambda: count_semigroup(Z6, 10 ** 20, 0),
                 lambda: antiorthogonal_exists(Z6, 10 ** 7),
                 lambda: enumerate_naive(Z6, 10 ** 20, 0),
                 lambda: gl_order_bruteforce(Z6, 10 ** 20)):
        with pytest.raises(BudgetExceededError) as err:
            call()
        assert len(str(err.value)) < 200
    # 6^6000 has more than 4,300 digits
    with pytest.raises(BudgetExceededError, match="a 15510-bit number nodes counted"):
        count_semigroup(Z6, 6000, 0, budget=10 ** 4000)


# Linux keeps ru_maxrss across exec, so a child started from this (large)
# process would report at least our size: the child reads its own VmHWM.
_PRINT_PEAK = (
    "import json, resource\n"
    "try:\n"
    "    with open('/proc/self/status') as fh:\n"
    "        peak = int(next(ln for ln in fh if ln.startswith('VmHWM')).split()[1])\n"
    "except OSError:\n"
    "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "print(json.dumps([result, peak]))\n"
)


def _run_with_peak(code):
    """Run `code`, which sets `result`, in a fresh interpreter under the
    default budget; return [result, the child's peak resident size in kB]."""
    env = {key: val for key, val in os.environ.items() if key != "KORTHOS_BUDGET"}
    env["PYTHONPATH"] = str(Path(search.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code + _PRINT_PEAK], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_oversize_walk_fails_with_bounded_memory():
    # Z256 at n = 3 has 4,096 candidates and ~10^8 nodes; the walk must hit
    # the budget without buffering what it has walked (it peaks near 71 MB)
    raised, peak_kb = _run_with_peak(
        "from korthos import BudgetExceededError, enumerate_semigroup, make_zmod\n"
        "try:\n"
        "    enumerate_semigroup(make_zmod(256), 3, 0)\n"
        "    result = False\n"
        "except BudgetExceededError:\n"
        "    result = True\n"
    )
    assert raised
    assert peak_kb < 256 * 1024


def test_oversize_candidate_sweep_fails_with_bounded_memory():
    # Z2 at n = 26 has 2^26 candidate columns, within the default budget,
    # and 2^25 of them have <c, c> = 0; their pairs must hit the budget
    # before all 2^26 columns (1.7 GB as one array) are formed
    stage, peak_kb = _run_with_peak(
        "from korthos import BudgetExceededError, count_semigroup, make_zmod\n"
        "try:\n"
        "    count_semigroup(make_zmod(2), 26, 0)\n"
        "    result = None\n"
        "except BudgetExceededError as err:\n"
        "    result = [s for s, c in err.profile.items() if c][-1]\n"
    )
    assert stage == "pairs"
    assert peak_kb < 200 * 1024
