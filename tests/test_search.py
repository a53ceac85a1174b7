import json
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
    antiorthogonal_exists,
    census_table,
    circulant_characterization_check,
    classify_k_orthogonal,
    count_semigroup,
    disjoint_or_equal_check,
    enumerate_naive,
    enumerate_semigroup,
    identity,
    make_galois_field,
    make_r2,
    make_zmod,
    reversal,
    scalar_mat,
    transpose_bijection_check,
    verify_closure,
    verify_group,
)
from korthos import _batch, search
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


# ---------------------------------------------------------------------------
# oracle equivalence (the full sweep lives in the acceptance suite)

def test_pruned_equals_naive_spot():
    for k in range(6):
        for side in ("left", "right", "two_sided"):
            pruned = enumerate_semigroup(Z6, 2, k, side)
            naive = enumerate_naive(Z6, 2, k, side)
            assert pruned.elements == naive


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
    keys = _batch.row_keys(arr.reshape(-1, n * n))
    for part in _batch.chunks(len(arr), len(arr) * n ** 3):
        prod = _batch.batch_matmul(census.ring, arr[part, None], arr[None])
        if not np.isin(_batch.row_keys(prod.reshape(-1, n * n)), keys).all():
            return False
    return True


CLOSURE_CASES = (
    [(ring, n, k, side) for ring in ring_family() for n in (1, 2)
     for k in ring.elements() for side in SIDES]
    + [(ring, 3, k, side) for ring in (Z6, R2, make_zmod(4))
       for k in ring.idempotents() for side in SIDES])


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


def test_non_idempotent_k_closure_is_reported_not_asserted():
    # products of 2-orthogonal matrices are 4-orthogonal over Z6, so the
    # (nonempty) k=2 census cannot be closed
    census = enumerate_semigroup(Z6, 2, 2, "left")
    assert census.count > 0
    assert verify_closure(census) is False
    assert scalar_mat(Z6, 2, 2) not in census.element_set()


@pytest.mark.parametrize("ring,n,k,side", [(Z6, 3, 4, "left"), (Z6, 3, 0, "right"),
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
    used = len(np.unique(_batch.row_keys(census.array.swapaxes(1, 2).reshape(-1, 3))))
    charge = census.count * used + census.count ** 2
    monkeypatch.setenv("KORTHOS_BUDGET", str(charge))
    assert verify_closure(census) is True
    monkeypatch.setenv("KORTHOS_BUDGET", str(charge - 1))
    with pytest.raises(BudgetExceededError,
                       match=f"closure of {census.count} elements over {used} columns "
                             f"needs {census.count * used} images and {census.count ** 2} "
                             f"product lookups, over the node budget of {charge - 1}"):
        verify_closure(census)


def test_closure_codes_must_fit_in_64_bits():
    # the identity of degree n uses n columns, so its codes need n^n < 2^63
    assert verify_closure(SemigroupCensus(F2, 15, 1, "left", np.eye(15, dtype=np.uint8)[None]))
    with pytest.raises(InvalidParameterError, match="16 indices among 16 columns"):
        verify_closure(SemigroupCensus(F2, 16, 1, "left", np.eye(16, dtype=np.uint8)[None]))


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
    assert enumerate_semigroup(Z6, 3, 0, "left").nodes == 3558
    assert enumerate_semigroup(Z6, 3, 4, "left").nodes == 1836
    assert enumerate_semigroup(make_galois_field(3), 4, 1, "two_sided").nodes == 2277


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
    # listing runs a second walk, which raises unless it visits the same
    # number of nodes and finds the same number of elements
    assert len(census.array) == count
    if ring.order ** (n * n) <= search.NAIVE_CAP:
        assert np.array_equal(census.array, search._naive_array(ring, n, k, side))
    else:
        assert count == _crt_z6_count(n, k, side)


def test_listing_walk_must_match_the_count():
    census = enumerate_semigroup(Z6, 3, 0, "left")
    census.nodes += 1
    with pytest.raises(InvariantViolationError, match="walks differ"):
        census.array


def test_large_counts_factor_over_the_residue_fields():
    # |LO_4(0, Z6)| = |LO_4(0, F2)| * |LO_4(0, F3)| = 736 * 51,201
    f3 = count_semigroup(make_zmod(3), 4, 0)[0]
    assert f3 == 51201
    assert count_semigroup(Z6, 4, 0)[0] == len(enumerate_naive(F2, 4, 0)) * f3 == 37683936


def _walk_results():
    out = []
    for ring, n in [(Z6, 3), (R2, 3), (make_zmod(4), 3), (make_zmod(12), 2)]:
        for k in ring.idempotents():
            for side in SIDES:
                c = enumerate_semigroup(ring, n, k, side)
                out.append((ring.literal, n, k, side, c.count, c.nodes, c.array.tobytes()))
    c = enumerate_semigroup(make_galois_field(3), 4, 1, "two_sided")
    out.append((c.count, c.nodes, c.array.tobytes()))
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
        for paths, leaves in real_walk(ring, cands, adj, n, k, counter, two_sided):
            shapes.append((len(paths), len(cands) + n * n))
            yield paths, leaves

    monkeypatch.setattr(_batch, "CHUNK", 64)
    monkeypatch.setattr(search, "_walk", recording_walk)
    assert _walk_results() == expected
    # a block holds one row per node, and at most CHUNK entries unless a
    # single row is wider
    assert max(rows for rows, _ in shapes) > 1
    assert all(rows * width <= max(64, width) for rows, width in shapes)


@pytest.mark.parametrize("ring,n,k", [(Z6, 3, 4), (Z6, 1, 3), (R2, 2, V), (F2, 3, 0)],
                         ids=lambda x: getattr(x, "literal", str(x)))
@pytest.mark.parametrize("side", SIDES)
def test_missing_scalar_column_is_an_invariant_violation(monkeypatch, ring, n, k, side):
    census = enumerate_semigroup(ring, n, k, side)
    real = search._column_candidates

    def without_k_en(ring, n, k, counter):
        cands = real(ring, n, k, counter)
        return cands[(cands[:, :-1] != 0).any(axis=1) | (cands[:, -1] != k)]

    monkeypatch.setattr(search, "_column_candidates", without_k_en)
    with pytest.raises(InvariantViolationError, match="scalar matrix missing"):
        enumerate_semigroup(ring, n, k, side)           # counting
    with pytest.raises(InvariantViolationError, match="scalar matrix missing"):
        census.array                                      # listing


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
                 lambda: enumerate_naive(Z6, 10 ** 20, 0)):
        with pytest.raises(BudgetExceededError) as err:
            call()
        assert len(str(err.value)) < 200
    # 6^6000 has more than 4,300 digits
    with pytest.raises(BudgetExceededError, match="a 15510-bit number nodes counted"):
        count_semigroup(Z6, 6000, 0, budget=10 ** 4000)


def test_oversize_walk_fails_with_bounded_memory():
    # Z256 at n = 3 has 4,096 candidates and ~10^8 nodes; the walk must hit
    # the budget without buffering what it has walked
    code = (
        "import json, resource\n"
        "from korthos import BudgetExceededError, enumerate_semigroup, make_zmod\n"
        "try:\n"
        "    enumerate_semigroup(make_zmod(256), 3, 0)\n"
        "    raised = False\n"
        "except BudgetExceededError:\n"
        "    raised = True\n"
        "print(json.dumps([raised, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))\n"
    )
    env = {key: val for key, val in os.environ.items() if key != "KORTHOS_BUDGET"}
    env["PYTHONPATH"] = str(Path(search.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    raised, maxrss_kb = json.loads(proc.stdout)
    assert raised
    assert maxrss_kb < 1024 * 1024
