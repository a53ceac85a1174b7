import numpy as np
import pytest

from korthos import (
    BudgetExceededError,
    InvalidParameterError,
    Mat,
    NotApplicableError,
    antiorthogonal_exists,
    census_table,
    circulant_characterization_check,
    classify_k_orthogonal,
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
from korthos.search import SemigroupCensus, resolve_budget

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


def test_non_idempotent_k_closure_is_reported_not_asserted():
    # products of 2-orthogonal matrices are 4-orthogonal over Z6, so the
    # (nonempty) k=2 census cannot be closed
    census = enumerate_semigroup(Z6, 2, 2, "left")
    assert census.count > 0
    assert verify_closure(census) is False
    assert scalar_mat(Z6, 2, 2) not in census.element_set()


def test_closure_compares_every_entry_of_wide_matrices():
    # over Z256 at n = 3 a matrix is 72 bits wide; D^2 = diag(4,1,1) is
    # missing from {I, D} although it differs from I in the first entry only
    z256 = make_zmod(256)
    ident = np.eye(3, dtype=np.uint8)
    d = ident.copy()
    d[0, 0] = 2
    census = SemigroupCensus(z256, 3, 1, "left", np.stack([ident, d]))
    assert verify_closure(census) is False


def test_group_structure_of_k_one_censuses():
    census = enumerate_semigroup(Z6, 2, 1, "left")
    verify_closure(census)
    report = verify_group(census)
    assert report["is_group"] is True
    assert census.count == 16
    assert report["identity"] == identity(Z6, 2)
    assert len(report["inverse_witnesses"]) == 16


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
