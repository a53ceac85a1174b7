"""Acceptance suite.

Each criterion prints exactly one `[acceptance] ...: PASS/FAIL` line (run
with `pytest tests/test_acceptance.py -v -s` to watch them).  All expected
numbers are frozen here; the brute-force oracles recompute the derived ones
before they are compared.
"""

import functools
import json
import random
import time
from pathlib import Path

import numpy as np

from korthos import (
    Mat,
    anti_orthogonal_check,
    census_table,
    circulant_characterization_check,
    code_from_generator,
    duality_report,
    drop_rows,
    enumerate_naive,
    enumerate_semigroup,
    gl_order,
    gl_order_bruteforce,
    identity,
    make_galois_field,
    make_r2,
    make_v_extension,
    make_zmod,
    orth_group_order,
    systematic_from_A,
    transpose_bijection_check,
    verify_closure,
    verify_group,
    verify_semigroup_isomorphism,
)
from korthos import _batch

from helpers import all_matrices_array, batched_gram, batched_pairwise_all_zero, batched_words

TABLES = Path(__file__).resolve().parent.parent / "tables"

Z4 = make_zmod(4)
Z6 = make_zmod(6)
F2 = make_zmod(2)
F3 = make_zmod(3)
F4 = make_galois_field(2, 2)
R2 = make_r2()
F9V = make_v_extension(make_galois_field(3, 1), "1")


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[acceptance] {label}: FAIL ({exc})")
                raise
            print(f"[acceptance] {label}: PASS" + (f" ({detail})" if detail else ""))
        return wrapper
    return deco


_CENSUS_CACHE = {}


def census(ring, n, k, side):
    key = (ring.key, n, k, side)
    if key not in _CENSUS_CACHE:
        _CENSUS_CACHE[key] = enumerate_semigroup(ring, n, k, side)
    return _CENSUS_CACHE[key]


def rows_as_map(rows):
    return {r["k"]: (r["lo"], r["o"]) for r in rows}


# ---------------------------------------------------------------------------
# criteria 1-4: census table reproduction

@criterion("criterion 1 (2x2 censuses over GF(2)+vGF(2))")
def test_criterion_01_r2_n2():
    t0 = time.perf_counter()
    rows = rows_as_map(census_table(R2, 2))
    elapsed = time.perf_counter() - t0
    assert rows == {"0": (16, 4), "1": (4, 4), "v": (8, 4), "1+v": (8, 4)}
    assert elapsed < 1.0
    return f"{elapsed:.3f}s"


@criterion("criterion 2 (3x3 censuses over GF(2)+vGF(2))")
def test_criterion_02_r2_n3():
    t0 = time.perf_counter()
    rows = rows_as_map(census_table(R2, 3))
    elapsed = time.perf_counter() - t0
    assert rows == {"0": (484, 100), "1": (36, 36), "v": (132, 60), "1+v": (132, 60)}
    assert elapsed < 10.0
    return f"{elapsed:.3f}s"


@criterion("criterion 3 (2x2 censuses over Z6)")
def test_criterion_03_z6_n2():
    rows = rows_as_map(census_table(Z6, 2))
    assert rows == {"0": (4, 2), "1": (16, 16), "3": (2, 2), "4": (32, 16)}
    return None


@criterion("criterion 4 (3x3 censuses over Z6)")
def test_criterion_04_z6_n3():
    t0 = time.perf_counter()
    rows = rows_as_map(census_table(Z6, 3))
    elapsed = time.perf_counter() - t0
    assert rows == {"0": (2310, 330), "1": (288, 288), "3": (630, 198), "4": (1056, 480)}
    assert elapsed < 60.0
    return f"{elapsed:.3f}s"


# ---------------------------------------------------------------------------
# criterion 5: the v-orthogonal semigroup listing

@criterion("criterion 5 (v-orthogonal 2x2 semigroup listing)")
def test_criterion_05_table_of_matrices():
    golden = json.loads((TABLES / "r2-n2-v-semigroups.json").read_text())
    k = R2.parse_element(golden["k"])
    lo = census(R2, 2, k, "left")
    ro = census(R2, 2, k, "right")
    two = census(R2, 2, k, "two_sided")

    def matset(entry_lists):
        return {tuple(e) for e in entry_lists}

    assert {tuple(m.render_entries()) for m in lo.elements} == matset(golden["lo"])
    assert {tuple(m.render_entries()) for m in ro.elements} == matset(golden["ro"])
    assert {tuple(m.render_entries()) for m in two.elements} == matset(golden["o"])
    # the right column is the transposed left column
    assert transpose_bijection_check(lo, ro)
    # the two-sided members are the first four rows of the published listing
    assert matset(golden["o"]) == matset(golden["lo"][:4]) == matset(golden["ro"][:4])
    assert circulant_characterization_check(two)
    return "8 + 8 + 4 matrices"


# ---------------------------------------------------------------------------
# criterion 6: CRT cardinality products

FROZEN_FIELD_COUNTS = [
    (F2, 2, 0, "left", 4),       # LO_2(0, F2)
    (F3, 2, 0, "left", 1),       # LO_2(0, F3)
    (F2, 3, 0, "left", 22),      # LO_3(0, F2)
    (F3, 3, 0, "left", 105),     # LO_3(0, F3)
    (F3, 3, 1, "two_sided", 48), # O_3(F3)
]


@criterion("criterion 6 (CRT cardinality products and bijections)")
def test_criterion_06_crt_products():
    for ring, n, k, side, want in FROZEN_FIELD_COUNTS:
        assert len(enumerate_naive(ring, n, k, side)) == want
    table_counts = {
        (R2.key, 2): {"0": (16, 4), "1": (4, 4), "v": (8, 4), "1+v": (8, 4)},
        (R2.key, 3): {"0": (484, 100), "1": (36, 36), "v": (132, 60), "1+v": (132, 60)},
        (Z6.key, 2): {"0": (4, 2), "1": (16, 16), "3": (2, 2), "4": (32, 16)},
        (Z6.key, 3): {"0": (2310, 330), "1": (288, 288), "3": (630, 198), "4": (1056, 480)},
    }
    checked = 0
    for ring in (R2, Z6):
        for n in (2, 3):
            for k in ring.idempotents():
                expect_lo, expect_o = table_counts[(ring.key, n)][ring.render(k)]
                left = verify_semigroup_isomorphism(ring, n, k, side="left")
                assert left["bijection_ok"], (ring.literal, n, ring.render(k))
                assert left["product"] == left["direct_count"] == expect_lo
                two = verify_semigroup_isomorphism(ring, n, k, side="two_sided")
                assert two["bijection_ok"]
                assert two["product"] == two["direct_count"] == expect_o
                checked += 2
    return f"{checked} product identities"


# ---------------------------------------------------------------------------
# criterion 7: order formulas

@criterion("criterion 7 (GL and orthogonal group orders)")
def test_criterion_07_order_formulas():
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 48
    assert gl_order(2, 2) * gl_order(3, 2) == 288 == gl_order_bruteforce(Z6, 2)
    o2z6 = census(Z6, 2, 1, "two_sided")
    assert o2z6.count == 16 == orth_group_order(Z6, 2)
    o2r2 = census(R2, 2, R2.one, "two_sided")
    assert o2r2.count == 4 == orth_group_order(R2, 2)
    ident = identity(R2, 2)
    for m in o2r2.elements:
        if m != ident:
            assert m.mul(m) == ident  # Klein-4 order profile
    return "|GL_2(Z6)| = 288, |O_2| orders 16 and 4"


# ---------------------------------------------------------------------------
# criterion 8: codes

@criterion("criterion 8 (self-dual and weakly self-dual codes)")
def test_criterion_08_codes():
    t0 = time.perf_counter()
    # (a) the 2x2 antiorthogonal witness over Z6
    a17 = systematic_from_A(Mat.from_text(Z6, "4,5;1,4"))
    assert a17.size == 36
    assert duality_report(a17).self_dual is True
    # (b) the octacode
    oct_a = Mat.from_text(Z4, "3,1,2,1;1,2,3,1;3,3,3,2;2,3,1,1")
    octacode = systematic_from_A(oct_a)
    rep_b = duality_report(octacode)
    assert rep_b.self_dual is True
    assert rep_b.lee_distance == 6 and rep_b.hamming_distance == 4
    # (c) the row-deleted rate-3/7 code
    rate37 = systematic_from_A(drop_rows(oct_a, [4]))
    rep_c = duality_report(rate37)
    assert rep_c.weakly_self_dual is True and rep_c.self_dual is False
    assert rep_c.lee_distance == 6 and rep_c.hamming_distance == 4
    # (d) the weakly self-dual code from the row self-orthogonal generator
    g20 = drop_rows(Mat.from_text(Z6, "0,3,3;4,2,4;2,1,5"), [3])
    rep_d = duality_report(code_from_generator(Z6, g20))
    assert rep_d.weakly_self_dual is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    return f"{elapsed:.3f}s"


# ---------------------------------------------------------------------------
# criterion 9: antiorthogonal existence

@criterion("criterion 9 (antiorthogonal existence by exhaustive search)")
def test_criterion_09_antiorthogonal():
    from korthos import antiorthogonal_exists, classify_k_orthogonal

    assert antiorthogonal_exists(Z6, 3) is None
    w2 = antiorthogonal_exists(Z6, 2)
    assert w2 is not None and classify_k_orthogonal(w2, 5).two_sided
    w4 = antiorthogonal_exists(Z4, 4)
    assert w4 is not None and classify_k_orthogonal(w4, 3).two_sided
    oct_a = Mat.from_text(Z4, "3,1,2,1;1,2,3,1;3,3,3,2;2,3,1,1")
    assert anti_orthogonal_check(oct_a) == (True, True)
    return "none at 3x3/Z6; witnesses at 2x2/Z6 and 4x4/Z4"


# ---------------------------------------------------------------------------
# criterion 10: property suites

SWEEP_RINGS = (F2, F3, F4, Z4, R2, Z6, F9V)
NAIVE_LIMIT = 262_144


def sweep_cases():
    for ring in SWEEP_RINGS:
        n = 1
        while ring.order ** (n * n) <= NAIVE_LIMIT:
            for k in ring.elements():
                yield ring, n, k
            n += 1


@criterion("criterion 10a (pruned enumeration == naive enumeration)")
def test_criterion_10a_oracle_equivalence():
    cases = 0
    for ring, n, k in sweep_cases():
        for side in ("left", "right", "two_sided"):
            pruned = census(ring, n, k, side)
            naive = enumerate_naive(ring, n, k, side)
            assert pruned.elements == naive, (ring.literal, n, k, side)
            cases += 1
    return f"{cases} (ring, n, k, side) sweeps"


@criterion("criterion 10b (closure of every idempotent-k census)")
def test_criterion_10b_closure():
    checked = 0
    for ring, n, k in sweep_cases():
        if ring.mul(k, k) != k:
            continue
        for side in ("left", "right", "two_sided"):
            assert verify_closure(census(ring, n, k, side)) is True
            checked += 1
    # the big published censuses, all sides
    for ring in (R2, Z6):
        for k in ring.idempotents():
            for side in ("left", "right", "two_sided"):
                assert verify_closure(census(ring, 3, k, side)) is True
                checked += 1
    # k = 1 censuses are groups on top of being closed
    for ring, n in ((Z6, 2), (Z6, 3), (R2, 2), (R2, 3)):
        assert verify_group(census(ring, n, ring.one, "left"))["is_group"]
    return f"{checked} censuses closed"


@criterion("criterion 10c (|LO| = |RO| via the transpose bijection)")
def test_criterion_10c_transpose():
    for ring, n, k in sweep_cases():
        lo = census(ring, n, k, "left")
        ro = census(ring, n, k, "right")
        assert lo.count == ro.count
        assert transpose_bijection_check(lo, ro)
    for ring in (R2, Z6):
        for k in ring.idempotents():
            lo = census(ring, 3, k, "left")
            ro = census(ring, 3, k, "right")
            assert lo.count == ro.count
            assert transpose_bijection_check(lo, ro)
    return None


@criterion("criterion 10d (two-sided = left intersect right)")
def test_criterion_10d_intersection():
    for ring, n, k in sweep_cases():
        left = census(ring, n, k, "left").element_set()
        right = census(ring, n, k, "right").element_set()
        two = census(ring, n, k, "two_sided").elements
        assert sorted(left & right, key=lambda m: m.entries) == two
    return None


@criterion("criterion 10e (left/right antiorthogonal flags agree)")
def test_criterion_10e_antiorthogonal_flags():
    for ring in (Z6, R2):
        minus_one = ring.neg(ring.one)
        for n in (2, 3):
            lo = census(ring, n, minus_one, "left")
            ro = census(ring, n, minus_one, "right")
            assert lo.elements == ro.elements
            for m in lo.elements:
                flags = anti_orthogonal_check(m)  # raises if the sides differ
                assert flags.left and flags.right
    return None


def _spot(indices, limit=100, seed=7):
    idx = list(indices)
    if len(idx) <= limit:
        return idx
    return random.Random(seed).sample(idx, limit)


@criterion("criterion 10f (self-dual <=> antiorthogonal, 2x2 over Z6)")
def test_criterion_10f_self_dual_iff_antiorthogonal():
    mats = all_matrices_array(Z6, 2, 2)                      # (1296, 2, 2)
    m = len(mats)
    anti = ((batched_gram(Z6, mats) == _scaled_eye(Z6, 2, 5)).all(axis=(1, 2))
            & (batched_gram(Z6, mats, transposed=True) == _scaled_eye(Z6, 2, 5)).all(axis=(1, 2)))
    gens = _systematic_batch(Z6, mats)                       # (1296, 2, 4)
    words = batched_words(Z6, gens)                          # (1296, 36, 4)
    weakly = batched_pairwise_all_zero(Z6, words)
    cands = _batch.all_tuples(6, 4)
    t = _batch.batch_matmul(Z6, cands[None], gens.swapaxes(1, 2))
    dual_sizes = ((t == 0).all(axis=2)).sum(axis=1)
    self_dual = weakly & (dual_sizes == 36)
    assert (self_dual == anti).all()
    # exercise the real API on every positive and a sample of negatives
    for i in _spot(np.flatnonzero(anti)):
        a = Mat(Z6, 2, 2, tuple(int(x) for x in mats[i].reshape(-1)))
        assert anti_orthogonal_check(a).left
        assert duality_report(systematic_from_A(a)).self_dual
    for i in _spot(np.flatnonzero(~anti)):
        a = Mat(Z6, 2, 2, tuple(int(x) for x in mats[i].reshape(-1)))
        assert not duality_report(systematic_from_A(a)).self_dual
    return f"{int(anti.sum())} antiorthogonal matrices out of {m}"


@criterion("criterion 10g (weakly self-dual <=> row-antiorthogonal over Z4)")
def test_criterion_10g_weak_iff_row_antiorthogonal():
    from korthos import row_anti_orthogonal_check

    totals = []
    # 2x3 has no row-antiorthogonal matrix at all (both sides still must
    # agree); 2x4 has genuine positives such as the octacode row pairs
    for cols in (3, 4):
        mats = all_matrices_array(Z4, 2, cols)
        row_anti = (batched_gram(Z4, mats) == _scaled_eye(Z4, 2, 3)).all(axis=(1, 2))
        gens = _systematic_batch(Z4, mats)
        words = batched_words(Z4, gens)
        weakly = batched_pairwise_all_zero(Z4, words)
        assert (weakly == row_anti).all()
        for i in _spot(np.flatnonzero(row_anti)):
            a = Mat(Z4, 2, cols, tuple(int(x) for x in mats[i].reshape(-1)))
            assert row_anti_orthogonal_check(a)
            assert duality_report(systematic_from_A(a)).weakly_self_dual
        for i in _spot(np.flatnonzero(~row_anti)):
            a = Mat(Z4, 2, cols, tuple(int(x) for x in mats[i].reshape(-1)))
            assert not duality_report(systematic_from_A(a)).weakly_self_dual
        totals.append(f"2x{cols}: {int(row_anti.sum())}/{len(mats)}")
    return "row-antiorthogonal " + ", ".join(totals)


@criterion("criterion 10h (weakly self-dual <=> row self-orthogonal, 2x3 over Z6)")
def test_criterion_10h_weak_iff_row_self_orthogonal():
    gens = all_matrices_array(Z6, 2, 3)                      # (46656, 2, 3)
    row_self = (batched_gram(Z6, gens) == Z6.zero).all(axis=(1, 2))
    words = batched_words(Z6, gens)                          # (46656, 36, 3)
    weakly = batched_pairwise_all_zero(Z6, words, chunk=4096)
    assert (weakly == row_self).all()
    from korthos import code_from_generator, row_self_orthogonal_check
    for i in _spot(np.flatnonzero(row_self)):
        g = Mat(Z6, 2, 3, tuple(int(x) for x in gens[i].reshape(-1)))
        assert row_self_orthogonal_check(g)
        assert duality_report(code_from_generator(Z6, g)).weakly_self_dual
    for i in _spot(np.flatnonzero(~row_self)):
        g = Mat(Z6, 2, 3, tuple(int(x) for x in gens[i].reshape(-1)))
        assert not duality_report(code_from_generator(Z6, g)).weakly_self_dual
    return f"{int(row_self.sum())} row self-orthogonal generators out of 46656"


def _scaled_eye(ring, n, k):
    eye = np.full((n, n), ring.zero, dtype=np.uint8)
    np.fill_diagonal(eye, k)
    return eye


def _systematic_batch(ring, mats):
    m, k, _ = mats.shape
    ident = _scaled_eye(ring, k, ring.one)
    left = np.broadcast_to(ident, (m, k, k))
    return np.concatenate([left, mats], axis=2)
