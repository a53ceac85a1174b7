import itertools
import random
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
    Mat,
    NotApplicableError,
    SizeCapError,
    UndefinedDistanceError,
    anti_orthogonal_check,
    code_from_generator,
    drop_rows,
    dual_code,
    duality_report,
    hamming_distance,
    identity,
    lee_distance,
    make_galois_field,
    make_r2,
    make_zmod,
    row_anti_orthogonal_check,
    row_self_orthogonal_check,
    self_orthogonal_check,
    systematic_from_A,
    zeros,
)
from korthos import _batch, codes

from helpers import ring_family, scalar_matmul

Z4 = make_zmod(4)
Z6 = make_zmod(6)
F2 = make_zmod(2)
R2 = make_r2()

OCT_A = Mat.from_text(Z4, "3,1,2,1;1,2,3,1;3,3,3,2;2,3,1,1")
A17 = Mat.from_text(Z6, "4,5;1,4")
A20 = Mat.from_text(Z6, "0,3,3;4,2,4;2,1,5")


# ---------------------------------------------------------------------------
# construction

def test_span_from_systematic_generator():
    code = systematic_from_A(A17)
    assert code.length == 4
    assert code.size == 36          # free: 6^2 messages, all distinct
    assert code.systematic
    assert (0, 0, 0, 0) in code


def test_identity_generator_spans_everything():
    code = code_from_generator(Z4, identity(Z4, 2))
    assert code.size == 16 and code.length == 2
    assert code.systematic


def test_octacode_span():
    code = systematic_from_A(OCT_A)
    assert code.length == 8
    assert code.size == 256


def test_long_code_span_matches_plain_span():
    # length 37 over Z4: 4^37 >= 2^63, too long to pack a word into one int64
    rng = random.Random(2021)
    a = Mat(Z4, 7, 30, [rng.randrange(4) for _ in range(7 * 30)])
    cols = [[a[i, j] for i in range(7)] for j in range(30)]
    want = {u + tuple(sum(c * x for c, x in zip(u, col)) % 4 for col in cols)
            for u in itertools.product(range(4), repeat=7)}
    assert systematic_from_A(a).words == want


def test_empty_A_gives_the_full_code():
    code = systematic_from_A(Mat(Z4, 2, 0, []))
    assert code.length == 2
    assert code.size == 16
    assert code_from_generator(Z4, Mat(Z4, 2, 0, [])).words == {()}


def test_non_systematic_generator_detected():
    code = code_from_generator(Z6, Mat.from_text(Z6, "0,3,3;4,2,4"))
    assert not code.systematic
    assert code.size == 6           # the span collapses: G is not free
    assert code.array.shape == (6, 3)
    assert code.sorted_words() == sorted(code.words)


def test_membership():
    code = code_from_generator(Z6, Mat.from_text(Z6, "0,3,3;4,2,4"))
    assert (0, 3, 3) in code and [0, 0, 0] in code
    assert (np.int64(0), np.int64(3), np.int64(3)) in code
    assert (1, 0, 0) not in code
    assert (0, 3) not in code                  # wrong length
    assert (0, 3, 9) not in code and (0, -3, 3) not in code
    assert (0, 3.5, 3) not in code
    assert () in code_from_generator(Z4, Mat(Z4, 2, 0, []))


def test_span_budget():
    with pytest.raises(BudgetExceededError):
        code_from_generator(Z6, identity(Z6, 9), budget=10 ** 6)


def test_generator_ring_mismatch():
    with pytest.raises(InvalidParameterError):
        code_from_generator(Z6, identity(Z4, 2))


# ---------------------------------------------------------------------------
# duals

def test_self_dual_code_over_z6():
    code = systematic_from_A(A17)
    dual = dual_code(code)
    assert dual.words == code.words


def test_dual_of_trivial_code_is_everything():
    trivial = code_from_generator(Z6, zeros(Z6, 1, 3))
    assert trivial.size == 1
    dual = dual_code(trivial)
    assert dual.size == 6 ** 3


def test_octacode_is_self_dual_with_published_distances():
    code = systematic_from_A(OCT_A)
    report = duality_report(code)
    assert report.self_dual
    assert report.dual_size == 256
    assert report.lee_distance == 6
    assert report.hamming_distance == 4


def test_rate_3_7_code_is_weakly_self_dual_only():
    b = drop_rows(OCT_A, [4])
    assert row_anti_orthogonal_check(b)
    code = systematic_from_A(b)
    assert code.length == 7 and code.size == 64
    report = duality_report(code)
    assert report.weakly_self_dual and not report.self_dual
    assert report.lee_distance == 6 and report.hamming_distance == 4


def test_weakly_self_dual_from_row_self_orthogonal_generator():
    g = drop_rows(A20, [3])
    assert row_self_orthogonal_check(g)
    code = code_from_generator(Z6, g)
    report = duality_report(code)
    assert report.weakly_self_dual


def test_dual_budget():
    # the join charges 4^4 + 4^4 half vectors, then the 256 dual words: 768
    code = systematic_from_A(OCT_A)
    assert dual_code(code, budget=768).size == 256
    with pytest.raises(BudgetExceededError):
        dual_code(code, budget=700)


def test_dual_half_sweeps_over_the_budget_fail_before_any_array(monkeypatch):
    code = systematic_from_A(OCT_A)

    def refuse(*args):
        raise AssertionError("an array was built before the budget check")

    monkeypatch.setattr(codes, "_combinations", refuse)
    monkeypatch.setattr(_batch, "all_tuples", refuse)
    monkeypatch.setattr(_batch, "row_keys", refuse)
    with pytest.raises(BudgetExceededError, match="512 half vectors"):
        dual_code(code, budget=511)


def test_double_dual_joins_on_spanning_rows(monkeypatch):
    # the dual of a 7 x 9 systematic Z4 code has 4^9 words; with every word
    # as a syndrome row the second join would need 4^8 x 4^9 bytes, so it
    # must run on a spanning subset of at most log2(4^9) = 18 of them
    rng = random.Random(9)
    code = systematic_from_A(Mat(Z4, 7, 9, [rng.randrange(4) for _ in range(63)]))
    dual = dual_code(code)
    widths = []
    combinations = codes._combinations

    def recording(ring, rows):
        widths.append(rows.shape[1])
        return combinations(ring, rows)

    monkeypatch.setattr(codes, "_combinations", recording)
    double = dual_code(dual)
    assert widths and max(widths) <= 18
    assert np.array_equal(double.array, code.array)


def _sweep_dual(ring, n, rows):
    """Every vector of R^n orthogonal to all the rows, by sweeping R^n: the
    dual the split syndrome join replaced, kept as its reference."""
    cands = _batch.all_tuples(ring.order, n)
    mask = np.ones(len(cands), dtype=bool)
    for row in rows:
        dots = _batch.batch_matmul(ring, cands, np.asarray(row, dtype=np.uint8)[:, None])
        mask &= dots[:, 0] == ring.zero
    return frozenset(map(tuple, cands[mask].tolist()))


def _is_sorted_and_distinct(code):
    words = code.sorted_words()
    return words == sorted(set(words))


RINGS = ring_family()


@given(ring_index=st.integers(0, len(RINGS) - 1), rows=st.integers(1, 3),
       cols=st.integers(0, 5), data=st.data())
@settings(max_examples=150, deadline=None)
def test_dual_join_matches_the_sweep(ring_index, rows, cols, data):
    # random generators are often not free, and 3 x 1 or 2 x 0 has more
    # rows than columns
    ring = RINGS[ring_index]
    entries = data.draw(st.lists(st.integers(0, ring.order - 1),
                                 min_size=rows * cols, max_size=rows * cols))
    gen = Mat(ring, rows, cols, entries)
    code = code_from_generator(ring, gen)
    dual = dual_code(code)
    assert dual.words == _sweep_dual(ring, cols, [gen.row(i) for i in range(rows)])
    assert _is_sorted_and_distinct(dual)
    assert dual.generator is None
    if ring.order ** cols <= 1296:
        # the generatorless path: the join uses a spanning subset of the
        # dual's words, the reference sweep every word
        assert 2 ** len(codes._spanning_rows(dual)) <= dual.size
        double = dual_code(dual)
        assert double.words == _sweep_dual(ring, cols, dual.sorted_words())
        assert _is_sorted_and_distinct(double)
        assert code.words <= double.words


def _weight_distribution(code):
    weights = (code.array != code.ring.zero).sum(axis=1)
    return np.bincount(weights, minlength=code.length + 1).tolist()


def _macwilliams(dist, q, size):
    """The weight distribution W_C(x + (q-1)y, x - y) / |C| of the dual."""
    n = len(dist) - 1
    out = np.zeros(n + 1, dtype=object)
    for i, count in enumerate(dist):
        poly = np.array([1], dtype=object)
        for factor in [[1, q - 1]] * (n - i) + [[1, -1]] * i:
            poly = np.convolve(poly, np.array(factor, dtype=object))
        out += count * poly
    assert all(c % size == 0 for c in out)
    return [int(c // size) for c in out]


FROBENIUS = [make_zmod(4), make_zmod(6), make_galois_field(2, 2), R2, make_zmod(5)]
Z5 = FROBENIUS[-1]


@pytest.mark.parametrize("code", [
    systematic_from_A(OCT_A),
    systematic_from_A(drop_rows(OCT_A, [4])),
    systematic_from_A(A17),
    code_from_generator(Z6, drop_rows(A20, [3])),
    systematic_from_A(Mat.from_text(Z5, "1,2,4,3;2,4,3,1;3,1,2,4;4,3,1,2")),
    systematic_from_A(Mat.from_text(R2, "1+v,0,1+v;1,v,1+v;v,v,0")),
], ids=["octacode", "octacode-drop4", "A17", "A20-drop3", "Z5-4x4", "R2-3x3"])
def test_macwilliams_identity_on_systematic_codes(code):
    dual = dual_code(code)
    assert _weight_distribution(dual) == _macwilliams(
        _weight_distribution(code), code.ring.order, code.size)


@given(ring_index=st.integers(0, len(FROBENIUS) - 1), rows=st.integers(1, 3),
       cols=st.integers(1, 6), data=st.data())
@settings(max_examples=80, deadline=None)
def test_macwilliams_identity_on_random_generators(ring_index, rows, cols, data):
    # over a Frobenius ring the dual's Hamming weight enumerator is fixed by
    # the code's (Wood 1999); no sweep is involved
    ring = FROBENIUS[ring_index]
    entries = data.draw(st.lists(st.integers(0, ring.order - 1),
                                 min_size=rows * cols, max_size=rows * cols))
    code = code_from_generator(ring, Mat(ring, rows, cols, entries))
    dual = dual_code(code)
    assert _weight_distribution(dual) == _macwilliams(
        _weight_distribution(code), ring.order, code.size)
    assert code.size * dual.size == ring.order ** cols


SPAN_9x30 = """
import random, resource
from korthos import Mat, make_zmod, systematic_from_A
Z4 = make_zmod(4)
rng = random.Random(2021)
a = Mat(Z4, 9, 30, [rng.randrange(4) for _ in range(9 * 30)])
code = systematic_from_A(a)
print(code.size, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


# Linux carries the launching process's RSS high-water mark into the
# child's ru_maxrss across exec, so the span runs under a small
# intermediate interpreter instead of straight from the test process
LAUNCH = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"


def test_long_span_peak_memory():
    # 262,144 words of length 39 are 10 MB of uint8; the span must not
    # build a messages x k x n product tensor or a set of tuples
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", LAUNCH, SPAN_9x30], capture_output=True,
                          text=True, timeout=300, env={"PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr[-2000:]
    size, maxrss_kib = map(int, proc.stdout.split())
    assert size == 4 ** 9
    assert maxrss_kib < 150 * 1024


def test_size_product_on_free_examples():
    # |C| * |C-perp| = |R|^n, observed on the worked free codes
    for code in (systematic_from_A(A17),
                 systematic_from_A(OCT_A),
                 systematic_from_A(drop_rows(OCT_A, [4]))):
        dual = dual_code(code)
        assert code.size * dual.size == code.ring.order ** code.length


def test_double_dual_contains_the_code():
    for code in (systematic_from_A(A17),
                 code_from_generator(Z6, drop_rows(A20, [3])),
                 systematic_from_A(drop_rows(OCT_A, [4]))):
        double = dual_code(dual_code(code))
        assert code.words <= double.words


@given(st.lists(st.integers(0, 3), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_double_dual_contains_random_z4_codes(entries):
    code = code_from_generator(Z4, Mat(Z4, 2, 3, entries))
    assert code.words <= dual_code(dual_code(code)).words


# ---------------------------------------------------------------------------
# orthogonality predicates

def test_antiorthogonal_examples():
    assert anti_orthogonal_check(Mat.from_text(Z6, "2,5;1,2")) == (True, True)
    assert anti_orthogonal_check(OCT_A) == (True, True)
    # characteristic 2: -1 = 1, so orthogonal matrices are antiorthogonal
    assert anti_orthogonal_check(identity(F2, 2)) == (True, True)
    assert anti_orthogonal_check(identity(Z6, 2)) == (False, False)


def test_row_antiorthogonal():
    assert row_anti_orthogonal_check(drop_rows(OCT_A, [4]))
    assert row_anti_orthogonal_check(Mat.from_text(Z6, "2,5;1,2"))  # square case
    assert not row_anti_orthogonal_check(zeros(Z6, 2, 3))


def test_self_orthogonal_sides_can_differ():
    flags = self_orthogonal_check(A20)
    assert flags.right and not flags.left
    b = Mat.from_text(R2, "1+v,0,1+v;1,v,1+v;v,v,0")
    assert self_orthogonal_check(b) == (True, True)


def test_row_self_orthogonal():
    assert row_self_orthogonal_check(drop_rows(A20, [3]))
    assert not row_self_orthogonal_check(identity(Z6, 2))


@given(rows=st.integers(1, 3), cols=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_predicates_match_matrix_products(rows, cols, data):
    # the numpy Gram kernel against G G^T (and G^T G) from the scalar product
    g = Mat(Z6, rows, cols, data.draw(st.lists(st.integers(0, 5), min_size=rows * cols,
                                               max_size=rows * cols)))
    gram = scalar_matmul(g, g.transpose())
    assert row_self_orthogonal_check(g) == (gram == zeros(Z6, rows))
    assert row_anti_orthogonal_check(g) == (gram == identity(Z6, rows).neg())
    if rows == cols:
        cogram = scalar_matmul(g.transpose(), g)
        assert self_orthogonal_check(g) == (cogram == zeros(Z6, rows), gram == zeros(Z6, rows))


def test_drop_rows_validation():
    with pytest.raises(InvalidParameterError):
        drop_rows(OCT_A, [0])
    with pytest.raises(InvalidParameterError):
        drop_rows(OCT_A, [5])
    with pytest.raises(InvalidParameterError):
        drop_rows(Mat.from_text(Z6, "1,2"), [1])


# ---------------------------------------------------------------------------
# distances

def test_repetition_code_hamming():
    code = code_from_generator(F2, Mat.from_text(F2, "1,1"))
    assert sorted(code.words) == [(0, 0), (1, 1)]
    assert hamming_distance(code) == 2


def test_lee_weight_definition():
    code = code_from_generator(Z6, Mat.from_text(Z6, "5,0,0"))
    # the word (5,0,0) has Lee weight min(5, 1) = 1
    assert lee_distance(code) == 1
    assert hamming_distance(code) == 1


def test_lee_distance_restricted_to_zmod():
    code = code_from_generator(R2, identity(R2, 2))
    with pytest.raises(NotApplicableError):
        lee_distance(code)
    report = duality_report(code)
    assert report.lee_distance is None
    assert report.hamming_distance == 1


@given(m=st.sampled_from([4, 6, 12]), rows=st.integers(1, 3), cols=st.integers(1, 5),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_distances_match_the_word_loops(m, rows, cols, data):
    # the per-word loops the row reductions replaced, kept as the reference
    ring = make_zmod(m)
    entries = data.draw(st.lists(st.integers(0, m - 1), min_size=rows * cols,
                                 max_size=rows * cols))
    code = code_from_generator(ring, Mat(ring, rows, cols, entries))
    hamming = [sum(x != 0 for x in w) for w in code.words]
    lee = [sum(min(x, m - x) for x in w) for w in code.words]
    if code.size == 1:
        return
    assert hamming_distance(code) == min(h for h in hamming if h)
    assert lee_distance(code) == min(x for x in lee if x)


def test_trivial_code_has_no_distance():
    trivial = code_from_generator(Z6, zeros(Z6, 1, 3))
    with pytest.raises(UndefinedDistanceError):
        hamming_distance(trivial)
    with pytest.raises(UndefinedDistanceError):
        lee_distance(trivial)
    report = duality_report(trivial)
    assert report.hamming_distance is None and report.lee_distance is None
    assert report.weakly_self_dual and not report.self_dual


def test_lcd_example():
    # the full code R^n has dual {0}, so it meets C intersect C-perp = {0}
    code = code_from_generator(F2, Mat.from_text(F2, "1,0;0,1"))
    report = duality_report(code)
    assert report.lcd and report.self_dual is False


def test_length_zero_code_report():
    gen = Mat(Z4, 2, 0, [])
    report = duality_report(code_from_generator(Z4, gen))
    assert report == (1, True, True, True, False, None, None)
    assert report.dual_size == 1 and report.gram_nonsingular is False
    assert row_self_orthogonal_check(gen) is True
    assert row_anti_orthogonal_check(gen) is False


def test_gram_nonsingular_is_reported_independently():
    ident = code_from_generator(Z6, identity(Z6, 2))
    assert duality_report(ident).gram_nonsingular is True
    self_dual = systematic_from_A(A17)
    assert duality_report(self_dual).gram_nonsingular is False
    dual_only = dual_code(self_dual)
    assert duality_report(dual_only).gram_nonsingular is None


def test_gram_determinant_is_capped_like_a_matrix_determinant():
    # det(G G^T) sums rows! terms, so a 7-row generator is refused
    with pytest.raises(SizeCapError):
        duality_report(code_from_generator(F2, identity(F2, 7)))
