"""Linear codes over finite commutative rings from (anti/self-)orthogonal
matrices: duals, self-duality classification, Hamming and Lee distances.

A code holds its codewords as one sorted, duplicate-free (size, length) uint8
array of element indices, spanned as {uG : u in R^k}.  The dual comes from a
split syndrome join: with x = (x1, x2) split at n1 = ceil(n/2) and each row
g = (g1, g2) split alike, <g, x> = 0 exactly when <g1, x1> = -<g2, x2>.  So
the syndromes of the |R|^n1 left halves are matched against the negated
syndromes of the |R|^(n-n1) right halves.  This needs only a commutative
ring, so it stays correct over non-field rings where parity-check
derivations by row reduction are unreliable.  Spans and joins are
budget-capped.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from . import _batch
from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    InvariantViolationError,
    NotApplicableError,
    UndefinedDistanceError,
)
from .matrices import Mat, _array, _gram_is, hstack, identity
from .rings import Ring, ZmodRing

DEFAULT_WORD_BUDGET = 10 ** 6


@dataclass(eq=False)
class LinearCode:
    """A code of the given length with its full codeword set.

    `array` holds the codewords as one sorted, duplicate-free (size, length)
    uint8 array of element indices; `words` (a frozenset of tuples) and
    `sorted_words` are views of it.  `generator` is the spanning matrix the
    code was built from, or None for codes obtained as duals.
    """

    ring: Ring
    length: int
    generator: Mat | None
    array: np.ndarray
    systematic: bool

    @property
    def size(self):
        return len(self.array)

    @cached_property
    def words(self):
        return frozenset(self.sorted_words())

    def sorted_words(self):
        return list(map(tuple, self.array.tolist()))

    @property
    def _keys(self):
        """Row keys of the codewords (see `_batch.row_keys`), sorted because
        the array is."""
        return _batch.row_keys(self.array)

    def __contains__(self, word):
        word = tuple(word)
        if len(word) != self.length or not all(
                isinstance(x, Integral) and 0 <= x < self.ring.order for x in word):
            return False
        key = _batch.row_keys(np.array(word, dtype=np.uint8))
        return bool(_batch.lookup(self._keys, key) >= 0)


DualityReport = namedtuple(
    "DualityReport",
    ["dual_size", "self_dual", "weakly_self_dual", "lcd",
     "gram_nonsingular", "hamming_distance", "lee_distance"],
)


def _combinations(ring, rows):
    """sum_i u_i * rows[i] for every u in R^k, as a (|R|^k, w) array in the
    order of `_batch.all_tuples(ring.order, k)`; each row multiplies the
    accumulator by |R|, so no temporary outgrows the result."""
    width = rows.shape[1]
    acc = np.full((1, width), ring.zero, dtype=np.uint8)
    for row in rows:
        multiples = ring.mul_np[:, row]          # x * row for every x in R
        acc = ring.add_np[acc[:, None, :], multiples].reshape(len(acc) * ring.order, width)
    return acc


def _span_words(ring, gen, budget):
    """The codewords {uG : u in R^k}, sorted and duplicate-free: a generator
    that is not free spans fewer words than messages."""
    messages = ring.order ** gen.rows
    if messages > budget:
        raise BudgetExceededError(
            f"spanning {messages} messages exceeds the budget of {budget}"
        )
    words = _combinations(ring, _array(gen))
    _, first = np.unique(_batch.row_keys(words), return_index=True)
    return words[first]


def code_from_generator(ring, gen, budget=DEFAULT_WORD_BUDGET):
    """Span the code {uG : u in R^k} from a spanning matrix G."""
    if gen.ring != ring:
        raise InvalidParameterError("generator is not over the given ring")
    k = gen.rows
    systematic = gen.cols >= k and np.array_equal(_array(gen)[:, :k],
                                                  _array(identity(ring, k)))
    return LinearCode(ring, gen.cols, gen, _span_words(ring, gen, budget), systematic)


def systematic_from_A(a, budget=DEFAULT_WORD_BUDGET):
    """The leading-systematic code generated by [I_k : A]; an A with no
    columns yields the full code R^k."""
    ring = a.ring
    gen = hstack(identity(ring, a.rows), a)
    return code_from_generator(ring, gen, budget)


def _spanning_rows(code):
    """Codewords that span the code, at most log2 |C| of them: each is the
    first codeword outside the span of those before it, so each at least
    doubles the span, and no array outgrows the code."""
    ring, n = code.ring, code.length
    span = np.full((1, n), ring.zero, dtype=np.uint8)
    span_keys = _batch.row_keys(span)
    outside = np.arange(code.size)
    rows = []
    while True:
        outside = outside[_batch.lookup(span_keys, code._keys[outside]) < 0]
        if not len(outside):
            return np.array(rows, dtype=np.uint8).reshape(len(rows), n)
        row = code.array[outside[0]]
        rows.append(row)
        # span + R*row is the union of the cosets span + x*row; keep one x per coset
        multiples = ring.mul_np[:, row]
        reps = multiples[:1]
        for m in multiples[1:]:
            differences = _batch.row_keys(ring.add_np[m, ring.neg_np[reps]])
            if (_batch.lookup(span_keys, differences) < 0).all():
                reps = np.concatenate([reps, m[None]])
        span = ring.add_np[reps[:, None, :], span[None, :, :]].reshape(-1, n)
        span_keys = np.sort(_batch.row_keys(span))


def dual_code(code, budget=DEFAULT_WORD_BUDGET):
    """All vectors of R^n orthogonal to the code, by the split syndrome join.

    The rows are the generator's when the code has one (enough by
    linearity), else the codewords of `_spanning_rows`.  The budget is
    charged for the half vectors before any syndrome is formed, then for
    the dual words before any is listed.  Left halves run in order and each
    meets its matching right halves in order, so the words come out sorted.
    """
    ring, n, q = code.ring, code.length, code.ring.order
    n1 = (n + 1) // 2
    halves = q ** n1 + q ** (n - n1)
    if halves > budget:
        raise BudgetExceededError(
            f"dual join over {halves} half vectors exceeds the budget of {budget}"
        )
    rows = _spanning_rows(code) if code.generator is None else _array(code.generator)
    left_keys = _batch.row_keys(_combinations(ring, rows[:, :n1].T))
    right_keys = _batch.row_keys(ring.neg_np[_combinations(ring, rows[:, n1:].T)])
    by_key = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[by_key]
    lo = np.searchsorted(sorted_keys, left_keys, "left")
    cnt = np.searchsorted(sorted_keys, left_keys, "right") - lo
    size = int(cnt.sum())
    if halves + size > budget:
        raise BudgetExceededError(
            f"dual join over {halves} half vectors and {size} dual words "
            f"exceeds the budget of {budget}"
        )
    # left half i meets the right halves by_key[lo[i] : lo[i] + cnt[i]]
    within = np.arange(size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    right = _batch.all_tuples(q, n - n1)[by_key[np.repeat(lo, cnt) + within]]
    left = np.repeat(_batch.all_tuples(q, n1), cnt, axis=0)
    return LinearCode(ring, n, None, np.concatenate([left, right], axis=1), False)


# ---------------------------------------------------------------------------
# matrix-shape predicates

OrthPair = namedtuple("OrthPair", ["left", "right"])


def anti_orthogonal_check(a):
    """Left/right (-1)-orthogonality; the two flags always agree because a
    (-1)-orthogonal matrix is invertible."""
    if not a.is_square():
        raise InvalidParameterError("antiorthogonality is defined for square matrices")
    minus_one = a.ring.neg(a.ring.one)
    left = _gram_is(a, minus_one, columns=True)
    right = _gram_is(a, minus_one)
    if left != right:
        raise InvariantViolationError("one-sided antiorthogonal matrix encountered")
    return OrthPair(left, right)


def row_anti_orthogonal_check(a):
    """A A^T = -I_k for a rectangular k x m matrix."""
    return _gram_is(a, a.ring.neg(a.ring.one))


def self_orthogonal_check(a):
    """Left/right 0-orthogonality; the sides can genuinely differ."""
    if not a.is_square():
        raise InvalidParameterError("self-orthogonality is defined for square matrices")
    zero = a.ring.zero
    return OrthPair(_gram_is(a, zero, columns=True), _gram_is(a, zero))


def row_self_orthogonal_check(gen):
    """G G^T = 0 for a rectangular generator."""
    return _gram_is(gen, gen.ring.zero)


# ---------------------------------------------------------------------------
# distances

def _min_nonzero(weights):
    weights = weights[weights > 0]
    if not len(weights):
        raise UndefinedDistanceError("code has no nonzero codeword")
    return int(weights.min())


def hamming_distance(code):
    """Minimum Hamming weight over the nonzero codewords."""
    return _min_nonzero((code.array != code.ring.zero).sum(axis=1))


def lee_distance(code):
    """Minimum Lee weight over the nonzero codewords; Z_m rings only
    (the Lee weight of a residue x is min(x, m - x))."""
    ring = code.ring
    if not isinstance(ring, ZmodRing):
        raise NotApplicableError("Lee distance is defined over Z_m rings only")
    x = np.arange(ring.n)
    return _min_nonzero(np.minimum(x, ring.n - x)[code.array].sum(axis=1))


# ---------------------------------------------------------------------------

def duality_report(code, budget=DEFAULT_WORD_BUDGET):
    """Classify the code against its dual and attach distances.

    `gram_nonsingular` (is det(GG^T) a unit) is reported as an independent
    observable; no relation to self-duality is assumed.  LCD status is tied
    to C intersect C-perp = {0}; both hold the zero word, so LCD means
    exactly one shared word.
    """
    dual = dual_code(code, budget)
    shared = int((_batch.lookup(dual._keys, code._keys) >= 0).sum())
    gram_nonsingular = None
    if code.generator is not None:
        # G G^T straight from the entries: a length-0 code has no G^T
        g = _array(code.generator)
        gram = _batch.batch_matmul(code.ring, g, g.T)
        gram_nonsingular = code.ring.is_unit(
            Mat(code.ring, len(gram), len(gram), gram.ravel().tolist()).det())
    try:
        hd = hamming_distance(code)
    except UndefinedDistanceError:
        hd = None
    try:
        ld = lee_distance(code)
    except (NotApplicableError, UndefinedDistanceError):
        ld = None
    return DualityReport(
        dual_size=dual.size,
        self_dual=np.array_equal(code.array, dual.array),
        weakly_self_dual=shared == code.size,
        lcd=shared == 1,
        gram_nonsingular=gram_nonsingular,
        hamming_distance=hd,
        lee_distance=ld,
    )


def drop_rows(mat, rows_1based):
    """Remove the given 1-based rows (the row-deletion workflow for building
    row-antiorthogonal matrices from antiorthogonal ones)."""
    drop = set(rows_1based)
    bad = [r for r in drop if not 1 <= r <= mat.rows]
    if bad:
        raise InvalidParameterError(f"row indices out of range: {bad}")
    keep = [i for i in range(mat.rows) if i + 1 not in drop]
    if not keep:
        raise InvalidParameterError("cannot drop every row")
    return Mat(mat.ring, len(keep), mat.cols,
               [e for i in keep for e in mat.row(i)])
