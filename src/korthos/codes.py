"""Linear codes over finite commutative rings from (anti/self-)orthogonal
matrices: duals, self-duality classification, Hamming and Lee distances.

Codewords are stored explicitly (spanned as {uG : u in R^k}); duals are
computed by sweeping R^n for vectors orthogonal to every generator row, which
stays correct over non-field rings where parity-check derivations by row
reduction are unreliable.  Both sweeps are budget-capped.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

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


@dataclass
class LinearCode:
    """A code of the given length with its full codeword set.

    `generator` is the spanning matrix the code was built from, or None for
    codes obtained as duals (their codewords are carried explicitly).
    """

    ring: Ring
    length: int
    generator: Mat | None
    words: frozenset
    systematic: bool

    @property
    def size(self):
        return len(self.words)

    def sorted_words(self):
        return sorted(self.words)

    def is_trivial(self):
        return self.size == 1

    def __contains__(self, word):
        return tuple(word) in self.words


DualityReport = namedtuple(
    "DualityReport",
    ["dual_size", "self_dual", "weakly_self_dual", "lcd",
     "gram_nonsingular", "hamming_distance", "lee_distance"],
)


def _span_words(ring, gen, budget):
    k = gen.rows
    messages = ring.order ** k
    if messages > budget:
        raise BudgetExceededError(
            f"spanning {messages} messages exceeds the budget of {budget}"
        )
    u = _batch.all_tuples(ring.order, k)
    w = _batch.batch_matmul(ring, u[:, None, :], _array(gen))[:, 0, :]
    return frozenset(map(tuple, w.tolist()))


def code_from_generator(ring, gen, budget=DEFAULT_WORD_BUDGET):
    """Span the code {uG : u in R^k} from a spanning matrix G."""
    if gen.ring != ring:
        raise InvalidParameterError("generator is not over the given ring")
    k = gen.rows
    systematic = (
        gen.cols >= k
        and all(
            gen[i, j] == (ring.one if i == j else ring.zero)
            for i in range(k) for j in range(k)
        )
    )
    words = _span_words(ring, gen, budget)
    return LinearCode(ring, gen.cols, gen, words, systematic)


def systematic_from_A(a, budget=DEFAULT_WORD_BUDGET):
    """The leading-systematic code generated by [I_k : A]; an A with no
    columns yields the full code R^k."""
    ring = a.ring
    gen = hstack(identity(ring, a.rows), a)
    return code_from_generator(ring, gen, budget)


def dual_code(code, budget=DEFAULT_WORD_BUDGET):
    """All vectors of R^n orthogonal to the code.

    Orthogonality is tested against the generator rows when available (enough
    by linearity), else against every codeword.
    """
    ring, n = code.ring, code.length
    total = ring.order ** n
    if total > budget:
        raise BudgetExceededError(
            f"dual sweep of {total} vectors exceeds the budget of {budget}"
        )
    if code.generator is not None:
        rows = [code.generator.row(i) for i in range(code.generator.rows)]
    else:
        rows = code.sorted_words()
    if n == 0:
        return LinearCode(ring, 0, None, frozenset([()]), False)
    cands = _batch.all_tuples(ring.order, n)
    mask = np.ones(len(cands), dtype=bool)
    for row in rows:
        r = np.asarray(row, dtype=cands.dtype)
        mask &= _batch.batch_dot(ring, cands, r) == ring.zero
    words = frozenset(map(tuple, cands[mask].tolist()))
    return LinearCode(ring, n, None, words, False)


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

def hamming_distance(code):
    """Minimum Hamming weight over the nonzero codewords."""
    best = None
    for w in code.words:
        wt = sum(1 for x in w if x != code.ring.zero)
        if wt and (best is None or wt < best):
            best = wt
    if best is None:
        raise UndefinedDistanceError("code has no nonzero codeword")
    return best


def lee_distance(code):
    """Minimum Lee weight over the nonzero codewords; Z_m rings only
    (the Lee weight of a residue x is min(x, m - x))."""
    ring = code.ring
    if not isinstance(ring, ZmodRing):
        raise NotApplicableError("Lee distance is defined over Z_m rings only")
    m = ring.n
    best = None
    for w in code.words:
        wt = sum(min(x, m - x) for x in w)
        if wt and (best is None or wt < best):
            best = wt
    if best is None:
        raise UndefinedDistanceError("code has no nonzero codeword")
    return best


# ---------------------------------------------------------------------------

def duality_report(code, budget=DEFAULT_WORD_BUDGET):
    """Classify the code against its dual and attach distances.

    `gram_nonsingular` (is det(GG^T) a unit) is reported as an independent
    observable; no relation to self-duality is assumed.  LCD status is tied
    to C intersect C-perp = {0}.
    """
    dual = dual_code(code, budget)
    zero_word = tuple([code.ring.zero] * code.length)
    self_dual = code.words == dual.words
    weakly = code.words <= dual.words
    lcd = (code.words & dual.words) == {zero_word}
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
        self_dual=self_dual,
        weakly_self_dual=weakly,
        lcd=lcd,
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
