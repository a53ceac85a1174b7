"""Exhaustive, pruned enumeration of the k-orthogonal matrix semigroups.

The left census LO_n(k,R) = {A : A^T A = k I} is searched column by column:
a column is admissible only if its self inner product is k, and a partial
assignment is extended only by columns orthogonal to every settled column.
The right census runs the identical search on rows; the two-sided census
filters the left census by the row condition.

A census is one (count, n, n) uint8 array of entry indices in canonical
order: the backtracking yields index tuples of candidates, `cands[choices]`
builds every matrix at once, and one sort by row keys orders them.  Every
Gram test (candidates, pairs, the two-sided filter, the O counts) is the
numpy kernel `_batch.gram_is_scalar` or, for pairs, its inner products.

A node budget (default 10**8, overridable via the KORTHOS_BUDGET environment
variable) bounds the number of visited search nodes; exceeding it raises and
returns nothing partial.  The candidate and pair sweeps charge their nodes
before they allocate, so an oversize search fails at once, and the error
names the budget and the nodes counted.  `enumerate_naive` is the
independent brute-force oracle: it tests every one of the |R|^(n*n)
matrices directly against the defining equation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _batch
from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    InvariantViolationError,
    NotApplicableError,
)
from .matrices import Mat, identity, scalar_mat
from .rings import Ring, VExtensionRing

DEFAULT_BUDGET = 10 ** 8
NAIVE_CAP = 262_144

SIDES = ("left", "right", "two_sided")


def normalize_side(side):
    s = str(side).lower()
    if s == "two":
        s = "two_sided"
    if s not in SIDES:
        raise InvalidParameterError(f"side must be one of left/right/two, got {side!r}")
    return s


def resolve_budget(budget=None):
    if budget is None:
        budget = os.environ.get("KORTHOS_BUDGET") or DEFAULT_BUDGET
    try:
        limit = int(budget)
    except (TypeError, ValueError):
        limit = 0
    if limit < 1:
        raise InvalidParameterError(
            f"the node budget (KORTHOS_BUDGET) must be a whole number >= 1, got {budget!r}"
        )
    return limit


class _NodeCounter:
    __slots__ = ("spent", "limit")

    def __init__(self, limit):
        self.spent = 0
        self.limit = limit

    def spend(self, n=1):
        self.spent += n
        if self.spent > self.limit:
            raise BudgetExceededError(
                f"search exceeded the node budget of {self.limit} "
                f"({self.spent} nodes counted)"
            )


def _mats(ring, n, arr):
    """Mat views of an (m, n, n) index array, in its order."""
    return [Mat(ring, n, n, e) for e in arr.reshape(-1, n * n).tolist()]


@dataclass(eq=False)
class SemigroupCensus:
    """The full element set of LO/RO/O_n(k, R) plus verification metadata.

    `array` holds the elements as one (count, n, n) uint8 array of entry
    indices in canonical order (lexicographic by row-major entries);
    `elements` lists them as `Mat` views, built on first use.  `checks`
    values are True/False once the corresponding verification has run and
    None while it has not.
    """

    ring: Ring
    n: int
    k: int
    side: str
    array: np.ndarray
    checks: dict = field(default_factory=dict)
    nodes: int = 0

    @property
    def count(self):
        return len(self.array)

    @cached_property
    def elements(self):
        return _mats(self.ring, self.n, self.array)

    @property
    def _keys(self):
        """Row keys of the elements (see `_batch.row_keys`), sorted because
        the array is in canonical order."""
        return _batch.row_keys(self.array.reshape(-1, self.n * self.n))

    def element_set(self):
        return set(self.elements)

    def __contains__(self, mat):
        if not (isinstance(mat, Mat) and mat.ring == self.ring
                and mat.rows == mat.cols == self.n):
            return False
        keys, key = self._keys, _batch.row_keys(np.array(mat.entries, dtype=np.uint8))
        pos = np.searchsorted(keys, key)
        return bool(pos < self.count and keys[pos] == key)


# ---------------------------------------------------------------------------
# pruned backtracking search

def _column_candidates(ring, n, k, counter):
    """All vectors c in R^n with <c, c> = k, as an (m, n) index array."""
    counter.spend(ring.order ** n)
    vecs = _batch.all_tuples(ring.order, n)
    return vecs[_batch.gram_is_scalar(ring, vecs[:, None, :], k)]


def _orth_sets(ring, cands, k, counter):
    """orth[i] = indices j with <cands[i], cands[j]> = 0 (symmetric).

    Every candidate has <c, c> = k, so the Gram matrix of a pair is kI
    exactly when the pair is orthogonal; for i = j that means k = 0.  One
    node per unordered pair, as in a pair-by-pair sweep.
    """
    m, width = cands.shape
    counter.spend(m * (m + 1) // 2)
    orth = []
    for part in _batch.chunks(m, m * width):
        zero = _batch.batch_dot(ring, cands[part, None, :], cands[None, :, :]) == ring.zero
        orth.extend(set(np.flatnonzero(row).tolist()) for row in zero)
    return orth


def _backtrack(cands, orth, n, counter):
    """Yield index tuples (j_1 .. j_n) of pairwise-orthogonal candidates."""
    chosen = []

    def rec(allowed):
        depth = len(chosen)
        for j in allowed:
            counter.spend()
            chosen.append(j)
            if depth + 1 == n:
                yield tuple(chosen)
            else:
                nxt = [t for t in allowed if t in orth[j]]
                yield from rec(nxt)
            chosen.pop()

    yield from rec(range(len(cands)))


def enumerate_semigroup(ring, n, k, side="left", budget=None):
    """Enumerate LO_n(k,R) / RO_n(k,R) / O_n(k,R) exactly.

    Elements are returned in canonical order (lexicographic by row-major
    entry indices).
    """
    if n < 1:
        raise InvalidParameterError("degree n must be >= 1")
    ring.check_element(k)
    side = normalize_side(side)
    counter = _NodeCounter(resolve_budget(budget))

    cands = _column_candidates(ring, n, k, counter)
    orth = _orth_sets(ring, cands, k, counter)
    choices = np.fromiter(_backtrack(cands, orth, n, counter),
                          dtype=np.dtype((np.intp, n)))
    arr = cands[choices]                     # chosen vectors as rows
    if side != "right":
        arr = arr.swapaxes(1, 2)             # chosen vectors as columns
    if side == "two_sided":
        arr = arr[_batch.gram_is_scalar(ring, arr, k)]
    arr = arr[np.argsort(_batch.row_keys(arr.reshape(-1, n * n)), kind="stable")]

    census = SemigroupCensus(
        ring=ring, n=n, k=k, side=side, array=arr,
        checks={"closure_verified": None, "identity_present": None, "is_group": None},
        nodes=counter.spent,
    )
    census.checks["identity_present"] = identity(ring, n) in census
    if ring.mul(k, k) == k and scalar_mat(ring, k, n) not in census:
        # for idempotent k the scalar matrix kI must have been found
        raise InvariantViolationError(
            f"search bug: scalar matrix missing from census over {ring.literal}"
        )
    return census


# ---------------------------------------------------------------------------
# independent brute-force oracle

_GRAM_CACHE = {}


def _naive_grams(ring, n):
    """Grams of every matrix in M_n(R): (col_gram, row_gram), each
    (|R|^(n*n), n, n).  Cached per (ring, n)."""
    key = (ring.key, n)
    if key not in _GRAM_CACHE:
        mats = _batch.all_tuples(ring.order, n * n).reshape(-1, n, n)
        at = mats.swapaxes(-1, -2)
        col_gram = _batch.batch_matmul(ring, at, mats)   # A^T A
        row_gram = _batch.batch_matmul(ring, mats, at)   # A A^T
        if len(_GRAM_CACHE) >= 8:
            _GRAM_CACHE.clear()
        _GRAM_CACHE[key] = (mats, col_gram, row_gram)
    return _GRAM_CACHE[key]


def enumerate_naive(ring, n, k, side="left", cap=NAIVE_CAP):
    """Direct |R|^(n*n) sweep testing every matrix against the definition.

    Independent of the pruned search; used as its oracle and for counting
    orthogonal groups over residue fields.  The sweep runs in lexicographic
    order, so the matrices come out in canonical order.
    """
    return _mats(ring, n, _naive_array(ring, n, k, side, cap))


def _naive_array(ring, n, k, side="left", cap=NAIVE_CAP):
    """`enumerate_naive` as an (m, n, n) index array."""
    if n < 1:
        raise InvalidParameterError("degree n must be >= 1")
    ring.check_element(k)
    side = normalize_side(side)
    total = ring.order ** (n * n)
    if total > cap:
        raise BudgetExceededError(
            f"naive sweep of {total} matrices exceeds the cap of {cap}"
        )
    mats, col_gram, row_gram = _naive_grams(ring, n)
    target = np.full((n, n), ring.zero, dtype=col_gram.dtype)
    np.fill_diagonal(target, k)
    ok_left = (col_gram == target).all(axis=(1, 2))
    ok_right = (row_gram == target).all(axis=(1, 2))
    if side == "left":
        mask = ok_left
    elif side == "right":
        mask = ok_right
    else:
        mask = ok_left & ok_right
    return mats[mask]


# ---------------------------------------------------------------------------
# verification operations

def verify_closure(census):
    """Check that the census is closed under matrix multiplication.

    Guaranteed to hold when k is idempotent; for other k this simply reports
    whatever is true.  Updates ``census.checks['closure_verified']``.
    """
    arr, keys, m, n = census.array, census._keys, census.count, census.n
    ok = True
    for part in _batch.chunks(m, m * n * n * n):
        prod = _batch.batch_matmul(census.ring, arr[part, None], arr[None, :])
        pk = _batch.row_keys(prod.reshape(-1, n * n))
        pos = np.searchsorted(keys, pk)
        pos[pos == m] = 0
        if not (keys[pos] == pk).all():
            ok = False
            break
    census.checks["closure_verified"] = ok
    return ok


def verify_group(census):
    """Check identity membership and two-sided inverses inside the census.

    Assumes the census is complete and closure has been verified.  Returns
    {'is_group': bool, 'identity': Mat | None, 'inverse_witnesses': dict}.
    """
    ring, n = census.ring, census.n
    ident = identity(ring, n)
    have = census.element_set()
    if ident not in have:
        census.checks["is_group"] = False
        return {"is_group": False, "identity": None, "inverse_witnesses": {}}
    witnesses = {}
    ok = True
    for a in census.elements:
        b = a.transpose()
        if b in have and a.mul(b) == ident and b.mul(a) == ident:
            witnesses[a] = b
            continue
        for b in census.elements:
            if a.mul(b) == ident and b.mul(a) == ident:
                witnesses[a] = b
                break
        else:
            ok = False
            break
    census.checks["is_group"] = ok
    return {"is_group": ok, "identity": ident,
            "inverse_witnesses": witnesses if ok else {}}


def transpose_bijection_check(left_census, right_census):
    """True iff transposition maps the left census bijectively onto the right."""
    if (left_census.ring, left_census.n, left_census.k) != (
            right_census.ring, right_census.n, right_census.k):
        raise InvalidParameterError("censuses must share ring, degree and k")
    n = left_census.n
    transposed = left_census.array.swapaxes(1, 2).reshape(-1, n * n)
    return np.array_equal(np.sort(_batch.row_keys(transposed)), right_census._keys)


def disjoint_or_equal_check(ring, n, k, k2, side="left", budget=None):
    """For idempotent k, k': the one-sided censuses are equal iff k = k',
    otherwise disjoint.  Returns 'equal' or 'disjoint'."""
    for e in (k, k2):
        ring.check_element(e)
        if ring.mul(e, e) != e:
            raise InvalidParameterError(f"{ring.render(e)} is not idempotent")
    if k == k2:
        return "equal"
    a = enumerate_semigroup(ring, n, k, side, budget=budget)
    b = enumerate_semigroup(ring, n, k2, side, budget=budget)
    if np.isin(a._keys, b._keys).any():
        raise InvariantViolationError(
            "distinct idempotents produced overlapping censuses"
        )
    return "disjoint"


def circulant_characterization_check(census):
    """Two-sided 2x2 censuses over GF(2)+vGF(2)[v2=v] consist of exactly the
    four circulant symmetric matrices [[a,b],[b,a]] with a+b = k."""
    ring = census.ring
    if not (isinstance(ring, VExtensionRing) and ring.v_square == "v"
            and ring.base.order == 2):
        raise NotApplicableError("check applies to GF(2)+vGF(2)[v2=v] only")
    if census.n != 2 or census.side != "two_sided":
        raise NotApplicableError("check applies to two-sided 2x2 censuses only")
    if census.count != 4:
        return False
    for m in census.elements:
        a, b, c, d = m.entries
        if a != d or b != c or ring.add(a, b) != census.k:
            return False
    return True


def census_table(ring, n, budget=None):
    """One row per idempotent k: {'k', 'lo', 'o', 'diff', 'nodes'}, matching
    the census tables (|LO| = |RO|, |O|, and their difference).

    O = LO ∩ RO, so |O| counts the left elements whose rows also have Gram
    matrix kI: one search per idempotent, whose nodes the row reports.
    """
    rows = []
    for k in ring.idempotents():
        lo = enumerate_semigroup(ring, n, k, "left", budget=budget)
        o = int(_batch.gram_is_scalar(ring, lo.array, k).sum())
        rows.append({
            "k": ring.render(k),
            "lo": lo.count,
            "o": o,
            "diff": lo.count - o,
            "nodes": lo.nodes,
        })
    return rows


def antiorthogonal_exists(ring, n, budget=None):
    """Search for a matrix with A A^T = A^T A = -I; None when none exists.

    The pruned search is exhaustive, so a None answer is a proof of
    non-existence at this degree.
    """
    if n < 1:
        raise InvalidParameterError("degree n must be >= 1")
    k = ring.neg(ring.one)
    counter = _NodeCounter(resolve_budget(budget))
    cands = _column_candidates(ring, n, k, counter)
    orth = _orth_sets(ring, cands, k, counter)
    choice = next(_backtrack(cands, orth, n, counter), None)
    if choice is None:
        return None
    a = cands[list(choice)].T                # chosen vectors are the columns
    if not _batch.gram_is_scalar(ring, a, k):
        # a (-1)-orthogonal matrix is invertible, so one-sidedness
        # cannot happen; treat it as a search bug
        raise InvariantViolationError("left antiorthogonal witness was not right antiorthogonal")
    return _mats(ring, n, a)[0]
