"""Exhaustive, pruned enumeration of the k-orthogonal matrix semigroups.

The left census LO_n(k,R) = {A : A^T A = k I} is searched column by column:
a column is admissible only if its self inner product is k, and a partial
assignment is extended only by columns orthogonal to every settled column.
The right census runs the identical search on rows; the two-sided census
filters the left census by the row condition.

A node budget (default 10**8, overridable via the KORTHOS_BUDGET environment
variable) bounds the number of visited search nodes; exceeding it raises and
returns nothing partial.  `enumerate_naive` is the independent brute-force
oracle: it tests every one of the |R|^(n*n) matrices directly against the
defining equation.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from . import _batch
from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    InvariantViolationError,
    NotApplicableError,
)
from .matrices import Mat, _gram_matches, _rows_gram_matches, identity, scalar_mat
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
                f"search exceeded the node budget of {self.limit}"
            )


@dataclass
class SemigroupCensus:
    """The full element set of LO/RO/O_n(k, R) plus verification metadata.

    `checks` values are True/False once the corresponding verification has
    run and None while it has not.
    """

    ring: Ring
    n: int
    k: int
    side: str
    elements: list
    checks: dict = field(default_factory=dict)
    nodes: int = 0

    @property
    def count(self):
        return len(self.elements)

    def element_set(self):
        return set(self.elements)

    def __contains__(self, mat):
        return mat in self.element_set()


# ---------------------------------------------------------------------------
# pruned backtracking search

def _column_candidates(ring, n, k, counter):
    """All vectors c in R^n with <c, c> = k."""
    out = []
    for vec in itertools.product(range(ring.order), repeat=n):
        counter.spend()
        if _gram_matches(ring, (vec,), k):
            out.append(vec)
    return out


def _orth_sets(ring, cands, k, counter):
    """orth[i] = indices j with <cands[i], cands[j]> = 0 (symmetric).

    Every candidate has <c, c> = k, so the Gram matrix of a pair is kI
    exactly when the pair is orthogonal; for i = j that means k = 0.
    """
    m = len(cands)
    orth = [set() for _ in range(m)]
    for i in range(m):
        ci = cands[i]
        for j in range(i, m):
            counter.spend()
            if _gram_matches(ring, (ci, cands[j]), k):
                orth[i].add(j)
                orth[j].add(i)
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


def _mat_from_choice(ring, n, cands, choice, side):
    if side == "right":
        entries = [x for j in choice for x in cands[j]]
    else:
        # chosen vectors are the columns
        entries = [cands[choice[c]][r] for r in range(n) for c in range(n)]
    return Mat(ring, n, n, entries)


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
    mats = (_mat_from_choice(ring, n, cands, choice, side)
            for choice in _backtrack(cands, orth, n, counter))
    if side == "two_sided":
        mats = (m for m in mats if _rows_gram_matches(m, k))
    mats = sorted(mats, key=lambda m: m.entries)

    census = SemigroupCensus(
        ring=ring, n=n, k=k, side=side, elements=mats,
        checks={"closure_verified": None, "identity_present": None, "is_group": None},
        nodes=counter.spent,
    )
    ident = identity(ring, n)
    present = any(m.entries == ident.entries for m in mats)
    census.checks["identity_present"] = present
    if ring.mul(k, k) == k:
        # for idempotent k the scalar matrix kI must have been found
        want = scalar_mat(ring, k, n).entries
        if not any(m.entries == want for m in mats):
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
    orthogonal groups over residue fields.
    """
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
    picked = mats[mask]
    out = [Mat(ring, n, n, tuple(int(x) for x in flat)) for flat in picked.reshape(-1, n * n)]
    out.sort(key=lambda m: m.entries)
    return out


# ---------------------------------------------------------------------------
# verification operations

def verify_closure(census):
    """Check that the census is closed under matrix multiplication.

    Guaranteed to hold when k is idempotent; for other k this simply reports
    whatever is true.  Updates ``census.checks['closure_verified']``.
    """
    mats = census.elements
    m = len(mats)
    ring, n = census.ring, census.n
    if m == 0:
        census.checks["closure_verified"] = True
        return True
    if m <= 64 or ring.order > 256:
        have = {mat.entries for mat in mats}
        ok = all((a.mul(b)).entries in have for a in mats for b in mats)
    else:
        arr = np.array([mat.entries for mat in mats], dtype=np.uint8).reshape(m, n, n)
        codes = np.sort(_batch.encode(ring.order, arr.reshape(m, n * n)))
        ok = True
        chunk = max(1, (8 << 20) // (m * n * n * n))
        for lo in range(0, m, chunk):
            a = arr[lo:lo + chunk][:, None]          # (c,1,n,n)
            prod = _batch.batch_matmul(ring, a, arr[None, :])
            pc = _batch.encode(ring.order, prod.reshape(-1, n * n))
            pos = np.searchsorted(codes, pc)
            pos[pos == m] = 0
            if not (codes[pos] == pc).all():
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
    transposed = {a.transpose() for a in left_census.elements}
    return transposed == right_census.element_set()


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
    common = a.element_set() & b.element_set()
    if common:
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
        o = sum(1 for m in lo.elements if _rows_gram_matches(m, k))
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
    for choice in _backtrack(cands, orth, n, counter):
        m = _mat_from_choice(ring, n, cands, choice, "left")
        if not _rows_gram_matches(m, k):
            # a (-1)-orthogonal matrix is invertible, so one-sidedness
            # cannot happen; treat it as a search bug
            raise InvariantViolationError("left antiorthogonal witness was not right antiorthogonal")
        return m
    return None
