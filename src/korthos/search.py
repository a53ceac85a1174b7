"""Exhaustive, pruned enumeration of the k-orthogonal matrix semigroups.

The left census LO_n(k,R) = {A : A^T A = k I} is searched column by column:
a column is admissible only if its self inner product is k, and a partial
assignment is extended only by columns orthogonal to every settled column.
The right census runs the identical search on rows; the two-sided census
keeps the left elements whose row Gram sum_j c_j c_j^T is kI.

The search walks the orthogonality graph of the candidates depth first in
blocks of nodes held as boolean numpy rows (`_walk`); no block allocates
more than `_batch.CHUNK` entries.  `enumerate_semigroup` only counts the
leaves; a census lists its elements on first use of `census.array`, one
(count, n, n) uint8 array of entry indices in canonical order.

A node budget (default 10**8, overridable via the KORTHOS_BUDGET environment
variable) bounds the number of visited search nodes; exceeding it raises and
returns nothing partial.  Every stage charges its nodes before it allocates,
so an oversize search fails at once, and the error names the budget, the
nodes counted and the nodes per stage.  `enumerate_naive` is the
independent brute-force oracle: it tests every one of the |R|^(n*n)
matrices directly against the defining equation.

The checks on a listed census run on index arrays.  `verify_closure` holds
each element as the tuple of the indices of its columns among the columns
the census uses, forms A*c once per element A and used column c, and reads
every product AB off those images, so it never forms the m*m products;
`verify_group` is one batched Gram test and one lookup of the transposes.
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
from .matrices import Mat, identity
from .rings import Ring, VExtensionRing, _clip

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
    __slots__ = ("spent", "limit", "profile")

    def __init__(self, limit, n):
        self.spent = 0
        self.limit = limit
        self.profile = {"candidates": 0, "pairs": 0, **{f"depth {d + 1}": 0 for d in range(n)}}

    def spend(self, nodes, stage):
        self.spent += nodes
        self.profile[stage] += nodes
        if self.spent > self.limit:
            reached = ", ".join(f"{s} {_clip(c)}" for s, c in self.profile.items())
            raise BudgetExceededError(f"search exceeded the node budget of {_clip(self.limit)} "
                                      f"({_clip(self.spent)} nodes counted): {reached}",
                                      self.profile)


def _mats(ring, n, arr):
    """Mat views of an (m, n, n) index array, in its order."""
    return [Mat(ring, n, n, e) for e in arr.reshape(-1, n * n).tolist()]


@dataclass(eq=False)
class SemigroupCensus:
    """The full element set of LO/RO/O_n(k, R) plus verification metadata.

    `array` holds the elements as one (count, n, n) uint8 array of entry
    indices in canonical order (lexicographic by row-major entries), listed
    on first use; `elements` lists them as `Mat` views.  `checks` values are
    True/False once the corresponding verification has run, else None.
    """

    ring: Ring
    n: int
    k: int
    side: str
    _array: np.ndarray = None
    checks: dict = field(default_factory=dict)
    nodes: int = 0
    count: int = None
    profile: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.count is None:
            self.count = len(self._array)

    @cached_property
    def array(self):
        if self._array is not None:
            return self._array
        # the listing walk must agree with the count and the nodes (its budget)
        n = self.n
        counter, cands, blocks = _search(self.ring, n, self.k, self.nodes,
                                         self.side == "two_sided")
        parts = [np.zeros((0, n), np.min_scalar_type(len(cands)))]
        for paths, leaves in blocks:
            f, j = np.nonzero(leaves)
            parts.append(np.column_stack([paths[f], j]).astype(parts[0].dtype))
        arr = cands[np.concatenate(parts)]           # chosen vectors as rows
        if (len(arr), counter.spent) != (self.count, self.nodes):
            raise InvariantViolationError("search bug: the listing and counting walks differ")
        if self.side != "right":
            arr = arr.swapaxes(1, 2)                 # chosen vectors as columns
        return arr[np.argsort(_batch.row_keys(arr.reshape(-1, n * n)), kind="stable")]

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
        key = _batch.row_keys(np.array(mat.entries, dtype=np.uint8))
        return bool(_batch.lookup(self._keys, key) >= 0)


# ---------------------------------------------------------------------------
# pruned search: a blocked, depth-first frontier over the orthogonality graph

def _column_candidates(ring, n, k, counter):
    """All vectors c in R^n with <c, c> = k, as an (m, n) index array."""
    counter.spend(ring.order ** n, "candidates")
    vecs = _batch.all_tuples(ring.order, n)
    return vecs[_batch.gram_is_scalar(ring, vecs[:, None, :], k)]


def _search(ring, n, k, limit, two_sided=False):
    """Validate, sweep the candidates and their pairs, and return (counter,
    cands, the `_walk` generator).  adj[i, j] is True when the pair is
    orthogonal, i.e. has Gram matrix kI; one node per unordered pair."""
    if n < 1:
        raise InvalidParameterError("degree n must be >= 1")
    ring.check_element(k)
    if n >= limit.bit_length():   # then |R|^n >= 2^n > limit candidates
        raise BudgetExceededError(f"the {ring.order}^{_clip(n)} candidate columns exceed "
                                  f"the node budget of {_clip(limit)}")
    counter = _NodeCounter(limit, n)
    cands = _column_candidates(ring, n, k, counter)
    m = len(cands)
    counter.spend(m * (m + 1) // 2, "pairs")
    adj = np.empty((m, m), dtype=bool)
    for part in _batch.chunks(m, m * n):
        adj[part] = _batch.batch_dot(ring, cands[part, None, :], cands[None, :, :]) == ring.zero
    return counter, cands, _walk(ring, cands, adj, n, k, counter, two_sided)


def _walk(ring, cands, adj, n, k, counter, two_sided):
    """Walk the search tree depth first, in blocks of b nodes of depth d:
    `paths` (b, d) the candidates chosen, `allowed` (b, m) the candidates
    orthogonal to all of them (a child by j has `allowed[p] & adj[j]`) and
    `gram` (b, n, n) the row Gram partial sum.  A popped block charges its
    children, then pushes them in pieces of `rows` nodes built only when
    popped.  Yields (paths, leaves) per block of depth n - 1, in row-major
    order, `leaves` (b, m) marking the children that are elements; for
    idempotent k it checks that kI is one."""
    m = len(cands)
    rows = max(1, _batch.CHUNK // (m + n * n))
    target = np.diag(np.full(n, k, dtype=np.uint8))
    hit = (cands[None, :, :] == target[:, None, :]).all(axis=-1)
    probe = hit.argmax(axis=1) if hit.any(axis=1).all() else None   # kI's columns
    if two_sided:
        outer = _batch.batch_matmul(ring, cands[:, :, None], cands[:, None, :])
        keys = _batch.row_keys(outer.reshape(m, n * n))
        classes = np.sort(keys)
        cls = _batch.lookup(classes, keys)
    block = (np.zeros((1, 0), np.intp), np.ones((1, m), bool), np.zeros((1, n, n), np.uint8))
    stack, seen = [], False
    while True:
        paths, allowed, gram = block
        nodes = int(np.count_nonzero(allowed))
        counter.spend(nodes, f"depth {paths.shape[1] + 1}")
        if paths.shape[1] < n - 1:
            flat = np.flatnonzero(allowed)
            stack.extend((block, flat[i:i + rows]) for i in reversed(range(0, nodes, rows)))
        else:
            leaves = allowed   # the children; by j, two-sided when c_j c_j^T = kI - gram
            if two_sided:
                need = _batch.row_keys(ring.add_np[target, ring.neg_np[gram]].reshape(-1, n * n))
                leaves = allowed & (cls == _batch.lookup(classes, need)[:, None])
            if probe is not None:
                seen = seen or bool(leaves[(paths == probe[:-1]).all(axis=1), probe[-1]].any())
            yield paths, leaves
        if not stack:
            break
        (paths, allowed, gram), piece = stack.pop()
        f, j = np.divmod(piece, m)
        block = (np.column_stack([paths[f], j]), allowed[f] & adj[j],
                 ring.add_np[gram[f], outer[j]] if two_sided else gram)
    if ring.mul(k, k) == k and not seen:
        raise InvariantViolationError(
            f"search bug: scalar matrix missing from census over {ring.literal}"
        )


def enumerate_semigroup(ring, n, k, side="left", budget=None):
    """Census of LO_n(k,R) / RO_n(k,R) / O_n(k,R), exact: a count-only walk
    gives the count and the nodes, and `census.array` lists the elements on
    first use, in canonical order (lexicographic by row-major entries)."""
    side = normalize_side(side)
    counter, _, blocks = _search(ring, n, k, resolve_budget(budget), side == "two_sided")
    count = sum(int(np.count_nonzero(leaves)) for _, leaves in blocks)
    # the walk checks that kI is an element; I is kI for k = 1, else no element
    checks = {"closure_verified": None, "identity_present": k == ring.one, "is_group": None}
    return SemigroupCensus(ring, n, k, side, checks=checks, nodes=counter.spent,
                           count=count, profile=counter.profile)


def count_semigroup(ring, n, k, side="left", budget=None):
    """(count, nodes) of LO_n(k,R) / RO_n(k,R) / O_n(k,R), building no matrix."""
    census = enumerate_semigroup(ring, n, k, side, budget)
    return census.count, census.nodes


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


def enumerate_naive(ring, n, k, side="left"):
    """Direct |R|^(n*n) sweep testing every matrix against the definition.

    Independent of the pruned search; used as its oracle and for counting
    orthogonal groups over residue fields.  The sweep runs in lexicographic
    order, so the matrices come out in canonical order.
    """
    return _mats(ring, n, _naive_array(ring, n, k, side))


def _naive_array(ring, n, k, side="left"):
    """`enumerate_naive` as an (m, n, n) index array."""
    if n < 1:
        raise InvalidParameterError("degree n must be >= 1")
    ring.check_element(k)
    side = normalize_side(side)
    if n * n >= NAIVE_CAP.bit_length() or ring.order ** (n * n) > NAIVE_CAP:
        raise BudgetExceededError(
            f"naive sweep of {ring.order}^{_clip(n * n)} matrices exceeds the cap of {NAIVE_CAP}"
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
    """Check that the census is closed under matrix multiplication: every
    product AB of two elements is an element.

    Guaranteed to hold when k is idempotent; for other k this simply reports
    whatever is true.  Updates ``census.checks['closure_verified']``.

    The check runs on column indices (row indices for a right census, which
    is closed exactly when its transposes are).  Each element is the n-tuple
    of the indices of its columns among the m_c distinct columns the census
    uses, and column j of AB is A times column j of B.  So A*c is formed once
    for every element A and used column c, and mapped to its index (-1 when
    the census never uses it); every product is then a gather of n indices,
    looked up as one exact mixed-radix code among the elements' codes.  The
    m*m_c images and m*m lookups are charged to the node budget first.
    """
    ring, n, m = census.ring, census.n, census.count
    mats = census.array if census.side != "right" else census.array.swapaxes(1, 2)
    cols, code = np.unique(_batch.row_keys(mats.swapaxes(1, 2).reshape(-1, n)),
                           return_inverse=True)
    code = code.reshape(m, n)
    mc = len(cols)
    if mc ** n >= 2 ** 63:
        raise InvalidParameterError(
            f"closure codes of {n} indices among {mc} columns do not fit in 64 bits")
    limit = resolve_budget()
    if m * mc + m * m > limit:
        raise BudgetExceededError(
            f"closure of {m} elements over {mc} columns needs {m * mc} images and "
            f"{m * m} product lookups, over the node budget of {limit}")
    vecs = cols.view(np.uint8).reshape(mc, n).T          # used columns, side by side
    image = np.empty((m, mc), dtype=np.int32)            # index of A*c, or -1
    for part in _batch.chunks(m, mc * n * n):
        prod = _batch.batch_matmul(ring, mats[part], vecs)
        image[part] = _batch.lookup(cols, _batch.row_keys(prod.swapaxes(1, 2)))
    elems = np.sort(code @ (mc ** np.arange(n - 1, -1, -1, dtype=np.int64)))
    ok = bool((image >= 0).all())
    for part in _batch.chunks(m, 8 * m):                  # int64 blocks of CHUNK bytes
        if not ok:
            break
        prods = np.zeros((len(image[part]), m), dtype=np.int64)
        for j in range(n):                                # column j of AB is image[A, code[B, j]]
            prods *= mc
            prods += image[part][:, code[:, j]]
        ok = bool((_batch.lookup(elems, prods) >= 0).all())
    census.checks["closure_verified"] = ok
    return ok


def verify_group(census):
    """Check identity membership and two-sided inverses inside the census.

    The identity lies in a census only when k = 1, and then every element
    satisfies A^T A = I, so A^T is its unique two-sided inverse.  The check
    is therefore one batched test that A A^T = I for every element and one
    lookup of every transpose in the census.  Returns {'is_group': bool,
    'identity': Mat | None, 'inverse_witnesses': dict mapping A to A^T}.
    """
    ring, n, arr = census.ring, census.n, census.array
    ident = identity(ring, n)
    if ident not in census:
        census.checks["is_group"] = False
        return {"is_group": False, "identity": None, "inverse_witnesses": {}}
    transposes = arr.swapaxes(1, 2)
    ok = bool(_batch.gram_is_scalar(ring, arr, ring.one).all()
              and (_batch.lookup(census._keys,
                                 _batch.row_keys(transposes.reshape(-1, n * n))) >= 0).all())
    census.checks["is_group"] = ok
    witnesses = dict(zip(census.elements, _mats(ring, n, transposes))) if ok else {}
    return {"is_group": ok, "identity": ident, "inverse_witnesses": witnesses}


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
    if (_batch.lookup(b._keys, a._keys) >= 0).any():
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

    O = LO ∩ RO is the left search filtered by the row condition, so one
    count-only walk per idempotent gives both: its leaves are LO.
    """
    rows = []
    for k in ring.idempotents():
        o = enumerate_semigroup(ring, n, k, "two_sided", budget=budget)
        lo = o.profile[f"depth {n}"]
        rows.append({
            "k": ring.render(k),
            "lo": lo,
            "o": o.count,
            "diff": lo - o.count,
            "nodes": o.nodes,
        })
    return rows


def antiorthogonal_exists(ring, n, budget=None):
    """Search for a matrix with A A^T = A^T A = -I; None when none exists.

    The pruned search is exhaustive, so a None answer is a proof of
    non-existence at this degree.
    """
    return _antiorthogonal_search(ring, n, budget)[0]


def _antiorthogonal_search(ring, n, budget=None):
    """(witness or None, nodes): the walk stops at its first leaf."""
    k = ring.neg(ring.one)
    counter, cands, blocks = _search(ring, n, k, resolve_budget(budget))
    for paths, leaves in blocks:
        if leaves.any():
            f, j = divmod(int(leaves.argmax()), len(cands))
            break
    else:
        return None, counter.spent
    a = cands[[*paths[f], j]].T              # chosen vectors are the columns
    if not _batch.gram_is_scalar(ring, a, k):
        # a (-1)-orthogonal matrix is invertible, so one-sidedness
        # cannot happen; treat it as a search bug
        raise InvariantViolationError("left antiorthogonal witness was not right antiorthogonal")
    return _mats(ring, n, a)[0], counter.spent
