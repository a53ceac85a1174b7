"""Exhaustive, pruned enumeration of the k-orthogonal matrix semigroups.

The left census LO_n(k,R) = {A : A^T A = k I} is searched column by column:
a column is admissible only if its self inner product is k, and a partial
assignment is extended only by columns orthogonal to every settled column.
The right census runs the identical search on rows; the two-sided census
keeps the left elements whose row Gram sum_j c_j c_j^T is kI.

Permuting the columns of A changes neither A^T A nor A A^T = sum_j c_j c_j^T,
so the search walks multisets of columns, not sequences (orderly
generation): a node is extended only by candidates at or after its last
one, and a leaf multiset stands for its n!/(r_1! ... r_s!) distinct
orderings, r_i the sizes of its runs of equal columns.  Columns repeat only
when k = 0, as two equal columns c need <c, c> = 0 = k.  The walk runs
depth first over the orthogonality graph of the candidates in blocks of
nodes (`_walk`).  Each node's set of admissible next columns is one row of
uint64 words, a bit per candidate; a block is unpacked to one byte per
candidate only when it is expanded, and no block allocates more than
`_batch.CHUNK` entries.  A two-sided walk carries kI minus each node's
partial row Gram and keeps a node's leaves by one AND with the set of
candidates whose c c^T equals it.
`enumerate_semigroup` walks once: it weighs each leaf by its orderings for
the count, and keeps the candidates and the leaf blocks while the blocks
and the listed paths each total at most `LIST_CAP` words.  A census lists
its elements on first use from those blocks, as paths: the (count, n)
indices of each element's columns among the sorted candidates, each leaf
expanded into its distinct orderings.  A census past the cap is counted but
not listed.  Its sorted keys are computed from the paths
(`_batch.path_keys`), and `census.array`, one (count, n, n) uint8 array of
entry indices in canonical order, is decoded from them when asked for.

Counts alone go through the CRT split (`_factored_counts`): over
R = R_1 x ... x R_t the equations split entry by entry, so LO, RO and O at k
are the products of the same censuses over the factors of `crt.split(ring)`
at forward(k), for every k.  The CLI's count-only census counts each field
factor in closed form and walks the others; `census_table` walks every
factor.  Each (factor, k_j) is counted once per call, and the counts
multiply; a local ring is its own single factor.  `enumerate_semigroup` and
`count_semigroup` walk the ring itself, and are the oracles the factored
count is tested against.

A node budget (default 10**8, overridable via the KORTHOS_BUDGET environment
variable) bounds the number of visited search nodes, each a multiset;
exceeding it raises and returns nothing partial.  Every stage charges its
nodes before it allocates, so an oversize search fails at once, and the
error names the budget, the nodes counted and the nodes per stage.  `enumerate_naive` is the
independent brute-force oracle: it tests every one of the |R|^(n*n)
matrices directly against the defining equation without forming the matrix
products.  A^T A = kI is a meet-in-the-middle join: the key of kI minus the
outer-product sum of the first half of the rows must equal the key of the
sum of the second half.  A A^T is read off a table of the inner products of
the |R|^n rows.

The checks on a listed census run on index arrays.  `verify_closure` reads
each element off its path as the tuple of the indices of its columns among
the columns the census uses, and each element A as the map c -> A*c on
them, read off one table of inner products.  Elements with equal maps have
equal products with every B, so each distinct map is walked once through
the prefix tree of the elements' tuples (`_prefix_tree`, dense tables of
children, which the CRT check walks too); below a node of depth n - 1 the
last columns are one bitmask, and all products through the node pass or
fail by one subset test.  The walk is node-major: a node's row holds every
map, so each gather reads whole rows.  It never forms the m*m products.
`verify_group` is one batched Gram test and one lookup of the transposes;
`transpose_bijection_check` keys a left census's paths as rows.
"""

from __future__ import annotations

import functools
import math
import operator
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
    SizeCapError,
)
from .matrices import Mat, _mat, _mats, identity
from .rings import Ring, VExtensionRing, _clip

DEFAULT_BUDGET = 10 ** 8
NAIVE_CAP = 262_144
# 8-byte words a census may keep as leaf blocks, and list as paths (32 MB each)
LIST_CAP = 1 << 22

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


@dataclass(eq=False)
class SemigroupCensus:
    """The full element set of LO/RO/O_n(k, R) plus verification metadata.

    The elements are held as `_paths`: the sorted candidate vectors and the
    (count, n) indices of each element's columns (rows for a right census)
    among them, listed on first use from `_blocks`, the candidates and leaf
    multisets of the census's one walk, each expanded into its distinct
    orderings, or, for a census built from an array, read off the distinct
    vectors of that array.  `_keys`, the elements' sorted row keys, are
    computed from the paths; `array`, one (count, n, n) uint8 array of entry
    indices in canonical order (lexicographic by row-major entries), is
    decoded from them on first use only; `elements` lists them as `Mat`
    views.  `nodes` and `profile` count the multisets the walk visited, and
    `one_sided_count` is |LO_n(k,R)|, the count of the left census a
    two-sided walk filtered, when the walk was asked to weigh it
    (`census_table`), else None.
    `checks` values are True/False once the corresponding verification has
    run, else None.
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
    one_sided_count: int = None
    _blocks: tuple = field(default=None, repr=False)   # (cands, [(prefix, leaves)] or None)

    def __post_init__(self):
        if self.count is None:
            self.count = len(self._array)

    @cached_property
    def _paths(self):
        """(cands, paths): the lexicographically sorted vectors and the
        (count, n) intp indices of each element's columns (rows for a right
        census) among them, in no particular order.  A census built from an
        array numbers the distinct vectors of that array, duplicates kept;
        any other lists the leaf multisets of its walk, grouped by which
        neighbours are equal, and writes each group's distinct orderings
        (`_orderings`) into the paths.  It refuses when the walk dropped its
        blocks past `LIST_CAP`."""
        n, columns = self.n, self.side != "right"
        if self._array is not None:
            vecs = (self._array.swapaxes(1, 2) if columns else self._array).reshape(-1, n)
            _, first, paths = np.unique(_batch.row_keys(vecs, self.ring.order),
                                        return_index=True, return_inverse=True)
            return vecs[first], paths.reshape(-1, n)
        cands, blocks = self._blocks
        if blocks is None:
            raise SizeCapError(f"cannot list the {self.count} elements: their paths or leaf "
                               f"blocks exceed the cap of {LIST_CAP} words; only the count "
                               f"is kept")
        m = len(cands)
        sets = np.empty((sum(int(np.bitwise_count(leaves).sum()) for _, leaves in blocks), n),
                        np.intp)
        at = 0
        for prefix, leaves in blocks:
            flat = np.flatnonzero(_batch.unpack_bits(leaves, m))
            end = at + len(flat)
            per = np.bitwise_count(leaves).sum(axis=1, dtype=np.intp)   # leaves per node
            for i in range(n - 1):
                sets[at:end, i] = np.repeat(prefix[:, i], per)
            sets[at:end, -1] = flat % m
            at = end
        tied = np.zeros(len(sets), np.intp)          # bit i: columns i and i + 1 are equal
        for i in range(n - 1):
            tied |= (sets[:, i] == sets[:, i + 1]) << i
        sizes = np.bincount(tied)
        patterns = [int(p) for p in np.flatnonzero(sizes)]
        listed = sum(int(sizes[p]) * len(_orderings(n, p)) for p in patterns)
        if listed != self.count:
            raise InvariantViolationError(
                f"search bug: the leaves have {listed} orderings but weigh {self.count}")
        paths, at = np.empty((self.count, n), np.intp), 0
        for p in patterns:   # the indices are in range: "clip" writes into out unbuffered
            perms = _orderings(n, p)
            end = at + int(sizes[p]) * len(perms)
            np.take(sets if len(patterns) == 1 else sets[tied == p], perms, axis=1,
                    out=paths[at:end].reshape(-1, len(perms), n), mode="clip")
            at = end
        return cands, paths

    @cached_property
    def array(self):
        return _batch.key_rows(self._keys, self.ring.order, self.n * self.n).reshape(
            -1, self.n, self.n)

    @cached_property
    def elements(self):
        return _mats(self.ring, self.array)

    @cached_property
    def _keys(self):
        cands, paths = self._paths
        return np.sort(_batch.path_keys(cands, paths, self.ring.order, self.side != "right"))

    def element_set(self):
        return set(self.elements)

    def __contains__(self, mat):
        if not (isinstance(mat, Mat) and mat.ring == self.ring
                and mat.rows == mat.cols == self.n):
            return False
        key = _batch.row_keys(np.array(mat.entries, dtype=np.uint8), self.ring.order)
        return bool(_batch.lookup(self._keys, key) >= 0)


# ---------------------------------------------------------------------------
# pruned search: a blocked, depth-first frontier over the orthogonality graph

def _column_candidates(ring, n, k, counter):
    """All vectors c in R^n with <c, c> = k, as an (m, n) index array in
    lexicographic order.  The |R|^n vectors are formed from their indices
    and filtered in pieces, and the pairs of the survivors are charged as
    they are found, so the budget bounds the memory as well as the nodes."""
    total = ring.order ** n
    counter.spend(total, "candidates")
    found, m = [], 0
    for part in _batch.chunks(total, 8 * n):      # int64 digits of each index
        index = np.arange(part.start, min(part.stop, total))
        vecs = np.stack(np.unravel_index(index, (ring.order,) * n), axis=-1).astype(np.uint8)
        keep = vecs[_batch.gram_is_scalar(ring, vecs[:, None, :], k)]
        grown = m + len(keep)
        counter.spend(grown * (grown + 1) // 2 - m * (m + 1) // 2, "pairs")
        found.append(keep)
        m = grown
    return np.concatenate(found)


def _check_degree(n):
    """Refuse a degree n that is not an integer >= 1; a bool is not one."""
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise InvalidParameterError(f"degree n must be an integer, got {type(n).__name__}")
    if operator.index(n) < 1:
        raise InvalidParameterError("degree n must be >= 1")


def _check_search(ring, n, k, limit):
    """Refuse a census that no walk could take, before any arithmetic: a
    degree n that is not an integer >= 1, a k outside the ring, or
    n >= the bit length of the node budget `limit`, as |R|^n >= 2^n > limit
    candidates.  The closed-form counts over fields refuse by it too."""
    _check_degree(n)
    ring.check_element(k)
    if n >= limit.bit_length():
        raise BudgetExceededError(f"the {ring.order}^{_clip(n)} candidate columns exceed "
                                  f"the node budget of {_clip(limit)}")


def _search(ring, n, k, limit, two_sided=False):
    """Validate (`_check_search`), sweep the candidates and their pairs, and
    return (counter, cands, the `_walk` generator).  Row i of `adj` is the
    set of candidates j >= i orthogonal to candidate i (pair Gram matrix
    kI), packed in uint64 words by `_batch.pack_bits`, so the walk visits
    each multiset of columns once, as its sorted path; one node per
    unordered pair."""
    _check_search(ring, n, k, limit)
    counter = _NodeCounter(limit, n)
    cands = _column_candidates(ring, n, k, counter)   # charges the pairs too
    m = len(cands)
    adj = np.empty((m, -(-m // 64)), dtype="<u8")
    for part in _batch.chunks(m, m * n):
        later = np.arange(m) >= np.arange(m)[part, None]      # row i keeps bit j for j >= i
        adj[part] = _batch.pack_bits(later & (_batch.batch_matmul(ring, cands[part], cands.T)
                                              == ring.zero))
    # A^T A = kI with k a unit makes A invertible, A^T = k A^-1, so A A^T = kI:
    # every left element is two-sided and the leaves need no row test
    two_sided = two_sided and not ring.is_unit(k)
    return counter, cands, _walk(ring, cands, adj, n, k, counter, two_sided)


def _walk(ring, cands, adj, n, k, counter, two_sided):
    """Walk the search tree depth first, in blocks of b nodes of depth d:
    `paths` (b, d) the candidates chosen and `allowed` (b, ceil(m / 64)) the
    candidates that `adj` admits after all of them, as `_batch.pack_bits`
    words (a child by j has `allowed[p] & adj[j]`).  `_search`'s `adj`
    admits only later candidates, so the paths are sorted multisets.  A
    popped block charges its children, then unpacks its sets and pushes the
    children in pieces of `rows` nodes built only when popped.  Yields
    (paths, children, leaves) per block of depth n - 1, in row-major order:
    `children` the packed sets of the left elements (A^T A = kI) below each
    node and `leaves` those of the elements, `children` itself when one-sided.
    For idempotent k it checks that kI's sorted columns are a leaf.

    Two-sided, the candidates fall into classes of equal c c^T, each with
    one packed member mask.  A block also carries `rest` (b, n, n): kI minus
    the sum of c c^T over each node's chosen c.  A child of a node is an
    element when its c c^T is the node's `rest`, so the node's leaves are
    `allowed` AND the mask of that class (no class: the empty mask).
    """
    m = len(cands)
    rows = max(1, _batch.CHUNK // (m + n * n))
    target = np.diag(np.full(n, k, dtype=np.uint8))
    hit = (cands[None, :, :] == target[:, None, :]).all(axis=-1)
    probe = np.sort(hit.argmax(axis=1)) if hit.any(axis=1).all() else None   # kI's columns
    if two_sided:
        outer = _batch.batch_matmul(ring, cands[:, :, None], cands[:, None, :])
        keys, cls = np.unique(_batch.row_keys(outer.reshape(m, n * n), ring.order),
                              return_inverse=True)
        less = ring.neg_np[outer]                       # minus c c^T, per candidate
        member = np.zeros((len(keys) + 1, m), dtype=bool)
        member[cls, np.arange(m)] = True                # the last class is empty
        masks = _batch.pack_bits(member)
    block = (np.zeros((1, 0), np.intp), _batch.pack_bits(np.ones((1, m), bool)), target[None])
    stack, seen = [], False
    while True:
        paths, allowed, rest = block
        nodes = int(np.bitwise_count(allowed).sum())
        counter.spend(nodes, f"depth {paths.shape[1] + 1}")
        if paths.shape[1] < n - 1:
            flat = np.flatnonzero(_batch.unpack_bits(allowed, m))
            stack.extend((block, flat[i:i + rows]) for i in reversed(range(0, nodes, rows)))
        else:
            leaves = allowed   # the children
            if two_sided:      # need -1: no class, the empty mask
                need = _batch.lookup(keys, _batch.row_keys(rest.reshape(-1, n * n), ring.order))
                leaves = allowed & masks[need]
            if probe is not None:
                word = leaves[(paths == probe[:-1]).all(axis=1), probe[-1] // 64]
                seen = seen or bool((word >> np.uint64(probe[-1] % 64) & np.uint64(1)).any())
            yield paths, allowed, leaves
        if not stack:
            break
        (paths, allowed, rest), piece = stack.pop()
        f, j = np.divmod(piece, m)
        if two_sided:
            rest = _batch._gather(ring.add_np, rest[f], less[j])
        block = (np.column_stack([paths[f], j]), allowed[f] & adj[j], rest)
    if ring.mul(k, k) == k and not seen:
        raise InvariantViolationError(
            f"search bug: scalar matrix missing from census over {ring.literal}"
        )


def _weigh(prefix, leaves, repeats):
    """The number of elements that the leaves of a block stand for: a leaf
    multiset whose runs of equal columns have sizes r_1, ..., r_s has
    n!/(r_1! ... r_s!) distinct orderings.  Columns repeat only when k = 0
    (`repeats`), so for any other k each leaf has n!.  A leaf after the last
    column of its node's prefix adds no run, and one equal to it lengthens
    the last run to r + 1, dividing the node's weight by r + 1.  The int64
    sums are exact while n! times a block's leaves, at most `_batch.CHUNK`,
    stays below 2^63: for n <= 15."""
    b, d = prefix.shape
    if not repeats or d == 0:
        return math.factorial(d + 1) * int(np.bitwise_count(leaves).sum())
    per = np.bitwise_count(leaves).sum(axis=1, dtype=np.int64)   # leaves per node
    last = prefix[:, -1]
    repeat = (leaves[np.arange(b), last >> 6] >> (last & 63).astype(np.uint64)
              & np.uint64(1)).view(np.int64)     # the leaf equal to the last column
    run, runs = 1, 1                              # each prefix's last run, its runs' r! product
    for i in range(1, d):
        run = np.where(prefix[:, i] == prefix[:, i - 1], run + 1, 1)
        runs = runs * run
    weight = math.factorial(d + 1) // runs        # of a leaf after the last column
    return int((weight * per - (weight - weight // (run + 1)) * repeat).sum())


@functools.cache
def _orderings(n, tied):
    """The distinct orderings of a sorted path of n candidates whose entries
    i and i + 1 are equal for each set bit i of `tied`, as the rows of
    positions into the path: the permutations that keep equal entries in
    path order.  Read-only, as every call shares them."""
    perms = _batch._permutations(n)[0]
    slot = np.argsort(perms, axis=1)              # slot[s, i]: where entry i goes
    ties = [i for i in range(n - 1) if tied >> i & 1]
    keep = perms[(slot[:, ties] < slot[:, [i + 1 for i in ties]]).all(axis=1)]
    keep.flags.writeable = False
    return keep


def enumerate_semigroup(ring, n, k, side="left", budget=None, *, one_sided=False):
    """Census of LO_n(k,R) / RO_n(k,R) / O_n(k,R), exact: one walk gives the
    nodes and, weighing each leaf multiset by its orderings, the count, and
    keeps the candidates and its leaf blocks, as yielded, while the blocks
    and the paths they list total at most `LIST_CAP` words each; the census
    lists its elements from them on first use (see `SemigroupCensus`).
    With `one_sided`, which only `census_table` reads, the walk also weighs
    the children of its blocks, the left elements before the row test, for
    `one_sided_count`."""
    side = normalize_side(side)
    counter, cands, walk = _search(ring, n, k, resolve_budget(budget), side == "two_sided")
    count, left, words, blocks, repeats = 0, 0 if one_sided else None, 0, [], k == ring.zero
    for prefix, children, leaves in walk:
        found = _weigh(prefix, leaves, repeats)
        count += found
        if one_sided:
            left += found if children is leaves else _weigh(prefix, children, repeats)
        words += prefix.size + leaves.size
        if max(words, count * n) > LIST_CAP:
            blocks = None   # too large to list: the census keeps its count only
        else:
            blocks.append((prefix, leaves))
    # the walk checks that kI is an element; I is kI for k = 1, else no element
    checks = {"closure_verified": None, "identity_present": k == ring.one, "is_group": None}
    return SemigroupCensus(ring, n, k, side, checks=checks, nodes=counter.spent,
                           count=count, profile=counter.profile, one_sided_count=left,
                           _blocks=(cands, blocks))


def count_semigroup(ring, n, k, side="left", budget=None):
    """(count, nodes) of LO_n(k,R) / RO_n(k,R) / O_n(k,R), building no matrix."""
    census = enumerate_semigroup(ring, n, k, side, budget)
    return census.count, census.nodes


# ---------------------------------------------------------------------------
# independent brute-force oracle

def enumerate_naive(ring, n, k, side="left"):
    """Direct |R|^(n*n) sweep testing every matrix against the definition.

    Independent of the pruned search; used as its oracle and for counting
    orthogonal groups over residue fields.  The sweep runs in lexicographic
    order, so the matrices come out in canonical order.
    """
    return _mats(ring, _naive_array(ring, n, k, side))


def _check_sweep(ring, n):
    """Refuse a sweep of the |R|^(n*n) matrices of M_n(R) for n < 1 or over
    NAIVE_CAP matrices, before anything is formed."""
    _check_degree(n)
    if n * n >= NAIVE_CAP.bit_length() or ring.order ** (n * n) > NAIVE_CAP:
        raise BudgetExceededError(
            f"naive sweep of {ring.order}^{_clip(n * n)} matrices exceeds the cap of {NAIVE_CAP}"
        )


def _naive_array(ring, n, k, side="left"):
    """`enumerate_naive` as an (m, n, n) index array."""
    rows, paths = _naive_paths(ring, n, k, side)
    return rows[paths]


def _naive_paths(ring, n, k, side="left"):
    """`enumerate_naive` as (rows, paths): the |R|^n vectors of R^n in
    lexicographic order and the (m, n) indices of each matrix's rows among
    them, in lexicographic order.

    A matrix is a tuple of n rows among the |R|^n vectors of R^n, so the
    sweep is a broadcast grid with one axis per row, in lexicographic order.
    A^T A is the ring sum of the outer products r_i^T r_i, so it is kI
    exactly when the sum over the first h = n // 2 rows equals kI minus the
    sum over the other n - h: the left test keys kI minus each of the
    |R|^(n*h) head sums and each of the |R|^(n*(n-h)) tail sums, and compares
    every head key with every tail key.  (A A^T)[i, j] is <r_i, r_j>, read
    off a table over the rows for i <= j only: the ring is commutative, so
    the table is symmetric.  A two-sided sweep tests the columns of the row
    test's survivors only, off the same table.
    """
    _check_sweep(ring, n)
    ring.check_element(k)
    side = normalize_side(side)
    rows = _batch.all_tuples(ring.order, n)
    shape = (len(rows),) * n                              # r_i runs along axis i
    target = np.full((n, n), ring.zero, dtype=np.uint8)
    np.fill_diagonal(target, k)
    if side == "left":                                    # A^T A = kI
        outer = _batch.batch_matmul(ring, rows[:, :, None], rows[:, None, :])
        h = n // 2
        need = _batch._gather(ring.add_np, target, ring.neg_np[_outer_sums(ring, outer, h)])
        head, tail = (_batch.row_keys(s.reshape(-1, n * n), ring.order)
                      for s in (need, _outer_sums(ring, outer, n - h)))
        mask = (head[:, None] == tail[None, :]).reshape(shape)
    else:                                                 # A A^T = kI
        dots = _batch.batch_matmul(ring, rows, rows.T)

        def gram_is_k(vec):     # vec[i] indexes the rows: their Gram test
            ok = True
            for i in range(n):
                for j in range(i, n):
                    ok = ok & (dots[vec[i], vec[j]] == target[i, j])
            return ok

        mask = gram_is_k(np.ix_(*[np.arange(len(rows))] * n))
    paths = np.stack(np.unravel_index(np.flatnonzero(mask), shape), axis=-1)
    if side == "two_sided":                               # A^T A = kI
        # a column's index among the rows is its base-|R| code
        cols = rows[paths].swapaxes(1, 2) @ ring.order ** np.arange(n - 1, -1, -1)
        paths = paths[gram_is_k(cols.T)]
    return rows, paths


def _outer_sums(ring, outer, count):
    """The ring sums of `count` of the (|R|^n, n, n) outer products, one per
    tuple of rows in lexicographic order, as a (|R|^(n*count), n, n) array."""
    n = outer.shape[-1]
    sums = np.full((1, n, n), ring.zero, dtype=np.uint8)
    for _ in range(count):
        sums = _batch._gather(ring.add_np, sums[:, None], outer[None]).reshape(-1, n, n)
    return sums


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
    uses, read off its paths and numbered in candidate order, which is the
    order of their row keys.  Column j of AB is A times column j of B, so
    AB is an element exactly when the tuple of the images of B's columns
    under A is one.  A acts on the used columns as a map sigma read off one
    table of the inner products of the distinct rows of the elements with
    the used columns; an image outside them fails at once.  Elements with equal maps have equal products with every B, so
    each distinct map is tested once (`_closed`).  The m*m_c images and m*m
    products are charged to the node budget first, and the prefix tree's
    tables as they are built (`_prefix_tree`).
    """
    ring, n, m = census.ring, census.n, census.count
    cands, paths = census._paths
    used, code = np.unique(paths.ravel(), return_inverse=True)
    mc = len(used)
    limit = resolve_budget()
    if m * mc + m * m > limit:
        raise BudgetExceededError(
            f"closure of {m} elements over {mc} columns needs {m * mc} images and "
            f"{m * m} product lookups, over the node budget of {limit}")
    ok = m == 0 or _closed(ring, cands[used], code.reshape(m, n), limit)
    census.checks["closure_verified"] = ok
    return ok


def _prefix_tree(code, width, limit, derived=0):
    """The prefix tree of the rows of `code` (m, n), entries below `width`,
    as n dense intp tables: `tables[j][p * width + c]` is the child by entry
    c of node p of depth j, or the dead node 0.  The root is node 1 of depth
    0, and no row reaches row 0 of a table, so a dead walk stays dead.  The
    nodes of depth j + 1 are numbered from 1 in the order of their (p, c),
    by marking the pairs in the table and numbering the marks, with no sort;
    those of depth n number the distinct rows.  Each table's rows, `width`
    entries each plus `derived` for a table the caller derives from it, are
    charged against the node budget `limit` before the table is allocated."""
    m, n = code.shape
    pair, size, spent, tables = code[:, 0] + width, 1, 0, []   # the root's pairs
    for j in range(n):
        spent += (size + 1) * (width + derived)
        if spent > limit:
            raise BudgetExceededError(
                f"a prefix tree of {m} rows of {n} entries below {width} needs {spent} "
                f"table entries by depth {j + 1}, over the node budget of {limit}")
        table = np.zeros((size + 1) * width, dtype=np.intp)
        table[pair] = 1
        live = np.flatnonzero(table)
        size = len(live)
        table[live] = np.arange(1, size + 1)
        tables.append(table)
        if j < n - 1:
            pair = table[pair] * width + code[:, j + 1]
    return tables


def _closed(ring, vecs, code, limit):
    """`verify_closure` of a nonempty census: `vecs` (m_c, n) the used
    columns in lexicographic order and `code` (m, n) the indices of each
    element's columns among them.

    The elements' tuples form a prefix tree (`_prefix_tree`).  The last
    columns below a node p of depth n - 1 are its bitmask of ceil(m_c / 64)
    words, and nodes with equal masks form one state.  For B below p, AB
    is an element iff sigma walks p's path to a live node t and sigma(b_n)
    is a last column below t; the b_n below p are exactly the columns of
    p's state.  So every AB passes iff the OR of the bits sigma(c) over the
    columns c of p's state lies in t's mask: one subset test per map and
    node, the dead node having the empty mask.  The walk runs node-major,
    every node's row holding all maps, so each gather reads whole rows.
    """
    (m, n), mc = code.shape, len(vecs)
    cols = _batch.row_keys(vecs, ring.order)             # sorted, as the columns are
    rows = vecs[code].swapaxes(1, 2).reshape(-1, n)      # the elements' rows
    _, first, row = np.unique(_batch.row_keys(rows, ring.order),
                              return_index=True, return_inverse=True)
    rows = rows[first]
    dots = np.empty((len(rows), mc), dtype=np.uint8)     # <row r, column c>
    for part in _batch.chunks(len(rows), mc * n):
        dots[part] = _batch.batch_matmul(ring, rows[part], vecs.T)
    # rows with equal inner products act alike on every used column, and so
    # do elements whose rows do: one map sigma per distinct tuple of classes
    _, first, cls = np.unique(dots.view(np.dtype((np.void, mc)))[:, 0],
                              return_index=True, return_inverse=True)
    act = cls[row].reshape(m, n)
    _, once = np.unique(act.view(np.dtype((np.void, act.itemsize * n)))[:, 0], return_index=True)
    dots, act = dots[first].T.copy(), act[once]
    maps = np.empty((mc, len(act)), dtype=np.intp)       # index of sigma(c), or -1
    for part in _batch.chunks(len(act), mc * n):
        maps[:, part] = _batch.lookup(cols, _batch.row_keys(dots[:, act[part]], ring.order))
    if (maps < 0).any():
        return False
    tables = _prefix_tree(code, mc, limit)
    step = [(table, *np.divmod(np.flatnonzero(table), mc)) for table in tables[:-1]]
    last = tables[-1].reshape(-1, mc) != 0               # the last columns below each node
    size, mask = len(last) - 1, _batch.pack_bits(last)   # bit c in word c // 64
    words = mask.shape[1]
    _, rep, state = np.unique(mask[1:].view(np.dtype((np.void, 8 * words)))[:, 0],
                              return_index=True, return_inverse=True)
    owner, member = np.nonzero(last[1:][rep])            # the columns of each state
    starts = np.searchsorted(owner, np.arange(len(rep)))
    outside = np.ascontiguousarray(~mask.T)              # (words, nodes)
    # blocks of CHUNK / 64 entries, so that the walk's gathers stay in cache
    for part in _batch.chunks(maps.shape[1], 64 * (size * words + len(member))):
        sigma = maps[:, part]                            # (m_c, maps)
        at = np.ones((1, sigma.shape[1]), dtype=np.intp) # the root, for each map
        for table, parent, col in step:
            at = table[at[parent - 1] * mc + sigma[col]]   # (nodes, maps)
        bit = np.left_shift(np.uint64(1), (sigma % 64).astype(np.uint64))
        for w in range(words):
            word = np.where(sigma // 64 == w, bit, 0)
            need = np.bitwise_or.reduceat(word[member], starts)   # (states, maps)
            if (need[state] & outside[w][at]).any():
                return False
    return True


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
    keys = _batch.row_keys(transposes.reshape(-1, n * n), ring.order)
    ok = bool(_batch.gram_is_scalar(ring, arr, ring.one).all()
              and (_batch.lookup(census._keys, keys) >= 0).all())
    census.checks["is_group"] = ok
    witnesses = dict(zip(census.elements, (_mat(ring, a) for a in transposes))) if ok else {}
    return {"is_group": ok, "identity": ident, "inverse_witnesses": witnesses}


def transpose_bijection_check(left_census, right_census):
    """True iff transposition maps the left census bijectively onto the right."""
    if (left_census.side, right_census.side) != ("left", "right"):
        raise InvalidParameterError(
            f"transpose check needs a left and a right census, "
            f"got {left_census.side} and {right_census.side}")
    if (left_census.ring, left_census.n, left_census.k) != (
            right_census.ring, right_census.n, right_census.k):
        raise InvalidParameterError("censuses must share ring, degree and k")
    # the transposes have the left columns as rows: key the paths as a right census's
    keys = _batch.path_keys(*left_census._paths, left_census.ring.order, columns=False)
    return np.array_equal(np.sort(keys), right_census._keys)


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
    count-only walk per factor of the CRT split gives both: |LO| is the
    two-sided census's `one_sided_count`, its leaf multisets before the row
    test weighed by their orderings, which no other caller asks the walk
    for.  Each count is the product of the factor counts
    (`_factored_counts`), and a row's `nodes` are those of the factor walks
    it ran first, so the rows' nodes add up to the nodes walked.
    """
    ks = ring.idempotents()
    rows = []
    for k, (o, lo, nodes) in zip(ks, _factored_counts(ring, n, ks, "two_sided", budget,
                                                      one_sided=True)[1]):
        rows.append({
            "k": ring.render(k),
            "lo": lo,
            "o": o,
            "diff": lo - o,
            "nodes": nodes,
        })
    return rows


def _factored_counts(ring, n, ks, side, budget=None, *, one_sided=False):
    """(count_from, [(count, one_sided_count, nodes)] at each k of `ks`), by
    the CRT theorem: over R = R_1 x ... x R_t the equations A^T A = kI and
    A A^T = kI split entry by entry, so the census is the product of the
    censuses over the factors of `crt.split(ring)` at forward(k), for every
    k.  A field factor is counted in closed form (`crt._field_count`, no
    nodes); any other, such as Z4, is walked by `enumerate_semigroup`.
    `one_sided`, which only `census_table` asks for, weighs the walk's
    `one_sided_count` and walks every factor, the fields too, as the
    searched oracle of the golden tables; without it `one_sided_count` is
    None.  `count_from` says, per factor, "closed-form" or "walk".  Each
    factor is counted once per (factor, k_j) in one call, and the counts
    multiply; `nodes` are those of the walks a k ran first.  A local ring
    is its own single factor.  A factor over the budget raises naming the
    factor and its k_j."""
    from .crt import _field_count, split     # crt builds on this module
    crt_split, limit = split(ring), resolve_budget(budget)
    walked = [one_sided or not f.is_field() for f in crt_split.factors]
    counts, out = {}, []
    for k in ks:
        count, left, nodes = 1, 1, 0
        for factor, kj, walk in zip(crt_split.factors, crt_split.forward(k), walked):
            if (factor, kj) not in counts:
                try:
                    if walk:
                        census = enumerate_semigroup(factor, n, kj, side, limit,
                                                     one_sided=one_sided)
                        counts[factor, kj] = census.count, census.one_sided_count
                        nodes += census.nodes
                    else:
                        counts[factor, kj] = _field_count(factor, n, kj, side, limit), None
                except BudgetExceededError as exc:
                    if len(crt_split.factors) == 1:
                        raise
                    raise BudgetExceededError(
                        f"walking factor {factor.literal} of {ring.literal} at "
                        f"k={factor.render(kj)}: {exc}", exc.profile) from None
            count *= counts[factor, kj][0]
            if one_sided:
                left *= counts[factor, kj][1]
        out.append((count, left if one_sided else None, nodes))
    return ["walk" if walk else "closed-form" for walk in walked], out


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
    for paths, _, leaves in blocks:
        if leaves.any():
            f, j = divmod(int(_batch.unpack_bits(leaves, len(cands)).argmax()), len(cands))
            break
    else:
        return None, counter.spent
    a = cands[[*paths[f], j]].T              # chosen vectors are the columns
    if not _batch.gram_is_scalar(ring, a, k):
        # a (-1)-orthogonal matrix is invertible, so one-sidedness
        # cannot happen; treat it as a search bug
        raise InvariantViolationError("left antiorthogonal witness was not right antiorthogonal")
    return _mat(ring, a), counter.spent
