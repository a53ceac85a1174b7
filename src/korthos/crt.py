"""Residue decompositions of semi-local rings and the census cross-checks.

A `CrtSplit` carries the componentwise isomorphism from a ring onto a product
of factor rings as one table of factor images: Z_n splits by prime powers
(e -> e mod q), F+vF splits onto two copies of F via the explicit linear maps
(a+vb -> (a+b, a) when v*v = v; a+vb -> (a-b, a+b) when v*v = 1), and product
rings split into their components.  The inverse map is the same table read
backwards, through the mixed-radix code of the factor parts.  `split` builds
and verifies the split once per ring, and the counts of `search.census_table`
and of the count-only census are products over its factors.  When every
factor is a field, semigroup censuses over the source ring must match the
products of the field-level censuses factor by factor;
`verify_semigroup_isomorphism` checks this with the actual bijection, not
just the counts.  Each element of the census walks, along its path, the
prefix tree of each factor census to the rank of its factor part, and the
ranks place it in the product, whose every position must be taken once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import _batch
from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    InvariantViolationError,
    NotSplittableError,
)
from .matrices import _array, _mat
from .rings import (
    GaloisFieldRing,
    ProductRing,
    Ring,
    VExtensionRing,
    ZmodRing,
    make_zmod,
)
from .search import (
    _check_sweep,
    _naive_array,
    _naive_paths,
    _prefix_tree,
    enumerate_semigroup,
    normalize_side,
    resolve_budget,
)


def _prime_power_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            q = 1
            while n % d == 0:
                n //= d
                q *= d
            out.append(q)
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(eq=False)  # an array field has no single truth value under ==
class CrtSplit:
    """A ring isomorphism from `source` onto the componentwise product of the
    factors, held as the (order, factors) index array `forward_np`: row e
    holds the factor images of e."""

    source: Ring
    factors: list
    forward_np: np.ndarray

    @property
    def _dims(self):
        return tuple(f.order for f in self.factors)

    @cached_property
    def _inverse(self):
        """The source element of each mixed-radix code of factor parts, -1
        where no element maps."""
        inv = np.full(math.prod(self._dims), -1)
        inv[np.ravel_multi_index(self.forward_np.T, self._dims)] = np.arange(self.source.order)
        return inv

    def forward(self, e):
        self.source.check_element(e)
        return tuple(self.forward_np[e].tolist())

    def backward(self, parts):
        parts = tuple(parts)
        if len(parts) != len(self.factors):
            raise InvalidParameterError("component count mismatch")
        for f, x in zip(self.factors, parts):
            f.check_element(x)
        return self._inverse.item(np.ravel_multi_index(parts, self._dims))

    def splits_to_fields(self):
        return all(f.is_field() for f in self.factors)

    def require_fields(self):
        if not self.splits_to_fields():
            bad = ", ".join(f.literal for f in self.factors if not f.is_field())
            raise NotSplittableError(
                f"{self.source.literal} does not split into fields (non-field factor(s): {bad})"
            )

    def verify(self):
        """Exhaustive bijection and homomorphism check: the map is injective
        onto a product of the same size, and the ring tables are compared
        with the factor tables through `forward_np`."""
        R, fwd = self.source, self.forward_np
        if ((fwd >= self._dims).any() or math.prod(self._dims) != R.order
                or (self._inverse < 0).any()):
            raise InvariantViolationError("CRT forward map is not a bijection")
        if fwd[R.zero].tolist() != [f.zero for f in self.factors]:
            raise InvariantViolationError("CRT map does not preserve 0")
        if fwd[R.one].tolist() != [f.one for f in self.factors]:
            raise InvariantViolationError("CRT map does not preserve 1")
        for table, name in (("add_np", "+"), ("mul_np", "*")):
            for j, f in enumerate(self.factors):
                x = fwd[:, j]
                if not np.array_equal(fwd[getattr(R, table), j],
                                      _batch._gather(getattr(f, table), x[:, None], x[None, :])):
                    raise InvariantViolationError(f"CRT map does not preserve {name}")


def split(ring):
    """The verified residue decomposition of a supported ring.

    Z_n factors by prime powers (a single prime power is its own sole
    factor); v-extensions map onto base x base; product rings split into
    components; fields split trivially.  The split is fixed by the ring, so
    it is built and verified once per ring and shared by every call with an
    equal ring; its `forward_np` is read-only.
    """
    return _split(ring)


@cache
def _split(ring):
    e = np.arange(ring.order)
    if isinstance(ring, ZmodRing):
        qs = _prime_power_factors(ring.n)
        factors = [ring] if len(qs) == 1 else [make_zmod(q) for q in qs]
        images = [e % q for q in qs]
    elif isinstance(ring, VExtensionRing):
        F = ring.base
        factors = [F, F]
        a, b = ring.components(e)
        if ring.v_square == "v":
            images = [_batch._gather(F.add_np, a, b), a]
        else:
            images = [_batch._gather(F.add_np, a, F.neg_np[b]), _batch._gather(F.add_np, a, b)]
    elif isinstance(ring, ProductRing):
        factors = list(ring.components_rings)
        images = np.unravel_index(e, [f.order for f in factors])
    elif isinstance(ring, GaloisFieldRing):
        factors, images = [ring], [e]
    else:
        raise NotSplittableError(f"no residue decomposition for {ring.literal}")
    forward = np.stack(images, axis=1).astype(np.uint8)
    forward.flags.writeable = False
    out = CrtSplit(ring, factors, forward)
    out.verify()
    return out


def map_matrix(crt_split, mat):
    """Entrywise forward image of a matrix, one factor matrix per component."""
    if mat.ring != crt_split.source:
        raise InvalidParameterError("matrix is not over the split's source ring")
    images = crt_split.forward_np[_array(mat)]
    return tuple(_mat(factor, images[..., j]) for j, factor in enumerate(crt_split.factors))


def verify_semigroup_isomorphism(ring, n, k, side="left", budget=None):
    """Check that the census over the ring maps bijectively onto the product
    of the factor-field censuses, and that the counts multiply accordingly.

    The factor parameters a_j are always computed as forward(k); the factor
    censuses use the independent brute-force counter when feasible, the
    pruned search otherwise.  `nodes` sums the nodes of every pruned search.

    The bijection is checked forwards, on the direct census's paths.  Each
    factor census is held as paths too: its vectors in lexicographic order
    and the indices of each element's columns (rows for a right census)
    among them.  A walked census has them as its paths; the naive sweep
    lists its elements by their rows in lexicographic order, and the
    columns of LO_n(a) are the rows of RO_n(a) = {A^T}, so a one-sided
    factor reads them off the right sweep and a two-sided one off its own.
    The factor image of each direct candidate is given its rank among the
    factor's vectors, one symbol each, by one table over the base-q codes
    of the q^n vectors, and every element walks the factor census's prefix
    tree (`search._prefix_tree`) along the symbols of its path: n table
    gathers reach its leaf, the rank of its factor part in the factor
    census, or the dead node 0 for a part outside it.  An image column
    outside the factor's vectors is the dead symbol, the tables' last
    column, which no path takes.  The ranks give each
    element one position in the product of the factor censuses; every
    element lands in the product, and with as many elements as positions,
    marking every position shows the map is a bijection.  The tree's tables,
    and their restrictions to the direct candidates that the walk gathers
    from, are charged against the node budget before they are allocated.
    """
    ring.check_element(k)
    if ring.mul(k, k) != k:
        raise InvalidParameterError(f"{ring.render(k)} is not idempotent")
    side = normalize_side(side)
    crt_split = split(ring)
    crt_split.require_fields()

    a = crt_split.forward(k)
    direct = enumerate_semigroup(ring, n, k, side, budget=budget)
    nodes = direct.nodes

    factor_paths = []           # (vectors, paths) of each factor census
    for factor, aj in zip(crt_split.factors, a):
        try:
            factor_paths.append(_naive_paths(factor, n, aj,
                                             "two_sided" if side == "two_sided" else "right"))
        except BudgetExceededError:
            census = enumerate_semigroup(factor, n, aj, side, budget=budget)
            nodes += census.nodes
            factor_paths.append(census._paths)
    factor_counts = [len(paths) for _, paths in factor_paths]
    product = math.prod(factor_counts)

    bijection_ok = direct.count == product
    if bijection_ok:
        limit = resolve_budget(budget)
        cands, paths = direct._paths
        position = np.zeros(direct.count, dtype=np.intp)
        for j, (factor, (vecs, factor_path)) in enumerate(zip(crt_split.factors, factor_paths)):
            width = len(vecs) + 1                # the last symbol is the dead one
            code = factor.order ** np.arange(n - 1, -1, -1)     # a vector's base-q code
            rank = np.full(factor.order ** n, len(vecs))        # by code; else dead
            rank[vecs @ code] = np.arange(len(vecs))
            symbol = rank[crt_split.forward_np[cands, j] @ code]
            tables = _prefix_tree(factor_path, width, limit, derived=len(cands))
            at = tables[0][width:2 * width][symbol].take(paths[:, 0])   # from the root, node 1
            for d, table in enumerate(tables[1:], 1):
                # the table on the direct candidates: one row per node
                at = table.reshape(-1, width)[:, symbol].ravel().take(at * len(cands) + paths[:, d])
            if not at.all():
                bijection_ok = False
                break
            position = position * len(factor_path) + (at - 1)
        else:
            hit = np.zeros(product, dtype=bool)
            hit[position] = True
            bijection_ok = bool(hit.all())

    return {
        "ring": ring.literal,
        "n": n,
        "k": ring.render(k),
        "side": side,
        "factors": [f.literal for f in crt_split.factors],
        "a_j": [f.render(x) for f, x in zip(crt_split.factors, a)],
        "factor_counts": factor_counts,
        "product": product,
        "direct_count": direct.count,
        "bijection_ok": bijection_ok,
        "nodes": nodes,
    }


def gl_order(q, n):
    """|GL_n(F_q)| = q^(n(n-1)/2) * prod_{i=1..n} (q^i - 1)."""
    if n < 1:
        raise InvalidParameterError("degree must be >= 1")
    qs = _prime_power_factors(q)
    if len(qs) != 1 or qs[0] != q or q < 2:
        raise InvalidParameterError(f"{q} is not a prime power")
    out = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        out *= q ** i - 1
    return out


def gl_order_bruteforce(ring, n):
    """Count invertible matrices by sweeping all of M_n(R) and testing the
    determinant; the independent check for the GL order formula."""
    _check_sweep(ring, n)
    mats = _batch.all_tuples(ring.order, n * n).reshape(-1, n, n)
    is_unit = np.isin(np.arange(ring.order), list(ring.units()))
    return sum(int(is_unit[_batch.det(ring, mats[part])].sum())
               for part in _batch.chunks(len(mats), math.factorial(n) * n))


def orth_group_order(ring, n):
    """|O_n(R)| as the product of brute-force field-level counts over the
    residue fields of the ring."""
    crt_split = split(ring)
    crt_split.require_fields()
    out = 1
    for factor in crt_split.factors:
        out *= len(_naive_array(factor, n, factor.one, "two_sided"))
    return out
