"""Residue decompositions of semi-local rings and the census cross-checks.

A `CrtSplit` carries the componentwise isomorphism from a ring onto a product
of factor rings as one table of factor images: Z_n splits by prime powers
(e -> e mod q), F+vF splits onto two copies of F via the explicit linear maps
(a+vb -> (a+b, a) when v*v = v; a+vb -> (a-b, a+b) when v*v = 1), and product
rings split each component by its own split (Z6xZ5 -> Z2 x Z3 x Z5).  The
inverse map is the same table read backwards, through the mixed-radix code
of the factor parts.  `split` builds and verifies the split once per ring,
and the counts of `search.census_table` and of the count-only census are
products over its factors.  The count-only census counts a field factor in
closed form (`_field_count`): at a = 0 from the number of totally isotropic
subspaces (D. E. Taylor, The Geometry of the Classical Groups, 1992), at a
unit a from |O_n(F_q)| (F. J. MacWilliams, Amer. Math. Monthly 76, 1969),
which is also `orth_group_order`; `census_table` walks every factor.  When every
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
    _clip,
    make_zmod,
)
from .search import (
    _check_search,
    _check_sweep,
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
    the factors of their components' splits; fields split trivially.  The
    split is fixed by the ring, so it is built and verified once per ring
    and shared by every call with an equal ring; its `forward_np` is
    read-only.
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
    elif isinstance(ring, ProductRing):     # each component by its own split
        parts = [split(c) for c in ring.components_rings]
        digits = np.unravel_index(e, [c.order for c in ring.components_rings])
        factors = [f for part in parts for f in part.factors]
        images = [image for part, x in zip(parts, digits) for image in part.forward_np[x].T]
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
    """|O_n(R)| as the product of |O_n(F_q)| over the residue fields of the
    ring, in closed form (`_orthogonal_order`); the node budget bounds only
    the degree."""
    crt_split = split(ring)
    crt_split.require_fields()
    limit = resolve_budget()
    return math.prod(_field_count(f, n, f.one, "two_sided", limit) for f in crt_split.factors)


# ---------------------------------------------------------------------------
# closed forms over a field (Taylor 1992, MacWilliams 1969; see above)

def _field_count(field, n, a, side, limit):
    """|LO_n(a, F_q)| = |RO_n(a, F_q)|, or |O_n(a, F_q)| when two-sided, in
    closed form.  It first refuses what `search._search` refuses, so the
    node budget `limit` bounds only the degree.

    At a = 0 it is `_lo_zero_over_a_field` or `_o_zero_over_a_field`.  At a
    unit a, A^T A = aI makes A invertible, so LO = RO = O, and
    det(A)^2 = a^n: it is empty unless a^n is a square, and otherwise one
    coset A_0 O_n(F_q), as every form aI with a^n a square is equivalent to
    I.  a^n is a square when n is even, and when a is; the squares are the
    diagonal of the multiplication table."""
    _check_search(field, n, a, limit)
    q = field.order
    if a == field.zero:
        return _o_zero_over_a_field(q, n) if side == "two_sided" else _lo_zero_over_a_field(q, n)
    square = n % 2 == 0 or bool((np.diagonal(field.mul_np) == a).any())
    return _orthogonal_order(q, n) if square else 0


def _lo_zero_over_a_field(q, n):
    """|LO_n(0, F_q)| = sum_r N_r prod_{i<r} (q^n - q^i): a matrix with
    A^T A = 0 maps F_q^n onto a totally isotropic subspace of dimension r,
    and N_r is the number of those subspaces, for the dot product x.y."""
    return sum(_isotropic_subspaces(q, n, r) * math.prod(q ** n - q ** i for i in range(r))
               for r in range(n // 2 + 1))


def _o_zero_over_a_field(q, n):
    """|O_n(0, F_q)| = sum_r N_r^2 |GL_r(F_q)|: A A^T = 0 as well makes the
    row space W totally isotropic too, and A is fixed by its image U, W,
    and the isomorphism it induces from F_q^n / W^perp onto U."""
    return 1 + sum(_isotropic_subspaces(q, n, r) ** 2 * gl_order(q, r)   # 1: r = 0, A = 0
                   for r in range(1, n // 2 + 1))


def _exact(top, bottom):
    """top / bottom, which the closed form says is whole."""
    out, rest = divmod(top, bottom)
    if rest:
        raise InvariantViolationError(
            f"closed form: {_clip(bottom)} does not divide {_clip(top)}")
    return out


def _eps(q, m):
    """+1 when (-1)^m is a square in F_q, q odd (x.x on F_q^2m is then
    hyperbolic), else -1."""
    return 1 if m % 2 == 0 or q % 4 == 1 else -1


def _isotropic_subspaces(q, n, r):
    """N_r, the number of r-dimensional totally isotropic subspaces of F_q^n
    for the dot product x.y, for r <= n // 2; there are none above.  Every
    exponent below is then >= 0, so the arithmetic stays in integers.  For
    even q the isotropic vectors span the hyperplane sum x_i = 0, on which
    the form is alternating."""
    def sym(m, r):      # prod_{i<r} (q^(2(m-i)) - 1)/(q^(i+1) - 1)
        return _exact(math.prod(q ** (2 * (m - i)) - 1 for i in range(r)),
                      math.prod(q ** (i + 1) - 1 for i in range(r)))

    if q % 2 == 0:
        return sym((n - 1) // 2, r) if n % 2 else (
            (sym((n - 2) // 2, r - 1) if r else 0) + q ** r * sym((n - 2) // 2, r))
    if n % 2:
        return sym(n // 2, r)
    m, eps = n // 2, _eps(q, n // 2)
    return _exact(math.prod((q ** (m - i) - eps) * (q ** (m - i - 1) + eps) for i in range(r)),
                  math.prod(q ** (i + 1) - 1 for i in range(r)))


def _orthogonal_order(q, n):
    """|O_n(F_q)| for the dot product: for odd q, 2 |Sp_2m(F_q)| at
    n = 2m + 1 and 2 q^(m-1) (q^m - eps) |Sp_2m-2(F_q)| at n = 2m; for even
    q, |Sp_n-1(F_q)| at odd n and q^(n-1) |Sp_n-2(F_q)| at even n."""
    def sp(m):          # |Sp_2m(F_q)|
        return q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))

    m = n // 2
    if q % 2 == 0:
        return sp(m) if n % 2 else q ** (n - 1) * sp(m - 1)
    return 2 * sp(m) if n % 2 else 2 * q ** (m - 1) * (q ** m - _eps(q, m)) * sp(m - 1)
