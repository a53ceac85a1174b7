"""Residue decompositions of semi-local rings and the census cross-checks.

A `CrtSplit` carries the componentwise isomorphism from a ring onto a product
of factor rings as one table of factor images: Z_n splits by prime powers
(e -> e mod q), F+vF splits onto two copies of F via the explicit linear maps
(a+vb -> (a+b, a) when v*v = v; a+vb -> (a-b, a+b) when v*v = 1), and product
rings split into their components.  The inverse map is the same table read
backwards, through the mixed-radix code of the factor parts.  When every
factor is a field, semigroup censuses over the source ring must match the
products of the field-level censuses factor by factor;
`verify_semigroup_isomorphism` checks this with the actual bijection, not
just the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _batch
from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    InvariantViolationError,
    NotSplittableError,
)
from .matrices import Mat
from .rings import (
    GaloisFieldRing,
    ProductRing,
    Ring,
    VExtensionRing,
    ZmodRing,
    make_zmod,
)
from .search import _naive_array, enumerate_semigroup, normalize_side


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
                                      getattr(f, table)[x[:, None], x[None, :]]):
                    raise InvariantViolationError(f"CRT map does not preserve {name}")


def split(ring):
    """Build the verified residue decomposition of a supported ring.

    Z_n factors by prime powers (a single prime power is its own sole
    factor); v-extensions map onto base x base; product rings split into
    components; fields split trivially.
    """
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
            images = [F.add_np[a, b], a]
        else:
            images = [F.add_np[a, F.neg_np[b]], F.add_np[a, b]]
    elif isinstance(ring, ProductRing):
        factors = list(ring.components_rings)
        images = np.unravel_index(e, [f.order for f in factors])
    elif isinstance(ring, GaloisFieldRing):
        factors, images = [ring], [e]
    else:
        raise NotSplittableError(f"no residue decomposition for {ring.literal}")
    out = CrtSplit(ring, factors, np.stack(images, axis=1).astype(np.uint8))
    out.verify()
    return out


def map_matrix(crt_split, mat):
    """Entrywise forward image of a matrix, one factor matrix per component."""
    if mat.ring != crt_split.source:
        raise InvalidParameterError("matrix is not over the split's source ring")
    images = crt_split.forward_np[list(mat.entries)]
    return tuple(Mat(factor, mat.rows, mat.cols, images[:, j].tolist())
                 for j, factor in enumerate(crt_split.factors))


def verify_semigroup_isomorphism(ring, n, k, side="left", budget=None):
    """Check that the census over the ring maps bijectively onto the product
    of the factor-field censuses, and that the counts multiply accordingly.

    The factor parameters a_j are always computed as forward(k); the factor
    censuses use the independent brute-force counter when feasible, the
    pruned search otherwise.  `nodes` sums the nodes of every pruned search.
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

    factor_arrays = []
    for factor, aj in zip(crt_split.factors, a):
        try:
            arr = _naive_array(factor, n, aj, side)
        except BudgetExceededError:
            census = enumerate_semigroup(factor, n, aj, side, budget=budget)
            nodes += census.nodes
            arr = census.array
        factor_arrays.append(arr.reshape(-1, n * n))
    factor_counts = [len(arr) for arr in factor_arrays]
    product = math.prod(factor_counts)

    # images[e, :, j] is the j-th factor image of the e-th direct element;
    # the factor arrays are in canonical order, so their keys are sorted
    images = crt_split.forward_np[direct.array.reshape(-1, n * n)]
    bijection_ok = direct.count == product and all(
        (_batch.lookup(_batch.row_keys(arr), _batch.row_keys(images[:, :, j])) >= 0).all()
        for j, arr in enumerate(factor_arrays))
    if bijection_ok:
        # distinct elements must have distinct image tuples
        keys = np.sort(_batch.row_keys(images.reshape(direct.count, -1)))
        bijection_ok = bool((keys[1:] != keys[:-1]).all())

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
    import itertools

    units = ring.units()
    count = 0
    for entries in itertools.product(range(ring.order), repeat=n * n):
        if Mat(ring, n, n, entries).det() in units:
            count += 1
    return count


def orth_group_order(ring, n):
    """|O_n(R)| as the product of brute-force field-level counts over the
    residue fields of the ring."""
    crt_split = split(ring)
    crt_split.require_fields()
    out = 1
    for factor in crt_split.factors:
        out *= len(_naive_array(factor, n, factor.one, "two_sided"))
    return out
