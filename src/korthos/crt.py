"""Residue decompositions of semi-local rings and the census cross-checks.

A `CrtSplit` carries the componentwise isomorphism from a ring onto a product
of factor rings: Z_n splits by prime powers (with Bezout reconstruction),
F+vF splits onto two copies of F via the explicit linear maps
(a+vb -> (a+b, a) when v*v = v; a+vb -> (a-b, a+b) when v*v = 1), and product
rings split into their components.  When every factor is a field, semigroup
censuses over the source ring must match the products of the field-level
censuses factor by factor; `verify_semigroup_isomorphism` checks this with
the actual bijection, not just the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

VERIFY_SPLIT_CAP = 64


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


@dataclass
class CrtSplit:
    """forward/backward are mutually inverse; forward is a ring isomorphism
    onto the componentwise product of the factors."""

    source: Ring
    factors: list
    _forward: callable
    _backward: callable

    def forward(self, e):
        self.source.check_element(e)
        return self._forward(e)

    def backward(self, parts):
        parts = tuple(parts)
        if len(parts) != len(self.factors):
            raise InvalidParameterError("component count mismatch")
        for f, x in zip(self.factors, parts):
            f.check_element(x)
        return self._backward(parts)

    def splits_to_fields(self):
        return all(f.is_field() for f in self.factors)

    def require_fields(self):
        if not self.splits_to_fields():
            bad = ", ".join(f.literal for f in self.factors if not f.is_field())
            raise NotSplittableError(
                f"{self.source.literal} does not split into fields (non-field factor(s): {bad})"
            )

    def verify(self):
        """Exhaustive round-trip and homomorphism check (desk scale)."""
        R = self.source
        if R.order > VERIFY_SPLIT_CAP:
            return
        for e in R.elements():
            if self.backward(self.forward(e)) != e:
                raise InvariantViolationError("CRT round trip fails")
        seen = {self.forward(e) for e in R.elements()}
        if len(seen) != R.order:
            raise InvariantViolationError("CRT forward map is not injective")
        if self.forward(R.zero) != tuple(f.zero for f in self.factors):
            raise InvariantViolationError("CRT map does not preserve 0")
        if self.forward(R.one) != tuple(f.one for f in self.factors):
            raise InvariantViolationError("CRT map does not preserve 1")
        for a in R.elements():
            fa = self.forward(a)
            for b in R.elements():
                fb = self.forward(b)
                if self.forward(R.add(a, b)) != tuple(
                        f.add(x, y) for f, x, y in zip(self.factors, fa, fb)):
                    raise InvariantViolationError("CRT map does not preserve +")
                if self.forward(R.mul(a, b)) != tuple(
                        f.mul(x, y) for f, x, y in zip(self.factors, fa, fb)):
                    raise InvariantViolationError("CRT map does not preserve *")


def split(ring):
    """Build the verified residue decomposition of a supported ring.

    Z_n factors by prime powers (a single prime power is its own sole
    factor); v-extensions map onto base x base; product rings split into
    components; fields split trivially.
    """
    if isinstance(ring, ZmodRing):
        qs = _prime_power_factors(ring.n)
        factors = [make_zmod(q) for q in qs]
        n = ring.n

        def fwd(e, qs=tuple(qs)):
            return tuple(e % q for q in qs)

        # Bezout basis: e_i = 1 mod q_i, 0 mod the others
        basis = []
        for q in qs:
            m = n // q
            g, inv = _bezout_inverse(m, q)
            if g != 1:
                raise InvariantViolationError("prime power factors not coprime")
            basis.append((m * inv) % n)

        def bwd(parts, basis=tuple(basis), n=n):
            return sum(r * b for r, b in zip(parts, basis)) % n

        out = CrtSplit(ring, factors, fwd, bwd)
    elif isinstance(ring, VExtensionRing):
        F = ring.base
        if ring.v_square == "v":
            def fwd(e, ring=ring, F=F):
                a, b = ring.components(e)
                return (F.add(a, b), a)

            def bwd(parts, ring=ring, F=F):
                s, t = parts
                return ring.make(t, F.sub(s, t))
        else:
            inv2 = F.inverse(F.add(F.one, F.one))

            def fwd(e, ring=ring, F=F):
                a, b = ring.components(e)
                return (F.sub(a, b), F.add(a, b))

            def bwd(parts, ring=ring, F=F, inv2=inv2):
                s, t = parts
                return ring.make(F.mul(F.add(s, t), inv2), F.mul(F.sub(t, s), inv2))

        out = CrtSplit(ring, [F, F], fwd, bwd)
    elif isinstance(ring, ProductRing):
        out = CrtSplit(
            ring, list(ring.components_rings),
            ring.components,
            lambda parts, ring=ring: ring.make(parts),
        )
    elif isinstance(ring, GaloisFieldRing):
        out = CrtSplit(ring, [ring], lambda e: (e,), lambda parts: parts[0])
    else:
        raise NotSplittableError(f"no residue decomposition for {ring.literal}")
    out.verify()
    return out


def _bezout_inverse(a, m):
    """gcd(a, m) and the inverse of a modulo m when the gcd is 1."""
    g, x = math.gcd(a, m), None
    if g == 1:
        x = pow(a, -1, m)
    return g, x


def map_matrix(crt_split, mat):
    """Entrywise forward image of a matrix, one factor matrix per component."""
    if mat.ring != crt_split.source:
        raise InvalidParameterError("matrix is not over the split's source ring")
    images = [crt_split.forward(e) for e in mat.entries]
    out = []
    for idx, factor in enumerate(crt_split.factors):
        out.append(Mat(factor, mat.rows, mat.cols, [img[idx] for img in images]))
    return tuple(out)


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

    # images[e, :, j] is the j-th factor image of the e-th direct element
    forward = np.array([crt_split.forward(e) for e in ring.elements()], dtype=np.uint8)
    images = forward[direct.array.reshape(-1, n * n)]
    bijection_ok = direct.count == product and all(
        np.isin(_batch.row_keys(images[:, :, j]), _batch.row_keys(arr)).all()
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
        if _det_of(ring, n, entries) in units:
            count += 1
    return count


def _det_of(ring, n, entries):
    return Mat(ring, n, n, entries).det()


def orth_group_order(ring, n, budget=None):
    """|O_n(R)| as the product of brute-force field-level counts over the
    residue fields of the ring."""
    crt_split = split(ring)
    crt_split.require_fields()
    out = 1
    for factor in crt_split.factors:
        out *= len(_naive_array(factor, n, factor.one, "two_sided"))
    return out
