"""Finite commutative rings with unity on dense element indices.

Every ring presents its elements as the integers ``0 .. order-1`` with a fixed
enumeration order, so censuses and golden files are reproducible:

* ``Z_n``            -- by residue;
* ``GF(p, r)``       -- coefficient vector of the polynomial basis read as a
                        base-``p`` integer, constant term least significant;
* ``F + vF``         -- pair ``(a, b)`` for ``a + v*b``, index ``= a*|F| + b``;
* product rings      -- lexicographic by component.

Every ring is table-backed: addition, multiplication and negation are looked
up in ``uint8`` numpy tables (``add_np``, ``mul_np``, ``neg_np``) built once
at construction, so rings of order above 256 (``TABLE_CAP``) are rejected
there.  Each kind builds its addition and multiplication tables from its
structure in whole-array numpy operations (residues, polynomial convolution,
gathers from the base or component tables); negation is read off the
addition table.  These arrays are the only tables: the scalar methods and
the vectorized ops in ``_batch`` index the same ones.  A ring is nothing
more than these tables: they come from the ring's structure, so the axioms
hold by construction, and the tests check every builder against the
textbook operations.  Z_p[x]/(m) is a field exactly when m is irreducible,
so ``GF(p, r)`` rejects a modulus whose tables have a zero divisor.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import (
    InvalidParameterError,
    InvariantViolationError,
    NotAUnitError,
    RingMismatchError,
)

TABLE_CAP = 256


# ---------------------------------------------------------------------------
# polynomial helpers over Z_p (coefficient tuples, constant term first)

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mod(p, a, m):
    """Remainder of a by the monic polynomial m, coefficients mod p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(len(m)):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return _poly_trim(a)


def render_poly(coeffs):
    """Human form of a coefficient tuple, descending powers: ``x^2+x+1``."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            base = "x" if i == 1 else f"x^{i}"
            terms.append(base if c == 1 else f"{c}{base}")
    return "+".join(terms) if terms else "0"


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?x(?:\^(\d+))?$|^(\d+)$")


def _clip(value, limit=32):
    """`value` as an error message echoes it: a number, or the repr of a
    literal cut in the middle past `limit` characters; a huge int is
    described by its bit length instead of being converted to text."""
    if isinstance(value, int):
        return f"a {value.bit_length()}-bit number" if value.bit_length() > 3 * limit else str(value)
    text = repr(value)
    if len(text) <= limit:
        return text
    return f"{text[:limit // 2]}...{text[-(limit // 2):]} ({len(text)} characters)"


def _check_factor_count(count):
    # every factor has at least two elements, so nine give at least 512
    if count >= TABLE_CAP.bit_length():
        raise InvalidParameterError(
            f"a product of {count} rings has more than the supported order {TABLE_CAP} elements"
        )


def _parse_int(text, what):
    """int(text), with a malformed or oversized number reported as bad input."""
    try:
        return int(text)
    except ValueError:
        raise InvalidParameterError(f"cannot parse {_clip(text)} as {what}") from None


def parse_poly(text, p, max_degree=None):
    """Parse ``x^2+x+1`` style polynomials into a coefficient tuple mod p.

    A term of degree above ``max_degree`` is rejected before the tuple is
    built."""
    s = text.replace(" ", "")
    if not s:
        raise InvalidParameterError("empty polynomial")
    coeffs = {}
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise InvalidParameterError(f"bad polynomial term {_clip(term)} in {_clip(text)}")
        what = f"a coefficient or exponent in {_clip(text)}"
        if m.group(3) is not None:
            deg, c = 0, _parse_int(m.group(3), what)
        else:
            deg = _parse_int(m.group(2), what) if m.group(2) else 1
            c = _parse_int(m.group(1), what) if m.group(1) else 1
        if max_degree is not None and deg > max_degree:
            raise InvalidParameterError(f"{_clip(text)} has a term of degree above {max_degree}")
        coeffs[deg] = (coeffs.get(deg, 0) + c) % p
    top = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(top + 1))


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# low-weight irreducibles for every prime power p^r <= 49 with r >= 2
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),          # x^2+x+1
    (2, 3): (1, 1, 0, 1),       # x^3+x+1
    (2, 4): (1, 1, 0, 0, 1),    # x^4+x+1
    (2, 5): (1, 0, 1, 0, 0, 1), # x^5+x^2+1
    (3, 2): (1, 0, 1),          # x^2+1
    (3, 3): (1, 2, 0, 1),       # x^3+2x+1
    (5, 2): (2, 0, 1),          # x^2+2
    (7, 2): (1, 0, 1),          # x^2+1
}


# ---------------------------------------------------------------------------

class Ring:
    """A finite commutative ring with unity; elements are indices 0..order-1.

    Subclasses provide `_tables`, which returns the addition and
    multiplication tables as integer arrays built from the ring's structure,
    rendering, and a structural `key`.  Negation is the column where each
    row of the addition table is zero.
    Two descriptors compare equal iff their keys match, so independently
    constructed copies of the same ring interoperate.
    """

    kind = "abstract"

    def __init__(self, order):
        if order < 2:
            raise InvalidParameterError("ring must have at least two elements")
        if order > TABLE_CAP:
            raise InvalidParameterError(
                f"ring of order {_clip(order)} exceeds the supported order {TABLE_CAP}"
            )
        self.order = order
        self._units_cache = None
        self._inv_cache = None
        self.add_np, self.mul_np = (t.astype(np.uint8) for t in self._tables())
        is_zero = self.add_np == self.zero
        if not is_zero.any(axis=1).all():
            raise InvariantViolationError(f"{self.literal}: additive inverses fails")
        self.neg_np = is_zero.argmax(axis=1).astype(np.uint8)
        if self.one == self.zero:
            raise InvalidParameterError("ring unity coincides with zero")
        c, acc = 1, self.one
        while acc != self.zero:
            acc = self.add(acc, self.one)
            c += 1
        self.char = c

    # subclass surface ------------------------------------------------------
    zero = 0
    one = 1

    def _tables(self):
        raise NotImplementedError

    @property
    def key(self):
        raise NotImplementedError

    @property
    def literal(self):
        raise NotImplementedError

    def render(self, a):
        raise NotImplementedError

    def parse_element(self, text):
        raise NotImplementedError

    # element arithmetic ----------------------------------------------------
    def check_element(self, a):
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise RingMismatchError(f"{a!r} is not an element index of {self.literal}")
        return a

    def add(self, a, b):
        return self.add_np.item(a, b)

    def mul(self, a, b):
        return self.mul_np.item(a, b)

    def neg(self, a):
        return self.neg_np.item(a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def elements(self):
        return range(self.order)

    # derived structure -----------------------------------------------------
    def units(self):
        """The set of invertible elements."""
        if self._units_cache is None:
            is_one = self.mul_np == self.one
            units = np.flatnonzero(is_one.any(axis=1)).tolist()
            self._inv_cache = dict(zip(units, is_one.argmax(axis=1)[units].tolist()))
            self._units_cache = frozenset(units)
        return self._units_cache

    def is_unit(self, a):
        self.check_element(a)
        return a in self.units()

    def inverse(self, a):
        self.check_element(a)
        self.units()
        if a not in self._inv_cache:
            raise NotAUnitError(f"{self.render(a)} is not a unit in {self.literal}")
        return self._inv_cache[a]

    def idempotents(self):
        """Ascending list of all e with e*e = e.  Always contains 0 and 1."""
        return [e for e in self.elements() if self.mul(e, e) == e]

    def is_field(self):
        return len(self.units()) == self.order - 1

    def zero_divisor_count(self):
        """Nonzero non-units; in a finite commutative ring these are exactly
        the zero divisors."""
        return self.order - len(self.units()) - 1

    # housekeeping ----------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Ring):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"<Ring {self.literal} order={self.order}>"


class ZmodRing(Ring):
    """Integers modulo n."""

    kind = "zmod"

    def __init__(self, n):
        if not isinstance(n, int) or n < 2:
            raise InvalidParameterError("modulus must be an integer >= 2")
        self.n = n
        super().__init__(n)

    def _tables(self):
        i = np.arange(self.n)
        return np.add.outer(i, i) % self.n, np.multiply.outer(i, i) % self.n

    @property
    def key(self):
        return ("zmod", self.n)

    @property
    def literal(self):
        return f"Z{self.n}"

    def render(self, a):
        return str(a)

    def parse_element(self, text):
        return _parse_int(text.strip(), f"an element of {self.literal}") % self.n


class GaloisFieldRing(Ring):
    """GF(p^r) with polynomial-basis arithmetic modulo an explicit monic
    irreducible; element index = coefficient vector as a base-p integer."""

    kind = "field"

    def __init__(self, p, r, modulus=None):
        if not isinstance(r, int) or r < 1:
            raise InvalidParameterError("extension degree must be >= 1")
        # p >= 2 and r >= 9 give p^r >= 512, so p**r is only formed for r <= 8
        if p > 1 and (r >= TABLE_CAP.bit_length() or p ** r > TABLE_CAP):
            raise InvalidParameterError(
                f"GF({_clip(p)},{_clip(r)}) has more than the supported order {TABLE_CAP} elements"
            )
        if not _is_prime(p):
            raise InvalidParameterError(f"{p} is not prime")
        self.p = p
        self.r = r
        if modulus is None:
            if r == 1:
                modulus = (0, 1)
            elif (p, r) in DEFAULT_MODULI:
                modulus = DEFAULT_MODULI[(p, r)]
            else:
                raise InvalidParameterError(
                    f"no default modulus for GF({p},{r}); pass one explicitly"
                )
        if isinstance(modulus, str):
            modulus = parse_poly(modulus, p, max_degree=r)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise InvalidParameterError(
                f"modulus must be monic of degree {r}, got {render_poly(modulus)}"
            )
        self.modulus = modulus
        super().__init__(p ** r)
        # Z_p[x]/(m) is a field exactly when m is irreducible
        if not self.is_field():
            raise InvalidParameterError(f"{render_poly(modulus)} is reducible over Z{p}")

    # coefficient vector <-> index
    def coeffs(self, a):
        p = self.p
        return tuple((a // p ** i) % p for i in range(self.r))

    def from_coeffs(self, vec):
        vec = tuple(vec)
        poly = _poly_mod(self.p, tuple(c % self.p for c in vec), self.modulus)
        return sum(c * self.p ** i for i, c in enumerate(poly))

    def _tables(self):
        p, r = self.p, self.r
        weights = p ** np.arange(r)
        digits = np.arange(self.order)[:, None] // weights % p
        add = (digits[:, None] + digits[None, :]) % p @ weights
        # coefficients of the product polynomials, degrees 0 .. 2r-2
        conv = np.zeros((self.order, self.order, 2 * r - 1), dtype=np.intp)
        for i in range(r):
            conv[:, :, i:i + r] += digits[:, None, i, None] * digits[None, :, :]
        # row s holds the coefficients of x^s mod the modulus
        reduce = np.array([(_poly_mod(p, (0,) * s + (1,), self.modulus) + (0,) * r)[:r]
                           for s in range(2 * r - 1)])
        return add, conv @ reduce % p @ weights

    @property
    def key(self):
        return ("field", self.p, self.r, self.modulus)

    @property
    def literal(self):
        if self.r == 1:
            return f"GF({self.p})"
        return f"GF({self.p},{self.r};{render_poly(self.modulus)})"

    def render(self, a):
        if self.r == 1:
            return str(a)
        return "(" + ",".join(str(c) for c in self.coeffs(a)) + ")"

    def parse_element(self, text):
        s = text.strip()
        what = f"an element of {self.literal}"
        if self.r == 1:
            return _parse_int(s, what) % self.p
        if not (s.startswith("(") and s.endswith(")")):
            raise InvalidParameterError(f"field element must be a coefficient tuple, got {_clip(s)}")
        parts = [t for t in s[1:-1].split(",") if t.strip() != ""]
        if len(parts) != self.r:
            raise InvalidParameterError(f"expected {self.r} coefficients in {_clip(s)}")
        return self.from_coeffs(_parse_int(t, what) for t in parts)


class VExtensionRing(Ring):
    """F + vF on pairs a + v*b over a Galois field F, with v*v = v (only for
    characteristic 2) or v*v = 1 (only for odd characteristic)."""

    kind = "vext"

    def __init__(self, base, v_square):
        if not isinstance(base, GaloisFieldRing):
            raise InvalidParameterError("v-extension base must be a Galois field")
        v_square = str(v_square)
        if v_square not in ("v", "1"):
            raise InvalidParameterError("v_square must be 'v' or '1'")
        if v_square == "v" and base.char != 2:
            raise InvalidParameterError("v*v = v requires a characteristic-2 base field")
        if v_square == "1" and base.char == 2:
            raise InvalidParameterError("v*v = 1 requires an odd-characteristic base field")
        self.base = base
        self.v_square = v_square
        self.q = base.order
        super().__init__(self.q * self.q)

    def components(self, e):
        """(a, b) with e = a + v*b, both as base-field indices."""
        return divmod(e, self.q)

    def make(self, a, b):
        return a * self.q + b

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return self.base.one * self.q

    @property
    def v(self):
        """The index of the adjoined element v itself."""
        return self.base.one

    def _tables(self):
        # x = a + v*b against y = c + v*d
        fadd, fmul = self.base.add_np.astype(np.intp), self.base.mul_np.astype(np.intp)
        a, b = self.components(np.arange(self.order))
        a, b, c, d = a[:, None], b[:, None], a[None, :], b[None, :]
        ac, bd, cross = fmul[a, c], fmul[b, d], fadd[fmul[a, d], fmul[b, c]]
        add = fadd[a, c] * self.q + fadd[b, d]
        if self.v_square == "v":
            return add, ac * self.q + fadd[cross, bd]
        return add, fadd[ac, bd] * self.q + cross

    @property
    def key(self):
        return ("vext", self.base.key, self.v_square)

    @property
    def literal(self):
        b = self.base.literal
        return f"{b}+v{b}[v2={self.v_square}]"

    def render(self, e):
        a, b = self.components(e)
        F = self.base
        if b == F.zero:
            return F.render(a)
        vpart = "v" if b == F.one else f"v*{F.render(b)}"
        if a == F.zero:
            return vpart
        return f"{F.render(a)}+{vpart}"

    def parse_element(self, text):
        s = text.strip().replace(" ", "")
        F = self.base
        if "v" not in s:
            return self.make(F.parse_element(s), F.zero)
        if s.startswith("v"):
            head, tail = "", s[1:]
        else:
            parts = split_top_level(s, "+v")
            if len(parts) != 2:
                raise InvalidParameterError(f"cannot parse {_clip(s)} as an element of {self.literal}")
            head, tail = parts
        a = F.parse_element(head) if head else F.zero
        if tail == "":
            b = F.one
        elif tail.startswith("*"):
            b = F.parse_element(tail[1:])
        else:
            raise InvalidParameterError(f"cannot parse {_clip(s)} as an element of {self.literal}")
        return self.make(a, b)


class ProductRing(Ring):
    """Componentwise ring on tuples, indexed lexicographically."""

    kind = "product"

    def __init__(self, components):
        components = list(components)
        if not components:
            raise InvalidParameterError("product ring needs at least one component")
        _check_factor_count(len(components))
        if not all(isinstance(c, Ring) for c in components):
            raise InvalidParameterError("product components must be rings")
        self.components_rings = components
        order = 1
        for c in components:
            order *= c.order
        super().__init__(order)

    def components(self, e):
        out = []
        for ring in reversed(self.components_rings):
            e, x = divmod(e, ring.order)
            out.append(x)
        return tuple(reversed(out))

    def make(self, parts):
        parts = tuple(parts)
        if len(parts) != len(self.components_rings):
            raise InvalidParameterError("component count mismatch")
        e = 0
        for ring, x in zip(self.components_rings, parts):
            ring.check_element(x)
            e = e * ring.order + x
        return e

    @property
    def zero(self):
        return self.make(r.zero for r in self.components_rings)

    @property
    def one(self):
        return self.make(r.one for r in self.components_rings)

    def _tables(self):
        dims = [r.order for r in self.components_rings]
        digits = np.unravel_index(np.arange(self.order), dims)

        def gather(table):
            return np.ravel_multi_index(
                [getattr(r, table)[x[:, None], x] for r, x in zip(self.components_rings, digits)],
                dims)

        return gather("add_np"), gather("mul_np")

    @property
    def key(self):
        return ("product",) + tuple(r.key for r in self.components_rings)

    @property
    def literal(self):
        return "x".join(r.literal for r in self.components_rings)

    def render(self, e):
        parts = [r.render(x) for r, x in zip(self.components_rings, self.components(e))]
        return "(" + ",".join(parts) + ")"

    def parse_element(self, text):
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise InvalidParameterError(f"product element must be a tuple, got {_clip(s)}")
        parts = split_top_level(s[1:-1], ",")
        if len(parts) != len(self.components_rings):
            raise InvalidParameterError(f"expected {len(self.components_rings)} components in {_clip(s)}")
        return self.make(r.parse_element(t) for r, t in zip(self.components_rings, parts))


# ---------------------------------------------------------------------------
# constructors (the stable public surface)

def make_zmod(n):
    return ZmodRing(n)


def make_galois_field(p, r=1, modulus=None):
    return GaloisFieldRing(p, r, modulus=modulus)


def make_v_extension(base, v_square):
    return VExtensionRing(base, v_square)


def make_product(components):
    return ProductRing(components)


def make_r2():
    """The Boolean quaternary ring GF(2)+vGF(2) with v*v = v."""
    return make_v_extension(make_galois_field(2, 1), "v")


# ---------------------------------------------------------------------------
# ring literals:  Z6, GF(2,2;x^2+x+1), GF(2)+vGF(2)[v2=v], Z6xZ4, R2

def split_top_level(s, sep):
    """Split on a separator, ignoring occurrences inside () or []."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(s):
        ch = s[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0 and s.startswith(sep, i):
            parts.append(s[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(s[start:])
    return parts


_ZMOD_RE = re.compile(r"^Z(\d+)$")
_VEXT_RE = re.compile(r"^(?P<body>.+)\[v2=(?P<rule>v|1)\]$")


def _parse_single_ring(s):
    if s == "R2":
        return make_r2()
    m = _ZMOD_RE.match(s)
    if m:
        return make_zmod(_parse_int(m.group(1), "a modulus"))
    m = _VEXT_RE.match(s)
    if m:
        halves = split_top_level(m.group("body"), "+v")
        if len(halves) != 2 or halves[0] != halves[1]:
            raise InvalidParameterError(f"malformed v-extension literal {_clip(s)}")
        base = _parse_single_ring(halves[0])
        if not isinstance(base, GaloisFieldRing):
            raise InvalidParameterError(f"v-extension base must be a field literal in {_clip(s)}")
        return make_v_extension(base, m.group("rule"))
    if s.startswith("GF(") and s.endswith(")"):
        inner = s[3:-1]
        if ";" in inner:
            args, poly = inner.split(";", 1)
        else:
            args, poly = inner, None
        nums = args.split(",")
        try:
            p = int(nums[0])
            r = int(nums[1]) if len(nums) > 1 else 1
        except (ValueError, IndexError):
            raise InvalidParameterError(f"malformed field literal {_clip(s)}")
        if len(nums) > 2:
            raise InvalidParameterError(f"malformed field literal {_clip(s)}")
        return make_galois_field(p, r, modulus=poly)
    raise InvalidParameterError(f"unrecognized ring literal {_clip(s)}")


def parse_ring(text):
    """Parse a ring literal (product components joined by a top-level ``x``)."""
    if not isinstance(text, str):
        raise InvalidParameterError(f"a ring literal must be a string, got {_clip(text)}")
    s = text.strip().replace(" ", "")
    if not s:
        raise InvalidParameterError("empty ring literal")
    parts = split_top_level(s, "x")
    _check_factor_count(len(parts))   # before any factor is built
    if len(parts) > 1:
        return make_product([_parse_single_ring(p) for p in parts])
    return _parse_single_ring(parts[0])
