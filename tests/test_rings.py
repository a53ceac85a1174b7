import itertools

import numpy as np
import pytest

from korthos import (
    InvalidParameterError,
    InvariantViolationError,
    NotAUnitError,
    RingMismatchError,
    make_galois_field,
    make_product,
    make_r2,
    make_v_extension,
    make_zmod,
    parse_ring,
)
from korthos.rings import ZmodRing, parse_poly, render_poly

from helpers import ring_family


# ---------------------------------------------------------------------------
# constructors

def test_zmod_basics():
    z6 = make_zmod(6)
    assert z6.order == 6
    assert sorted(z6.units()) == [1, 5]
    z2 = make_zmod(2)
    assert z2.is_field()
    z4 = make_zmod(4)
    assert z4.order == 4
    assert z4.idempotents() == [0, 1]


def test_zmod_rejects_tiny_modulus():
    with pytest.raises(InvalidParameterError):
        make_zmod(1)
    with pytest.raises(InvalidParameterError):
        make_zmod(0)


def test_prime_field():
    f3 = make_galois_field(3, 1)
    assert f3.order == 3
    assert f3.is_field()
    assert f3.literal == "GF(3)"


def test_gf4_every_nonzero_element_is_a_unit():
    f4 = make_galois_field(2, 2, "x^2+x+1")
    assert f4.order == 4
    for a in f4.elements():
        if a != f4.zero:
            assert f4.is_unit(a)
    assert f4.is_field()


def _is_irreducible(p, m):
    """Trial division of the monic m (constant term first) by every monic
    polynomial of degree 1 .. deg(m)//2 over Z_p."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            rem = list(m)
            for top in range(deg, d - 1, -1):   # g = tail + x^d is monic
                lead = rem[top]
                for i, c in enumerate(tail + (1,)):
                    rem[top - d + i] = (rem[top - d + i] - lead * c) % p
            if not any(rem[:d]):
                return False
    return True


def test_reducible_modulus_rejected():
    # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(InvalidParameterError):
        make_galois_field(2, 2, "x^2+1")
    # x^4+x^2+1 = (x^2+x+1)^2 over GF(2) has no root, but is reducible
    assert not _is_irreducible(2, (1, 0, 1, 0, 1))
    with pytest.raises(InvalidParameterError, match="reducible"):
        make_galois_field(2, 4, "x^4+x^2+1")
    # every monic modulus with p^r <= 81 builds a field exactly when irreducible
    primes = [p for p in range(2, 82) if all(p % d for d in range(2, p))]
    for p, r in ((p, r) for p in primes for r in range(1, 7) if p ** r <= 81):
        for tail in itertools.product(range(p), repeat=r):
            modulus = tail + (1,)
            try:
                make_galois_field(p, r, modulus)
                built = True
            except InvalidParameterError:
                built = False
            assert built == _is_irreducible(p, modulus), (p, modulus)


def test_nonprime_p_rejected():
    with pytest.raises(InvalidParameterError):
        make_galois_field(6, 1)


def test_default_moduli_cover_small_prime_powers():
    for p, r in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]:
        f = make_galois_field(p, r)
        assert f.order == p ** r
        assert f.is_field()


def test_v_extension_r2_is_boolean():
    r2 = make_r2()
    assert r2.order == 4
    assert r2.idempotents() == list(r2.elements())
    assert r2.render(r2.v) == "v"


def test_v_extension_unit_and_zero_divisor_counts():
    f4 = make_galois_field(2, 2)
    ext = make_v_extension(f4, "v")
    assert len(ext.units()) == (4 - 1) ** 2
    odd = make_v_extension(make_galois_field(3, 1), "1")
    assert odd.zero_divisor_count() == 2 * (3 - 1)
    assert len(odd.units()) == (3 - 1) ** 2


def test_v_extension_ideal_sizes():
    for r in (1, 2):
        base = make_galois_field(2, r)
        ext = make_v_extension(base, "v")
        v = ext.v
        one_plus_v = ext.add(ext.one, v)
        assert len({ext.mul(v, x) for x in ext.elements()}) == 2 ** r
        assert len({ext.mul(one_plus_v, x) for x in ext.elements()}) == 2 ** r


def test_v_extension_characteristic_rules():
    with pytest.raises(InvalidParameterError):
        make_v_extension(make_galois_field(3, 1), "v")   # v^2=v needs char 2
    with pytest.raises(InvalidParameterError):
        make_v_extension(make_galois_field(2, 1), "1")   # v^2=1 needs odd char
    with pytest.raises(InvalidParameterError):
        make_v_extension(make_zmod(4), "v")              # base must be a field


def test_product_ring():
    f2, f3 = make_zmod(2), make_zmod(3)
    prod = make_product([f2, f3])
    assert prod.order == 6
    e = prod.make((0, 1))
    assert prod.mul(e, e) == e  # componentwise idempotent
    with pytest.raises(InvalidParameterError):
        make_product([])


def test_single_factor_product_matches_component():
    f2 = make_zmod(2)
    prod = make_product([f2])
    for a in range(2):
        for b in range(2):
            assert prod.add(a, b) == f2.add(a, b)
            assert prod.mul(a, b) == f2.mul(a, b)


# ---------------------------------------------------------------------------
# idempotents and units

def test_z6_idempotents():
    assert make_zmod(6).idempotents() == [0, 1, 3, 4]


@pytest.mark.parametrize("n,expected", [(6, 4), (12, 4), (30, 8), (4, 2), (9, 2), (36, 4), (2, 2)])
def test_zmod_idempotent_count_is_power_of_two(n, expected):
    # 2^k idempotents, k = number of distinct primes dividing n
    assert len(make_zmod(n).idempotents()) == expected


def test_idempotents_contain_zero_one_and_are_closed():
    for ring in ring_family():
        idem = ring.idempotents()
        assert ring.zero in idem
        assert ring.one in idem
        s = set(idem)
        assert {e for e in s if ring.mul(e, e) == e} == s
        for a in s:
            for b in s:
                assert ring.mul(a, b) in s


def test_field_idempotents_are_trivial():
    for ring in ring_family():
        if ring.is_field():
            assert ring.idempotents() == sorted([ring.zero, ring.one])


def test_units_and_inverses_exhaustively():
    for ring in ring_family():
        units = ring.units()
        for a in ring.elements():
            if a in units:
                assert ring.mul(a, ring.inverse(a)) == ring.one
            else:
                assert all(ring.mul(a, b) != ring.one for b in ring.elements())
                with pytest.raises(NotAUnitError):
                    ring.inverse(a)


def test_units_match_the_scalar_definition():
    # the inverse of a is the first b with a*b = 1, as an element-by-element
    # sweep finds it
    for ring in ring_family() + [make_zmod(256)]:
        inv = {}
        for a in ring.elements():
            for b in ring.elements():
                if ring.mul(a, b) == ring.one:
                    inv[a] = b
                    break
        assert ring.units() == frozenset(inv)
        assert {a: ring.inverse(a) for a in inv} == inv
        assert all(type(a) is int and type(ring.inverse(a)) is int for a in inv)
        assert [ring.is_unit(a) for a in ring.elements()] == [a in inv for a in ring.elements()]


def test_unit_count_formula_for_v_extensions():
    f5 = make_galois_field(5, 1)
    assert len(make_v_extension(f5, "1").units()) == (5 - 1) ** 2


# ---------------------------------------------------------------------------
# element arithmetic

def test_z6_element_ops():
    z6 = make_zmod(6)
    assert z6.mul(5, 5) == 1
    assert z6.neg(1) == 5
    assert z6.sub(2, 5) == 3


def test_r2_element_ops():
    r2 = make_r2()
    v = r2.v
    one_plus_v = r2.add(r2.one, v)
    assert r2.mul(one_plus_v, v) == r2.zero   # v + v^2 = v + v = 0
    assert r2.mul(v, v) == v
    assert r2.neg(one_plus_v) == one_plus_v   # characteristic 2


def test_out_of_range_index_rejected():
    z6 = make_zmod(6)
    with pytest.raises(RingMismatchError):
        z6.check_element(6)
    with pytest.raises(RingMismatchError):
        z6.is_unit(-1)


# ---------------------------------------------------------------------------
# tables against the textbook operations

def _reference_ops(ring):
    """(add, mul, neg) on element indices, written out from the ring's
    definition without reading any table."""
    if ring.kind == "zmod":
        n = ring.n
        return lambda a, b: (a + b) % n, lambda a, b: a * b % n, lambda a: -a % n
    if ring.kind == "field":
        p, r, m = ring.p, ring.r, ring.modulus

        def vec(a):
            return [a // p ** i % p for i in range(r)]

        def index(coeffs):
            return sum(c % p * p ** i for i, c in enumerate(coeffs))

        def mul(a, b):
            prod = [0] * (2 * r - 1)
            for i, x in enumerate(vec(a)):
                for j, y in enumerate(vec(b)):
                    prod[i + j] += x * y
            # long division by the monic modulus, top degree first
            for d in range(2 * r - 2, r - 1, -1):
                lead = prod[d]
                for i, c in enumerate(m):
                    prod[d - r + i] -= lead * c
            return index(prod[:r])

        return (lambda a, b: index([x + y for x, y in zip(vec(a), vec(b))]), mul,
                lambda a: index([-x for x in vec(a)]))
    if ring.kind == "vext":
        fadd, fmul, fneg = _reference_ops(ring.base)
        q = ring.q

        def mul(x, y):
            # (a + vb)(c + vd) = ac + v(ad + bc) + v^2 bd
            (a, b), (c, d) = divmod(x, q), divmod(y, q)
            ac, bd, cross = fmul(a, c), fmul(b, d), fadd(fmul(a, d), fmul(b, c))
            if ring.v_square == "v":
                return ac * q + fadd(cross, bd)
            return fadd(ac, bd) * q + cross

        return (lambda x, y: fadd(x // q, y // q) * q + fadd(x % q, y % q), mul,
                lambda x: fneg(x // q) * q + fneg(x % q))
    parts = ring.components_rings
    ops = [_reference_ops(c) for c in parts]

    def digits(e):
        out = []
        for c in reversed(parts):
            e, x = divmod(e, c.order)
            out.append(x)
        return out[::-1]

    def componentwise(k):
        def op(*xs):
            e = 0
            for c, c_ops, *ds in zip(parts, ops, *map(digits, xs)):
                e = e * c.order + c_ops[k](*ds)
            return e
        return op

    return componentwise(0), componentwise(1), componentwise(2)


EXTRA_RINGS = ["GF(2,5)", "GF(7,2)", "Z256", "GF(3)+vGF(3)[v2=1]", "Z6xZ4"]


def test_tables_match_the_scalar_definitions():
    for ring in ring_family() + [parse_ring(t) for t in EXTRA_RINGS]:
        add, mul, neg = _reference_ops(ring)
        els = ring.elements()
        assert ring.add_np.tolist() == [[add(a, b) for b in els] for a in els], ring.literal
        assert ring.mul_np.tolist() == [[mul(a, b) for b in els] for a in els], ring.literal
        assert ring.neg_np.tolist() == [neg(a) for a in els], ring.literal


def test_addition_table_without_a_zero_in_a_row_is_rejected():
    class NoInverse(ZmodRing):
        def _tables(self):
            add, mul = super()._tables()
            add[1] = 1
            return add, mul

    with pytest.raises(InvariantViolationError, match="additive inverses"):
        NoInverse(3)


# ---------------------------------------------------------------------------
# ring axioms

def test_tables_satisfy_the_ring_axioms():
    rings = ring_family() + [parse_ring(t) for t in EXTRA_RINGS]
    for ring in (r for r in rings if r.order <= 64):
        add, mul = ring.add_np.astype(np.intp), ring.mul_np.astype(np.intp)
        i = np.arange(ring.order)
        a, b, c = i[:, None, None], i[None, :, None], i[None, None, :]
        assert (add == add.T).all() and (mul == mul.T).all(), ring.literal
        assert (add[ring.zero] == i).all() and (mul[ring.one] == i).all(), ring.literal
        assert (add[i, ring.neg_np] == ring.zero).all(), ring.literal
        assert (add[add[a, b], c] == add[a, add[b, c]]).all(), ring.literal
        assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all(), ring.literal
        assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all(), ring.literal


def test_rings_above_table_cap_are_rejected():
    # every ring is table-backed, so order 256 is the largest supported; the
    # messages neither format a huge order nor echo a whole literal
    for build in (lambda: make_zmod(257),
                  lambda: parse_ring("Z17xZ17"),
                  lambda: parse_ring("GF(17)+vGF(17)[v2=1]"),
                  lambda: make_product([make_zmod(2)] * 15000),
                  lambda: make_product([make_zmod(2)] * 9),
                  lambda: make_zmod(10 ** 5000),
                  lambda: parse_ring("Z" + "9" * 4000),
                  lambda: parse_ring("Z" + "9" * 5000),
                  lambda: parse_ring("GF(" + "9" * 4000 + ")"),
                  lambda: parse_ring("Q" * 5000)):
        with pytest.raises(InvalidParameterError) as exc:
            build()
        assert len(str(exc.value)) < 200
    z256 = make_zmod(256)
    assert z256.add(255, 2) == 1
    assert z256.mul(128, 2) == 0
    assert z256.neg(1) == 255


# ---------------------------------------------------------------------------
# literals, rendering, parsing

@pytest.mark.parametrize("text", [
    "Z6",
    "Z4",
    "GF(2)",
    "GF(2,2;x^2+x+1)",
    "GF(2)+vGF(2)[v2=v]",
    "GF(3)+vGF(3)[v2=1]",
    "Z6xZ4",
    "GF(2,2;x^2+x+1)xZ3",
])
def test_ring_literal_round_trip(text):
    ring = parse_ring(text)
    assert parse_ring(ring.literal) == ring


def test_r2_shorthand():
    assert parse_ring("R2") == make_r2()


def test_parse_ring_rejects_garbage():
    for bad in ["", "Q8", "GF(4)", "GF(2,2;x^2+1)", "Zx"]:
        with pytest.raises(InvalidParameterError):
            parse_ring(bad)


def test_element_render_parse_round_trip():
    for ring in ring_family():
        for e in ring.elements():
            assert ring.parse_element(ring.render(e)) == e


def test_zmod_parse_accepts_negatives():
    z6 = make_zmod(6)
    assert z6.parse_element("-1") == 5


def test_vext_render_forms():
    r2 = make_r2()
    assert [r2.render(e) for e in r2.elements()] == ["0", "v", "1", "1+v"]
    f3v = make_v_extension(make_galois_field(3, 1), "1")
    assert f3v.parse_element("2+v") == f3v.make(2, 1)
    assert f3v.parse_element("v*2") == f3v.make(0, 2)
    assert f3v.render(f3v.make(2, 2)) == "2+v*2"


def test_field_render_tuples():
    f4 = make_galois_field(2, 2)
    rendered = [f4.render(e) for e in f4.elements()]
    assert rendered == ["(0,0)", "(1,0)", "(0,1)", "(1,1)"]
    assert f4.parse_element("(1,1)") == 3


def test_poly_render_parse():
    assert render_poly((1, 1, 1)) == "x^2+x+1"
    assert parse_poly("x^2+x+1", 2) == (1, 1, 1)
    assert parse_poly("x^3+2x+1", 3) == (1, 2, 0, 1)
    assert render_poly((1, 2, 0, 1)) == "x^3+2x+1"
    with pytest.raises(InvalidParameterError):
        parse_poly("x^99999999999+1", 2, max_degree=2)


def test_element_index_conventions():
    # field indices read the coefficient vector base p, constant term first
    f9 = make_galois_field(3, 2)
    assert f9.from_coeffs((2, 1)) == 2 + 3 * 1
    # v-extension index is a*|F| + b for a + v*b
    r2 = make_r2()
    assert r2.make(1, 1) == 3
    # products are lexicographic by component
    prod = make_product([make_zmod(2), make_zmod(3)])
    assert prod.make((1, 2)) == 1 * 3 + 2


def test_cross_ring_product_elements():
    prod = make_product([make_zmod(2), make_zmod(3)])
    assert prod.render(prod.make((0, 1))) == "(0,1)"
    assert prod.parse_element("(1,2)") == prod.make((1, 2))


def test_boolean_ring_characteristic():
    assert make_r2().char == 2
    assert make_zmod(6).char == 6
    assert make_v_extension(make_galois_field(3, 1), "1").char == 3
