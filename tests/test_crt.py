import itertools

import numpy as np
import pytest

from korthos import (
    BudgetExceededError,
    CrtSplit,
    InvariantViolationError,
    InvalidParameterError,
    Mat,
    NotSplittableError,
    enumerate_semigroup,
    gl_order,
    gl_order_bruteforce,
    identity,
    make_galois_field,
    make_product,
    make_r2,
    make_v_extension,
    make_zmod,
    map_matrix,
    orth_group_order,
    split,
    verify_semigroup_isomorphism,
)
from korthos import crt
from korthos.search import SemigroupCensus

from helpers import det_rec, ring_family

Z6 = make_zmod(6)
R2 = make_r2()


# ---------------------------------------------------------------------------
# splits

def test_z6_split_is_the_mod2_mod3_map():
    s = split(Z6)
    assert [f.literal for f in s.factors] == ["Z2", "Z3"]
    for x in Z6.elements():
        assert s.forward(x) == (x % 2, x % 3)
        assert s.backward(s.forward(x)) == x
    assert s.forward(4) == (0, 1)
    assert s.splits_to_fields()


def test_r2_split_map():
    s = split(R2)
    # a + v*b  ->  (a+b, a)
    assert s.forward(R2.v) == (1, 0)
    assert s.forward(R2.one) == (1, 1)
    assert s.forward(R2.add(R2.one, R2.v)) == (0, 1)
    for e in R2.elements():
        assert s.backward(s.forward(e)) == e


def test_odd_v_extension_split_map():
    ring = make_v_extension(make_galois_field(3, 1), "1")
    s = split(ring)
    # a + v*b  ->  (a-b, a+b); v = 0 + v*1 -> (-1, 1) = (2, 1)
    assert s.forward(ring.v) == (2, 1)
    for e in ring.elements():
        assert s.backward(s.forward(e)) == e


def test_product_ring_split_is_identity():
    prod = make_product([make_zmod(2), make_zmod(3)])
    s = split(prod)
    assert len(s.factors) == 2
    e = prod.make((1, 2))
    assert s.forward(e) == (1, 2)
    assert s.backward((1, 2)) == e


def test_chain_ring_split_does_not_reach_fields():
    s = split(make_zmod(4))
    assert [f.literal for f in s.factors] == ["Z4"]
    assert not s.splits_to_fields()
    with pytest.raises(NotSplittableError):
        s.require_fields()
    with pytest.raises(NotSplittableError):
        orth_group_order(make_zmod(4), 2)
    with pytest.raises(NotSplittableError):
        verify_semigroup_isomorphism(make_zmod(4), 2, 1)


def test_z12_splits_by_prime_powers():
    s = split(make_zmod(12))
    assert [f.literal for f in s.factors] == ["Z4", "Z3"]
    assert not s.splits_to_fields()
    for x in range(12):
        assert s.forward(x) == (x % 4, x % 3)
        assert s.backward(s.forward(x)) == x


def test_field_split_is_trivial():
    f4 = make_galois_field(2, 2)
    s = split(f4)
    assert s.factors == [f4]
    assert s.splits_to_fields()


def test_every_split_verifies_and_round_trips():
    for ring in ring_family() + [make_zmod(60), make_zmod(210), make_zmod(256)]:
        s = split(ring)
        s.verify()
        assert all(s.backward(s.forward(e)) == e for e in ring.elements())


# ---------------------------------------------------------------------------
# matrix maps

def _pair_split(q, fwd):
    """A CrtSplit of Z3 x Zq onto Z3 x Zq whose table sends pairs through fwd."""
    ring = make_product([make_zmod(3), make_zmod(q)])
    table = np.array([fwd(*ring.components(e)) for e in ring.elements()], dtype=np.uint8)
    return CrtSplit(ring, list(ring.components_rings), table)


@pytest.mark.parametrize("q,fwd,bwd,message", [
    # two pairs share an image, so there is no inverse
    (3, lambda x, y: (x, 0), None, "bijection"),
    # an image outside Z5
    (5, lambda x, y: (x, y + 1), None, "bijection"),
    # a bijection sending 0 to (1, 0)
    (3, lambda x, y: ((x + 1) % 3, y), lambda u, v: ((u + 2) % 3, v), "preserve 0"),
    # the additive bijection (x, y) -> (x, x + y) sends 1 to (1, 2)
    (3, lambda x, y: (x, (x + y) % 3), lambda u, v: (u, (v + 2 * u) % 3), "preserve 1"),
    # cubing is a multiplicative bijection of Z5, its own inverse, and not additive
    (5, lambda x, y: (x, y ** 3 % 5), lambda u, v: (u, v ** 3 % 5), "preserve \\+"),
    # the additive bijection (x, y) -> (x, 2x + 2y) fixes 0 and 1 but not products
    (3, lambda x, y: (x, (2 * x + 2 * y) % 3), lambda u, v: (u, (2 * v + 2 * u) % 3),
     "preserve \\*"),
])
def test_split_verification_rejects_broken_maps(q, fwd, bwd, message):
    if bwd is not None:
        # a bijection, so only the named check can reject it
        assert all(bwd(*fwd(x, y)) == (x, y) for x in range(3) for y in range(q))
    with pytest.raises(InvariantViolationError, match=message):
        _pair_split(q, fwd).verify()


def test_map_matrix_entrywise():
    s = split(Z6)
    a = Mat.from_text(Z6, "2,5;1,2")
    m2, m3 = map_matrix(s, a)
    assert m2 == Mat.from_text(s.factors[0], "0,1;1,0")
    assert m3 == Mat.from_text(s.factors[1], "2,2;1,2")


def test_map_matrix_sends_identity_to_identities():
    s = split(Z6)
    imgs = map_matrix(s, identity(Z6, 3))
    for f, m in zip(s.factors, imgs):
        assert m == identity(f, 3)


def test_map_matrix_is_multiplicative():
    s = split(Z6)
    a = Mat.from_text(Z6, "2,5;1,2")
    b = Mat.from_text(Z6, "1,3;4,2")
    lhs = map_matrix(s, a.mul(b))
    rhs = tuple(x.mul(y) for x, y in zip(map_matrix(s, a), map_matrix(s, b)))
    assert lhs == rhs


def test_map_matrix_ring_mismatch():
    s = split(Z6)
    with pytest.raises(InvalidParameterError):
        map_matrix(s, identity(make_zmod(4), 2))


# ---------------------------------------------------------------------------
# census products

def test_lo2_4_z6_product():
    report = verify_semigroup_isomorphism(Z6, 2, 4)
    assert report["a_j"] == ["0", "1"]
    assert report["factor_counts"] == [4, 8]
    assert report["product"] == 32 == report["direct_count"]
    assert report["bijection_ok"]


def test_lo2_3_z6_product():
    report = verify_semigroup_isomorphism(Z6, 2, 3)
    assert report["factor_counts"] == [2, 1]
    assert report["product"] == 2 == report["direct_count"]
    assert report["bijection_ok"]


def test_lo3_0_r2_product():
    report = verify_semigroup_isomorphism(R2, 3, R2.zero)
    assert report["factor_counts"] == [22, 22]
    assert report["product"] == 484 == report["direct_count"]
    assert report["bijection_ok"]


def test_odd_v_extension_product():
    ring = make_v_extension(make_galois_field(3, 1), "1")
    k = ring.parse_element("2+v")
    assert ring.mul(k, k) == k
    report = verify_semigroup_isomorphism(ring, 2, k)
    assert report["a_j"] == ["1", "0"]
    assert report["factor_counts"] == [8, 1]
    assert report["product"] == report["direct_count"] == 8
    assert report["bijection_ok"]


def test_k_one_product_agrees_with_orthogonal_group_order():
    report = verify_semigroup_isomorphism(Z6, 2, 1, side="two_sided")
    assert report["bijection_ok"]
    assert report["product"] == orth_group_order(Z6, 2) == 16


@pytest.mark.parametrize("side", ["left", "right", "two_sided"])
@pytest.mark.parametrize("doctor", ["non_element", "non_element_mod_2", "duplicate"])
def test_bijection_fails_on_a_doctored_direct_census(monkeypatch, doctor, side):
    # the direct census keeps its count but loses an element: a neighbour is
    # listed twice, or a non-element takes its place.  The zero matrix lies
    # outside the product by its Z3 part, which is not 1-orthogonal; 3I + 4A
    # keeps A's Z3 part but has the Z2 part I, which is not 0-orthogonal
    census = enumerate_semigroup(Z6, 2, 4, side)
    arr = census.array.copy()
    if doctor == "duplicate":
        arr[1] = arr[0]
    else:
        arr[0] = 0 if doctor == "non_element" else (3 * np.eye(2, dtype=int) + 4 * arr[0]) % 6
        z2, z3 = map_matrix(split(Z6), Mat(Z6, 2, 2, arr[0].ravel().tolist()))
        inside = (z2 in enumerate_semigroup(make_zmod(2), 2, 0, side),
                  z3 in enumerate_semigroup(make_zmod(3), 2, 1, side))
        assert inside == ((True, False) if doctor == "non_element" else (False, True))
    honest = verify_semigroup_isomorphism(Z6, 2, 4, side)
    monkeypatch.setattr(crt, "enumerate_semigroup", lambda ring, n, k, side, budget=None:
                        SemigroupCensus(ring, n, k, side, _array=arr, nodes=census.nodes))
    report = verify_semigroup_isomorphism(Z6, 2, 4, side)
    assert report["factor_counts"] == honest["factor_counts"]
    assert report["product"] == report["direct_count"] == honest["direct_count"] == census.count
    assert honest["bijection_ok"] is True and report["bijection_ok"] is False


@pytest.mark.parametrize("side", ["left", "right", "two_sided"])
@pytest.mark.parametrize("doctor", ["duplicate", "foreign", "dead_symbol"])
def test_bijection_fails_on_a_doctored_census_with_a_walked_factor(monkeypatch, doctor, side):
    # Z5 at n = 3 is past the naive cap, so its census is walked and every
    # direct element walks its prefix tree.  The direct census keeps its
    # count but loses an element, the one whose factor parts both come last
    # in their censuses' order of vectors: a neighbour is listed twice; or
    # 6B takes its place (6 is 0 mod 3 and 1 mod 5), with B over Z5
    # symmetric and of columns (1, 2, 0), (2, 1, 0) and 0, each isotropic
    # and so a vector of the Z5 census, but not orthogonal, so its walk dies
    # inside the tree; or the matrix with the lost element's Z3 part and the
    # Z5 part I, whose columns are no vectors of the Z5 census: the dead
    # symbol.  Each would take exactly the empty product position if a dead
    # walk read as the rank before the first (6B's Z3 part, 0, comes first),
    # or, one-sided, the dead symbol as the last vector (the lost Z5 part is
    # then the last vector n times)
    z3, z5, z15 = make_zmod(3), make_zmod(5), make_zmod(15)
    walk = crt.enumerate_semigroup
    census = walk(z15, 3, 0, side)
    arr = census.array.copy()
    if doctor == "duplicate":
        arr[1] = arr[0]
    else:
        def last(ring):          # vectors are columns, rows on the right
            a = walk(ring, 3, 0, side).array.astype(int)
            vecs = (a if side == "right" else a.swapaxes(1, 2)).reshape(len(a), -1)
            return a[max(range(len(a)), key=lambda i: vecs[i].tolist())]
        at = np.flatnonzero((arr == (10 * last(z3) + 6 * last(z5)) % 15).all(axis=(1, 2)))[0]
        if doctor == "foreign":                                  # 10 is 1 mod 3, 0 mod 5
            arr[at] = 6 * np.array([[1, 2, 0], [2, 1, 0], [0, 0, 0]])
            columns = {(1, 2, 0), (2, 1, 0), (0, 0, 0)}
        else:
            arr[at] = (10 * last(z3) + 6 * np.eye(3, dtype=int)) % 15
            columns = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        z3_part, z5_part = map_matrix(split(z15), Mat(z15, 3, 3, arr[at].ravel().tolist()))
        assert z3_part in walk(z3, 3, 0, side)
        assert z5_part not in (z5_census := walk(z5, 3, 0, side))
        vectors = {tuple(v) for v in z5_census._paths[0].tolist()}
        assert columns <= vectors if doctor == "foreign" else columns.isdisjoint(vectors)
    honest = verify_semigroup_isomorphism(z15, 3, 0, side)
    monkeypatch.setattr(crt, "enumerate_semigroup", lambda ring, n, k, side, budget=None: (
        SemigroupCensus(ring, n, k, side, _array=arr, nodes=census.nodes) if ring is z15
        else walk(ring, n, k, side, budget=budget)))
    report = verify_semigroup_isomorphism(z15, 3, 0, side)
    assert report["factor_counts"] == honest["factor_counts"]
    assert report["product"] == report["direct_count"] == honest["direct_count"] == census.count
    assert honest["bijection_ok"] is True and report["bijection_ok"] is False


def test_the_bijection_check_forms_no_census_array(monkeypatch):
    # LO_3(0, Z15) is listed as paths and walked along them; Z5 at n = 3 is
    # past the naive cap, so its census is searched and its paths give the
    # tree.  Neither census is keyed
    built, enumerate_direct = [], crt.enumerate_semigroup

    def recording(*args, **kwargs):
        built.append(enumerate_direct(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(crt, "enumerate_semigroup", recording)
    report = verify_semigroup_isomorphism(make_zmod(15), 3, 0)
    assert report["bijection_ok"] is True
    assert report["product"] == report["direct_count"] == 78225
    assert [c.ring.literal for c in built] == ["Z15", "Z5"]
    assert all("array" not in c.__dict__ and "_keys" not in c.__dict__ for c in built)


def test_non_idempotent_k_rejected():
    with pytest.raises(InvalidParameterError):
        verify_semigroup_isomorphism(Z6, 2, 2)


# ---------------------------------------------------------------------------
# order formulas

def test_gl_order_formula():
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 48
    assert gl_order(2, 1) == 1
    assert gl_order(4, 2) == 4 * 3 * 15


def test_gl_order_rejects_non_prime_powers():
    with pytest.raises(InvalidParameterError):
        gl_order(6, 2)
    with pytest.raises(InvalidParameterError):
        gl_order(1, 2)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
def test_gl_order_matches_bruteforce(q, n):
    assert gl_order(q, n) == gl_order_bruteforce(make_zmod(q), n)


def test_gl2_z6_by_bruteforce():
    assert gl_order_bruteforce(Z6, 2) == gl_order(2, 2) * gl_order(3, 2) == 288


@pytest.mark.parametrize("ring", [Z6, make_zmod(3)], ids=["Z6", "Z3"])
def test_gl_sweep_matches_the_scalar_sweep(ring):
    # one determinant per matrix of M_2(R), element by element
    units = ring.units()
    want = sum(det_rec(ring, [list(e[:2]), list(e[2:])]) in units
               for e in itertools.product(range(ring.order), repeat=4))
    assert gl_order_bruteforce(ring, 2) == want


def test_gl_sweep_validates_its_degree_and_size():
    for n in (0, -1):
        with pytest.raises(InvalidParameterError, match="degree n must be >= 1"):
            gl_order_bruteforce(Z6, n)
    # 5^9 = 1,953,125 matrices exceed the naive sweep cap
    with pytest.raises(BudgetExceededError, match="exceeds the cap"):
        gl_order_bruteforce(make_zmod(5), 3)


def test_orth_group_orders():
    assert orth_group_order(Z6, 2) == 2 * 8 == 16
    assert orth_group_order(R2, 2) == 2 * 2 == 4
    assert orth_group_order(Z6, 3) == 288
