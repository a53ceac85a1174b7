"""Independent oracles for the benchmark's output checks.

Nothing here imports korthos.  Every expected value is one of:

* a naive sweep written from the definition, over Z_m (which covers the
  prime fields GF(2), GF(3), GF(5) and the ring Z4);
* a CRT product of such field-level counts, for rings that split into
  fields (R2, Z6, Z15);
* a closed-form orthogonal-group order (F. J. MacWilliams, "Orthogonal
  matrices over finite fields", 1969);
* a value pinned below together with its source.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# Counts with no field split (Z4 is not a field, Z12 = Z4 x Z3).
PINNED_COUNTS = {
    # |LO_4(0, Z4)|.  Printed by `korthos census --ring Z4 --n 4 --k 0` at the
    # commit this benchmark was written against, and equal to an independent
    # count of ordered 4-tuples of pairwise-orthogonal self-orthogonal columns
    # of Z4^4 (32 such columns).
    ("Z4", 4, 0, "left"): 188416,
    # |LO_3(0, Z12)|.  Printed by `korthos census --ring Z12 --n 3 --k 0`, and
    # equal to the product naive_count(4, 3, 0) * naive_count(3, 3, 0) =
    # 512 * 105 over the split Z12 = Z4 x Z3.
    ("Z12", 3, 0, "left"): 53760,
}

# The Z4 octacode generator [I_4 : A] from README and tables/worked-examples.json.
OCTACODE_A = "3,1,2,1;1,2,3,1;3,3,3,2;2,3,1,1"

# Reports of the octacode and of its row-4-deleted subcode.  Size, the
# self-dual and weakly self-dual flags and both distances are the values in
# tables/worked-examples.json; dual size and LCD follow from them (a free
# Z4 code of length n with 4^r words has a dual of 4^(n-r) words, and a
# weakly self-dual nonzero code meets its dual in itself, so it is not LCD).
OCTACODE_REPORTS = {
    (): {"length": 8, "size": 256, "dual_size": 256, "self_dual": True,
         "weakly_self_dual": True, "lcd": False, "hamming": 4, "lee": 6},
    (4,): {"length": 7, "size": 64, "dual_size": 256, "self_dual": False,
           "weakly_self_dual": True, "lcd": False, "hamming": 4, "lee": 6},
}

# No 3x3 matrix over Z6 has A A^T = -I (README library sketch).
ANTIORTHO_Z6_N3_FOUND = False

# Rendered idempotents.  A field or a local ring such as Z256 has exactly the
# two idempotents 0 and 1; GF(p,r) renders them as coefficient tuples.
PINNED_IDEMPOTENTS = {
    "GF(2,5)": ["(0,0,0,0,0)", "(1,0,0,0,0)"],
    "GF(7,2)": ["(0,0)", "(1,0)"],
    "Z256": ["0", "1"],
}

# GF(2)+vGF(2)[v2=v] splits onto GF(2) x GF(2) by a+vb -> (a+b, a).
R2_SPLIT = {"0": (0, 0), "v": (1, 0), "1": (1, 1), "1+v": (0, 1)}


def zmod_idempotents(m):
    return [e for e in range(m) if e * e % m == e]


def _all_vectors(m, width, lo=0, hi=None):
    """Rows lo..hi-1 of Z_m^width in lexicographic order, as int64."""
    hi = m ** width if hi is None else hi
    idx = np.arange(lo, hi, dtype=np.int64)
    weights = m ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // weights) % m


@functools.cache
def naive_count(m, n, k, side):
    """Number of n x n matrices A over Z_m with A^T A = kI (side 'left'),
    A A^T = kI ('right') or both ('two'), testing all m^(n*n) of them."""
    target = np.eye(n, dtype=np.int64) * (k % m)
    total = m ** (n * n)
    count = 0
    for lo in range(0, total, 1 << 16):
        a = _all_vectors(m, n * n, lo, min(total, lo + (1 << 16))).reshape(-1, n, n)
        ok = np.ones(len(a), dtype=bool)
        if side in ("left", "two"):
            ok &= (np.einsum("cji,cjk->cik", a, a) % m == target).all(axis=(1, 2))
        if side in ("right", "two"):
            ok &= (np.einsum("cij,ckj->cik", a, a) % m == target).all(axis=(1, 2))
        count += int(ok.sum())
    return count


def orthogonal_group_order(q, n):
    """|O_n(F_q)| for the form x.x and odd q (MacWilliams 1969)."""
    if q % 2 == 0:
        raise ValueError("closed form here is for odd q")
    h = n // 2
    if n % 2:
        return 2 * q ** (h * h) * math.prod(q ** (2 * i) - 1 for i in range(1, h + 1))
    disc = (-1) ** h % q
    eps = 1 if any(x * x % q == disc for x in range(q)) else -1
    return (2 * q ** (h * (h - 1)) * (q ** h - eps)
            * math.prod(q ** (2 * i) - 1 for i in range(1, h)))


def antiorthogonal_count(q, n):
    """|{A : A A^T = A^T A = -I}| over a prime field F_q in which -1 = s^2:
    B -> sB maps O_n(F_q) onto it."""
    if not any(x * x % q == q - 1 for x in range(q)):
        raise ValueError(f"-1 is not a square mod {q}")
    return orthogonal_group_order(q, n)


def parse_matrix(text):
    return [[int(x) for x in row.split(",")] for row in text.split(";")]


def render_matrix(rows):
    return ";".join(",".join(str(x) for x in row) for row in rows)


def zmod_left_orthogonal(m, n, k, flat_entries):
    """A^T A = kI over Z_m for a row-major entry list."""
    a = [flat_entries[i * n:(i + 1) * n] for i in range(n)]
    return all(
        sum(a[t][i] * a[t][j] for t in range(n)) % m == (k if i == j else 0) % m
        for i in range(n) for j in range(n)
    )


def code_report(m, a_rows, drop=()):
    """Duality report of the Z_m code spanned by [I : A], with the given
    1-based rows of A deleted first, by sweeping Z_m^n for the dual."""
    a_rows = [r for i, r in enumerate(a_rows, 1) if i not in drop]
    k, n = len(a_rows), len(a_rows) + len(a_rows[0])
    gen = np.array([[int(i == j) for j in range(k)] + list(r)
                    for i, r in enumerate(a_rows)], dtype=np.int64)
    words = {tuple(w) for w in (_all_vectors(m, k) @ gen % m).tolist()}
    vecs = _all_vectors(m, n)
    dual = {tuple(w) for w in vecs[(vecs @ gen.T % m == 0).all(axis=1)].tolist()}
    nonzero = [w for w in words if any(w)]
    return {
        "length": n,
        "size": len(words),
        "dual_size": len(dual),
        "self_dual": words == dual,
        "weakly_self_dual": words <= dual,
        "lcd": words & dual == {(0,) * n},
        "hamming": min(sum(1 for x in w if x) for w in nonzero),
        "lee": min(sum(min(x, m - x) for x in w) for w in nonzero),
    }


def _sample_orthonormal(rng, m, n, k):
    """n vectors of Z_m^n, each with self product k and pairwise orthogonal,
    chosen one at a time uniformly among the vectors that keep the set valid.
    A choice always exists for the two uses below: k = 0 admits the zero
    vector, and over a field Witt's theorem extends any valid partial set."""
    vecs = list(itertools.product(range(m), repeat=n))
    chosen = []
    for _ in range(n):
        cands = [v for v in vecs if _dot(m, v, v) == k % m
                 and all(_dot(m, v, c) == 0 for c in chosen)]
        chosen.append(list(rng.choice(cands)))
    return chosen


def sample_antiorthogonal(rng, q, n):
    """A uniformly drawn A with A A^T = A^T A = -I over the prime field F_q.

    Witt's theorem also gives every valid partial choice of rows the same
    number of completions, so row-by-row uniform choice is uniform on the
    whole set.
    """
    rows = _sample_orthonormal(rng, q, n, q - 1)
    if gram(q, [list(c) for c in zip(*rows)]) != gram(q, rows):
        raise ArithmeticError("A A^T = -I without A^T A = -I over a field")
    return rows


def sample_self_orthogonal(rng, m, n):
    """A seeded A over Z_m with A A^T = 0 (rows self- and pairwise-orthogonal)."""
    return _sample_orthonormal(rng, m, n, 0)


def _dot(m, u, v):
    return sum(x * y for x, y in zip(u, v)) % m


def gram(m, rows):
    return [[_dot(m, u, v) for v in rows] for u in rows]
