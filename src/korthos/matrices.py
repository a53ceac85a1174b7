"""Matrices over a finite commutative ring, with the k-orthogonality tests.

Matrices are immutable value types: every operation returns a fresh matrix,
so they are safe to share across parallel searches.  Entries are stored
row-major as ring element indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    RingMismatchError,
    SizeCapError,
)
from .rings import split_top_level

DET_CAP = 6


class Mat:
    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, rows, cols, entries):
        if rows < 1 or cols < 0:
            raise DimensionMismatchError("matrix needs rows >= 1 and cols >= 0")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # construction ------------------------------------------------------
    @classmethod
    def from_rows(cls, ring, rows):
        rows = [list(r) for r in rows]
        if not rows:
            raise DimensionMismatchError("matrix needs at least one row")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise DimensionMismatchError("ragged rows")
        for r in rows:
            for e in r:
                ring.check_element(e)
        return cls(ring, len(rows), w, [e for r in rows for e in r])

    @classmethod
    def from_text(cls, ring, text):
        """Parse the row format ``2,5;1,2`` (entries in the ring's render syntax)."""
        rows = []
        for chunk in split_top_level(text.strip(), ";"):
            rows.append([ring.parse_element(t) for t in split_top_level(chunk, ",")])
        return cls.from_rows(ring, rows)

    @classmethod
    def from_json_dict(cls, data, ring=None):
        """Inverse of `to_json_dict`; the ring is resolved from the payload's
        literal unless one is passed explicitly."""
        from .rings import parse_ring

        if ring is None:
            ring = parse_ring(data["ring"])
        entries = [ring.parse_element(t) for t in data["entries"]]
        return cls(ring, data["rows"], data["cols"], entries)

    # access ------------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def is_square(self):
        return self.rows == self.cols

    # value semantics -----------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatchError(
                f"cannot compare matrices over {self.ring.literal} and {other.ring.literal}"
            )
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.ring.key, self.rows, self.cols, self.entries))

    def _sort_key(self):
        return self.entries

    # arithmetic ----------------------------------------------------------
    def _require_same_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands over {self.ring.literal} and {other.ring.literal}"
            )

    def transpose(self):
        e = self.entries
        c = self.cols
        return Mat(self.ring, c, self.rows,
                   [e[i * c + j] for j in range(c) for i in range(self.rows)])

    def mul(self, other):
        self._require_same_ring(other)
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        R = self.ring
        add, mul = R.add, R.mul
        a, b = self.entries, other.entries
        n, m, p = self.rows, self.cols, other.cols
        out = []
        for i in range(n):
            arow = a[i * m:(i + 1) * m]
            for j in range(p):
                acc = R.zero
                for t in range(m):
                    acc = add(acc, mul(arow[t], b[t * p + j]))
                out.append(acc)
        return Mat(R, n, p, out)

    __matmul__ = mul

    def add(self, other):
        self._require_same_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shape mismatch in matrix addition")
        R = self.ring
        return Mat(R, self.rows, self.cols,
                   [R.add(x, y) for x, y in zip(self.entries, other.entries)])

    __add__ = add

    def neg(self):
        R = self.ring
        return Mat(R, self.rows, self.cols, [R.neg(x) for x in self.entries])

    def scale(self, k):
        R = self.ring
        R.check_element(k)
        return Mat(R, self.rows, self.cols, [R.mul(k, x) for x in self.entries])

    def det(self):
        if not self.is_square():
            raise DimensionMismatchError("determinant of a non-square matrix")
        n = self.rows
        if n > DET_CAP:
            raise SizeCapError(f"determinant capped at {DET_CAP}x{DET_CAP}")
        R = self.ring
        return _det_rec(R, [list(self.row(i)) for i in range(n)])

    def is_invertible(self):
        return self.ring.is_unit(self.det())

    # rendering -----------------------------------------------------------
    def to_text(self):
        R = self.ring
        return ";".join(
            ",".join(R.render(e) for e in self.row(i)) for i in range(self.rows)
        )

    def render_entries(self):
        return [self.ring.render(e) for e in self.entries]

    def to_json_dict(self):
        return {
            "ring": self.ring.literal,
            "rows": self.rows,
            "cols": self.cols,
            "entries": self.render_entries(),
        }

    def __repr__(self):
        return f"Mat({self.ring.literal}, {self.to_text()!r})"


def _det_rec(R, rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return R.sub(R.mul(rows[0][0], rows[1][1]), R.mul(rows[0][1], rows[1][0]))
    acc = R.zero
    rest = rows[1:]
    for j, a in enumerate(rows[0]):
        if a == R.zero:
            continue
        minor = [r[:j] + r[j + 1:] for r in rest]
        term = R.mul(a, _det_rec(R, minor))
        acc = R.add(acc, term if j % 2 == 0 else R.neg(term))
    return acc


# ---------------------------------------------------------------------------
# stock matrices

def identity(ring, n):
    return Mat(ring, n, n,
               [ring.one if i == j else ring.zero for i in range(n) for j in range(n)])


def zeros(ring, n, m=None):
    m = n if m is None else m
    return Mat(ring, n, m, [ring.zero] * (n * m))


def scalar_mat(ring, k, n):
    ring.check_element(k)
    return Mat(ring, n, n,
               [k if i == j else ring.zero for i in range(n) for j in range(n)])


def reversal(ring, n):
    """Ones on the anti-diagonal."""
    return Mat(ring, n, n,
               [ring.one if i + j == n - 1 else ring.zero for i in range(n) for j in range(n)])


def hstack(a, b):
    a._require_same_ring(b)
    if a.rows != b.rows:
        raise DimensionMismatchError("hstack needs equal row counts")
    out = []
    for i in range(a.rows):
        out.extend(a.row(i))
        out.extend(b.row(i))
    return Mat(a.ring, a.rows, a.cols + b.cols, out)


# ---------------------------------------------------------------------------
# k-orthogonality

@dataclass(frozen=True)
class OrthClass:
    """Left/right k-orthogonality flags of a square matrix for a fixed k."""

    k: int
    left_k: bool
    right_k: bool

    @property
    def two_sided(self):
        return self.left_k and self.right_k

    def to_dict(self, ring=None):
        return {
            "k": ring.render(self.k) if ring is not None else self.k,
            "left": self.left_k,
            "right": self.right_k,
            "two_sided": self.two_sided,
        }


def _gram_matches(ring, vecs, k):
    """True iff the Gram matrix of `vecs` equals k*I.

    The only inner-product loop behind the orthogonality tests and the
    search; it stays written out because it runs once per census element.
    """
    add, mul = ring.add, ring.mul
    zero = ring.zero
    n = len(vecs)
    for i in range(n):
        vi = vecs[i]
        for j in range(i, n):
            vj = vecs[j]
            acc = zero
            for t in range(len(vi)):
                acc = add(acc, mul(vi[t], vj[t]))
            if acc != (k if i == j else zero):
                return False
    return True


def _rows_gram_matches(a, k):
    """A A^T = k I for a square `a`, without validating the arguments."""
    e, n = a.entries, a.cols
    return _gram_matches(a.ring, [e[i * n:(i + 1) * n] for i in range(n)], k)


def is_left_k_orthogonal(a, k):
    """A^T A = k I, i.e. the columns have Gram matrix k*I."""
    if not a.is_square():
        raise DimensionMismatchError("k-orthogonality is defined for square matrices")
    a.ring.check_element(k)
    return _gram_matches(a.ring, [a.col(j) for j in range(a.cols)], k)


def is_right_k_orthogonal(a, k):
    """A A^T = k I, i.e. the rows have Gram matrix k*I."""
    if not a.is_square():
        raise DimensionMismatchError("k-orthogonality is defined for square matrices")
    a.ring.check_element(k)
    return _rows_gram_matches(a, k)


def classify_k_orthogonal(a, k):
    return OrthClass(k, is_left_k_orthogonal(a, k), is_right_k_orthogonal(a, k))


def find_k(a):
    """If A^T A or A A^T is a scalar matrix k*I, return (k, OrthClass); else None."""
    if not a.is_square():
        raise DimensionMismatchError("find_k is defined for square matrices")
    for gram in (a.transpose().mul(a), a.mul(a.transpose())):
        k = gram[0, 0]
        if gram == scalar_mat(a.ring, k, a.rows):
            return k, classify_k_orthogonal(a, k)
    return None
