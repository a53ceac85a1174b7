"""Matrices over a finite commutative ring, with the k-orthogonality tests.

Matrices are immutable value types: every operation returns a fresh matrix.
Entries are stored row-major as ring element indices.  `Mat` is the
one-matrix view of the public API; censuses are held as index arrays (see
`search`).  Every matrix operation -- product, sum, negation, scaling and
the determinant -- reads the ring tables through `_batch` on the matrix's
index array (`_array`, turned back into a `Mat` by `_mat`), and every
k-orthogonality test, here and in `codes`, runs through the one numpy Gram
kernel `_batch.gram_is_scalar`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _batch
from .errors import DimensionMismatchError, RingMismatchError
from .rings import split_top_level


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

    # access ------------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

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

    # arithmetic ----------------------------------------------------------
    def _require_same_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands over {self.ring.literal} and {other.ring.literal}"
            )

    def transpose(self):
        return _mat(self.ring, _array(self).T)

    def mul(self, other):
        self._require_same_ring(other)
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return _mat(self.ring, _batch.batch_matmul(self.ring, _array(self), _array(other)))

    __matmul__ = mul

    def add(self, other):
        self._require_same_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shape mismatch in matrix addition")
        return _mat(self.ring, _batch._gather(self.ring.add_np, _array(self), _array(other)))

    __add__ = add

    def neg(self):
        return _mat(self.ring, self.ring.neg_np[_array(self)])

    def scale(self, k):
        self.ring.check_element(k)
        return _mat(self.ring, _batch._gather(self.ring.mul_np, k, _array(self)))

    def det(self):
        """Determinant, for square matrices up to `_batch.DET_CAP` rows."""
        if not self.is_square():
            raise DimensionMismatchError("determinant of a non-square matrix")
        return int(_batch.det(self.ring, _array(self)))

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
    return _mat(a.ring, np.hstack([_array(a), _array(b)]))


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


def _array(a):
    """The entries of `a` as a (rows, cols) uint8 index array."""
    return np.array(a.entries, dtype=np.uint8).reshape(a.rows, a.cols)


def _mat(ring, arr):
    """The `Mat` view of a (rows, cols) index array; `_array` inverts it."""
    return Mat(ring, *arr.shape, arr.ravel().tolist())


def _gram_is(a, k, columns=False):
    """True iff the rows of `a` (its columns with columns=True) have Gram
    matrix k*I; any shape, no argument checks."""
    vecs = _array(a)
    return bool(_batch.gram_is_scalar(a.ring, vecs.T if columns else vecs, k))


def is_left_k_orthogonal(a, k):
    """A^T A = k I, i.e. the columns have Gram matrix k*I."""
    if not a.is_square():
        raise DimensionMismatchError("k-orthogonality is defined for square matrices")
    a.ring.check_element(k)
    return _gram_is(a, k, columns=True)


def is_right_k_orthogonal(a, k):
    """A A^T = k I, i.e. the rows have Gram matrix k*I."""
    if not a.is_square():
        raise DimensionMismatchError("k-orthogonality is defined for square matrices")
    a.ring.check_element(k)
    return _gram_is(a, k)


def classify_k_orthogonal(a, k):
    return OrthClass(k, is_left_k_orthogonal(a, k), is_right_k_orthogonal(a, k))


def find_k(a):
    """If A^T A or A A^T is a scalar matrix k*I, return (k, OrthClass); else None."""
    if not a.is_square():
        raise DimensionMismatchError("find_k is defined for square matrices")
    x = _array(a)
    grams = _batch.batch_matmul(a.ring, np.stack([x.T, x]), np.stack([x, x.T]))
    for gram in grams:                            # A^T A, then A A^T
        k = int(gram[0, 0])
        scalar = (grams == _array(scalar_mat(a.ring, k, a.rows))).all(axis=(1, 2))
        if scalar.any():
            return k, OrthClass(k, *scalar.tolist())
    return None
