"""Dense GF(2) linear algebra on bit-packed rows.

Matrices are immutable; each row is stored as a Python int bitmask with
bit ``j`` holding column ``j``.  Row XOR is then a single integer XOR,
which keeps elimination and matrix products cheap at the sizes used by
the packet simulator (tens of rows and columns).  `mul_rows` is the one
product loop: X = [U; P·U] and S = Hᵀ·Y are built by it.  Immutable
matrices can be shared: `BitMatrix.identity` builds I_n once per n.

`Echelon` is the one elimination in the package.  It takes the rows of
a system one at a time, so a receiver reduces its clean rows once and
later adds only the rows a repair promotes; `rank` and `rlc.rlc_decode`
feed it a whole matrix, and a syndrome system (`search.SyndromeSystem`)
feeds it the columns of ht, each with its own index bit as right side.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence


class InconsistentSystemError(ValueError):
    """A linear system has redundant rows that contradict each other."""


def _check_row_ints(row_ints: Sequence[int], cols: int) -> tuple[int, ...]:
    limit = 1 << cols
    out = tuple(int(r) for r in row_ints)
    for r in out:
        if r < 0 or r >= limit:
            raise ValueError(f"row value {r} does not fit in {cols} columns")
    return out


class _Slots:
    """The storage of a `BitMatrix`: plain slots, written only while one is built."""

    __slots__ = ("rows", "cols", "row_ints")


class BitMatrix(_Slots):
    """Immutable binary matrix; rows live as int bitmasks (bit j = column j).

    Zero-row and zero-column matrices are legal; they show up when a code
    has no parity packets (N == K).  Assigning or deleting an attribute
    raises `AttributeError`, so a shared matrix (`identity`) cannot be
    changed under its other users.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, row_ints: Sequence[int]) -> "BitMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(row_ints) != rows:
            raise ValueError(f"expected {rows} rows, got {len(row_ints)}")
        return cls.trusted(rows, cols, _check_row_ints(row_ints, cols))

    @classmethod
    def trusted(cls, rows: int, cols: int, row_ints: tuple[int, ...]) -> "BitMatrix":
        """A matrix from ``rows`` ints in [0, 2^cols), taken as given, unchecked.

        For rows the library computes itself (products, sums, row subsets,
        packed random bits), which fit by construction; a matrix built from
        outside input goes through the validating constructor.  The slots
        are filled on a `_Slots` object, which then becomes a BitMatrix.
        """
        m = object.__new__(_Slots)
        m.rows = rows
        m.cols = cols
        m.row_ints = row_ints
        m.__class__ = cls
        return m

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"BitMatrix is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"BitMatrix is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return BitMatrix, (self.rows, self.cols, self.row_ints)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    @lru_cache(maxsize=None)
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def row_bits(self, i: int) -> tuple[int, ...]:
        r = self.row_ints[i]
        return tuple((r >> j) & 1 for j in range(self.cols))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row_bits(i)) for i in range(self.rows)]

    def col_ints(self) -> tuple[int, ...]:
        """Column bitmasks (bit i = row i); the transpose's row view."""
        cols = [0] * self.cols
        for i, r in enumerate(self.row_ints):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return tuple(cols)

    def transpose(self) -> "BitMatrix":
        return BitMatrix.trusted(self.cols, self.rows, self.col_ints())

    def take_rows(self, indices: Sequence[int]) -> "BitMatrix":
        rows = self.row_ints
        return BitMatrix.trusted(len(indices), self.cols, tuple(rows[i] for i in indices))

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return BitMatrix.trusted(self.rows + other.rows, self.cols, self.row_ints + other.row_ints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.row_ints) == (other.rows, other.cols, other.row_ints)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.row_ints))

    def __repr__(self) -> str:
        if self.rows * self.cols > 400:
            return f"BitMatrix({self.rows}x{self.cols})"
        body = ", ".join(str(list(self.row_bits(i))) for i in range(self.rows))
        return f"BitMatrix({self.rows}x{self.cols}: [{body}])"


def matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Product over GF(2): result[i][j] = XOR_k a[i][k] & b[k][j]."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return BitMatrix.trusted(a.rows, b.cols, mul_rows(a.row_ints, b.row_ints))


def mul_rows(a_rows: Sequence[int], b_rows: Sequence[int]) -> tuple[int, ...]:
    """Rows of A·B from row bitmasks: row i is the XOR of the rows of B
    that row i of A selects.  No shapes are checked: every set bit of A
    must index a row of B."""
    out = []
    for r in a_rows:
        acc = 0
        while r:
            low = r & -r
            acc ^= b_rows[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return tuple(out)


def add(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Elementwise XOR; shapes must match."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    return BitMatrix.trusted(a.rows, a.cols, tuple(x ^ y for x, y in zip(a.row_ints, b.row_ints)))


class Echelon:
    """Row echelon form of an augmented GF(2) system [g | y], built one row
    at a time.

    ``pivots[j]`` is the kept row whose lowest coefficient bit is column
    j, stored as ``g | y << cols``, or 0 when column j has no pivot yet.
    Each kept row has no bit at any lower pivot column, so a unit row
    (a clean systematic packet) enters as a pivot of its own at O(1)
    cost.  A row that reduces to zero coefficients but a nonzero right
    side sets ``inconsistent``: the system then has no solution,
    whatever rows come after it.
    """

    __slots__ = ("cols", "rhs_cols", "rank", "inconsistent", "pivots")

    def __init__(self, cols: int, rhs_cols: int = 0):
        self.cols = cols
        self.rhs_cols = rhs_cols
        self.rank = 0
        self.inconsistent = False
        self.pivots = [0] * cols

    def copy(self) -> "Echelon":
        """An independent echelon of the same rows; adding to it leaves this one as it is."""
        out = object.__new__(Echelon)
        out.cols = self.cols
        out.rhs_cols = self.rhs_cols
        out.rank = self.rank
        out.inconsistent = self.inconsistent
        out.pivots = self.pivots[:]
        return out

    def add(self, g: int, y: int = 0) -> int:
        """Reduce the row (g, y) against the pivots: keep it as a new pivot and
        return 0, or return the leftover w, which has no coefficient bits
        (its right side is ``w >> cols``); a nonzero w sets ``inconsistent``."""
        pivots = self.pivots
        mask = (1 << self.cols) - 1
        w = g | (y << self.cols)
        low = w & mask
        while low:
            j = (low & -low).bit_length() - 1
            p = pivots[j]
            if not p:
                pivots[j] = w
                self.rank += 1
                return 0
            w ^= p
            low = w & mask
        if w:
            self.inconsistent = True
        return w

    def reduce(self, g: int) -> int | None:
        """The right side that the pivots combining to g add up to, or None
        when g is outside their span; the echelon is left as it is."""
        pivots, mask, w = self.pivots, (1 << self.cols) - 1, g
        while w & mask:
            p = pivots[(w & -w).bit_length() - 1]
            if not p:
                return None
            w ^= p
        return w >> self.cols

    def solve(self) -> BitMatrix | None:
        """The unique X (cols × rhs_cols) with g·X = y for every added row.

        None below full column rank.  At full column rank, raises
        InconsistentSystemError when the rows contradict each other.
        """
        n = self.cols
        if self.rank < n:
            return None
        if self.inconsistent:
            raise InconsistentSystemError("redundant rows are inconsistent with the solution")
        # Back-substitution: pivot j's other coefficient bits are all above j.
        x = [0] * n
        for j in range(n - 1, -1, -1):
            w = self.pivots[j]
            v = w >> n
            rest = (w ^ (1 << j)) & ((1 << n) - 1)
            while rest:
                low = rest & -rest
                v ^= x[low.bit_length() - 1]
                rest ^= low
            x[j] = v
        return BitMatrix.trusted(n, self.rhs_cols, tuple(x))


def rank(a: BitMatrix) -> int:
    """Rank over GF(2) by row elimination; 0 for empty or all-zero input."""
    ech = Echelon(a.cols)
    for r in a.row_ints:
        ech.add(r)
    return ech.rank

