"""Dense GF(2) linear algebra on bit-packed rows.

Matrices are immutable; each row is stored as a Python int bitmask with
bit ``j`` holding column ``j``.  Row XOR is then a single integer XOR,
which keeps Gaussian elimination and matrix products cheap at the sizes
used by the packet simulator (tens of rows and columns).
"""

from __future__ import annotations

from typing import Iterable, Sequence


class InconsistentSystemError(ValueError):
    """A linear system has redundant rows that contradict each other."""


def _check_row_ints(row_ints: Sequence[int], cols: int) -> tuple[int, ...]:
    limit = 1 << cols
    out = tuple(int(r) for r in row_ints)
    for r in out:
        if r < 0 or r >= limit:
            raise ValueError(f"row value {r} does not fit in {cols} columns")
    return out


class BitMatrix:
    """Immutable binary matrix; rows live as int bitmasks (bit j = column j).

    Zero-row and zero-column matrices are legal; they show up when a code
    has no parity packets (N == K).
    """

    __slots__ = ("rows", "cols", "row_ints")

    def __init__(self, rows: int, cols: int, row_ints: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(row_ints) != rows:
            raise ValueError(f"expected {rows} rows, got {len(row_ints)}")
        self.rows = rows
        self.cols = cols
        self.row_ints = _check_row_ints(row_ints, cols)

    @classmethod
    def trusted(cls, rows: int, cols: int, row_ints: tuple[int, ...]) -> "BitMatrix":
        """A matrix from ``rows`` ints in [0, 2^cols), taken as given, unchecked.

        For rows the library computes itself (products, sums, row subsets,
        packed random bits), which fit by construction; a matrix built from
        outside input goes through the validating constructor.
        """
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.row_ints = row_ints
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls.trusted(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.trusted(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> "BitMatrix":
        """Build from nested 0/1 lists; `cols` is required when rows is empty."""
        lists = [list(r) for r in rows]
        if lists:
            ncols = len(lists[0])
            if any(len(r) != ncols for r in lists):
                raise ValueError("ragged rows")
            if cols is not None and cols != ncols:
                raise ValueError("cols does not match row length")
        else:
            if cols is None:
                raise ValueError("cols required for an empty row list")
            ncols = cols
        ints = []
        for r in lists:
            v = 0
            for j, bit in enumerate(r):
                if bit not in (0, 1):
                    raise ValueError(f"non-binary entry {bit!r}")
                v |= bit << j
            ints.append(v)
        return cls(len(lists), ncols, ints)

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return (self.row_ints[i] >> j) & 1

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
    out = []
    for r in a.row_ints:
        acc = 0
        while r:
            low = r & -r
            acc ^= b.row_ints[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return BitMatrix.trusted(a.rows, b.cols, tuple(out))


def add(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Elementwise XOR; shapes must match."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    return BitMatrix.trusted(a.rows, a.cols, tuple(x ^ y for x, y in zip(a.row_ints, b.row_ints)))


def _eliminate(work: list[int], cols: int) -> int:
    """Gauss-Jordan elimination in place on the low ``cols`` bits of ``work``.

    Returns the rank r.  Afterwards rows [0, r) are the pivot rows, each the
    only row with a bit at its pivot column, and rows [r, len) have no bit
    below ``cols``.  Bits at and above ``cols`` (an augmented right-hand
    side) ride along with their rows.
    """
    r = 0
    for col in range(cols):
        bit = 1 << col
        pivot = next((i for i in range(r, len(work)) if work[i] & bit), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        row = work[r]
        for i in range(len(work)):
            if i != r and work[i] & bit:
                work[i] ^= row
        r += 1
        if r == len(work):
            break
    return r


def rank(a: BitMatrix) -> int:
    """Rank over GF(2) by row elimination; 0 for empty or all-zero input."""
    return _eliminate(list(a.row_ints), a.cols)


def rank_solve(a: BitMatrix, b: BitMatrix) -> tuple[int, BitMatrix | None]:
    """(rank of a, the unique X with a·X = b), from one elimination.

    X is None when rank(a) < a.cols, which includes every system with fewer
    rows than columns.  At full column rank, raises InconsistentSystemError
    when the redundant rows contradict the pivots, which signals corrupted
    rows being passed off as clean.
    """
    if b.rows != a.rows:
        raise ValueError("right-hand side row count does not match")
    n = a.cols
    # Augmented rows: low n bits from `a`, the rest from `b` shifted past them.
    work = [ra | (rb << n) for ra, rb in zip(a.row_ints, b.row_ints)]
    r = _eliminate(work, n)
    if r < n:
        return r, None
    if any(work[r:]):
        raise InconsistentSystemError("redundant rows are inconsistent with the solution")
    # Pivot row i has its single low bit at its pivot column.
    x_rows = [0] * n
    for w in work[:r]:
        x_rows[(w & ((1 << n) - 1)).bit_length() - 1] = w >> n
    return r, BitMatrix.trusted(n, b.cols, tuple(x_rows))

