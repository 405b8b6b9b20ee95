"""Exact first-hit search shared by the syndrome and transversal-GRAND decoders.

Both receivers solve one linear system ht·w = t per bit position by
querying candidate error columns w in a fixed order and keeping the first
that satisfies the syndrome; they differ only in that order.  A decoder
describes its order (`CandidateOrder`) by a generator of candidate masks
in query order and the closed-form position of any mask in that order.

The solutions of one column form a coset x0 + ker(ht) of dimension
d = L - rank(ht).  Eliminating the columns of ht once per system, with a
record of which columns were combined, gives a particular solution x0 for
any target and a basis of the kernel.  A target is then resolved in two
steps:

- scan: test candidates in query order, at most min(2^d, cap) of them.
  The first position of every syndrome seen is memoised, so later targets
  in the same order continue the scan instead of restarting it;
- rank: if the scan found no hit and 2^d < cap, the first hit lies past
  position 2^d; it is the coset member with the smallest position.  The
  orders are blocked (weight layers, likelihood classes), so only the
  members in the earliest block need their full position.

A hit past the cap, or a target outside the column space of ht, leaves
the column unresolved at a cost of min(2^L, cap) queries, exactly as if
the order had been walked to the cap.

One loop (`repair_columns`) solves the B columns of a system left to
right.  A decoder supplies only the search for each column, given the
previous column's estimate: the syndrome decoder ignores it and uses one
search throughout, transversal GRAND keeps one search per prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Callable, Iterator, Protocol, Sequence

from .gf2 import BitMatrix

# A first hit: (candidate mask, queries used), or (None, queries) when the
# column is unresolved.
Hit = tuple[int | None, int]


class CandidateOrder(Protocol):
    """A decoder's query order over all 2^L candidate masks."""

    def masks(self) -> Iterator[int]:
        """Every candidate mask, in query order."""

    def block(self, mask: int) -> int:
        """Number of candidates queried before the block that holds `mask`."""

    def position(self, mask: int) -> int:
        """1-based query position of `mask`."""


class SearchCore:
    """Coset structure of one syndrome system, eliminated once.

    `cols` are the columns of ht as bitmasks (bit i = check i).  `dim` is
    the coset dimension d = L - rank(ht); for a received batch it equals
    K - rank(G_R).

    One core serves every candidate order over the same system.
    """

    def __init__(self, cols: Sequence[int]):
        # Each pivot is (pivot bit, reduced column, mask of the original
        # columns whose XOR gives it); a column that reduces to zero gives
        # the mask of a kernel vector.
        pivots: list[tuple[int, int, int]] = []
        kernel: list[int] = []
        for j, col in enumerate(cols):
            combo = 1 << j
            for bit, vec, vec_combo in pivots:
                if col & bit:
                    col ^= vec
                    combo ^= vec_combo
            if col:
                pivots.append((col & -col, col, combo))
            else:
                kernel.append(combo)
        self._pivots = pivots
        self._kernel = kernel
        self.dim = len(kernel)
        self.num_unknowns = len(cols)
        self.syndrome = _syndrome_function(cols)

    def particular(self, target: int) -> int | None:
        """Some w with ht·w = target, or None when the target is out of reach."""
        x0 = 0
        for bit, vec, combo in self._pivots:
            if target & bit:
                target ^= vec
                x0 ^= combo
        return None if target else x0

    def coset(self, x0: int) -> list[int]:
        """All 2^d solutions x0 + ker(ht)."""
        members = [x0]
        for v in self._kernel:
            members += [m ^ v for m in members]
        return members


class OrderedSearch:
    """First-hit lookups in one candidate order, memoised per target.

    Work bound: the scan tests at most min(2^d, query_cap) candidates in
    all, shared by every target; a target the scan misses costs at most
    2^d block and 2^d position evaluations more.
    """

    def __init__(self, core: SearchCore, order: CandidateOrder, query_cap: int):
        self._core = core
        self._order = order
        self._masks = order.masks()
        self._query_cap = query_cap
        self._scan_limit = min(1 << core.dim, query_cap)
        self._miss_cost = min(1 << core.num_unknowns, query_cap)
        self._scanned = 0
        # Syndrome -> first hit.  Holds every syndrome the scan has seen
        # and every target resolved after it.
        self._found: dict[int, Hit] = {}

    def find(self, target: int) -> Hit:
        """(first satisfying mask, its 1-based position) or (None, miss cost)."""
        hit = self._found.get(target)
        if hit is None:
            hit = self._resolve(target)
            self._found[target] = hit
        return hit

    def _resolve(self, target: int) -> Hit:
        core = self._core
        x0 = core.particular(target)
        if x0 is None:
            return None, self._miss_cost
        found, syndrome, n = self._found, core.syndrome, self._scanned
        for mask in islice(self._masks, self._scan_limit - n):
            n += 1
            s = syndrome(mask)
            if s not in found:
                found[s] = (mask, n)
                if s == target:
                    self._scanned = n
                    return mask, n
        self._scanned = n
        if self._scan_limit == self._query_cap:  # the scan walked the whole capped prefix
            return None, self._miss_cost
        members = core.coset(x0)
        blocks = [self._order.block(m) for m in members]
        first = min(blocks)
        pos, mask = min(
            (self._order.position(m), m) for m, b in zip(members, blocks) if b == first
        )
        if pos > self._query_cap:
            return None, self._miss_cost
        return mask, pos


@dataclass(frozen=True)
class RepairResult:
    """Estimated error rows for the corrupted packets, with per-column bookkeeping."""

    e_hat: BitMatrix
    unresolved: tuple[int, ...]
    queries_per_column: tuple[int, ...]

    @property
    def queries_total(self) -> int:
        return sum(self.queries_per_column)


def repair_columns(
    targets: Sequence[int], unknowns: int, search_for: Callable[[int], OrderedSearch]
) -> RepairResult:
    """Solve the columns left to right; ``search_for(prior)`` gives the search
    for a column whose predecessor was estimated as ``prior``.

    The prior of the first column is 0.  An unresolved column is left
    all-zero, so the next column's prior is 0 again.
    """
    out_cols: list[int] = []
    queries: list[int] = []
    unresolved: list[int] = []
    prior = 0
    for b, target in enumerate(targets):
        mask, q = search_for(prior).find(target)
        queries.append(q)
        if mask is None:
            unresolved.append(b)
            mask = 0
        out_cols.append(mask)
        prior = mask
    return RepairResult(
        e_hat=BitMatrix(len(targets), unknowns, out_cols).transpose(),
        unresolved=tuple(unresolved),
        queries_per_column=tuple(queries),
    )


def solve_column(
    ht: BitMatrix, s: Sequence[int], order: CandidateOrder, query_cap: int
) -> tuple[int, ...] | None:
    """First candidate of `order` with ht·wᵀ = s, or None once the cap is hit."""
    if len(s) != ht.rows:
        raise ValueError(f"syndrome length {len(s)} does not match {ht.rows} checks")
    mask, _ = OrderedSearch(SearchCore(ht.col_ints()), order, query_cap).find(bits_to_mask(s))
    if mask is None:
        return None
    return mask_to_bits(mask, ht.cols)


def bits_to_mask(bits: Sequence[int]) -> int:
    mask = 0
    for i, bit in enumerate(bits):
        mask |= (bit & 1) << i
    return mask


def mask_to_bits(mask: int, length: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(length))


def lex_rank(mask: int, index: Sequence[int], n: int, k: int) -> int:
    """0-based rank of a k-subset of n ordered positions, in combinations order.

    Bit p of `mask` selects the position at index[p] of the n; the order
    is that of itertools.combinations over the n positions, i.e.
    lexicographic by index.  Bits must ascend with their indices.
    """
    r = comb(n, k) - 1
    while mask:
        low = mask & -mask
        r -= comb(n - 1 - index[low.bit_length() - 1], k)
        k -= 1
        mask ^= low
    return r


def _syndrome_function(cols: Sequence[int]) -> Callable[[int], int]:
    """mask -> XOR of cols[j] over the set bits j, via one table per byte."""
    tables = []
    for start in range(0, len(cols), 8):
        table = [0]
        for col in cols[start : start + 8]:
            table += [v ^ col for v in table]
        tables.append(table)
    if len(tables) <= 1:
        return (tables[0] if tables else [0]).__getitem__
    if len(tables) == 2:
        low, high = tables
        return lambda m: low[m & 0xFF] ^ high[m >> 8]

    def syndrome(m: int) -> int:
        s = 0
        for table in tables:
            s ^= table[m & 0xFF]
            m >>= 8
        return s

    return syndrome
