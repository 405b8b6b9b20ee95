"""Minimum-weight syndrome repair of erroneous packets.

The receiver knows S = Hᵀ·Y, which equals (H restricted to corrupted
rows)ᵀ times the unknown error rows.  Each bit position b gives one
linear system; the repair picks, per column, the lightest error vector
consistent with that syndrome.  Candidates are queried in weight order
(0, 1, 2, ...), lexicographic by support within a weight, so runs are
reproducible; a query cap bounds the search per column.

The first hit is found with the shared search core (`search.py`).  The
solutions of one column form a coset of dimension d = L - rank(ht); the
core tests at most 2^d candidates in weight order and, if none hits,
takes the coset member with the smallest position

    sum of C(L, w') over w' < w, + lexrank(support) + 1

for a support of weight w.  The estimate and the reported query count
equal those of walking the order to the first hit, or to the query cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb
from typing import Iterator, Sequence

from . import gf2
from .gf2 import BitMatrix
from .rlc import ParityCheck
from .search import CandidateOrder, OrderedSearch, SearchCore, lex_rank

DEFAULT_QUERY_CAP = 1 << 20


@dataclass(frozen=True)
class SyndromeSystem:
    """Per-batch syndrome system: ht = (H_corrupted)ᵀ of shape (N-K)×L, s = (N-K)×B."""

    ht: BitMatrix
    s: BitMatrix

    def __post_init__(self):
        if self.s.rows != self.ht.rows:
            raise ValueError("syndrome row count must match parity-check row count")

    @property
    def num_unknowns(self) -> int:
        return self.ht.cols

    @property
    def num_columns(self) -> int:
        return self.s.cols


@dataclass(frozen=True)
class RepairResult:
    """Estimated error rows for the corrupted packets, with per-column bookkeeping."""

    e_hat: BitMatrix
    unresolved: tuple[int, ...]
    queries_per_column: tuple[int, ...]

    @property
    def queries_total(self) -> int:
        return sum(self.queries_per_column)


def compute_syndrome(h: ParityCheck, y: BitMatrix) -> BitMatrix:
    """S = Hᵀ·Y; independent of the transmitted data because Hᵀ·G = 0."""
    return gf2.matmul(h.matrix.transpose(), y)


def sd_solve_column(
    ht: BitMatrix, s: Sequence[int], query_cap: int = DEFAULT_QUERY_CAP
) -> tuple[int, ...] | None:
    """First minimal-weight w with ht·wᵀ = s, or None once the cap is hit.

    Search order: weight 0, 1, 2, ...; within a weight, support sets in
    lexicographic position order.
    """
    return _solve_column(ht, s, _WeightOrder(ht.cols), query_cap)


def sd_repair(system: SyndromeSystem, query_cap: int = DEFAULT_QUERY_CAP) -> RepairResult:
    """Solve every column of the system independently at minimum weight.

    Columns whose search exceeds the cap are left all-zero and reported
    in `unresolved`.  All columns share one candidate order, so one
    search serves every target.
    """
    l = system.num_unknowns
    search = OrderedSearch(SearchCore(system.ht.col_ints(), query_cap), _WeightOrder(l))
    out_cols: list[int] = []
    queries: list[int] = []
    unresolved: list[int] = []
    for b, target in enumerate(system.s.col_ints()):
        mask, q = search.find(target)
        queries.append(q)
        if mask is None:
            unresolved.append(b)
            out_cols.append(0)
        else:
            out_cols.append(mask)
    e_hat = BitMatrix(system.num_columns, l, out_cols).transpose()
    return RepairResult(
        e_hat=e_hat, unresolved=tuple(unresolved), queries_per_column=tuple(queries)
    )


class _WeightOrder:
    """Weight 0, 1, 2, ... over L unknowns; lexicographic supports within a weight."""

    def __init__(self, l: int):
        self._l = l
        # _offsets[w] = number of candidates lighter than w.
        self._offsets = list(accumulate((comb(l, w) for w in range(l)), initial=0))

    def masks(self) -> Iterator[int]:
        bits = [1 << j for j in range(self._l)]
        for w in range(self._l + 1):
            for combo in combinations(bits, w):
                yield sum(combo)

    def block(self, mask: int) -> int:
        return self._offsets[mask.bit_count()]

    def position(self, mask: int) -> int:
        w = mask.bit_count()
        return self._offsets[w] + lex_rank(mask, range(self._l), self._l, w) + 1


def _solve_column(
    ht: BitMatrix, s: Sequence[int], order: CandidateOrder, query_cap: int
) -> tuple[int, ...] | None:
    """First candidate of `order` with ht·wᵀ = s, or None once the cap is hit."""
    if len(s) != ht.rows:
        raise ValueError(f"syndrome length {len(s)} does not match {ht.rows} checks")
    mask, _ = OrderedSearch(SearchCore(ht.col_ints(), query_cap), order).find(_bits_to_mask(s))
    if mask is None:
        return None
    return _mask_to_bits(mask, ht.cols)


def _bits_to_mask(bits: Sequence[int]) -> int:
    mask = 0
    for i, bit in enumerate(bits):
        mask |= (bit & 1) << i
    return mask


def _mask_to_bits(mask: int, length: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(length))
