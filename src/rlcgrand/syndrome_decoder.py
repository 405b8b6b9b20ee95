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

from dataclasses import dataclass, field
from itertools import accumulate, combinations
from math import comb
from typing import Iterator, Sequence

from . import gf2
from .gf2 import BitMatrix
from .rlc import ParityCheck
from .search import OrderedSearch, RepairResult, SearchCore, lex_rank, repair_columns, solve_column

DEFAULT_QUERY_CAP = 1 << 20


@dataclass(frozen=True)
class SyndromeSystem:
    """Per-batch syndrome system: ht = (H_corrupted)ᵀ of shape (N-K)×L, s = (N-K)×B.

    The columns of ht are eliminated (`core`) and s is split into its B
    column targets (`targets`) once, when the system is built, so every
    repair run on the system shares that work.
    """

    ht: BitMatrix
    s: BitMatrix
    core: SearchCore = field(init=False, repr=False, compare=False)
    targets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.s.rows != self.ht.rows:
            raise ValueError("syndrome row count must match parity-check row count")
        object.__setattr__(self, "core", SearchCore(self.ht.col_ints()))
        object.__setattr__(self, "targets", self.s.col_ints())

    @property
    def num_unknowns(self) -> int:
        return self.ht.cols


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
    return solve_column(ht, s, _WeightOrder(ht.cols), query_cap)


def sd_repair(system: SyndromeSystem, query_cap: int = DEFAULT_QUERY_CAP) -> RepairResult:
    """Solve every column of the system independently at minimum weight.

    Columns whose search exceeds the cap are left all-zero and reported
    in `unresolved`.  The weight order ignores the previous column, so
    one search serves every target.
    """
    l = system.num_unknowns
    search = OrderedSearch(system.core, _WeightOrder(l), query_cap)
    return repair_columns(system.targets, l, lambda prior: search)


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
