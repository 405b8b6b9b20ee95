"""Syndrome system and exact first-hit search, shared by both repairs.

A `SyndromeSystem` holds ht = (H restricted to the corrupted rows)ᵀ and
the syndrome s.  Both receivers solve one linear system ht·w = t per bit
position, querying candidate error columns w in a fixed order until the
syndrome ht·w, the XOR of the columns of ht that w selects, equals t;
they differ only in that order.  A decoder's order (`CandidateOrder`) is
a generator of candidate masks in query order and a rule that picks,
from any set of masks, the one it queries first, with its position.

The solutions of one column form a coset x0 + ker(ht) of dimension
d = L - rank(ht).  Reducing the columns of ht once per system in a
`gf2.Echelon`, with a record of which columns were combined, gives a
particular solution x0 for any target and a basis of the kernel.  A
target is then resolved in two steps:

- scan: test candidates in query order, at most min(2^d, cap) of them.
  The first position of every syndrome seen is memoised, so later targets
  in the same order continue the scan instead of restarting it;
- rank: if the scan found no hit and 2^d < cap, the first hit lies past
  position 2^d; it is the coset member that the order queries first
  (`CandidateOrder.first`).

A hit past the cap, or a target outside the column space of ht, leaves
the column unresolved at a cost of min(2^L, cap) queries, exactly as if
the order had been walked to the cap.

One loop (`repair_columns`) solves the B columns of a system left to
right.  A decoder supplies only the order for each column's prior (the
previous column's estimate), and the system keeps one search per order,
so every column and decoder that names an equal order shares its scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Protocol, Sequence

from .gf2 import BitMatrix, Echelon

DEFAULT_QUERY_CAP = 1 << 20

# A first hit: (candidate mask, queries used), or (None, queries) when the
# column is unresolved.
Hit = tuple[int | None, int]


class CandidateOrder(Protocol):
    """A decoder's query order over all 2^L candidate masks."""

    def masks(self) -> Iterator[int]:
        """Every candidate mask, in query order."""

    def first(self, masks: Sequence[int]) -> tuple[int, int]:
        """(1-based query position, mask) of the mask in `masks` queried first."""


class SearchCore:
    """Coset structure of one syndrome system, eliminated once.

    Column j of ``ht`` enters one `gf2.Echelon` as the row (column j,
    1 << j), so each right side records which original columns were
    combined.  A column that reduces to zero leaves the mask of a kernel
    vector, and `particular` is the echelon's `reduce`: some w with
    ht·w = target, or None when the target is out of reach.  `dim` is the
    coset dimension d = L - rank(ht); for a received batch it equals
    K - rank(G_R).

    One core serves every candidate order over the same system.
    """

    def __init__(self, ht: BitMatrix):
        cols, n = ht.col_ints(), ht.rows
        ech = Echelon(n, ht.cols)
        add = ech.add
        self._kernel = [w >> n for j, col in enumerate(cols) if (w := add(col, 1 << j))]
        self.particular = ech.reduce
        self.dim = ht.cols - ech.rank
        self.num_unknowns = ht.cols
        self._cols = cols

    def syndrome(self, mask: int) -> int:
        """ht·w for the candidate w = `mask`: the XOR of the columns it selects."""
        cols, s = self._cols, 0
        while mask:
            low = mask & -mask
            s ^= cols[low.bit_length() - 1]
            mask ^= low
        return s

    def coset(self, x0: int) -> list[int]:
        """All 2^d solutions x0 + ker(ht)."""
        members = [x0]
        for v in self._kernel:
            members += [m ^ v for m in members]
        return members


@dataclass(frozen=True)
class SyndromeSystem:
    """Per-batch syndrome system: ht = (H_corrupted)ᵀ of shape (N-K)×L, s = (N-K)×B.

    The columns of ht are eliminated (`core`) and s is split into its B
    column targets (`targets`) once, when the system is built, so every
    repair run on the system shares that work; `search` shares each order's search.
    """

    ht: BitMatrix
    s: BitMatrix
    core: SearchCore = field(init=False, repr=False, compare=False)
    targets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _searches: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.s.rows != self.ht.rows:
            raise ValueError("syndrome row count must match parity-check row count")
        object.__setattr__(self, "core", SearchCore(self.ht))
        object.__setattr__(self, "targets", self.s.col_ints())
        object.__setattr__(self, "_searches", {})

    def search(self, order: CandidateOrder, query_cap: int) -> OrderedSearch:
        """The one search in `order` under `query_cap`.  It holds the core, never
        the system, so no reference cycle keeps a used system alive."""
        search = self._searches.get((order, query_cap))
        if search is None:
            if query_cap < 1:
                raise ValueError(f"query cap must be at least 1, got {query_cap}")
            search = self._searches[order, query_cap] = OrderedSearch(self.core, order, query_cap)
        return search


class OrderedSearch:
    """First-hit lookups in one candidate order, memoised per target.

    Work bound: the scan tests at most min(2^d, query_cap) candidates in
    all, shared by every target; a target the scan misses hands its 2^d
    coset members to the order's `first`.
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
        pos, mask = self._order.first(core.coset(x0))
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
    system: SyndromeSystem, order_for: Callable[[int], CandidateOrder], query_cap: int
) -> RepairResult:
    """Solve the columns left to right; ``order_for(prior)`` gives the order
    for a column whose predecessor was estimated as ``prior``.

    The prior of the first column is 0.  An unresolved column is left
    all-zero, so the next column's prior is 0 again.
    """
    searches: dict[int, OrderedSearch] = {}
    rows = [0] * system.ht.cols
    queries: list[int] = []
    unresolved: list[int] = []
    prior = 0
    for b, target in enumerate(system.targets):
        search = searches.get(prior)
        if search is None:
            search = searches[prior] = system.search(order_for(prior), query_cap)
        mask, q = search.find(target)
        queries.append(q)
        if mask is None:
            unresolved.append(b)
            mask = 0
        prior = bits = mask
        while bits:
            low = bits & -bits
            rows[low.bit_length() - 1] |= 1 << b
            bits ^= low
    return RepairResult(
        e_hat=BitMatrix.trusted(len(rows), len(queries), tuple(rows)),
        unresolved=tuple(unresolved),
        queries_per_column=tuple(queries),
    )
