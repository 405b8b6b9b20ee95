"""Syndrome system and exact first-hit search, shared by both repairs.

A `SyndromeSystem` holds ht = (H restricted to the corrupted rows)ᵀ,
kept as its L columns, and the syndrome s, kept as its runs of equal
column targets.  Both receivers solve one linear system ht·w = t per bit
position, querying candidate error columns w in a fixed order until the
syndrome ht·w, the XOR of the columns of ht that w selects, equals t;
they differ only in that order.  A decoder's order (`CandidateOrder`) is
a generator of candidate masks in query order and a rule that picks,
from any set of masks, the one it queries first, with its position.

The solutions of one column form a coset x0 + ker(ht) of dimension
d = L - rank(ht).  Reducing the columns of ht once per system in a
`gf2.Echelon`, with a record of which columns were combined, gives a
particular solution x0 for any target and a basis of the kernel
(`SyndromeSystem`).  A target is then resolved in two steps:

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
right, a run of equal targets at a time.  A decoder supplies only the
search for each column's prior (the previous column's estimate), and
which searches are shared is the rule of `SyndromeSystem.search`.  Inside
a run, once a column's estimate names the search that produced it, the
rest of the run repeats that answer: sd after one step, tgrand once an
estimate is its own most likely successor.
"""

from __future__ import annotations

from dataclasses import dataclass
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


# One run of equal column targets: (first column, end column, target).
Run = tuple[int, int, int]


def column_runs(s: BitMatrix) -> tuple[Run, ...]:
    """The maximal runs of equal columns of ``s``, left to right.

    Column b > 0 starts a run where some row's bit b differs from its bit
    b - 1, a set bit of row ^ row << 1.  Only the run starts are read as
    targets: the columns of s's rows masked to the starts.
    """
    starts = 1
    for r in s.row_ints:
        starts |= r ^ r << 1
    starts &= (1 << s.cols) - 1
    firsts = BitMatrix.trusted(s.rows, s.cols, tuple(r & starts for r in s.row_ints)).col_ints()
    runs = []
    while starts:
        low = starts & -starts
        starts ^= low
        b = low.bit_length() - 1
        runs.append((b, (starts & -starts).bit_length() - 1 if starts else s.cols, firsts[b]))
    return tuple(runs)


class SyndromeSystem:
    """Per-batch syndrome system: ht = (H_corrupted)ᵀ of shape (N-K)×L, s = (N-K)×B.

    Built once, it serves every repair and every candidate order on the
    batch.  ``cols`` are the L columns of ht, as masks over s's rows.
    Column j enters one `gf2.Echelon` as the row (column j, 1 << j), so
    each right side records which columns were combined and each leftover
    is the mask of a kernel vector; a zero column is its own leftover,
    1 << j.  So ``kernel`` is a basis of ker(ht), ``particular`` is the
    echelon's `gf2.Echelon.reduce` (some w with ht·w = target, or None
    when the target is out of reach) and ``dim`` is the coset dimension
    d = L - rank(ht); for a received batch it equals K - rank(G_R).
    ``runs`` are the runs of equal column targets of s, and `search`
    shares each order's search.  ``SyndromeSystem(ht=, s=)`` takes ht as a
    matrix; `from_columns` takes its columns, which is how
    `pipeline.syndrome_system` builds it, so ht's rows are never formed.
    """

    def __init__(self, ht: BitMatrix, s: BitMatrix):
        if s.rows != ht.rows:
            raise ValueError("syndrome row count must match parity-check row count")
        self._build(ht.col_ints(), s)

    @classmethod
    def from_columns(cls, cols: Sequence[int], s: BitMatrix) -> "SyndromeSystem":
        """The system whose ht has columns ``cols``, masks over s's rows."""
        system = object.__new__(cls)
        system._build(cols, s)
        return system

    def _build(self, cols: Sequence[int], s: BitMatrix) -> None:
        checks, ech = s.rows, Echelon(s.rows, len(cols))
        add = ech.add
        self.cols = tuple(cols)
        self.kernel = [w >> checks for j, col in enumerate(cols) if (w := add(col, 1 << j))]
        self.particular = ech.reduce
        self.dim = len(cols) - ech.rank
        self.num_unknowns = len(cols)
        self.s = s
        self.runs = column_runs(s)
        self._searches: dict = {}

    def search(self, order: CandidateOrder, query_cap: int) -> OrderedSearch:
        """The one search per (order, cap), keyed by the order's identity, so
        every column and decoder that names the same order object shares
        its scan and memo.  sd's order, `tgrand.weight_order`, is the object
        that `tgrand.likelihood_order` returns at the all-zero prior wherever
        the channel's class table there is the weight table (p01 <= 1/2), so
        sd and tgrand share that search.  A search keeps the system's
        columns, kernel and `particular`, never the system, so no reference
        cycle keeps a used system alive."""
        searches, key = self._searches, (order, query_cap)
        return searches.get(key) or searches.setdefault(key, OrderedSearch(self, *key))


class OrderedSearch:
    """First-hit lookups in one candidate order, memoised per target.

    Work bound: the scan tests at most min(2^d, query_cap) candidates in
    all, shared by every target; a target the scan misses hands its 2^d
    coset members to the order's `first`.  A cap below 1 is rejected: a
    search that may make no query has no answer to give.
    """

    def __init__(self, system: SyndromeSystem, order: CandidateOrder, query_cap: int):
        if query_cap < 1:
            raise ValueError(f"query cap must be at least 1, got {query_cap}")
        self._cols = system.cols
        self._kernel = system.kernel
        self._particular = system.particular
        self._order = order
        self._masks = order.masks()
        self._query_cap = query_cap
        self._scan_limit = min(1 << system.dim, query_cap)
        self._miss_cost = min(1 << system.num_unknowns, query_cap)
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
        x0 = self._particular(target)
        if x0 is None:
            return None, self._miss_cost
        found, cols, n = self._found, self._cols, self._scanned
        for mask in islice(self._masks, self._scan_limit - n):
            n += 1
            s, w = 0, mask  # s = ht·w, the XOR of the columns w selects
            while w:
                low = w & -w
                s ^= cols[low.bit_length() - 1]
                w ^= low
            if s not in found:
                found[s] = (mask, n)
                if s == target:
                    self._scanned = n
                    return mask, n
        self._scanned = n
        if self._scan_limit == self._query_cap:  # the scan walked the whole capped prefix
            return None, self._miss_cost
        coset = [x0]  # x0 + ker(ht): all 2^d solutions
        for v in self._kernel:
            coset += [m ^ v for m in coset]
        pos, mask = self._order.first(coset)
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
    system: SyndromeSystem, search_for: Callable[[int], OrderedSearch]
) -> RepairResult:
    """Solve the columns left to right; ``search_for(prior)``, asked once per
    prior, gives the search for a column whose predecessor was estimated
    as ``prior``.

    The prior of the first column is 0.  An unresolved column is left
    all-zero, so the next column's prior is 0 again.  After each answer
    the walk looks up the search for the new prior, which the next step
    uses.  `find` depends only on (search, target), so when that is the
    search that just answered, every remaining column of the run gets the
    same (estimate, queries), written with one run mask per estimate bit.
    """
    searches: dict[int, OrderedSearch] = {}
    search = searches[0] = search_for(0)
    rows = [0] * system.num_unknowns
    queries: list[int] = []
    unresolved: list[int] = []
    for b, end, target in system.runs:
        while b < end:
            mask, q = search.find(target)
            prior, answered = mask or 0, search
            search = searches.get(prior) or searches.setdefault(prior, search_for(prior))
            stop = end if search is answered else b + 1
            # Columns b..stop-1 get (mask, q).
            queries += [q] * (stop - b)
            if mask is None:
                unresolved += range(b, stop)
            span = (1 << stop) - (1 << b)
            while mask:
                low = mask & -mask
                rows[low.bit_length() - 1] |= span
                mask ^= low
            b = stop
    return RepairResult(
        e_hat=BitMatrix.trusted(len(rows), len(queries), tuple(rows)),
        unresolved=tuple(unresolved),
        queries_per_column=tuple(queries),
    )
