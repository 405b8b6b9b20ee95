"""Minimum-weight syndrome repair of erroneous packets.

The receiver knows S = Hᵀ·Y, which equals (H restricted to corrupted
rows)ᵀ times the unknown error rows.  Each bit position b gives one
linear system; the repair picks, per column, the lightest error vector
consistent with that syndrome.  Candidates are queried in weight order
(0, 1, 2, ...), lexicographic by support within a weight, so runs are
reproducible; a query cap bounds the search per column.

This is transversal GRAND at the BSC point (p10 = 1 - p01) with the
all-zero prior on every column, whose likelihood order is the weight
order: sd runs tgrand's order through the shared search (`search.py`),
one search for every column.  The estimate and the query count equal
those of walking the weight order to the first hit, or to the cap.
"""

from __future__ import annotations

from . import gf2
from .channel import ChannelParams
from .gf2 import BitMatrix
from .rlc import ParityCheck
from .search import (
    DEFAULT_QUERY_CAP, OrderedSearch, RepairResult, SyndromeSystem, repair_columns,
)
from .tgrand import LikelihoodOrder, likelihood_order

# With an all-zero prior L1 = 0, so the likelihood classes are (l0, 0),
# l0 = 0..L, and p10 never enters the order; with p01 < 1/2 they run in
# ascending l0, which is the weight order.  sd uses these fixed
# memoryless params, never the channel's own: at p01 > 1/2 the channel's
# all-zero-prior order runs heaviest first.
_MEMORYLESS = ChannelParams(p01=0.25, p10=0.75)


def compute_syndrome(h: ParityCheck, y: BitMatrix) -> BitMatrix:
    """S = Hᵀ·Y; independent of the transmitted data because Hᵀ·G = 0."""
    return gf2.matmul(h.matrix.transpose(), y)


def weight_order(l: int) -> LikelihoodOrder:
    """sd's candidate order over L unknowns: weight 0, 1, 2, ...; supports
    in lexicographic order within a weight."""
    return likelihood_order(0, l, _MEMORYLESS.p01, _MEMORYLESS.p10)


def sd_repair(system: SyndromeSystem, query_cap: int = DEFAULT_QUERY_CAP) -> RepairResult:
    """Solve every column of the system independently at minimum weight.

    Columns whose search exceeds the cap are left all-zero and reported
    in `unresolved`.  The weight order ignores the previous column, so
    one search serves every target.
    """
    l = system.num_unknowns
    search = OrderedSearch(system.core, weight_order(l), query_cap)
    return repair_columns(system.targets, l, lambda prior: search)
