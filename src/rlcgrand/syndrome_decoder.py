"""Minimum-weight syndrome repair of erroneous packets.

The receiver knows S = Hᵀ·Y, which equals (H restricted to corrupted
rows)ᵀ times the unknown error rows.  Each bit position b gives one
linear system; the repair picks, per column, the lightest error vector
consistent with that syndrome.  Candidates are queried in weight order
(0, 1, 2, ...), lexicographic by support within a weight, so runs are
reproducible; a query cap bounds the search per column.

This is `tgrand.weight_order`, one search for every column; when tgrand
shares it is the rule of `SyndromeSystem.search`.  The estimate and the
query count equal those of walking the weight order to the first hit, or
to the cap.
"""

from __future__ import annotations

from . import gf2
from .gf2 import BitMatrix
from .rlc import ParityCheck
from .search import DEFAULT_QUERY_CAP, RepairResult, SyndromeSystem, repair_columns
from .tgrand import weight_order


def compute_syndrome(h: ParityCheck, y: BitMatrix) -> BitMatrix:
    """S = Hᵀ·Y; independent of the transmitted data because Hᵀ·G = 0.  The
    reference that `pipeline.syndrome_system`'s direct build must equal."""
    return gf2.matmul(h.matrix.transpose(), y)


def sd_repair(system: SyndromeSystem, query_cap: int = DEFAULT_QUERY_CAP) -> RepairResult:
    """Solve every column of the system independently at minimum weight.

    Columns whose search exceeds the cap are left all-zero and reported
    in `unresolved`.  The weight order ignores the previous column, so
    its one search serves every prior and every target.
    """
    order = weight_order(system.num_unknowns)
    return repair_columns(system, lambda prior: order, query_cap)
