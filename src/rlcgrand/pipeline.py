"""Receiver orchestration: classify, decode, repair, verify, re-decode.

Packet error detection is genie-aided: a received row is classified by
direct comparison with the transmitted truth, standing in for an ideal
CRC that consumes no payload.  Repairs are likewise verified against
the truth before their rows are promoted to the clean set, so a
successful decode always returns the true source packets.

A receiver run is one plain attempt (`attempt_rlc`).  When
`needs_repair` holds, `syndrome_system` builds the repair system once, a
decoder (`sd_repair` or `tg_repair`) estimates the corrupted rows from
it, and `redecode` verifies, promotes and decodes again.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .gf2 import BitMatrix
from .rlc import Generator, parity_check, rlc_decode
from .search import RepairResult
from .syndrome_decoder import SyndromeSystem, compute_syndrome


@dataclass(frozen=True)
class ReceivedBatch:
    """Received matrix plus the clean/corrupted row partition."""

    y: BitMatrix
    truth_x: BitMatrix
    r: tuple[int, ...]
    rbar: tuple[int, ...]

    @property
    def n_r(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of one receiver run on one batch."""

    success: bool
    u_hat: BitMatrix | None
    nu: int
    queries_total: int
    rank_before: int
    rank_after: int


def classify(y: BitMatrix, truth_x: BitMatrix) -> ReceivedBatch:
    """Split rows into error-free (R) and erroneous (R̄) by genie comparison."""
    if (y.rows, y.cols) != (truth_x.rows, truth_x.cols):
        raise ValueError("received and truth matrices must have the same shape")
    r = tuple(i for i in range(y.rows) if y.row_ints[i] == truth_x.row_ints[i])
    rbar = tuple(i for i in range(y.rows) if y.row_ints[i] != truth_x.row_ints[i])
    return ReceivedBatch(y=y, truth_x=truth_x, r=r, rbar=rbar)


def attempt_rlc(batch: ReceivedBatch, gen: Generator) -> DecodeOutcome:
    """Decode from the clean rows alone; succeeds iff they span rank K."""
    rk, u_hat = _rank_and_decode(gen, gen.matrix.take_rows(batch.r), batch.y.take_rows(batch.r))
    return DecodeOutcome(
        success=u_hat is not None, u_hat=u_hat, nu=0, queries_total=0, rank_before=rk, rank_after=rk
    )


def needs_repair(batch: ReceivedBatch, gen: Generator, base: DecodeOutcome) -> bool:
    """Whether a repair pass can change the plain outcome ``base``: the plain
    attempt failed, parity packets exist (N > K) and some row is corrupted."""
    return not base.success and gen.n > gen.k and bool(batch.rbar)


def syndrome_system(batch: ReceivedBatch, gen: Generator) -> SyndromeSystem:
    """The repair system of a batch: H_R̄ᵀ and S = Hᵀ·Y, eliminated once and
    shared by every repair run on it."""
    h = parity_check(gen)
    return SyndromeSystem(
        ht=h.matrix.take_rows(batch.rbar).transpose(), s=compute_syndrome(h, batch.y)
    )


def redecode(
    batch: ReceivedBatch, gen: Generator, base: DecodeOutcome, result: RepairResult
) -> DecodeOutcome:
    """Second decode attempt after one repair pass over the corrupted rows.

    Repaired rows that verify against the truth are promoted to the clean
    set; the enlarged system is decoded once.  ``base`` is the plain
    attempt, whose rank the outcome reports as ``rank_before``.
    """
    y_rbar = batch.y.take_rows(batch.rbar)
    x_hat_rbar = gf2.add(y_rbar, result.e_hat)
    verified = [
        idx
        for idx, row in enumerate(batch.rbar)
        if x_hat_rbar.row_ints[idx] == batch.truth_x.row_ints[row]
    ]
    promoted = [batch.rbar[idx] for idx in verified]
    g_new = gen.matrix.take_rows(list(batch.r) + promoted)
    y_new = batch.y.take_rows(batch.r).vstack(x_hat_rbar.take_rows(verified))
    rank_after, u_hat = _rank_and_decode(gen, g_new, y_new)
    return DecodeOutcome(
        success=u_hat is not None,
        u_hat=u_hat,
        nu=len(promoted),
        queries_total=result.queries_total,
        rank_before=base.rank_before,
        rank_after=rank_after,
    )


def _rank_and_decode(gen: Generator, g_rows: BitMatrix, y_rows: BitMatrix):
    """(rank of g_rows, U decoded from the rows, or None below rank K)."""
    rk = gf2.rank(g_rows)
    if rk < gen.k:
        return rk, None
    u_hat = rlc_decode(g_rows, y_rows)
    if u_hat is None:  # cannot happen at full rank
        raise AssertionError("full-rank system failed to solve")
    return rk, u_hat
