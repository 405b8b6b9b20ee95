"""Receiver orchestration: classify, decode, repair, verify, re-decode.

Packet error detection is genie-aided: a received row is classified by
direct comparison with the transmitted truth, standing in for an ideal
CRC that consumes no payload.  Repairs are likewise verified against
the truth before their rows are promoted to the clean set, so a
successful decode always returns the true source packets.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .channel import ChannelParams
from .gf2 import BitMatrix
from .rlc import Generator, ParityCheck, rlc_decode
from .syndrome_decoder import (
    DEFAULT_QUERY_CAP,
    SyndromeSystem,
    compute_syndrome,
    sd_repair,
)
from .tgrand import tg_repair

METHOD_SD = "sd"
METHOD_TGRAND = "tgrand"


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
    g_r = gen.matrix.take_rows(batch.r)
    y_r = batch.y.take_rows(batch.r)
    rk = gf2.rank(g_r)
    if rk < gen.k:
        return DecodeOutcome(
            success=False, u_hat=None, nu=0, queries_total=0, rank_before=rk, rank_after=rk
        )
    u_hat = rlc_decode(g_r, y_r)
    if u_hat is None:  # cannot happen at full rank
        raise AssertionError("full-rank system failed to solve")
    return DecodeOutcome(
        success=True, u_hat=u_hat, nu=0, queries_total=0, rank_before=rk, rank_after=rk
    )


def needs_repair(batch: ReceivedBatch, gen: Generator, base: DecodeOutcome) -> bool:
    """Whether a repair pass can change the plain outcome ``base``: the plain
    attempt failed, parity packets exist (N > K) and some row is corrupted."""
    return not base.success and gen.n > gen.k and bool(batch.rbar)


def repair_and_redecode(
    batch: ReceivedBatch,
    gen: Generator,
    h: ParityCheck,
    method: str,
    params: ChannelParams | None = None,
    query_cap: int = DEFAULT_QUERY_CAP,
    base: DecodeOutcome | None = None,
) -> DecodeOutcome:
    """One repair pass over the corrupted rows, then a second decode attempt.

    Repaired rows that verify against the truth are promoted to the clean
    set; the enlarged system is decoded once.  When the plain attempt
    succeeds, when there are no parity packets (N == K) or when no row is
    corrupted, repair is skipped and the plain outcome is returned.
    ``base`` is ``attempt_rlc(batch, gen)`` when the caller already has
    it, so several repair methods can share one plain attempt.
    """
    if method not in (METHOD_SD, METHOD_TGRAND):
        raise ValueError(f"unknown repair method {method!r}")
    if method == METHOD_TGRAND and params is None:
        raise ValueError("tgrand repair needs the channel parameters")
    if base is None:
        base = attempt_rlc(batch, gen)
    if not needs_repair(batch, gen, base):
        return base

    s = compute_syndrome(h, batch.y)
    ht_rbar = h.matrix.take_rows(batch.rbar).transpose()
    system = SyndromeSystem(ht=ht_rbar, s=s)
    if method == METHOD_SD:
        result = sd_repair(system, query_cap)
    else:
        result = tg_repair(system, params, query_cap)

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
    rank_after = gf2.rank(g_new)
    if rank_after < gen.k:
        return DecodeOutcome(
            success=False,
            u_hat=None,
            nu=len(promoted),
            queries_total=result.queries_total,
            rank_before=base.rank_before,
            rank_after=rank_after,
        )
    u_hat = rlc_decode(g_new, y_new)
    if u_hat is None:
        raise AssertionError("full-rank repaired system failed to solve")
    return DecodeOutcome(
        success=True,
        u_hat=u_hat,
        nu=len(promoted),
        queries_total=result.queries_total,
        rank_before=base.rank_before,
        rank_after=rank_after,
    )
