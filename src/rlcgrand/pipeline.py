"""Receiver orchestration: classify, decode, repair, verify, re-decode.

Packet error detection is genie-aided: a received row is classified by
direct comparison with the transmitted truth, standing in for an ideal
CRC that consumes no payload.  Repairs are likewise verified against
the truth before their rows are promoted to the clean set, so a
successful decode always returns the true source packets.

A receiver run is one plain attempt (`attempt_rlc`), which reduces the
clean rows into a `gf2.Echelon` carried on its outcome.  When
`needs_repair` holds, `syndrome_system` builds the repair system once
from the systematic generator G = [I_K; P]: S = Hᵀ·Y as a `gf2.mul_rows`
product of the check rows, and H_R̄ᵀ column by column, one column per
corrupted row, read off P or the identity.  A decoder (`sd_repair` or
`tg_repair`) estimates the corrupted rows from it, and `redecode`
verifies them and adds only the promoted rows to a copy of the attempt's
echelon, so no decode eliminates the clean rows twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import gf2
from .gf2 import BitMatrix
from .rlc import Generator
from .search import RepairResult, SyndromeSystem


@dataclass(frozen=True)
class ReceivedBatch:
    """Received matrix plus the clean/corrupted row partition."""

    y: BitMatrix
    truth_x: BitMatrix
    r: tuple[int, ...]
    rbar: tuple[int, ...]


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of one receiver run on one batch."""

    success: bool
    u_hat: BitMatrix | None
    nu: int
    queries_total: int
    rank_before: int
    rank_after: int
    # The plain attempt's reduced clean rows, which `redecode` extends.
    echelon: gf2.Echelon | None = field(default=None, compare=False, repr=False)


def classify(y: BitMatrix, truth_x: BitMatrix) -> ReceivedBatch:
    """Split rows into error-free (R) and erroneous (R̄) by genie comparison."""
    if (y.rows, y.cols) != (truth_x.rows, truth_x.cols):
        raise ValueError("received and truth matrices must have the same shape")
    r = tuple(i for i in range(y.rows) if y.row_ints[i] == truth_x.row_ints[i])
    rbar = tuple(i for i in range(y.rows) if y.row_ints[i] != truth_x.row_ints[i])
    return ReceivedBatch(y=y, truth_x=truth_x, r=r, rbar=rbar)


def attempt_rlc(batch: ReceivedBatch, gen: Generator) -> DecodeOutcome:
    """Decode from the clean rows alone; succeeds iff they span rank K.

    The clean rows enter the echelon in index order, so clean systematic
    rows become unit pivots without elimination.
    """
    ech = gf2.Echelon(gen.k, batch.y.cols)
    g, y = gen.matrix.row_ints, batch.y.row_ints
    for i in batch.r:
        ech.add(g[i], y[i])
    u_hat = ech.solve()
    return DecodeOutcome(
        success=u_hat is not None,
        u_hat=u_hat,
        nu=0,
        queries_total=0,
        rank_before=ech.rank,
        rank_after=ech.rank,
        echelon=ech,
    )


def needs_repair(batch: ReceivedBatch, gen: Generator, base: DecodeOutcome) -> bool:
    """Whether a repair pass can change the plain outcome ``base``: the plain
    attempt failed, parity packets exist (N > K) and some row is corrupted."""
    return not base.success and gen.n > gen.k and bool(batch.rbar)


def syndrome_system(batch: ReceivedBatch, gen: Generator) -> SyndromeSystem:
    """The repair system of a batch: H_R̄ᵀ and S = Hᵀ·Y, eliminated once and
    shared by every repair run on it.

    Both are read from G = [I_K; P], with no H built.  Check i is row i
    of Hᵀ = [P | I_{N-K}], the mask P_i | 1 << (K+i), and S = Hᵀ·Y is a
    `gf2.mul_rows` product of the checks.  H_R̄ᵀ is handed over by
    columns: column c is row rbar[c] of H, which is 1 << i for a
    corrupted parity row K+i and column r of P (`BitMatrix.col_ints`) for
    a corrupted systematic row r.  `rlc.parity_check` and
    `syndrome_decoder.compute_syndrome` are the reference it equals.
    """
    k, y = gen.k, batch.y
    p = gen.matrix.row_ints[k:]
    p_cols = BitMatrix.trusted(len(p), k, p).col_ints()
    cols = [p_cols[r] if r < k else 1 << (r - k) for r in batch.rbar]
    checks = [p_i | 1 << i for i, p_i in enumerate(p, k)]
    s = BitMatrix.trusted(len(checks), y.cols, gf2.mul_rows(checks, y.row_ints))
    return SyndromeSystem.from_columns(cols, s)


def redecode(
    batch: ReceivedBatch, gen: Generator, base: DecodeOutcome, result: RepairResult
) -> DecodeOutcome:
    """Second decode attempt after one repair pass over the corrupted rows.

    ``base`` must be the outcome of `attempt_rlc` on the same batch: its
    echelon already holds the reduced clean rows, and the outcome reports
    its rank as ``rank_before``.  Repaired rows that verify against the
    truth are promoted: a copy of that echelon takes them, and the system
    is solved once.  ``base`` itself is left as it was.  ``result.e_hat``
    must have one row per corrupted row and the packet length as columns.
    An outcome without an echelon (built by hand, or returned by
    `redecode`) raises `ValueError`.
    """
    if base.echelon is None:
        raise ValueError("base must be the outcome of attempt_rlc")
    e_hat = result.e_hat
    if (e_hat.rows, e_hat.cols) != (len(batch.rbar), batch.y.cols):
        raise ValueError(
            f"e_hat is {e_hat.rows}x{e_hat.cols}, expected {len(batch.rbar)}x{batch.y.cols}"
        )
    g, y, truth = gen.matrix.row_ints, batch.y.row_ints, batch.truth_x.row_ints
    promoted = [
        (row, x_hat)
        for row, e in zip(batch.rbar, e_hat.row_ints)
        if (x_hat := y[row] ^ e) == truth[row]
    ]
    ech = base.echelon
    if promoted:
        ech = ech.copy()
        for row, x_hat in promoted:
            ech.add(g[row], x_hat)
    u_hat = ech.solve()
    return DecodeOutcome(
        success=u_hat is not None,
        u_hat=u_hat,
        nu=len(promoted),
        queries_total=result.queries_total,
        rank_before=base.rank_before,
        rank_after=ech.rank,
    )
