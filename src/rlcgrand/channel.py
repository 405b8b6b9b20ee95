"""Two-state Markov (Gilbert) burst-error channel.

Each transmitted packet sees an independent two-state chain: state 0 is
'good' (bit received correctly), state 1 is 'bad' (bit flipped).  The
chain starts in state 0 and makes one transition per bit, so the first
bit of a packet is in error with probability p01.  Steady-state error
rate is eps = p01/(p01+p10) and the mean burst length is 1/p10.

``apply`` runs all chains at once on packed bits.  Bit t of a packet
draws a uniform u_t; the next state is [u_t < p01] from state 0 and
[u_t >= p10] from state 1.  As a map of the previous state s this is

    f_t(s) = (s & m_t) ^ v_t,   v_t = [u_t < p01],   m_t = v_t ^ [u_t >= p10],

so v_t is the next state from state 0 and m_t marks the bits whose next
state depends on s.  Two such maps compose into one of the same form:
(m_1, v_1) followed by (m_2, v_2) is (m_1 & m_2, (v_1 & m_2) ^ v_2), and
composition is associative.  An inclusive prefix scan (Hillis-Steele)
therefore gives every prefix map f_t∘…∘f_0 in ceil(log2 B) rounds: in
the round with shift k, bit t combines with bit t-k.  The chain starts
in the good state 0, and a map applied to 0 yields its v, so after the
scan v is the error row itself.  The scan is exact: it makes the same
comparisons of the same uniforms as the bit-by-bit recurrence and only
regroups Boolean algebra, so the noise is bit-identical to it.

The comparisons are made on the integers a = z >> 11 behind the uniforms
u = a·2^-53, against thresholds ceil(p·2^53): scaling by 2^53 is exact in
binary64, so u < p iff a < ceil(p·2^53), and u >= p iff it is not.

``apply_batch`` transmits many matrices of one shape at once.  All their
rows share one Python int, row r in bits [r·B, (r+1)·B), so a round is a
handful of whole-int shifts, ANDs and XORs.  m is cleared at each row's
first bit: that step starts from state 0, so f_0 ignores its input, and a
cleared m also stops every prefix at its own row.  ``apply`` is the batch
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gf2 import BitMatrix
from .rng import MASK64, derive_seeds, pack_rows, uint64_block, unpack_rows


@dataclass(frozen=True)
class ChannelParams:
    """Transition probabilities of the good->bad (p01) and bad->good (p10) edges."""

    p01: float
    p10: float

    def __post_init__(self):
        if not 0.0 <= self.p01 <= 1.0:
            raise ValueError(f"p01 must be in [0, 1], got {self.p01}")
        if not 0.0 < self.p10 <= 1.0:
            raise ValueError(f"p10 must be in (0, 1], got {self.p10}")

    @classmethod
    def from_eps_lambda(cls, eps: float, burst_len: float) -> "ChannelParams":
        """Invert (eps, burst length) to (p01, p10): p10 = 1/Λ, p01 = ε/(Λ(1-ε))."""
        if not 0.0 <= eps < 1.0:
            raise ValueError(f"eps must be in [0, 1), got {eps}")
        if burst_len < 1.0:
            raise ValueError(f"burst length must be at least 1, got {burst_len}")
        p10 = 1.0 / burst_len
        p01 = eps / (burst_len * (1.0 - eps))
        if p01 > 1.0:
            raise ValueError(f"(eps={eps}, burst_len={burst_len}) implies p01={p01} > 1")
        return cls(p01=p01, p10=p10)


def apply(params: ChannelParams, x: BitMatrix, seed: int) -> tuple[BitMatrix, BitMatrix]:
    """Transmit X through the channel; returns (Y, E) with Y = X xor E.

    Row i of E is the error trace of one Markov chain over B transitions,
    driven by the substream derive_seed(seed, i).  Per-row substreams make
    the result independent of row evaluation order.
    """
    [out] = apply_batch(params, [x], np.asarray([seed & MASK64], dtype=np.uint64))
    return out


def apply_batch(
    params: ChannelParams, xs: Sequence[BitMatrix], seeds: np.ndarray
) -> list[tuple[BitMatrix, BitMatrix]]:
    """``apply(params, x, s)`` for each matrix x of ``xs`` (all of one shape)
    and its seed s in the 1-D uint64 array ``seeds``, in one scan."""
    if seeds.shape != (len(xs),):
        raise ValueError(f"expected one seed per matrix, got shape {seeds.shape} for {len(xs)}")
    if not xs:
        return []
    n, b = xs[0].rows, xs[0].cols
    if any((x.rows, x.cols) != (n, b) for x in xs):
        raise ValueError("every matrix of a batch must have the same shape")
    a = uint64_block(derive_seeds(seeds[:, np.newaxis], np.arange(n)), b)
    a >>= np.uint64(11)
    from_good = a < _threshold(params.p01)
    depends = from_good ^ (a >= _threshold(params.p10))
    depends[..., :1] = False
    v, m = pack_rows(from_good), pack_rows(depends)
    shift = 1
    while shift < b:
        # Compose each bit's prefix map with the one ending `shift` bits earlier.
        v ^= (v << shift) & m
        m &= m << shift
        shift <<= 1
    errors = unpack_rows(v, len(xs) * n, b)
    out = []
    for t, x in enumerate(xs):
        e = tuple(errors[t * n:(t + 1) * n])
        y = tuple(xr ^ er for xr, er in zip(x.row_ints, e))
        out.append((BitMatrix.trusted(n, b, y), BitMatrix.trusted(n, b, e)))
    return out


def _threshold(p: float) -> np.uint64:
    """ceil(p·2^53): a 53-bit draw a has a·2^-53 < p iff a < this."""
    return np.uint64(math.ceil(p * 2.0**53))

