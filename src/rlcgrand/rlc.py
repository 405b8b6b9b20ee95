"""Systematic random linear packet coding over GF(2).

K source packets of B bits form the rows of U; the transmitter sends
N >= K coded packets X = G·U = [U; P·U] where G = [I_K; P] and P is a
uniformly random (N-K)×K binary matrix.  The matching parity-check matrix
H = [P | I_{N-K}]ᵀ satisfies Hᵀ·G = 0, which is what lets a receiver
compute syndromes of corrupted packets without knowing U.  H
(`parity_check`) and `syndrome_decoder.compute_syndrome` are the
reference; the driver reads S and H_R̄ᵀ from the systematic form directly
(`pipeline.syndrome_system`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .gf2 import BitMatrix
from .rng import MASK64, random_rows


@dataclass(frozen=True)
class Generator:
    """Systematic generator [I_K; P]; `make_generator` draws P from a seed.
    A top block other than the shared `BitMatrix.identity(K)` raises
    `ValueError`: encode and the syndrome build read G as [I_K; P]."""

    k: int
    n: int
    matrix: BitMatrix

    def __post_init__(self):
        if self.matrix.rows != self.n or self.matrix.cols != self.k:
            raise ValueError("generator matrix shape does not match (n, k)")
        if self.matrix.row_ints[: self.k] != BitMatrix.identity(self.k).row_ints:
            raise ValueError("generator matrix top block is not the identity I_K")

    @property
    def p_block(self) -> BitMatrix:
        return self.matrix.take_rows(range(self.k, self.n))


@dataclass(frozen=True)
class ParityCheck:
    """N×(N-K) matrix H with Hᵀ·G = 0 for the generator it came from."""

    matrix: BitMatrix


def make_generator(k: int, n: int, seed: int) -> Generator:
    """Build the systematic generator for (k, n) from a 64-bit seed.

    P's bits are the top bits of consecutive SplitMix64(seed) outputs,
    filled row-major.  The stream is part of the package contract: the
    same (k, n, seed) must produce the same generator in every version.
    """
    [gen] = make_generators(k, n, np.asarray([seed & MASK64], dtype=np.uint64))
    return gen


def make_generators(k: int, n: int, seeds: np.ndarray) -> list[Generator]:
    """``make_generator(k, n, s)`` for each seed s of a 1-D uint64 array,
    with every P drawn in one pass."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise ValueError("n must be at least k")
    top = BitMatrix.identity(k).row_ints
    return [
        Generator(k=k, n=n, matrix=BitMatrix.trusted(n, k, top + p))
        for p in random_rows(seeds, n - k, k)
    ]


def encode(gen: Generator, u: BitMatrix) -> BitMatrix:
    """X = G·U = [U; P·U]: the first K rows of X are U itself (systematic
    prefix), so only the parity rows are multiplied."""
    if u.rows != gen.k:
        raise ValueError(f"U has {u.rows} rows, expected {gen.k}")
    rows = u.row_ints
    return BitMatrix.trusted(gen.n, u.cols, rows + gf2.mul_rows(gen.matrix.row_ints[gen.k :], rows))


def parity_check(gen: Generator) -> ParityCheck:
    """H = [P | I_{N-K}]ᵀ, shape N×(N-K); degenerates to N×0 when N == K."""
    # Row i < K of H is column i of P; the bottom N-K rows are the identity.
    top = gen.p_block.transpose()
    bottom = BitMatrix.identity(gen.n - gen.k)
    return ParityCheck(matrix=top.vstack(bottom))


def rlc_decode(g_rows: BitMatrix, y_rows: BitMatrix) -> BitMatrix | None:
    """Recover U from any row subset of (G, X) with rank K; else None.

    Raises gf2.InconsistentSystemError when the rows do not agree on a
    single U, which means a corrupted row slipped in as clean.
    """
    return gf2.rank_solve(g_rows, y_rows)[1]
