"""Deterministic 64-bit pseudo-random streams (splitmix64).

All randomness in the package flows through the streams defined here, so
simulation results are reproducible bit-for-bit across runs, platforms and
worker counts.  The contract is frozen because golden fixtures depend on it:

* ``SplitMix64(seed)`` produces output k (zero-based) as
  ``mix64((seed + (k + 1) * GAMMA) mod 2**64)``.
* Random bits are the top bit of each output (``z >> 63``), consumed in
  row-major order when filling matrices.
* Uniform floats in [0, 1) are ``(z >> 11) * 2**-53``: the top 53 bits
  of an output, scaled.  The channel compares the integers ``z >> 11``
  with thresholds instead, which is exact.
* ``derive_seed`` folds integer labels into a seed one splitmix64
  finalizer step per label.

The block functions (``uint64_block``, ``bit_block``) broadcast over an
array of seeds: given seeds of shape S they return shape S + (n,), whose
row for seed s is the block of s alone.  ``derive_seeds`` makes such
arrays, ``derive_seed(s, l)`` for every broadcast pair of seeds and
labels, in one vectorized pass, and ``random_rows`` packs many seeds'
random matrices in one pass.  ``pack_rows`` and ``unpack_rows`` turn a
0/1 array into one int and that int back into row ints; the channel
packs its scan with the same pair.
"""

from __future__ import annotations

import numpy as np

from .gf2 import BitMatrix

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer (Steele, Lea, Flood 2014)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *labels: int) -> int:
    """Derive a child seed from (seed, labels); order-sensitive and stable.

    Each label is finalized on its own before being folded in, so child
    seeds of nearby (seed, label) pairs share no low-bit structure: the
    raw XOR of a counter into the state would merely permute the derived
    streams between two adjacent seeds.
    """
    x = seed & MASK64
    for p in labels:
        x = mix64((x + GAMMA) ^ mix64((p + GAMMA) & MASK64))
    return x


class SplitMix64:
    """Scalar splitmix64 stream; cheap, seedable, and trivially splittable."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        return mix64(self.state)


_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_UMUL1, _UMUL2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_UGAMMA = np.uint64(GAMMA)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """``mix64`` elementwise on a uint64 array (a new array; z is not modified)."""
    z = z ^ (z >> _U30)
    z *= _UMUL1
    z ^= z >> _U27
    z *= _UMUL2
    z ^= z >> _U31
    return z


def derive_seeds(seeds: int | np.ndarray, labels: int | np.ndarray) -> np.ndarray:
    """``derive_seed(s, l)`` for each pair of the broadcast seeds and labels,
    as a uint64 array of at least one dimension (one label folded in, as one
    step of ``derive_seed``)."""
    mixed = _mix64_vec(np.atleast_1d(np.asarray(labels, dtype=np.uint64)) + _UGAMMA)
    return _mix64_vec((np.asarray(seeds & MASK64, dtype=np.uint64) + _UGAMMA) ^ mixed)


def uint64_block(seed: int | np.ndarray, n: int) -> np.ndarray:
    """First n outputs of SplitMix64(seed), vectorized via the closed form
    state_k = seed + (k+1)*GAMMA; broadcasts over an array of seeds."""
    ks = np.arange(1, n + 1, dtype=np.uint64) * _UGAMMA
    seeds = np.asarray(seed & MASK64, dtype=np.uint64)
    return _mix64_vec(seeds[..., np.newaxis] + ks)


def bit_block(seed: int | np.ndarray, n: int) -> np.ndarray:
    """First n random bits (top bit of each output), as uint8."""
    return (uint64_block(seed, n) >> np.uint64(63)).astype(np.uint8)


def random_bit_matrix(seed: int, rows: int, cols: int) -> BitMatrix:
    """Uniform random BitMatrix; bits drawn row-major from the seed's stream."""
    [ints] = random_rows(np.asarray([seed & MASK64], dtype=np.uint64), rows, cols)
    return BitMatrix.trusted(rows, cols, ints)


def random_rows(seeds: np.ndarray, rows: int, cols: int) -> list[tuple[int, ...]]:
    """The row ints of ``random_bit_matrix(s, rows, cols)`` for each seed s
    of a 1-D array, drawn and packed in one pass."""
    if seeds.ndim != 1:
        raise ValueError(f"seeds must be a 1-D array, got shape {seeds.shape}")
    packed = pack_rows(bit_block(seeds, rows * cols))
    ints = unpack_rows(packed, len(seeds) * rows, cols)
    return [tuple(ints[i * rows:(i + 1) * rows]) for i in range(len(seeds))]


def pack_rows(bits: np.ndarray) -> int:
    """A 0/1 (or bool) array as one int, entries in row-major order: bit i
    is flat entry i, so rows of w entries fill bits [r·w, (r+1)·w)."""
    return int.from_bytes(np.packbits(bits, axis=None, bitorder="little").tobytes(), "little")


def unpack_rows(packed: int, count: int, width: int) -> list[int]:
    """The first ``count`` rows of ``width`` bits of a ``pack_rows`` int."""
    mask = (1 << width) - 1
    return [(packed >> (i * width)) & mask for i in range(count)]
