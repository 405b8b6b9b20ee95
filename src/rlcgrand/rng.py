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
    """``mix64`` elementwise on a uint64 array that the caller no longer
    needs: the result may overwrite it.

    The entries are mixed in place, _MIX_BLOCK at a time, so however large
    z is, the one other array alive is a block's shift.
    """
    flat = z.reshape(-1)
    for lo in range(0, flat.size, _MIX_BLOCK):
        block = flat[lo:lo + _MIX_BLOCK]
        block ^= block >> _U30
        block *= _UMUL1
        block ^= block >> _U27
        block *= _UMUL2
        block ^= block >> _U31
    return flat.reshape(z.shape)


# Entries (8 bytes each) that the mix of a large array takes per step.
_MIX_BLOCK = 16384


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
    block = uint64_block(seed, n)
    block >>= np.uint64(63)
    return block.astype(np.uint8)


def random_bit_matrix(seed: int, rows: int, cols: int) -> BitMatrix:
    """Uniform random BitMatrix; bits drawn row-major from the seed's stream."""
    [ints] = random_rows(np.asarray([seed & MASK64], dtype=np.uint64), rows, cols)
    return BitMatrix.trusted(rows, cols, ints)


def random_rows(seeds: np.ndarray, rows: int, cols: int) -> list[tuple[int, ...]]:
    """The row ints of ``random_bit_matrix(s, rows, cols)`` for each seed s
    of a 1-D uint64 array, drawn and packed in one pass."""
    if seeds.ndim != 1 or seeds.dtype != np.uint64:
        raise ValueError(f"seeds must be a 1-D uint64 array, got {seeds.dtype} of shape {seeds.shape}")
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix dimensions must be non-negative, got {rows}x{cols}")
    packed = pack_rows(bit_block(seeds, rows * cols))
    ints = unpack_rows(packed, len(seeds) * rows, cols)
    return [tuple(ints[i * rows:(i + 1) * rows]) for i in range(len(seeds))]


def pack_rows(bits: np.ndarray) -> int:
    """A 0/1 (or bool) array as one int, entries in row-major order: bit i
    is flat entry i, so rows of w entries fill bits [r·w, (r+1)·w)."""
    return int.from_bytes(np.packbits(bits, axis=None, bitorder="little").tobytes(), "little")


def unpack_rows(packed: int, count: int, width: int) -> list[int]:
    """The first ``count`` rows of ``width`` bits of a ``pack_rows`` int.

    Linear in count·width, so a pass may hold any number of rows: the
    bits are laid out as rows padded to whole 64-bit words, which NumPy
    packs, and each row's int is assembled from its words.
    """
    nbits = count * width
    data = (packed & ((1 << nbits) - 1)).to_bytes((nbits + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(data, np.uint8), count=nbits, bitorder="little")
    words = max(1, -(-width // 64))
    padded = np.zeros((count, 64 * words), dtype=np.uint8)
    padded[:, :width] = bits.reshape(count, width)
    parts = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    rows = parts[:, -1].tolist()
    for j in range(words - 2, -1, -1):
        # Shift the higher words up and append word j below them.
        rows = [r << 64 | w for r, w in zip(rows, parts[:, j].tolist())]
    return rows
