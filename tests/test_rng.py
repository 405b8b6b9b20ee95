import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlcgrand import rng

from oracles import next_bit, next_float


def test_splitmix64_reference_vector():
    # First outputs for seed 0 from the reference C implementation.
    stream = rng.SplitMix64(0)
    assert stream.next_uint64() == 0xE220A8397B1DCDAF
    assert stream.next_uint64() == 0x6E789E6AA1B965F4
    assert stream.next_uint64() == 0x06C45D188009454F


def test_scalar_and_block_streams_agree():
    seed = 987654321
    stream = rng.SplitMix64(seed)
    scalar = [stream.next_uint64() for _ in range(64)]
    assert rng.uint64_block(seed, 64).tolist() == scalar


@pytest.mark.parametrize("block", (1, 5, 16, None))
def test_mix_in_blocks_matches_the_scalar_stream(monkeypatch, block):
    # The vector mix works in place, a block at a time: every block size
    # gives the scalar stream, across block edges and a partial last block.
    # None keeps the module's block, which 3 rows of n outputs overrun.
    if block is not None:
        monkeypatch.setattr(rng, "_MIX_BLOCK", block)
    n = 7 if block is not None else rng._MIX_BLOCK // 2 + 3
    seeds = np.array([3, 2**64 - 1, 12345], dtype=np.uint64)
    for s, row in zip(seeds.tolist(), rng.uint64_block(seeds, n).tolist()):
        stream = rng.SplitMix64(s)
        assert row == [stream.next_uint64() for _ in range(n)]
    assert rng.derive_seeds(seeds[:, np.newaxis], np.arange(13)).tolist() == [
        [rng.derive_seed(s, i) for i in range(13)] for s in seeds.tolist()
    ]


def test_bits_and_floats_derive_from_the_same_stream():
    seed = 5
    stream = rng.SplitMix64(seed)
    outs = [stream.next_uint64() for _ in range(32)]
    assert rng.bit_block(seed, 32).tolist() == [z >> 63 for z in outs]
    stream = rng.SplitMix64(seed)
    floats = [next_float(stream) for _ in range(32)]
    block = rng.uint64_block(seed, 32)
    assert floats == ((block >> np.uint64(11)) * 2.0**-53).tolist()
    assert all(0.0 <= f < 1.0 for f in floats)


def test_derive_seed_is_order_sensitive():
    assert rng.derive_seed(1, 2, 3) != rng.derive_seed(1, 3, 2)
    assert rng.derive_seed(1, 2) != rng.derive_seed(2, 1)
    assert rng.derive_seed(7, 0) != rng.derive_seed(7)


def test_derive_seed_frozen_values():
    # Regression pins: golden fixtures depend on these staying put.
    assert rng.derive_seed(0) == 0
    assert rng.derive_seed(1, 2, 3) == 0x5F2F96A46EA3B287


@settings(max_examples=50)
@given(st.integers(0, 2**64 - 1), st.integers(1, 200))
def test_block_determinism(seed, n):
    assert rng.uint64_block(seed, n).tolist() == rng.uint64_block(seed, n).tolist()


def test_random_bit_matrix_row_major_bits():
    seed = 42
    m = rng.random_bit_matrix(seed, 3, 5)
    stream = rng.SplitMix64(seed)
    expected = [[next_bit(stream) for _ in range(5)] for _ in range(3)]
    assert m.to_rows() == expected


def test_random_rows_takes_a_1d_seed_array():
    # A 2-D array once gave the matrices of its first row's seeds only, and
    # an int64 or float array failed deep in uint64_block.
    for seeds in (
        np.array([[1, 2], [3, 4]], dtype=np.uint64),
        np.array(5, dtype=np.uint64),
        np.array([1, 2], dtype=np.int64),
        np.array([1.0, 2.0]),
    ):
        with pytest.raises(ValueError, match="1-D uint64 array"):
            rng.random_rows(seeds, 2, 3)


@pytest.mark.parametrize("rows, cols", [(-2, 3), (3, -2), (-1, -1)])
def test_random_bit_matrix_rejects_negative_dimensions(rows, cols):
    # (-2, 3) once gave a -2x3 matrix, and (3, -2) failed inside unpack_rows.
    with pytest.raises(ValueError, match="dimensions must be non-negative"):
        rng.random_bit_matrix(1, rows, cols)


def test_random_bit_matrix_empty():
    assert rng.random_bit_matrix(9, 0, 4).rows == 0
    assert rng.random_bit_matrix(9, 4, 0).cols == 0


@settings(max_examples=50)
@given(st.integers(0, 2**64 - 1), st.integers(0, 40), st.integers(0, 70))
def test_seed_array_blocks_match_per_seed_blocks(seed, rows, n):
    seeds = rng.derive_seeds(seed, np.arange(rows))
    assert seeds.tolist() == [rng.derive_seed(seed, i) for i in range(rows)]
    block = rng.uint64_block(seeds, n)
    assert block.shape == (rows, n)
    for i in range(rows):
        assert block[i].tolist() == rng.uint64_block(rng.derive_seed(seed, i), n).tolist()
    for i, s in enumerate(seeds.tolist()):
        stream = rng.SplitMix64(s)
        floats = [next_float(stream) for _ in range(n)]
        assert floats == ((block[i] >> np.uint64(11)) * 2.0**-53).tolist()
    assert np.array_equal(rng.bit_block(seeds, n), block >> np.uint64(63))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2**64 - 1), st.integers(0, 400), st.integers(0, 200), st.integers(0, 2**80)
)
@example(seed=5, count=300, width=0, above=2**70 - 1)
@example(seed=5, count=300, width=1, above=3)
@example(seed=5, count=300, width=10, above=1)
@example(seed=5, count=300, width=63, above=2**80)
@example(seed=5, count=300, width=64, above=2**64 - 1)
@example(seed=5, count=300, width=65, above=0)
def test_pack_and_unpack_rows_round_trip(seed, count, width, above):
    # Rows of one, several and fractional 64-bit words, hundreds of them,
    # from an int that may hold set bits above the count·width it is read to.
    bits = rng.bit_block(seed, count * width).reshape(count, width)
    rows = [int("".join(map(str, row[::-1])) or "0", 2) for row in bits]
    packed = rng.pack_rows(bits)
    assert rng.unpack_rows(packed, count, width) == rows
    assert rng.unpack_rows(rng.pack_rows(bits.astype(bool)), count, width) == rows
    assert rng.unpack_rows(packed | above << count * width, count, width) == rows
    assert rng.unpack_rows(packed, count // 2, width) == rows[: count // 2]
