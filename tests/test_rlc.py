import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlcgrand import gf2, rlc
from rlcgrand.gf2 import BitMatrix
from rlcgrand.rng import SplitMix64, random_bit_matrix

from oracles import from_rows, next_bit


def gen_strategy(max_k=5, max_extra=5):
    return st.tuples(
        st.integers(1, max_k), st.integers(0, max_extra), st.integers(0, 2**32 - 1)
    ).map(lambda t: rlc.make_generator(t[0], t[0] + t[1], t[2]))


class TestMakeGenerator:
    def test_no_parity_is_identity(self):
        g = rlc.make_generator(3, 3, seed=99)
        assert g.matrix == BitMatrix.identity(3)

    def test_deterministic(self):
        a = rlc.make_generator(10, 20, seed=7)
        b = rlc.make_generator(10, 20, seed=7)
        assert a.matrix == b.matrix
        assert a.matrix != rlc.make_generator(10, 20, seed=8).matrix

    def test_p_bits_follow_documented_stream(self):
        seed = 31337
        g = rlc.make_generator(2, 4, seed)
        stream = SplitMix64(seed)
        expected = [next_bit(stream) for _ in range(4)]
        assert g.matrix.to_rows()[2:] == [expected[:2], expected[2:]]

    @settings(max_examples=100)
    @given(st.integers(1, 17), st.integers(0, 17), st.integers(0, 2**64 - 1))
    def test_p_block_is_the_scalar_bit_stream(self, k, extra, seed):
        # Covers N == K and (N-K)·K not a multiple of 8.
        g = rlc.make_generator(k, k + extra, seed)
        stream = SplitMix64(seed)
        expected = [[next_bit(stream) for _ in range(k)] for _ in range(extra)]
        assert g.matrix.to_rows()[k:] == expected
        assert g.matrix.take_rows(range(k)) == BitMatrix.identity(k)

    def test_batch_takes_a_1d_seed_array(self):
        with pytest.raises(ValueError, match="1-D"):
            rlc.make_generators(2, 4, np.array([[1, 2], [3, 4]], dtype=np.uint64))

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            rlc.make_generator(0, 3, 1)
        with pytest.raises(ValueError):
            rlc.make_generator(4, 3, 1)

    def test_matrix_shape_must_match(self):
        # The top block is I_2, so only the shape check can fail.
        with pytest.raises(ValueError, match="shape does not match"):
            rlc.Generator(k=2, n=3, matrix=BitMatrix.identity(2))

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1], [0, 1], [1, 0]],  # would encode U = I as [[1,0],[0,1],[1,0]], not G·U
            [[0, 1], [1, 0], [1, 1]],  # identity rows swapped
        ],
    )
    def test_top_block_other_than_identity_is_rejected(self, rows):
        with pytest.raises(ValueError, match="identity"):
            rlc.Generator(k=2, n=3, matrix=from_rows(rows))

    @settings(max_examples=100)
    @given(st.integers(1, 12), st.integers(0, 5), st.integers(0, 2**64 - 1), st.data())
    def test_top_block_is_checked_against_the_identity_for_every_k(self, k, extra, seed, data):
        n = k + extra
        rows = list(rlc.make_generator(k, n, seed).matrix.row_ints)  # accepted
        i = data.draw(st.integers(0, k - 1), label="row")
        flipped = rows.copy()
        flipped[i] ^= 1 << data.draw(st.integers(0, k - 1), label="bit")
        with pytest.raises(ValueError, match="identity"):
            rlc.Generator(k=k, n=n, matrix=BitMatrix(n, k, flipped))
        if k > 1:
            j = data.draw(st.integers(0, k - 1).filter(lambda j: j != i), label="swapped with")
            swapped = rows.copy()
            swapped[i], swapped[j] = rows[j], rows[i]
            with pytest.raises(ValueError, match="identity"):
                rlc.Generator(k=k, n=n, matrix=BitMatrix(n, k, swapped))

    @settings(max_examples=50)
    @given(gen_strategy())
    def test_systematic_top_block(self, g):
        assert g.matrix.take_rows(range(g.k)) == BitMatrix.identity(g.k)


class TestEncode:
    def test_zero_message(self):
        g = rlc.make_generator(3, 6, 1)
        assert rlc.encode(g, BitMatrix.zeros(3, 8)) == BitMatrix.zeros(6, 8)

    def test_hand_example(self):
        g = rlc.Generator(k=2, n=3, matrix=from_rows([[1, 0], [0, 1], [1, 1]]))
        u = from_rows([[1, 0], [0, 1]])
        assert rlc.encode(g, u) == from_rows([[1, 0], [0, 1], [1, 1]])

    def test_shape_mismatch(self):
        g = rlc.make_generator(3, 6, 1)
        with pytest.raises(ValueError):
            rlc.encode(g, BitMatrix.zeros(4, 8))

    @settings(max_examples=50)
    @given(gen_strategy(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_systematic_prefix(self, g, b, useed):
        u = random_bit_matrix(useed, g.k, b)
        x = rlc.encode(g, u)
        assert x.take_rows(range(g.k)) == u

    @settings(max_examples=100)
    @given(
        gen_strategy(max_k=8, max_extra=0) | gen_strategy(max_k=8, max_extra=8),
        st.integers(1, 70), st.integers(0, 2**32 - 1),
    )
    def test_equals_the_full_product(self, g, b, useed):
        # encode multiplies only the parity rows; G·U over all N rows is
        # the reference, N == K included.
        u = random_bit_matrix(useed, g.k, b)
        assert rlc.encode(g, u) == gf2.matmul(g.matrix, u)


class TestParityCheck:
    def test_degenerate_no_parity(self):
        g = rlc.make_generator(4, 4, 5)
        h = rlc.parity_check(g)
        assert (h.matrix.rows, h.matrix.cols) == (4, 0)
        assert gf2.matmul(h.matrix.transpose(), g.matrix) == BitMatrix.zeros(0, 4)

    def test_hand_example(self):
        g = rlc.Generator(k=2, n=3, matrix=from_rows([[1, 0], [0, 1], [1, 1]]))
        h = rlc.parity_check(g)
        assert h.matrix.transpose().to_rows() == [[1, 1, 1]]
        assert gf2.matmul(h.matrix.transpose(), g.matrix) == BitMatrix.zeros(1, 2)

    @settings(max_examples=100)
    @given(gen_strategy())
    def test_orthogonality(self, g):
        h = rlc.parity_check(g)
        prod = gf2.matmul(h.matrix.transpose(), g.matrix)
        assert prod == BitMatrix.zeros(g.n - g.k, g.k)


class TestDecode:
    def test_identity_rows(self):
        u = from_rows([[1, 1, 0], [0, 1, 1]])
        assert rlc.rlc_decode(BitMatrix.identity(2), u) == u

    def test_too_few_rows(self):
        assert rlc.rlc_decode(BitMatrix.zeros(1, 2), BitMatrix.zeros(1, 3)) is None

    @settings(max_examples=100)
    @given(gen_strategy(), st.integers(1, 8), st.integers(0, 2**32 - 1), st.data())
    def test_round_trip_on_row_subsets(self, g, b, useed, data):
        u = random_bit_matrix(useed, g.k, b)
        x = rlc.encode(g, u)
        subset = data.draw(
            st.lists(st.integers(0, g.n - 1), min_size=g.k, max_size=g.n, unique=True)
        )
        g_rows = g.matrix.take_rows(subset)
        y_rows = x.take_rows(subset)
        decoded = rlc.rlc_decode(g_rows, y_rows)
        if gf2.rank(g_rows) == g.k:
            assert decoded == u
        else:
            assert decoded is None

    @settings(max_examples=50)
    @given(gen_strategy(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_all_rows_always_decode(self, g, b, useed):
        u = random_bit_matrix(useed, g.k, b)
        assert rlc.rlc_decode(g.matrix, rlc.encode(g, u)) == u
