import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlcgrand import channel
from rlcgrand.channel import ChannelParams
from rlcgrand.gf2 import BitMatrix
from rlcgrand.rng import random_bit_matrix

from oracles import markov_error_rows


class TestParams:
    def test_error_free(self):
        p = ChannelParams.from_eps_lambda(0.0, 1.0)
        assert p.p01 == 0.0 and p.p10 == 1.0
        assert p.p01 / (p.p01 + p.p10) == 0.0 and 1.0 / p.p10 == 1.0

    def test_derived_values(self):
        p = ChannelParams.from_eps_lambda(0.03, 3.0)
        assert p.p10 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert p.p01 == pytest.approx(0.03 / (3.0 * 0.97), abs=1e-15)

    def test_deterministic_alternation_point(self):
        p = ChannelParams.from_eps_lambda(0.5, 1.0)
        assert p.p01 == pytest.approx(1.0) and p.p10 == pytest.approx(1.0)

    @settings(max_examples=200)
    @given(st.floats(0.0, 0.45), st.floats(1.0, 50.0))
    def test_round_trip(self, eps, lam):
        p = ChannelParams.from_eps_lambda(eps, lam)
        # eps = p01/(p01+p10) and the mean burst length is 1/p10.
        assert p.p01 / (p.p01 + p.p10) == pytest.approx(eps, abs=1e-12)
        assert 1.0 / p.p10 == pytest.approx(lam, abs=1e-12 * lam)

    def test_invalid_parameters(self):
        # Where a later check would also fail an input, the message tells
        # which check raised.
        with pytest.raises(ValueError, match=r"implies p01=9\.\d* > 1"):
            ChannelParams.from_eps_lambda(0.9, 1.0)  # p01 would be 9
        with pytest.raises(ValueError):
            ChannelParams.from_eps_lambda(-0.1, 2.0)
        with pytest.raises(ValueError, match="burst length must be at least 1"):
            ChannelParams.from_eps_lambda(0.05, 0.5)  # p10 would be 2
        # NaN passed the check and inf gave p10 = 0; both were reported as
        # faults of p01 or p10.
        for burst_len in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="burst length"):
                ChannelParams.from_eps_lambda(0.05, burst_len)
        with pytest.raises(ValueError):
            ChannelParams(p01=0.1, p10=0.0)  # infinite bursts
        with pytest.raises(ValueError, match=r"p01 must be in \[0, 1\]"):
            ChannelParams(p01=-0.1, p10=0.5)


class TestApply:
    def test_noiseless(self):
        x = random_bit_matrix(3, 4, 16)
        y, e = channel.apply(ChannelParams(p01=0.0, p10=1.0), x, seed=9)
        assert e == BitMatrix.zeros(4, 16)
        assert y == x

    def test_deterministic_alternation(self):
        x = BitMatrix.zeros(3, 7)
        _, e = channel.apply(ChannelParams(p01=1.0, p10=1.0), x, seed=4)
        assert e.to_rows() == [[1, 0, 1, 0, 1, 0, 1]] * 3

    def test_same_seed_same_noise(self):
        params = ChannelParams.from_eps_lambda(0.1, 2.0)
        x = random_bit_matrix(7, 6, 32)
        a = channel.apply(params, x, seed=123)
        b = channel.apply(params, x, seed=123)
        assert a == b
        assert channel.apply(params, x, seed=124) != a

    def test_rows_are_independent_substreams(self):
        # Adding rows to X must not change the noise on earlier rows.
        params = ChannelParams.from_eps_lambda(0.2, 3.0)
        _, e_small = channel.apply(params, BitMatrix.zeros(2, 24), seed=77)
        _, e_big = channel.apply(params, BitMatrix.zeros(6, 24), seed=77)
        assert e_big.take_rows([0, 1]) == e_small

    def test_matches_scalar_reference(self):
        params = ChannelParams.from_eps_lambda(0.15, 2.5)
        _, e = channel.apply(params, BitMatrix.zeros(9, 40), seed=2024)
        assert e.to_rows() == markov_error_rows(params.p01, params.p10, 9, 40, 2024)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(0, 24),
        cols=st.sampled_from((1, 7, 8, 63, 64, 65, 129)),
        p01=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
        p10=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_scan_matches_scalar_reference(self, rows, cols, p01, p10, seed):
        # The packed scan against the bit-by-bit recurrence, at the widths
        # where shift masks and packbits padding would go wrong.
        _, e = channel.apply(ChannelParams(p01=p01, p10=p10), BitMatrix.zeros(rows, cols), seed)
        assert e.to_rows() == markov_error_rows(p01, p10, rows, cols, seed)

    def test_batch_takes_matrices_of_one_shape(self):
        params = ChannelParams.from_eps_lambda(0.1, 2.0)
        seeds = np.array([1, 2], dtype=np.uint64)
        assert channel.apply_batch(params, [], seeds[:0]) == []
        with pytest.raises(ValueError):
            channel.apply_batch(params, [BitMatrix.zeros(2, 8), BitMatrix.zeros(3, 8)], seeds)

    @pytest.mark.parametrize(
        "seeds",
        [
            *(np.array(s, dtype=np.uint64) for s in ([1, 2], [1, 2, 3, 4], [[1, 2, 3]], [[1], [2], [3]])),
            np.array([1, 2, 3], dtype=np.int64),
            np.array([1.0, 2.0, 3.0]),
        ],
    )
    def test_batch_takes_one_seed_per_matrix(self, seeds):
        # A short seeds array once gave the matrices past its end no noise,
        # and extra seeds were dropped; an int64 or float array failed deep
        # in uint64_block.
        params = ChannelParams.from_eps_lambda(0.3, 2.0)
        xs = [BitMatrix.zeros(4, 16)] * 3
        with pytest.raises(ValueError, match=r"one seed per matrix \(uint64\)"):
            channel.apply_batch(params, xs, seeds)

    def test_y_is_x_xor_e(self):
        params = ChannelParams.from_eps_lambda(0.3, 2.0)
        x = random_bit_matrix(11, 5, 20)
        y, e = channel.apply(params, x, seed=6)
        assert y == BitMatrix(5, 20, tuple(a ^ b for a, b in zip(x.row_ints, e.row_ints)))


def _error_bits(params, rows, cols, seed):
    _, e = channel.apply(params, BitMatrix.zeros(rows, cols), seed)
    return np.array(e.to_rows(), dtype=np.uint8)


class TestStatistics:
    def test_error_rate_converges(self):
        params = ChannelParams.from_eps_lambda(0.05, 4.0)
        bits = _error_bits(params, 500, 400, seed=11)  # 200k bits
        # Burst correlation inflates the variance of the mean beyond the
        # binomial sigma, so this sanity check uses 5 binomial sigmas; the
        # acceptance suite pins the stated 3-sigma bound at 1e6 bits.
        sigma = (0.05 * 0.95 / bits.size) ** 0.5
        assert abs(bits.mean() - 0.05) < 5 * sigma

    def test_burst_lengths_converge(self):
        params = ChannelParams.from_eps_lambda(0.05, 4.0)
        bits = _error_bits(params, 2000, 400, seed=12)
        lengths = []
        for row in bits:
            run = 0
            for b in row:
                if b:
                    run += 1
                elif run:
                    lengths.append(run)
                    run = 0
            if run:
                lengths.append(run)
        mean = sum(lengths) / len(lengths)
        assert len(lengths) > 5000
        assert abs(mean - 4.0) / 4.0 < 0.05

    def test_bsc_reduction_no_lag1_correlation(self):
        # p01 + p10 = 1 makes bits independent Bernoulli(eps).
        params = ChannelParams(p01=0.2, p10=0.8)
        bits = _error_bits(params, 400, 500, seed=13).astype(np.float64)
        x, y = bits[:, :-1].ravel(), bits[:, 1:].ravel()
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(x.size)
