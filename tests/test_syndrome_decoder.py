import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlcgrand import gf2, rlc, syndrome_decoder as sd, tgrand
from rlcgrand.channel import ChannelParams
from rlcgrand.gf2 import BitMatrix
from rlcgrand.rng import random_bit_matrix

from oracles import (
    assert_repair_matches,
    from_rows,
    matvec_check,
    min_weight_solutions,
    sd_repair_by_enumeration,
    syndrome_of_mask,
    weight_order,
)


def small_system(max_checks=4, max_unknowns=4, max_cols=6):
    """Strategy: (ht, true error matrix) with s derived from the truth."""

    def build(t):
        checks, unknowns, cols, hseed, eseed = t
        ht = random_bit_matrix(hseed, checks, unknowns)
        e = random_bit_matrix(eseed, unknowns, cols)
        return ht, e

    return st.tuples(
        st.integers(0, max_checks),
        st.integers(0, max_unknowns),
        st.integers(1, max_cols),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    ).map(build)


def sd_column(ht, s_bits, query_cap=sd.DEFAULT_QUERY_CAP):
    """sd's estimate of one column as bits, from `sd_repair` over a
    one-column system; None when the column is unresolved."""
    s = from_rows([[bit] for bit in s_bits], cols=1)
    res = sd.sd_repair(sd.SyndromeSystem(ht=ht, s=s), query_cap)
    return None if res.unresolved else res.e_hat.row_ints


class TestComputeSyndrome:
    def test_zero_error_zero_syndrome(self):
        g = rlc.make_generator(3, 6, 2)
        h = rlc.parity_check(g)
        x = rlc.encode(g, random_bit_matrix(5, 3, 8))
        assert sd.compute_syndrome(h, x) == BitMatrix.zeros(3, 8)

    def test_degenerate_no_parity(self):
        g = rlc.make_generator(4, 4, 2)
        h = rlc.parity_check(g)
        y = random_bit_matrix(1, 4, 6)
        assert sd.compute_syndrome(h, y) == BitMatrix.zeros(0, 6)

    @settings(max_examples=100)
    @given(
        st.integers(1, 5), st.integers(0, 5), st.integers(1, 6),
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    )
    def test_syndrome_sees_only_the_error(self, k, extra, b, seeds):
        g = rlc.make_generator(k, k + extra, seeds[0])
        h = rlc.parity_check(g)
        u = random_bit_matrix(seeds[1], k, b)
        e = random_bit_matrix(seeds[2], k + extra, b)
        y = gf2.add(rlc.encode(g, u), e)
        assert sd.compute_syndrome(h, y) == gf2.matmul(h.matrix.transpose(), e)


class TestSolveColumn:
    def test_zero_syndrome_returns_zero(self):
        ht = from_rows([[1, 0, 1], [0, 1, 1]])
        assert sd_column(ht, [0, 0]) == (0, 0, 0)

    def test_hand_enumeration(self):
        ht = from_rows([[1, 0], [1, 1]])
        assert sd_column(ht, [1, 1]) == (1, 0)

    def test_no_checks_vacuous(self):
        ht = BitMatrix.zeros(0, 3)
        assert sd_column(ht, []) == (0, 0, 0)

    def test_cap_exceeded(self):
        ht = from_rows([[1, 0], [0, 1]])
        assert sd_column(ht, [1, 1], query_cap=3) is None

    def test_minimality_at_twelve_unknowns(self):
        ht = random_bit_matrix(314, 5, 12)
        e = random_bit_matrix(159, 12, 1)
        target = syndrome_of_mask(ht, e.col_ints()[0])
        s_bits = tuple((target >> i) & 1 for i in range(5))
        got = sd_column(ht, s_bits)
        best_w, _ = min_weight_solutions(ht, target)
        assert sum(got) == best_w

    @settings(max_examples=150)
    @given(small_system())
    def test_minimal_weight_and_constraint(self, system):
        ht, e = system
        target = syndrome_of_mask(ht, e.col_ints()[0] if e.cols else 0)
        s_bits = tuple((target >> i) & 1 for i in range(ht.rows))
        got = sd_column(ht, s_bits)
        best_w, best_masks = min_weight_solutions(ht, target)
        assert got is not None
        assert matvec_check(ht, got, s_bits)
        assert sum(got) == best_w
        # First hit in weight-then-lex order is the lexicographically
        # smallest support among the minimal solutions.
        supports = sorted(
            tuple(j for j in range(ht.cols) if (m >> j) & 1) for m in best_masks
        )
        assert tuple(j for j, bit in enumerate(got) if bit) == supports[0]


class TestWeightOrder:
    @pytest.mark.parametrize("l", range(11))
    def test_sd_order_is_the_weight_order(self, l):
        # The order exactly as sd_repair builds it: the oracle's masks,
        # each at its 1-based index.
        order = sd.weight_order(l)
        assert sd.weight_order(l) is order
        masks = list(order.masks())
        assert masks == list(weight_order(l))
        for i, mask in enumerate(masks):
            assert order.position(mask) == i + 1

    @pytest.mark.parametrize("l", range(13))
    def test_channel_params_past_one_half_reverse_it(self, l):
        # The channel's all-zero-prior order is sd's exactly when its class
        # table is the weight table: at p01 <= 1/2, including the tie rule
        # at p01 = 0 (eps = 0) and p01 = 1/2.  Past 1/2 it runs heaviest
        # first, so sd cannot use the channel's params.  A system shares
        # sd's search with the channel's all-zero-prior one exactly then,
        # by identity: a separately built order in an equal table gets its
        # own search, with the same hits.  A nonzero prior never gets sd's
        # order.  The grid holds the boundary channels p01 = 0, 1/2, 1 and
        # p10 = 1.
        weights = tuple((w, 0) for w in range(l + 1))
        sd_masks = list(sd.weight_order(l).masks())
        system = sd.SyndromeSystem(ht=random_bit_matrix(l, 3, l), s=BitMatrix.zeros(3, 2))
        cap = sd.DEFAULT_QUERY_CAP
        sd_search = system.search(sd.weight_order(l), cap)
        own_order = tgrand.LikelihoodOrder(0, l, tgrand._class_table(0.1, 0.3, l, 0))
        own_search = system.search(own_order, cap)
        assert own_search is not sd_search
        for target in range(1 << 3):
            assert own_search.find(target) == sd_search.find(target)
        assert system.search(sd.weight_order(l), cap + 1) is not sd_search
        priors = {1, (1 << l) - 1, 0b101101101101 & ((1 << l) - 1)} - {0}
        for p01 in (*(i / 32 for i in range(33)), 0.1, 0.6, 0.9):
            for p10 in (*(j / 32 for j in range(1, 33)), 0.3):
                order = tgrand.likelihood_order(0, l, p01, p10)
                masks = list(order.masks())
                table = tuple(
                    (c.l0, c.l1) for c in tgrand.sorted_classes(ChannelParams(p01, p10), l, 0)
                )
                assert (order is sd.weight_order(l)) == (table == weights)
                tg_search = system.search(order, cap)
                if p01 <= 0.5:
                    assert masks == sd_masks
                    assert table == weights
                    assert tg_search is sd_search
                elif l >= 1:
                    assert masks != sd_masks
                    assert masks[0] == (1 << l) - 1
                    assert tg_search is not sd_search
                for prior in priors:
                    assert tgrand.likelihood_order(prior, l, p01, p10) is not sd.weight_order(l)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 13), st.lists(st.integers(1, 600), min_size=1, max_size=40))
    def test_prefix_serves_interleaved_iterators_past_its_bound(self, l, steps):
        # Two masks() iterators of the weight order, advanced in turn by
        # the drawn step counts, then drained, each yield the oracle's
        # weight order: from the fixed prefix and past it (2^13 masks at
        # L = 13, against MEMO_MASKS = 1024).
        order = sd.weight_order(l)
        expected = list(weight_order(l))
        its, got = [order.masks(), order.masks()], [[], []]
        for i, step in enumerate(steps):
            got[i % 2] += islice(its[i % 2], step)
        for it, masks in zip(its, got):
            masks += it
        assert got[0] == got[1] == expected
        assert list(order.masks()) == expected
        # The prefix is the longest run of whole weight classes that fits
        # in MEMO_MASKS masks.
        kept, total = 0, 0
        while kept <= l and total + math.comb(l, kept) <= tgrand.MEMO_MASKS:
            total += math.comb(l, kept)
            kept += 1
        assert order._prefix == tuple(expected[:total])
        assert order._kept == kept
        # Other orders, here one with a nonzero prior, have no prefix.
        if l:
            assert tgrand.likelihood_order(1, l, 0.1, 0.3)._prefix == ()
        assert tgrand.likelihood_order(0, l, 0.1, 0.3) is sd.weight_order(l)


class TestRepair:
    def test_zero_syndrome_zero_estimate(self):
        ht = random_bit_matrix(3, 3, 4)
        system = sd.SyndromeSystem(ht=ht, s=BitMatrix.zeros(3, 5))
        res = sd.sd_repair(system)
        assert res.e_hat == BitMatrix.zeros(4, 5)
        assert res.unresolved == ()
        assert res.queries_per_column == (1,) * 5

    def test_single_error_single_column(self):
        # One corrupted packet, a 1-bit error at column 2; the only
        # weight-1 solution flips exactly that bit.
        ht = from_rows([[1], [1]])
        s = from_rows([[0, 0, 1, 0], [0, 0, 1, 0]])
        res = sd.sd_repair(sd.SyndromeSystem(ht=ht, s=s))
        assert res.e_hat == from_rows([[0, 0, 1, 0]])
        assert res.queries_per_column == (1, 1, 2, 1)

    def test_cap_marks_columns_unresolved(self):
        ht = from_rows([[1, 0], [0, 1]])
        s = from_rows([[0, 1], [0, 1]])  # second column needs weight 2
        res = sd.sd_repair(sd.SyndromeSystem(ht=ht, s=s), query_cap=3)
        assert res.unresolved == (1,)
        assert res.e_hat.col_ints()[1] == 0
        assert res.queries_per_column == (1, 3)

    @settings(max_examples=150)
    @given(small_system())
    def test_repair_equals_per_column_solve(self, system):
        ht, e = system
        s = gf2.matmul(ht, e)
        res = sd.sd_repair(sd.SyndromeSystem(ht=ht, s=s))
        assert res.unresolved == ()
        for b in range(e.cols):
            s_bits = tuple(s.row_bits(i)[b] for i in range(s.rows))
            expected = sd_column(ht, s_bits)
            got = tuple(res.e_hat.row_bits(j)[b] for j in range(ht.cols))
            assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(small_system(max_checks=6, max_unknowns=8), st.integers(-3, 3), st.integers(-1, 1))
    def test_search_core_matches_enumeration_oracle(self, system, shift, offset):
        # Caps land on both sides of 2^d, so both the prefix scan and the
        # coset ranking run.
        ht, e = system
        s = gf2.matmul(ht, e)
        d = ht.cols - gf2.rank(ht)
        cap = max(1, (1 << max(0, d + shift)) + offset)
        res = sd.sd_repair(sd.SyndromeSystem(ht=ht, s=s), query_cap=cap)
        assert_repair_matches(res, sd_repair_by_enumeration(ht, s, cap))
