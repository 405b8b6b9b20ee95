from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from rlcgrand import channel, gf2
from rlcgrand.channel import ChannelParams
from rlcgrand.pipeline import classify
from rlcgrand.rlc import encode, make_generator, parity_check
from rlcgrand.rng import random_bit_matrix
from rlcgrand.search import OrderedSearch, SearchCore, lex_rank

from oracles import first_hit, syndrome_of_mask, weight_order

seed = st.integers(0, 2**32 - 1)


class TestCosetDimension:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 8), st.integers(0, 8), st.floats(0.0, 0.4), st.floats(1.0, 6.0),
        seed, seed, seed,
    )
    def test_dim_equals_both_rank_deficits(self, k, extra, eps, burst_len, gseed, useed, nseed):
        gen = make_generator(k, k + extra, gseed)
        x = encode(gen, random_bit_matrix(useed, k, 8))
        y, _ = channel.apply(ChannelParams.from_eps_lambda(eps, burst_len), x, nseed)
        batch = classify(y, x)
        ht = parity_check(gen).matrix.take_rows(batch.rbar).transpose()
        core = SearchCore(ht.col_ints())
        assert core.dim == len(batch.rbar) - gf2.rank(ht)
        assert core.dim == k - gf2.rank(gen.matrix.take_rows(batch.r))


class TestCoset:
    @settings(max_examples=100)
    @given(st.integers(0, 5), st.integers(0, 6), seed)
    def test_coset_is_the_solution_set(self, checks, unknowns, hseed):
        ht = random_bit_matrix(hseed, checks, unknowns)
        core = SearchCore(ht.col_ints())
        for target in range(1 << checks):
            solutions = {m for m in range(1 << unknowns) if syndrome_of_mask(ht, m) == target}
            x0 = core.particular(target)
            if x0 is None:
                assert not solutions
            else:
                coset = core.coset(x0)
                assert len(coset) == 1 << core.dim
                assert set(coset) == solutions

    def test_lex_rank_follows_combinations(self):
        positions = (1, 4, 5, 9, 12)
        index = {p: i for i, p in enumerate(positions)}
        for k in range(len(positions) + 1):
            for i, combo in enumerate(combinations(positions, k)):
                assert lex_rank(sum(1 << p for p in combo), index, len(positions), k) == i


class CountingWeightOrder:
    """Weight order from the oracle, counting the work the core asks of it."""

    def __init__(self, length):
        self.stream = list(weight_order(length))
        self.drawn = 0
        self.evaluated = 0

    def masks(self):
        for mask in self.stream:
            self.drawn += 1
            yield mask

    def block(self, mask):
        self.evaluated += 1
        return sum(1 for m in self.stream if m.bit_count() < mask.bit_count())

    def position(self, mask):
        return self.stream.index(mask) + 1


class TestWorkBound:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 8), seed, st.integers(1, 300))
    def test_scan_and_rank_stay_within_bound(self, checks, unknowns, hseed, cap):
        # Every target, reachable or not: the answer matches enumeration,
        # at most min(2^d, cap) candidates are drawn in all and at most
        # 2^d coset members are evaluated per target.  One core serves
        # searches with different caps.
        ht = random_bit_matrix(hseed, checks, unknowns)
        core = SearchCore(ht.col_ints())
        for query_cap in (cap, 1 << 20):
            order = CountingWeightOrder(unknowns)
            search = OrderedSearch(core, order, query_cap)
            for target in range(1 << checks):
                before = order.evaluated
                expected = first_hit(weight_order(unknowns), ht, target, query_cap)
                assert search.find(target) == expected
                assert order.evaluated - before <= 1 << core.dim
            assert order.drawn <= min(1 << core.dim, query_cap)
