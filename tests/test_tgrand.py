import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlcgrand import gf2, syndrome_decoder as sd, tgrand
from rlcgrand.channel import ChannelParams
from rlcgrand.gf2 import BitMatrix
from rlcgrand.rng import random_bit_matrix
from rlcgrand.syndrome_decoder import SyndromeSystem
from rlcgrand.tgrand import ColumnPrior

from oracles import (
    assert_repair_matches,
    from_rows,
    likelihood_order,
    map_solution,
    matvec_check,
    syndrome_of_mask,
    tg_repair_by_enumeration,
    vector_probability,
    weight_order,
)

# The worked example: p01 = 0.2, p10 = 0.7, prior [1, 0, 1, 1, 0].
EX_PARAMS = ChannelParams(p01=0.2, p10=0.7)
EX_PRIOR = ColumnPrior.from_bits((1, 0, 1, 1, 0))

coarse_prob = st.integers(1, 15).map(lambda i: i / 16.0)


def prior_strategy(max_len=6):
    return st.lists(st.integers(0, 1), min_size=0, max_size=max_len).map(ColumnPrior.from_bits)


class TestClassProbability:
    def test_worked_example_values(self):
        top = tgrand.class_probability(EX_PARAMS, 2, 3, 0, 3)
        assert top == pytest.approx(0.21952, abs=1e-12)
        assert tgrand.class_probability(EX_PARAMS, 2, 3, 0, 2) == pytest.approx(0.09408, abs=1e-12)

    def test_deterministic_decay(self):
        params = ChannelParams(p01=0.0, p10=1.0)
        assert tgrand.class_probability(params, 0, 4, 0, 4) == 1.0

    def test_rejects_overflowing_counts(self):
        with pytest.raises(ValueError):
            tgrand.class_probability(EX_PARAMS, 2, 3, 3, 0)


class TestSortedClasses:
    def test_worked_example_ordering(self):
        classes = tgrand.sorted_classes(EX_PARAMS, 2, 3)
        assert len(classes) == 12
        assert (classes[0].l0, classes[0].l1) == (0, 3)
        assert classes[0].prob == pytest.approx(0.21952, abs=1e-12)
        assert sum(c.count for c in classes) == 32
        probs = [c.prob for c in classes]
        assert probs == sorted(probs, reverse=True)

    def test_trivial_class(self):
        classes = tgrand.sorted_classes(EX_PARAMS, 0, 0)
        assert len(classes) == 1
        assert classes[0] == tgrand.TransitionClass(l0=0, l1=0, prob=1.0, count=1)

    @settings(max_examples=100)
    @given(coarse_prob, coarse_prob, st.integers(0, 6), st.integers(0, 6))
    def test_counts_cover_the_space(self, p01, p10, l0, l1):
        classes = tgrand.sorted_classes(ChannelParams(p01=p01, p10=p10), l0, l1)
        assert len(classes) == (l0 + 1) * (l1 + 1)
        assert sum(c.count for c in classes) == 2 ** (l0 + l1)
        total = sum(c.count * c.prob for c in classes)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p01", [0.0, 0.1, 0.5, 0.6, 1.0])
    @pytest.mark.parametrize("p10", [0.1, 0.5, 0.9, 1.0])
    def test_table_offsets_are_running_counts(self, p01, p10):
        # The one table per channel shape: its pairs are sorted_classes'
        # order, and the offset at index l0·(L1+1) + L1-l1 counts the
        # candidates of the classes before (l0, l1).  Only the weight
        # table keeps a prefix.
        params = ChannelParams(p01=p01, p10=p10)
        for big_l0 in range(5):
            for big_l1 in range(5):
                table = tgrand._class_table(p01, p10, big_l0, big_l1)
                classes = tgrand.sorted_classes(params, big_l0, big_l1)
                assert table.pairs == tuple((c.l0, c.l1) for c in classes)
                before = 0
                for c in classes:
                    assert table.offsets[c.l0 * (big_l1 + 1) + big_l1 - c.l1] == before
                    before += c.count
                weights = tuple((w, 0) for w in range(big_l0 + 1))
                assert (table.kept > 0) == (table.pairs == weights)


class TestEnumeration:
    def test_all_zero_prior_starts_at_zero(self):
        prior = ColumnPrior.from_bits((0,) * 4)
        params = ChannelParams(p01=0.3, p10=0.6)
        first = next(tgrand.enumerate_candidates(prior, params))
        assert first == (0, 0, 0, 0)

    def test_worked_example_stream(self):
        stream = list(tgrand.enumerate_candidates(EX_PRIOR, EX_PARAMS))
        assert len(stream) == 32
        assert len(set(stream)) == 32
        assert stream[0] == (0, 0, 0, 0, 0)
        # The unchanged prior (weight 3) outranks the last weight-2 vector:
        # staying put has probability 0.01728 > 0.01372 for flipping
        # everything.
        prior_pos = stream.index(EX_PRIOR.prev)
        last_w2 = max(i for i, v in enumerate(stream) if sum(v) == 2)
        assert prior_pos < last_w2

    @settings(max_examples=60)
    @given(prior_strategy(), coarse_prob, coarse_prob)
    def test_stream_is_a_permutation_of_the_space(self, prior, p01, p10):
        stream = list(tgrand.enumerate_candidates(prior, ChannelParams(p01=p01, p10=p10)))
        assert len(stream) == 2**prior.length
        assert len(set(stream)) == len(stream)

    @settings(max_examples=150)
    @given(
        st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))),
        st.just(0.0) | st.just(1.0) | coarse_prob,
        st.just(1.0) | coarse_prob,
    )
    def test_stream_matches_sorted_oracle(self, prior, p01, p10):
        length, prior_mask = prior
        params = ChannelParams(p01=p01, p10=p10)
        stream = tgrand.enumerate_candidates(
            ColumnPrior.from_bits([prior_mask >> j & 1 for j in range(length)]), params
        )
        masks = [sum(bit << j for j, bit in enumerate(bits)) for bits in stream]
        oracle = list(likelihood_order(prior_mask, length, params))
        assert masks == oracle
        # The order's closed form: each mask's 1-based index in the oracle.
        order = tgrand.likelihood_order(prior_mask, length, p01, p10)
        for i, mask in enumerate(oracle):
            assert order.position(mask) == i + 1

    @settings(max_examples=150)
    @given(
        st.integers(0, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(0, (1 << n) - 1),
                st.lists(st.integers(0, (1 << n) - 1), min_size=1, unique=True),
            )
        ),
        st.sampled_from([0.0, 0.1, 0.5, 0.6, 1.0]),
        st.just(1.0) | coarse_prob,
    )
    def test_first_is_the_earliest_of_any_subset(self, drawn, p01, p10):
        # At p01 = 0.6 and 1 the all-zero-prior table runs heaviest first,
        # so the likelihood order's classes are not the weights.
        length, prior_mask, subset = drawn
        for order, stream in (
            (
                tgrand.likelihood_order(prior_mask, length, p01, p10),
                likelihood_order(prior_mask, length, ChannelParams(p01=p01, p10=p10)),
            ),
            (sd.weight_order(length), weight_order(length)),
        ):
            index = {m: i for i, m in enumerate(stream)}
            assert order.first(subset) == min((index[m] + 1, m) for m in subset)

    def test_completeness_at_twelve_unknowns(self):
        prior = ColumnPrior.from_bits((1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1))
        params = ChannelParams(p01=0.15, p10=0.45)
        seen = set()
        prev = 1.0
        total = 0.0
        for bits in tgrand.enumerate_candidates(prior, params):
            seen.add(bits)
            p = vector_probability(bits, prior.prev, params.p01, params.p10)
            assert p <= prev * (1 + 1e-9)
            prev = p
            total += p
        assert len(seen) == 2**12
        assert total == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60)
    @given(prior_strategy(5), coarse_prob, coarse_prob)
    def test_monotone_likelihood_and_normalization(self, prior, p01, p10):
        params = ChannelParams(p01=p01, p10=p10)
        probs = [
            vector_probability(bits, prior.prev, p01, p10)
            for bits in tgrand.enumerate_candidates(prior, params)
        ]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        for a, b in zip(probs, probs[1:]):
            assert b <= a * (1 + 1e-9) + 1e-15


class TestSolveColumn:
    def test_zero_syndrome_zero_prior(self):
        ht = from_rows([[1, 0], [0, 1]])
        prior = ColumnPrior.from_bits((0,) * 2)
        params = ChannelParams(p01=0.1, p10=0.5)
        assert tgrand.tg_solve_column(ht, [0, 0], prior, params) == (0, 0)

    def test_prior_biases_the_answer(self):
        # Brute force of all four candidates: [1,1] at 0.36, then [0,1]
        # and [1,0] at 0.24, then [0,0] at 0.16; first satisfying is [1,0].
        ht = from_rows([[1, 0], [1, 1]])
        prior = ColumnPrior.from_bits((1, 1))
        params = ChannelParams(p01=0.1, p10=0.4)
        assert tgrand.tg_solve_column(ht, [1, 1], prior, params) == (1, 0)

    def test_prior_length_must_match_the_unknowns(self):
        ht = from_rows([[1, 0, 1], [0, 1, 1]])
        prior = ColumnPrior.from_bits((0, 1))
        with pytest.raises(ValueError, match="prior length 2 does not match 3 unknowns"):
            tgrand.tg_solve_column(ht, [1, 0], prior, ChannelParams(p01=0.1, p10=0.5))

    def test_entries_must_be_bits(self):
        # Other entries were once read modulo 2: (2, 1, 3) as (0, 1, 1).
        with pytest.raises(ValueError, match=r"prior entries must be 0 or 1, got \(2, 1, 3\)"):
            ColumnPrior.from_bits((2, 1, 3))
        ht, prior = from_rows([[1, 0], [0, 1]]), ColumnPrior.from_bits((0, 0))
        with pytest.raises(ValueError, match=r"syndrome entries must be 0 or 1, got \(2, 1\)"):
            tgrand.tg_solve_column(ht, (2, 1), prior, ChannelParams(p01=0.1, p10=0.5))

    def test_cap_exceeded(self):
        ht = from_rows([[1, 0], [0, 1]])
        prior = ColumnPrior.from_bits((0,) * 2)
        params = ChannelParams(p01=0.1, p10=0.5)
        assert tgrand.tg_solve_column(ht, [1, 1], prior, params, query_cap=3) is None

    @settings(max_examples=150)
    @given(
        st.integers(0, 4), st.integers(0, 5), st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1), prior_strategy(), coarse_prob, coarse_prob,
    )
    def test_map_first_against_oracle(self, checks, unknowns, hseed, eseed, prior, p01, p10):
        ht = random_bit_matrix(hseed, checks, unknowns)
        prior = ColumnPrior.from_bits(prior.prev[:unknowns] + (0,) * max(0, unknowns - prior.length))
        truth = random_bit_matrix(eseed, unknowns, 1).col_ints()[0] if unknowns else 0
        target = syndrome_of_mask(ht, truth)
        params = ChannelParams(p01=p01, p10=p10)
        got = tgrand.tg_solve_column(ht, tuple((target >> i) & 1 for i in range(checks)), prior, params)
        assert got == map_solution(ht, target, prior.prev, p01, p10)

    @settings(max_examples=100)
    @given(
        st.integers(0, 4), st.integers(0, 5), st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1), st.floats(0.05, 0.45), prior_strategy(),
    )
    def test_bsc_point_matches_syndrome_decoding_weight(
        self, checks, unknowns, hseed, eseed, p01, prior
    ):
        # p01 + p10 = 1 reduces the chain to a BSC; likelihood order then
        # coincides with weight order, so the two decoders agree in weight.
        ht = random_bit_matrix(hseed, checks, unknowns)
        prior = ColumnPrior.from_bits(prior.prev[:unknowns] + (0,) * max(0, unknowns - prior.length))
        truth = random_bit_matrix(eseed, unknowns, 1).col_ints()[0] if unknowns else 0
        target = syndrome_of_mask(ht, truth)
        s_bits = tuple((target >> i) & 1 for i in range(checks))
        params = ChannelParams(p01=p01, p10=1.0 - p01)
        tg_ans = tgrand.tg_solve_column(ht, s_bits, prior, params)
        s = from_rows([[bit] for bit in s_bits], cols=1)
        sd_res = sd.sd_repair(SyndromeSystem(ht=ht, s=s))
        assert tg_ans is not None and sd_res.unresolved == ()
        assert sum(tg_ans) == sum(sd_res.e_hat.row_ints)

    @settings(max_examples=50)
    @given(
        st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1), prior_strategy(), coarse_prob, coarse_prob,
        st.randoms(use_true_random=False),
    )
    def test_coordinate_permutation_equivariance(
        self, checks, unknowns, hseed, eseed, prior, p01, p10, rnd
    ):
        ht = random_bit_matrix(hseed, checks, unknowns)
        prior = ColumnPrior.from_bits(prior.prev[:unknowns] + (0,) * max(0, unknowns - prior.length))
        truth = random_bit_matrix(eseed, unknowns, 1).col_ints()[0]
        target = syndrome_of_mask(ht, truth)
        s_bits = tuple((target >> i) & 1 for i in range(checks))
        params = ChannelParams(p01=p01, p10=p10)
        base = tgrand.tg_solve_column(ht, s_bits, prior, params)
        perm = list(range(unknowns))
        rnd.shuffle(perm)
        ht_p = ht.transpose().take_rows(perm).transpose()
        prior_p = ColumnPrior.from_bits(tuple(prior.prev[perm[j]] for j in range(unknowns)))
        got = tgrand.tg_solve_column(ht_p, s_bits, prior_p, params)
        # Likelihood ordering ignores positions, so the permuted solve must
        # return an equally likely solution of the permuted system; the
        # vectors themselves may differ when equal-probability candidates
        # tie, because the tie order is positional by design.
        mapped = tuple(got[perm.index(j)] for j in range(unknowns))
        assert matvec_check(ht, mapped, s_bits)
        p_base = vector_probability(base, prior.prev, p01, p10)
        p_got = vector_probability(mapped, prior.prev, p01, p10)
        assert p_got == pytest.approx(p_base, rel=1e-9)
        ties = sum(
            1
            for mask in range(1 << unknowns)
            if syndrome_of_mask(ht, mask) == target
            and vector_probability(
                tuple((mask >> j) & 1 for j in range(unknowns)), prior.prev, p01, p10
            ) == pytest.approx(p_base, rel=1e-9)
        )
        if ties == 1:
            assert mapped == base


class TestRepair:
    def test_zero_syndrome_costs_one_query_per_column(self):
        ht = random_bit_matrix(8, 3, 4)
        system = SyndromeSystem(ht=ht, s=BitMatrix.zeros(3, 6))
        params = ChannelParams.from_eps_lambda(0.1, 2.0)
        res = tgrand.tg_repair(system, params)
        assert res.e_hat == BitMatrix.zeros(4, 6)
        assert res.queries_per_column == (1,) * 6
        assert res.unresolved == ()

    def test_single_packet_burst_recovery(self):
        # One corrupted packet; Ht is a single nonzero column, so each bit
        # position has a unique solution and the burst is recovered exactly.
        e_row = [0, 0, 0, 0, 0, 1, 1, 1, 0, 0]
        ht = from_rows([[1]])
        s = from_rows([e_row])
        params = ChannelParams.from_eps_lambda(0.1, 3.0)
        res = tgrand.tg_repair(SyndromeSystem(ht=ht, s=s), params)
        assert res.e_hat == from_rows([e_row])
        assert res.unresolved == ()

    def test_cap_resets_prior_to_zero(self):
        # Column 0 is unsatisfiable within the cap; column 1 must then be
        # solved against the all-zero prior, not the truth.
        ht = from_rows([[1, 0], [0, 1]])
        s = from_rows([[1, 0], [1, 0]])
        params = ChannelParams(p01=0.1, p10=0.5)
        res = tgrand.tg_repair(SyndromeSystem(ht=ht, s=s), params, query_cap=3)
        assert res.unresolved == (0,)
        assert res.queries_per_column[0] == 3
        assert res.e_hat.col_ints()[0] == 0
        assert res.e_hat.col_ints()[1] == 0
        assert res.queries_per_column[1] == 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 4), st.integers(0, 4), st.integers(1, 6),
        st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), coarse_prob, coarse_prob,
    )
    def test_chained_map_against_oracle(self, checks, unknowns, b, hseed, eseed, p01, p10):
        ht = random_bit_matrix(hseed, checks, unknowns)
        e = random_bit_matrix(eseed, unknowns, b)
        s = gf2.matmul(ht, e)
        params = ChannelParams(p01=p01, p10=p10)
        res = tgrand.tg_repair(SyndromeSystem(ht=ht, s=s), params)
        assert res.unresolved == ()
        prior_bits = (0,) * unknowns
        for col in range(b):
            target = s.col_ints()[col]
            expected = map_solution(ht, target, prior_bits, p01, p10)
            got = tuple(res.e_hat.row_bits(j)[col] for j in range(unknowns))
            assert got == expected
            prior_bits = got

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 6), st.integers(0, 8), st.integers(1, 6),
        st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), coarse_prob, coarse_prob,
        st.integers(-3, 3), st.integers(-1, 1),
    )
    def test_search_core_matches_enumeration_oracle(
        self, checks, unknowns, b, hseed, eseed, p01, p10, shift, offset
    ):
        # Caps land on both sides of 2^d, so both the prefix scan and the
        # coset ranking run.
        ht = random_bit_matrix(hseed, checks, unknowns)
        s = gf2.matmul(ht, random_bit_matrix(eseed, unknowns, b))
        d = unknowns - gf2.rank(ht)
        cap = max(1, (1 << max(0, d + shift)) + offset)
        params = ChannelParams(p01=p01, p10=p10)
        res = tgrand.tg_repair(SyndromeSystem(ht=ht, s=s), params, query_cap=cap)
        assert_repair_matches(res, tg_repair_by_enumeration(ht, s, params, cap))

    @settings(max_examples=150, deadline=None)
    @given(
        st.just(0) | st.integers(1, 5), st.integers(0, 7), st.integers(1, 6),
        st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
        st.one_of(
            st.tuples(st.just(0.0), coarse_prob),  # eps = 0
            st.tuples(st.just(0.0) | coarse_prob, st.just(1.0)),  # burst length 1
            st.tuples(st.floats(0.99, 1.0), coarse_prob | st.just(1.0)),  # p01 near 1
        ),
        st.integers(1, 200),
    )
    def test_boundary_channels_match_enumeration_oracle(
        self, checks, unknowns, b, hseed, eseed, channel, cap
    ):
        # checks = 0 is the N = K system: every vector is a solution, d = L.
        ht = random_bit_matrix(hseed, checks, unknowns)
        s = gf2.matmul(ht, random_bit_matrix(eseed, unknowns, b))
        params = ChannelParams(*channel)
        for query_cap in (cap, 1 << 20):
            res = tgrand.tg_repair(SyndromeSystem(ht=ht, s=s), params, query_cap=query_cap)
            assert_repair_matches(res, tg_repair_by_enumeration(ht, s, params, query_cap))

    def test_zero_probability_classes_keep_the_tie_order(self):
        # With p01 = 0 every class with a 0->1 flip has probability 0 and
        # all of them tie.  The coset {0011, 1100} has d = 1, so the hit at
        # position 6 (past 2^d) comes from the ranking step, whose class
        # offsets must follow the tie order of sorted_classes.
        ht = from_rows([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
        s = from_rows([[1], [1], [0]])
        params = ChannelParams(p01=0.0, p10=0.5)
        res = tgrand.tg_repair(SyndromeSystem(ht=ht, s=s), params, query_cap=1 << 20)
        assert_repair_matches(res, tg_repair_by_enumeration(ht, s, params, 1 << 20))
        assert res.queries_per_column == (6,)
        assert res.e_hat.col_ints() == (0b0011,)
