import gc
import weakref
from itertools import combinations, islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rlcgrand import channel, gf2, simcli, syndrome_decoder as sd
from rlcgrand.channel import ChannelParams
from rlcgrand.gf2 import BitMatrix
from rlcgrand.pipeline import attempt_rlc, classify, needs_repair, syndrome_system
from rlcgrand.rlc import encode, make_generator, parity_check
from rlcgrand.rng import random_bit_matrix
from rlcgrand.search import DEFAULT_QUERY_CAP, OrderedSearch, SyndromeSystem
from rlcgrand import tgrand

from oracles import (
    assert_repair_matches,
    coset,
    first_hit,
    from_rows,
    likelihood_order,
    sd_repair_by_enumeration,
    syndrome_of_mask,
    tg_repair_by_enumeration,
    weight_order,
)

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
        system = no_runs(ht)
        assert system.dim == len(batch.rbar) - gf2.rank(ht)
        assert system.dim == k - gf2.rank(gen.matrix.take_rows(batch.r))


class TestCoset:
    @settings(max_examples=100)
    @given(st.integers(0, 5), st.integers(0, 6), seed)
    def test_coset_is_the_solution_set(self, checks, unknowns, hseed):
        ht = random_bit_matrix(hseed, checks, unknowns)
        system = no_runs(ht)
        for target in range(1 << checks):
            solutions = {m for m in range(1 << unknowns) if syndrome_of_mask(ht, m) == target}
            x0 = system.particular(target)
            if x0 is None:
                assert not solutions
            else:
                members = coset(x0, system.kernel)
                assert len(members) == 1 << system.dim
                assert set(members) == solutions

    @settings(max_examples=100)
    @given(st.integers(0, 12), st.integers(0, 24), seed, st.data())
    def test_syndrome_is_the_xor_of_selected_columns(self, checks, unknowns, hseed, data):
        # The scan's syndrome of each candidate is the XOR of the columns
        # it selects: the mask it answers for the syndrome of a mask m has
        # that syndrome.  L runs across the byte boundaries 8/9 and 16/17;
        # the empty and the full mask are always checked.  The cap 2^L
        # leaves no answer capped.
        ht = random_bit_matrix(hseed, checks, unknowns)
        search = no_runs(ht).search(sd.weight_order(unknowns), 1 << unknowns)
        full = (1 << unknowns) - 1
        for m in [0, full, *data.draw(st.lists(st.integers(0, full), max_size=20))]:
            target = syndrome_of_mask(ht, m)
            mask, _ = search.find(target)
            assert mask is not None and syndrome_of_mask(ht, mask) == target

    def test_lex_rank_follows_combinations(self):
        positions = (1, 4, 5, 9, 12)
        side = sum(1 << p for p in positions)
        for k in range(len(positions) + 1):
            for i, combo in enumerate(combinations(positions, k)):
                assert tgrand.lex_rank(sum(1 << p for p in combo), side, k) == i


class CountingWeightOrder:
    """Weight order from the oracle, counting the work a search asks of it."""

    def __init__(self, length):
        self.stream = list(weight_order(length))
        self.drawn = 0
        self.ranked = 0

    def masks(self):
        for mask in self.stream:
            self.drawn += 1
            yield mask

    def first(self, masks):
        self.ranked += len(masks)
        return min((self.stream.index(m) + 1, m) for m in masks)


class Counting:
    """A decoder's real candidate order, counting the work a search asks of it."""

    def __init__(self, order):
        self.order = order
        self.drawn = 0
        self.ranked = 0

    def masks(self):
        for mask in self.order.masks():
            self.drawn += 1
            yield mask

    def first(self, masks):
        self.ranked += len(masks)
        return self.order.first(masks)


def no_runs(ht):
    """The syndrome system of ht with an empty s, which has no runs."""
    return SyndromeSystem(ht=ht, s=BitMatrix.zeros(ht.rows, 0))


def assert_within_bound(system, ht, order, stream, targets, query_cap):
    """Every answer equals the first hit of `stream`; at most min(2^d, cap)
    candidates are drawn in all and at most 2^d masks ranked per target."""
    search = OrderedSearch(system, order, query_cap)
    for target in targets:
        before = order.ranked
        assert search.find(target) == first_hit(stream, ht, target, query_cap)
        assert order.ranked - before <= 1 << system.dim
    assert order.drawn <= min(1 << system.dim, query_cap)


class TestWorkBound:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 8), seed, st.integers(1, 300))
    def test_scan_and_rank_stay_within_bound(self, checks, unknowns, hseed, cap):
        # Every target, reachable or not: the answer matches enumeration,
        # at most min(2^d, cap) candidates are drawn in all and at most
        # 2^d coset members are ranked per target.  One system serves
        # searches with different caps.
        ht = random_bit_matrix(hseed, checks, unknowns)
        system = no_runs(ht)
        for query_cap in (cap, 1 << 20):
            order = CountingWeightOrder(unknowns)
            search = OrderedSearch(system, order, query_cap)
            for target in range(1 << checks):
                before = order.ranked
                expected = first_hit(weight_order(unknowns), ht, target, query_cap)
                assert search.find(target) == expected
                assert order.ranked - before <= 1 << system.dim
            assert order.drawn <= min(1 << system.dim, query_cap)

    def test_real_orders_at_coset_dimension_14(self):
        # 16 unknowns, 2 independent checks: d = 14.  Every target, with a
        # cap that cuts the scan short and with the default cap.
        ht = random_bit_matrix(1, 2, 16)
        system = no_runs(ht)
        assert system.dim == 14
        params = ChannelParams(p01=0.1, p10=0.3)
        prior = 0b0000111100110000
        orders = [
            (lambda: sd.weight_order(16), list(weight_order(16))),
            (
                lambda: tgrand.likelihood_order(prior, 16, params.p01, params.p10),
                list(likelihood_order(prior, 16, params)),
            ),
        ]
        for query_cap in (5, 1 << 20):
            for make, stream in orders:
                assert_within_bound(system, ht, Counting(make()), stream, range(4), query_cap)

    def test_rank_step_at_coset_dimension_14(self):
        # 20 unknowns in 6 groups; every unknown of group g hits check g
        # alone, so d = 14.  The all-ones target needs one unknown from
        # every group, weight 6, which lies past position 2^14 of the
        # weight order: the scan misses and the rank step runs.  At the
        # all-zero prior with p01 < 1/2 the likelihood order is the weight
        # order, so both decoders' orders answer as the weight order.
        groups = (4, 4, 3, 3, 3, 3)
        cols = tuple(1 << g for g, size in enumerate(groups) for _ in range(size))
        ht = BitMatrix.trusted(20, 6, cols).transpose()
        system = no_runs(ht)
        assert system.dim == 14
        stream = list(islice(weight_order(20), 1 << 15))  # holds every first hit here
        params = ChannelParams(p01=0.1, p10=0.3)
        tg_order = tgrand.likelihood_order(0, 20, params.p01, params.p10)
        for order in (Counting(sd.weight_order(20)), Counting(tg_order)):
            assert_within_bound(system, ht, order, stream, (0, 0b011111, 0b111111), 1 << 20)
            assert order.drawn == 1 << 14
            assert order.ranked == 1 << 14


class TestSystemSearch:
    """A system makes one search per (order, cap), shared by every repair."""

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_rejected(self, cap):
        ht = random_bit_matrix(1, 2, 3)
        system = sd.SyndromeSystem(ht=ht, s=random_bit_matrix(2, 2, 4))
        params = ChannelParams(p01=0.1, p10=0.3)
        prior = tgrand.ColumnPrior.from_bits((0, 0, 0))
        with pytest.raises(ValueError, match="query cap must be at least 1"):
            sd.sd_repair(system, cap)
        with pytest.raises(ValueError, match="query cap must be at least 1"):
            tgrand.tg_repair(system, params, cap)
        with pytest.raises(ValueError, match="query cap must be at least 1"):
            tgrand.tg_solve_column(ht, (1, 0), prior, params, cap)
        with pytest.raises(ValueError, match="query cap must be at least 1"):
            OrderedSearch(system, tgrand.weight_order(3), cap)

    def test_syndrome_rows_must_match_the_checks(self):
        with pytest.raises(ValueError, match="syndrome row count must match"):
            sd.SyndromeSystem(ht=BitMatrix.zeros(2, 3), s=BitMatrix.zeros(3, 4))

    def test_one_search_lookup_per_prior(self, monkeypatch):
        # ht = I_3 has d = 0 against rank 3, so a search ranks the target's
        # one-member coset and no order draws a mask.  Each column's
        # estimate is its target, whatever the order: the estimates 1, 1,
        # 2, 2, 4, 3, 0, 5 take six values.  Both decoders look up a search
        # once per prior the walk meets (0 and every estimate); sd's six
        # lookups name its one order.  Each decoder ranks each of the six
        # distinct targets once; tgrand answers the second column of the
        # runs of 1 and of 2 with the prior itself, at query 1.
        targets = (1, 1, 2, 2, 4, 3, 0, 5)
        s = BitMatrix.trusted(len(targets), 3, targets).transpose()
        lookups, ranks, draws = [], [], []
        search, first = sd.SyndromeSystem.search, tgrand.LikelihoodOrder.first
        masks = tgrand.LikelihoodOrder.masks
        monkeypatch.setattr(
            sd.SyndromeSystem, "search", lambda sy, o, c: lookups.append(o) or search(sy, o, c)
        )
        monkeypatch.setattr(tgrand.LikelihoodOrder, "first", lambda o, m: ranks.append(m) or first(o, m))
        monkeypatch.setattr(tgrand.LikelihoodOrder, "masks", lambda o: draws.append(o) or masks(o))
        res = sd.sd_repair(sd.SyndromeSystem(ht=BitMatrix.identity(3), s=s))
        assert res.e_hat.col_ints() == targets
        assert len(lookups) == 6 and len(set(lookups)) == 1
        assert ranks == [[t] for t in (1, 2, 4, 3, 0, 5)] and draws == []
        lookups.clear(), ranks.clear()
        res = tgrand.tg_repair(
            sd.SyndromeSystem(ht=BitMatrix.identity(3), s=s), ChannelParams(p01=0.1, p10=0.3)
        )
        assert res.e_hat.col_ints() == targets
        assert res.queries_per_column[1] == res.queries_per_column[3] == 1
        assert len(lookups) == len(set(lookups)) == len({0, *targets}) == 6
        assert ranks == [[t] for t in (1, 2, 4, 3, 0, 5)] and draws == []

    @pytest.mark.parametrize("checks", [5, 2])
    @pytest.mark.parametrize("hseed", range(3))
    def test_caps_in_either_order_equal_fresh_systems(self, checks, hseed):
        # A small cap then the default cap on one system, and the reverse,
        # give what fresh systems give: each cap has its own search, so
        # neither cap's answers leak into the other's, and only the cosets
        # are shared.  5 checks over 8 unknowns rank the cosets, 2 checks
        # scan.
        ht, s = random_bit_matrix(hseed, checks, 8), random_bit_matrix(hseed + 50, checks, 40)
        params = ChannelParams(p01=0.1, p10=0.3)
        for run in (sd.sd_repair, lambda system, cap: tgrand.tg_repair(system, params, cap)):
            fresh = {cap: run(sd.SyndromeSystem(ht=ht, s=s), cap) for cap in (3, DEFAULT_QUERY_CAP)}
            assert len(fresh[3].unresolved) > len(fresh[DEFAULT_QUERY_CAP].unresolved)
            for caps in ((3, DEFAULT_QUERY_CAP), (DEFAULT_QUERY_CAP, 3)):
                system = sd.SyndromeSystem(ht=ht, s=s)
                assert [run(system, cap) for cap in caps] == [fresh[cap] for cap in caps]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 8), seed, st.integers(1, 300), st.integers(0, 255))
    def test_regime_routing(self, checks, unknowns, hseed, cap, prior):
        # Where d <= rank(ht), a search draws no mask and ranks each
        # target's 2^d coset members once; where d > rank(ht) it scans,
        # drawing at most min(2^d, cap) masks.  Every answer is the order's
        # first hit, and asking again ranks and draws nothing.
        ht = random_bit_matrix(hseed, checks, unknowns)
        system = no_runs(ht)
        prior &= (1 << unknowns) - 1
        for real in (sd.weight_order(unknowns), tgrand.likelihood_order(prior, unknowns, 0.1, 0.7)):
            stream, order = list(real.masks()), Counting(real)
            for query_cap in (cap, DEFAULT_QUERY_CAP):
                find, drawn = system.search(order, query_cap).find, order.drawn
                for target in range(1 << checks):
                    before = order.ranked
                    assert find(target) == first_hit(stream, ht, target, query_cap)
                    assert order.ranked - before <= 1 << system.dim
                if 2 * system.dim <= unknowns:
                    assert order.drawn == 0
                else:
                    assert order.drawn - drawn <= min(1 << system.dim, query_cap)
                work = order.drawn, order.ranked
                assert [find(t) for t in range(1 << checks)] == [
                    first_hit(stream, ht, t, query_cap) for t in range(1 << checks)
                ]
                assert (order.drawn, order.ranked) == work

    @pytest.mark.parametrize("hseed", range(4))
    @pytest.mark.parametrize("query_cap", [3, 1 << 20])
    @pytest.mark.parametrize("p01", [0.05, 0.5, 0.95])
    def test_run_order_does_not_matter(self, p01, query_cap, hseed):
        # 5 checks over 8 unknowns: some targets are out of reach, some are
        # hit by the scan and some lie past 2^d, so the rank step runs.  At
        # p01 = 0.95 the decoders' all-zero-prior orders differ and each
        # keeps its own search; below 1/2 they share one.
        ht = random_bit_matrix(hseed, 5, 8)
        s = random_bit_matrix(hseed + 100, 5, 24)
        params = ChannelParams(p01=p01, p10=0.3)
        runs = (
            lambda system: sd.sd_repair(system, query_cap),
            lambda system: tgrand.tg_repair(system, params, query_cap),
        )
        expected = [run(sd.SyndromeSystem(ht=ht, s=s)) for run in runs]
        for first, second in ((0, 1), (1, 0)):
            system = sd.SyndromeSystem(ht=ht, s=s)
            assert runs[first](system) == expected[first]
            assert runs[second](system) == expected[second]

    def test_repairs_leave_no_reference_cycle(self):
        # The system holds its searches and each search holds the system's
        # columns, kernel, `particular` and cosets, never the system, so
        # refcounting alone frees a used system.  Both regimes run: 5
        # checks over 8 unknowns rank the cosets, 2 checks scan.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for checks in (5, 2):
                ht, s = random_bit_matrix(1, checks, 8), random_bit_matrix(2, checks, 24)
                system = sd.SyndromeSystem(ht=ht, s=s)
                assert (2 * system.dim <= 8) == (checks == 5)
                sd.sd_repair(system)
                tgrand.tg_repair(system, ChannelParams(p01=0.1, p10=0.3))
                ref = weakref.ref(system)
                del system
                assert ref() is None
        finally:
            if was_enabled:
                gc.enable()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 5), st.integers(0, 7), st.integers(60, 70), seed, seed,
    st.integers(1, 15).map(lambda i: i / 16.0), st.integers(-3, 3), st.integers(-1, 1),
)
def test_row_form_estimate_past_one_word(checks, unknowns, b, hseed, eseed, p01, shift, offset):
    # e_hat is written row by row, one bit per column; B runs past 64 so
    # each row spans more than one machine word.  Caps land on both sides
    # of 2^d, so the scan, the rank step and the miss all write it.
    ht = random_bit_matrix(hseed, checks, unknowns)
    s = gf2.matmul(ht, random_bit_matrix(eseed, unknowns, b))
    d = unknowns - gf2.rank(ht)
    cap = max(1, (1 << max(0, d + shift)) + offset)
    params = ChannelParams(p01=p01, p10=0.3)
    system = sd.SyndromeSystem(ht=ht, s=s)
    for res, expected in (
        (sd.sd_repair(system, cap), sd_repair_by_enumeration(ht, s, cap)),
        (tgrand.tg_repair(system, params, cap), tg_repair_by_enumeration(ht, s, params, cap)),
    ):
        assert (res.e_hat.rows, res.e_hat.cols) == (unknowns, b)
        assert_repair_matches(res, expected)


def column_hits(res):
    """(estimate, queries) per column of a repair; the estimate is None
    for an unresolved column."""
    unresolved, rows = set(res.unresolved), res.e_hat.row_ints
    return [
        (None if b in unresolved else sum(1 << j for j, r in enumerate(rows) if r >> b & 1), q)
        for b, q in enumerate(res.queries_per_column)
    ]


def truncated(hit, cap, unknowns):
    """A default-cap first hit (mask, q) as the cap `cap` reports it."""
    mask, q = hit
    return hit if mask is not None and q <= cap else (None, min(1 << unknowns, cap))


class TestCapAtDriverSizes:
    """The cap truncates the default-cap search exactly, at the driver's
    sizes (K = 10, N 11-20, B = 64), where no enumeration oracle reaches.

    Under cap c a column whose default-cap first hit is (mask, q) reports
    (mask, q) when q <= c and (None, min(2^L, c)) otherwise.  For tgrand
    the default-cap search is the one in the order of the capped run's
    own prior, which is 0 after an unresolved column.
    """

    @settings(max_examples=100, deadline=None)
    @given(st.integers(11, 20), st.sampled_from([0.05, 0.1]), seed, st.data())
    def test_capped_repair_truncates_the_default_search(self, n, eps, master_seed, data):
        config = simcli.SimConfig(k=10, n_list=(n,), b=64, eps=eps, master_seed=master_seed)
        params = config.channel_params
        system = next(
            (
                syndrome_system(batch, gen)
                for gen, batch in simcli._trials(config, n, 0, 32)
                if needs_repair(batch, gen, attempt_rlc(batch, gen))
            ),
            None,
        )
        assume(system is not None)
        cols, checks = system.cols, system.s.rows
        unknowns = len(cols)
        # A trial's targets all lie in the column space of ht.  When ht's
        # rank is short of its rows, plant one target outside it, so the
        # out-of-reach miss is checked too.
        reach = system.particular
        outside = next((t for t in range(1 << checks) if reach(t) is None), None)
        if outside is not None:
            b = data.draw(st.integers(0, 63), label="planted column")
            rows = [r & ~(1 << b) | (outside >> i & 1) << b for i, r in enumerate(system.s.row_ints)]
            s = BitMatrix.trusted(checks, 64, tuple(rows))
            system = sd.SyndromeSystem.from_columns(cols, s)
        d = system.dim

        sd_default = column_hits(sd.sd_repair(system))
        tg_default = column_hits(tgrand.tg_repair(system, params))
        caps = {1, max(1, (1 << d) - 1), 1 << d, (1 << d) + 1, 1 << unknowns, (1 << unknowns) + 1}
        # A cap equal to a hit found by the rank step, past 2^d.
        past = sorted({q for m, q in sd_default + tg_default if m is not None and q > 1 << d})
        if past:
            caps.add(data.draw(st.sampled_from(past), label="cap at a rank-step hit"))

        for cap in sorted(caps):
            res = sd.sd_repair(system, cap)
            assert column_hits(res) == [truncated(h, cap, unknowns) for h in sd_default]
            assert res.queries_total <= sum(q for _, q in sd_default)

            tg_capped = column_hits(tgrand.tg_repair(system, params, cap))
            prior = 0
            for (mask, q), target in zip(tg_capped, system.s.col_ints()):
                order = tgrand.likelihood_order(prior, unknowns, params.p01, params.p10)
                hit = system.search(order, DEFAULT_QUERY_CAP).find(target)
                assert (mask, q) == truncated(hit, cap, unknowns)
                prior = mask or 0


@st.composite
def run_system(draw):
    """(ht, s) with S drawn as runs of equal columns: B in {1, 63, 64, 65,
    129}, run lengths up to B, so a run may cover columns 0 and B - 1 or
    the whole of S.  A run's target is ht·e for a drawn e, or any value,
    which may lie outside the column space of ht."""
    checks, unknowns = draw(st.integers(0, 5)), draw(st.integers(0, 7))
    ht = random_bit_matrix(draw(seed), checks, unknowns)
    b = draw(st.sampled_from([1, 63, 64, 65, 129]))
    targets = []
    while len(targets) < b:
        length = draw(st.integers(1, b - len(targets)))
        if draw(st.booleans()):
            target = syndrome_of_mask(ht, draw(st.integers(0, (1 << unknowns) - 1)))
        else:
            target = draw(st.integers(0, (1 << checks) - 1))
        targets += [target] * length
    s = BitMatrix.trusted(b, checks, tuple(targets)).transpose()
    return ht, s


class TestRunWalk:
    """`repair_columns` walks runs of equal targets; every column still
    reports what walking the order column by column reports."""

    @settings(max_examples=150, deadline=None)
    @given(
        run_system(), st.integers(1, 300) | st.sampled_from([1, 2, 3, 4, 1 << 20]),
        st.integers(1, 15).map(lambda i: i / 16.0), st.integers(1, 15).map(lambda i: i / 16.0),
    )
    def test_repairs_match_enumeration(self, system_rows, cap, p01, p10):
        # p10 >= 1/2 is drawn about half the time: an order whose first
        # class is not its prior, so tgrand may take more than two steps
        # in a run.
        ht, s = system_rows
        system = sd.SyndromeSystem(ht=ht, s=s)
        targets = system.s.col_ints()
        starts = [j for j in range(s.cols) if j == 0 or targets[j] != targets[j - 1]]
        ends = starts[1:] + [s.cols]
        assert system.runs == tuple(zip(starts, ends, (targets[j] for j in starts)))
        params = ChannelParams(p01=p01, p10=p10)
        assert_repair_matches(sd.sd_repair(system, cap), sd_repair_by_enumeration(ht, s, cap))
        assert_repair_matches(
            tgrand.tg_repair(system, params, cap), tg_repair_by_enumeration(ht, s, params, cap)
        )

    @pytest.mark.parametrize("row", [[1, 1], [1, 1, 0]])
    def test_prior_first_needs_the_prior_to_lead_its_order(self, row):
        # Target 1 is solved by mask 1, at query 2 of the weight order.  At
        # p10 = 0.9 the order of prior 1 flips its one bit first, so it
        # queries 0 first and the prior second: the run's later columns,
        # whose prior satisfies the target, report query 2, not 1.  One
        # check over 2 unknowns ranks the coset, over 3 it scans.
        ht = from_rows([row])
        params = ChannelParams(p01=0.1, p10=0.9)
        order = tgrand.likelihood_order(1, len(row), params.p01, params.p10)
        assert order.lead == 0 and order.first([1]) == (2, 1)
        s = BitMatrix.trusted(3, 1, (1, 1, 1)).transpose()
        res = tgrand.tg_repair(sd.SyndromeSystem(ht=ht, s=s), params)
        assert res.queries_per_column == (2, 2, 2) and res.e_hat.col_ints() == (1, 1, 1)
        assert_repair_matches(res, tg_repair_by_enumeration(ht, s, params, DEFAULT_QUERY_CAP))

    @pytest.mark.parametrize("b", [1, 63, 64, 65, 129])
    def test_a_capped_run_is_unresolved_in_every_column(self, b):
        # Three runs (one when B = 1): zeros, a target first hit at query
        # 3, zeros again.  Under cap 2 the middle run is unresolved in
        # every column, each charged min(2^L, cap) = 2; the zero runs
        # resolve at query 1.
        ht = from_rows([[1, 1, 0], [0, 1, 1]])  # columns 0b01, 0b11, 0b10
        lo, hi = b // 3, b - b // 3
        targets = [0] * lo + [0b01 ^ 0b10] * (hi - lo) + [0] * (b - hi)
        s = BitMatrix.trusted(b, 2, tuple(targets)).transpose()
        system = sd.SyndromeSystem(ht=ht, s=s)
        params = ChannelParams(p01=0.1, p10=0.3)
        for res in (sd.sd_repair(system, 2), tgrand.tg_repair(system, params, 2)):
            assert res.unresolved == tuple(range(lo, hi))
            assert res.queries_per_column == (1,) * lo + (2,) * (hi - lo) + (1,) * (b - hi)
            assert res.e_hat == BitMatrix.zeros(3, b)
        # With the default cap, the run resolves to column 1 (weight 1: ht
        # column 1 is 0b11) at query 3, in every column.
        res = sd.sd_repair(system)
        assert res.unresolved == ()
        assert res.queries_per_column == (1,) * lo + (3,) * (hi - lo) + (1,) * (b - hi)
        assert res.e_hat.row_ints == (0, (1 << hi) - (1 << lo), 0)
