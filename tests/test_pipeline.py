import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlcgrand import channel, gf2, pipeline, rlc, syndrome_decoder as sd, tgrand
from rlcgrand.channel import ChannelParams
from rlcgrand.gf2 import BitMatrix
from rlcgrand.rng import random_bit_matrix
from rlcgrand.search import RepairResult, SyndromeSystem

from oracles import coset, from_rows, redecode_by_stacking, row_span, syndrome_of_mask


def _make_batch(g, u, e):
    x = rlc.encode(g, u)
    y = gf2.add(x, e)
    return pipeline.classify(y, x)


def _hand_instance():
    """K=3, N=6 generator whose rows 2, 4, 5 get corrupted.

    Clean rows {e0, e1, [1,1,0]} span only rank 2, so plain RLC fails;
    the corrupted rows' parity columns (0,1,1), (0,1,0), (0,0,1) are
    distinct, so single-bit errors at distinct positions all repair.
    """
    matrix = from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]]
    )
    g = rlc.Generator(k=3, n=6, matrix=matrix)
    u = random_bit_matrix(11, 3, 8)
    return g, u


class TestClassify:
    def test_no_errors(self):
        x = random_bit_matrix(1, 4, 6)
        batch = pipeline.classify(x, x)
        assert batch.r == (0, 1, 2, 3) and batch.rbar == ()

    def test_shapes_must_match(self):
        with pytest.raises(ValueError, match="same shape"):
            pipeline.classify(BitMatrix.zeros(2, 3), BitMatrix.zeros(2, 4))

    def test_single_corrupted_row(self):
        x = random_bit_matrix(2, 4, 6)
        e = from_rows([[0] * 6, [0] * 6, [0] * 6, [0, 0, 1, 0, 0, 0]])
        batch = pipeline.classify(gf2.add(x, e), x)
        assert batch.rbar == (3,)
        assert len(batch.r) == 3

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_partition_matches_zero_rows_of_e(self, xseed, eseed):
        x = random_bit_matrix(xseed, 5, 7)
        e = random_bit_matrix(eseed, 5, 7)
        batch = pipeline.classify(gf2.add(x, e), x)
        assert set(batch.r) | set(batch.rbar) == set(range(5))
        assert not set(batch.r) & set(batch.rbar)
        assert batch.r == tuple(i for i in range(5) if e.row_ints[i] == 0)


class TestAttemptRlc:
    def test_all_clean_succeeds(self):
        g = rlc.make_generator(3, 6, 4)
        u = random_bit_matrix(5, 3, 8)
        batch = _make_batch(g, u, BitMatrix.zeros(6, 8))
        out = pipeline.attempt_rlc(batch, g)
        assert out.success and out.u_hat == u
        assert out.rank_before == out.rank_after == 3
        assert out.nu == 0 and out.queries_total == 0

    def test_too_few_clean_rows_fails(self):
        g = rlc.make_generator(3, 4, 4)
        u = random_bit_matrix(5, 3, 8)
        e = BitMatrix(4, 8, (0, 1, 1, 1))
        out = pipeline.attempt_rlc(_make_batch(g, u, e), g)
        assert not out.success and out.u_hat is None
        assert out.rank_before == 1

    def test_systematic_prefix_clean_succeeds(self):
        g = rlc.make_generator(3, 6, 4)
        u = random_bit_matrix(5, 3, 8)
        e = BitMatrix(6, 8, (0, 0, 0, 7, 7, 7))
        out = pipeline.attempt_rlc(_make_batch(g, u, e), g)
        assert out.success and out.u_hat == u


def _repair(method, system, params):
    return sd.sd_repair(system) if method == "sd" else tgrand.tg_repair(system, params)


def _receive(batch, g, method, params):
    """One receiver run: the plain attempt, then one repair pass if needed."""
    base = pipeline.attempt_rlc(batch, g)
    if not pipeline.needs_repair(batch, g, base):
        return base
    system = pipeline.syndrome_system(batch, g)
    return pipeline.redecode(batch, g, base, _repair(method, system, params))


class TestRepairAndRedecode:
    PARAMS = ChannelParams.from_eps_lambda(0.1, 2.0)

    @pytest.mark.parametrize("method", ["sd", "tgrand"])
    def test_hand_instance_full_repair(self, method):
        g, u = _hand_instance()
        e = BitMatrix(6, 8, (0, 0, 1 << 1, 0, 1 << 3, 1 << 6))
        batch = _make_batch(g, u, e)
        assert gf2.rank(g.matrix.take_rows(batch.r)) == 2
        out = _receive(batch, g, method, self.PARAMS)
        assert out.success and out.u_hat == u
        assert out.nu == 3
        assert out.rank_before == 2 and out.rank_after == 3
        assert out.queries_total > 0
        # The re-decode extends a copy of the attempt's echelon, not the echelon.
        base = pipeline.attempt_rlc(batch, g)
        pivots = list(base.echelon.pivots)
        result = _repair(method, pipeline.syndrome_system(batch, g), self.PARAMS)
        assert pipeline.redecode(batch, g, base, result) == out
        assert base.echelon.rank == 2 and base.echelon.pivots == pivots

    @pytest.mark.parametrize("method", ["sd", "tgrand"])
    def test_hand_instance_ambiguous_errors_fail(self, method):
        # Rows 2 and 5 err at the same position; their combined syndrome
        # mimics row 4's column, so the repair flips the wrong packet and
        # nothing verifies.
        g, u = _hand_instance()
        e = BitMatrix(6, 8, (0, 0, 1 << 2, 0, 1 << 3, 1 << 2))
        batch = _make_batch(g, u, e)
        out = _receive(batch, g, method, self.PARAMS)
        assert not out.success
        assert out.nu == 0
        assert out.rank_after == 2

    def test_e_hat_of_the_wrong_shape_is_rejected(self):
        g, u = _hand_instance()
        e = BitMatrix(6, 8, (0, 0, 1 << 1, 0, 1 << 3, 1 << 6))
        batch = _make_batch(g, u, e)
        base = pipeline.attempt_rlc(batch, g)
        good = _repair("sd", pipeline.syndrome_system(batch, g), self.PARAMS)
        for e_hat in (good.e_hat.take_rows(range(2)), BitMatrix.zeros(3, 7)):
            short = RepairResult(e_hat, good.unresolved, good.queries_per_column)
            with pytest.raises(ValueError):
                pipeline.redecode(batch, g, base, short)
        again = pipeline.redecode(batch, g, base, good)
        with pytest.raises(ValueError, match="attempt_rlc"):
            pipeline.redecode(batch, g, again, good)

    def test_satisfiable_batch_returns_plain_success(self):
        g = rlc.make_generator(3, 6, 4)
        u = random_bit_matrix(5, 3, 8)
        batch = _make_batch(g, u, BitMatrix.zeros(6, 8))
        base = pipeline.attempt_rlc(batch, g)
        assert not pipeline.needs_repair(batch, g, base)
        assert base.success and base.nu == 0 and base.queries_total == 0

    def test_no_parity_skips_repair(self):
        g = rlc.make_generator(3, 3, 4)
        u = random_bit_matrix(5, 3, 8)
        e = BitMatrix(3, 8, (0, 0, 255))
        batch = _make_batch(g, u, e)
        base = pipeline.attempt_rlc(batch, g)
        assert not pipeline.needs_repair(batch, g, base)
        assert not base.success and base.nu == 0 and base.queries_total == 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4), st.integers(0, 4), st.integers(1, 10),
    st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
)
def test_receiver_invariants_on_random_batches(k, extra, b, gseed, useed, eseed):
    """Promotion soundness, success monotonicity, the syndrome identity,
    one syndrome system shared by both repairs in either order, and
    re-decodes from one shared plain attempt that equal the stacked
    re-decode and leave the attempt's echelon as it was."""
    g = rlc.make_generator(k, k + extra, gseed)
    u = random_bit_matrix(useed, k, b)
    x = rlc.encode(g, u)
    params = ChannelParams.from_eps_lambda(0.15, 2.0)
    y, e = channel.apply(params, x, eseed)
    batch = pipeline.classify(y, x)
    h = rlc.parity_check(g)

    plain = pipeline.attempt_rlc(batch, g)
    if plain.success:
        assert plain.u_hat == u

    syndrome = sd.compute_syndrome(h, y)
    assert syndrome == gf2.matmul(h.matrix.transpose(), e)
    ht_rbar = h.matrix.take_rows(batch.rbar).transpose()
    assert syndrome == gf2.matmul(ht_rbar, e.take_rows(batch.rbar))

    system = pipeline.syndrome_system(batch, g)
    assert system.cols == ht_rbar.col_ints() and system.s == syndrome

    fresh = {m: _repair(m, pipeline.syndrome_system(batch, g), params) for m in ("sd", "tgrand")}
    for order in (("sd", "tgrand"), ("tgrand", "sd")):
        shared = pipeline.syndrome_system(batch, g)
        for method in order:
            assert _repair(method, shared, params) == fresh[method]

    base = pipeline.attempt_rlc(batch, g)
    ech = base.echelon
    before = (ech.rank, ech.inconsistent, list(ech.pivots))
    for order in (("sd", "tgrand"), ("tgrand", "sd")):
        for method in order:
            out = pipeline.redecode(batch, g, base, fresh[method])
            assert out == redecode_by_stacking(batch, g, base, fresh[method])
    assert (ech.rank, ech.inconsistent, list(ech.pivots)) == before

    for method in ("sd", "tgrand"):
        out = _receive(batch, g, method, params)
        if plain.success:
            assert out.success  # repair never loses clean rows
        if out.success:
            assert out.u_hat == u  # genie verification bars false promotion
        assert out.rank_after >= out.rank_before
        assert 0 <= out.nu <= len(batch.rbar)
        assert _receive(batch, g, method, params) == out
        assert pipeline.needs_repair(batch, g, plain) or out == plain


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10), st.integers(0, 10), st.integers(1, 70),
    st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
    st.sampled_from(("none", "systematic", "parity", "all", "subset")), st.data(),
)
def test_direct_syndrome_system_equals_the_h_oracle(k, extra, b, gseed, yseed, kind, data):
    """`syndrome_system` reads S and H_R̄ᵀ from G = [I_K; P]; H built by
    `parity_check` and S = Hᵀ·Y from `compute_syndrome` are the reference,
    for any corrupted set, K up to 10, N − K up to 10 and B past 64."""
    n = k + extra
    g = rlc.make_generator(k, n, gseed)
    y = random_bit_matrix(yseed, n, b)
    pools = {"none": (), "systematic": range(k), "parity": range(k, n), "all": range(n)}
    if kind == "subset":
        picks = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rbar = tuple(i for i in range(n) if picks[i])
    else:
        rbar = tuple(pools[kind])
    r = tuple(i for i in range(n) if i not in rbar)
    batch = pipeline.ReceivedBatch(y=y, truth_x=y, r=r, rbar=rbar)

    h = rlc.parity_check(g)
    ht = h.matrix.take_rows(rbar).transpose()
    expected = SyndromeSystem(ht=ht, s=sd.compute_syndrome(h, y))
    system = pipeline.syndrome_system(batch, g)
    assert system.cols == ht.col_ints() and system.s == expected.s
    assert system.s.col_ints() == expected.s.col_ints()
    assert system.dim == k - gf2.rank(g.matrix.take_rows(r))

    # Every column target: a particular solution exactly when the target
    # lies in the column space of H_R̄ᵀ, and a coset of 2^d members.
    column_space = row_span(ht.transpose())
    for t in system.s.col_ints():
        x0 = system.particular(t)
        assert (x0 is None) == (t not in column_space)
        if x0 is not None:
            assert syndrome_of_mask(ht, x0) == t
            assert len(set(coset(x0, system.kernel))) == 2**system.dim


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.sampled_from([1, 63, 64, 65]), st.integers(0, 2**32 - 1),
       st.integers(0, 2**32 - 1), st.data())
def test_column_first_build_at_one_check(k, b, gseed, yseed, data):
    """At N = K + 1 (`deficit`) H_R̄ᵀ has one row, so about half of its
    columns are zero: each is its own leftover in the echelon, the kernel
    vector 1 << j.  The column-first build must agree with `SyndromeSystem`
    built from the H oracle on the coset dimension, the coset of every
    target, the targets and their runs."""
    n = k + 1
    g = rlc.make_generator(k, n, gseed)
    y = random_bit_matrix(yseed, n, b)
    picks = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="corrupted")
    rbar = tuple(i for i in range(n) if picks[i])
    r = tuple(i for i in range(n) if not picks[i])
    batch = pipeline.ReceivedBatch(y=y, truth_x=y, r=r, rbar=rbar)

    h = rlc.parity_check(g)
    expected = SyndromeSystem(ht=h.matrix.take_rows(rbar).transpose(), s=sd.compute_syndrome(h, y))
    system = pipeline.syndrome_system(batch, g)
    p = g.matrix.row_ints[k]
    assert system.cols == tuple(p >> i & 1 if i < k else 1 for i in rbar)
    assert system.dim == expected.dim == k - gf2.rank(g.matrix.take_rows(r))
    assert system.s.col_ints() == expected.s.col_ints()
    assert system.runs == expected.runs
    for t in (0, 1):
        x0, want = system.particular(t), expected.particular(t)
        assert (x0 is None) == (want is None)
        if x0 is not None:
            assert set(coset(x0, system.kernel)) == set(coset(want, expected.kernel))
