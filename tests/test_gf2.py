import copy
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlcgrand import gf2, rlc
from rlcgrand.gf2 import BitMatrix, InconsistentSystemError
from rlcgrand.rlc import rlc_decode
from rlcgrand.rng import random_bit_matrix

from oracles import from_rows, matvec_check, rank_by_row_space


def bitmatrix(max_rows=6, max_cols=6, min_rows=0, min_cols=0):
    """Strategy for small random BitMatrix values."""

    def build(shape_and_bits):
        rows, cols, bits = shape_and_bits
        return BitMatrix(rows, cols, [b & ((1 << cols) - 1) for b in bits])

    return (
        st.tuples(st.integers(min_rows, max_rows), st.integers(min_cols, max_cols))
        .flatmap(
            lambda rc: st.tuples(
                st.just(rc[0]),
                st.just(rc[1]),
                st.lists(st.integers(0, (1 << rc[1]) - 1), min_size=rc[0], max_size=rc[0]),
            )
        )
        .map(build)
    )


class TestConstruction:
    def test_from_rows_round_trip(self):
        m = from_rows([[1, 0, 1], [0, 1, 1]])
        assert m.to_rows() == [[1, 0, 1], [0, 1, 1]]
        assert m.row_bits(0)[2] == 1 and m.row_bits(1)[0] == 0

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError, match="row value 4 does not fit in 2 columns"):
            BitMatrix(1, 2, [4])

    def test_malformed_input_is_rejected(self):
        with pytest.raises(ValueError, match="dimensions must be non-negative"):
            BitMatrix(-1, 2, [])
        with pytest.raises(ValueError, match="dimensions must be non-negative"):
            BitMatrix(0, -1, [])
        with pytest.raises(ValueError, match="expected 2 rows, got 1"):
            BitMatrix(2, 3, [1])
        with pytest.raises(ValueError, match="column mismatch in vstack"):
            BitMatrix.zeros(1, 2).vstack(BitMatrix.zeros(1, 3))
        # The factories once built matrices of negative shape, and
        # identity cached its one.
        with pytest.raises(ValueError, match="dimensions must be non-negative"):
            BitMatrix.zeros(-1, 3)
        with pytest.raises(ValueError, match="dimensions must be non-negative"):
            BitMatrix.zeros(2, -3)
        with pytest.raises(ValueError, match="dimensions must be non-negative"):
            BitMatrix.identity(-1)

    def test_empty_shapes_are_legal(self):
        assert BitMatrix.zeros(0, 3).rows == 0
        assert BitMatrix.zeros(3, 0).cols == 0
        assert BitMatrix.identity(0) == BitMatrix.zeros(0, 0)

    def test_transpose_involution(self):
        m = from_rows([[1, 1, 0], [0, 1, 1]])
        assert m.transpose().transpose() == m
        assert m.transpose().to_rows() == [[1, 0], [1, 1], [0, 1]]


class TestImmutable:
    """No attribute of a BitMatrix can be set or deleted, however it was built."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: BitMatrix(2, 2, [1, 2]),
            lambda: BitMatrix.trusted(2, 2, (1, 2)),
            lambda: BitMatrix.identity(2),
            lambda: BitMatrix.zeros(0, 0),
        ],
    )
    @pytest.mark.parametrize("name", ["rows", "cols", "row_ints", "other"])
    def test_assignment_and_deletion_raise(self, make, name):
        m = make()
        before = (m.rows, m.cols, m.row_ints)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(m, name, (2, 1))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(m, name)
        assert (m.rows, m.cols, m.row_ints) == before
        assert type(m) is BitMatrix

    def test_the_shared_identity_cannot_be_corrupted(self):
        # Generators are checked against the one cached I_K: were it
        # assignable, a bad top block would pass that check.
        with pytest.raises(AttributeError):
            BitMatrix.identity(2).row_ints = (2, 1)
        assert BitMatrix.identity(2).row_ints == (1, 2)
        assert rlc.make_generator(2, 3, 5).matrix.row_ints[:2] == (1, 2)
        with pytest.raises(ValueError, match="identity"):
            rlc.Generator(k=2, n=3, matrix=from_rows([[0, 1], [1, 0], [1, 1]]))

    def test_copies_and_pickles_equal_the_original(self):
        m = from_rows([[1, 0, 1], [0, 1, 1]])
        assert copy.copy(m) == m and copy.deepcopy(m) == m
        assert pickle.loads(pickle.dumps(m)) == m


class TestMatmul:
    def test_identity(self):
        m = from_rows([[1, 0], [1, 1], [0, 1]])
        assert gf2.matmul(BitMatrix.identity(3), m) == m

    def test_annihilator(self):
        m = from_rows([[1, 0], [1, 1]])
        assert gf2.matmul(m, BitMatrix.zeros(2, 3)) == BitMatrix.zeros(2, 3)

    def test_hand_multiplication(self):
        a = from_rows([[1, 0], [0, 1], [1, 1]])
        b = from_rows([[1, 0], [0, 1]])
        assert gf2.matmul(a, b) == a

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf2.matmul(BitMatrix.zeros(2, 3), BitMatrix.zeros(2, 3))

    @settings(max_examples=50)
    @given(bitmatrix(4, 4), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_associativity(self, a, b_bits, c_bits):
        b = BitMatrix(a.cols, 4, [(b_bits >> (4 * i)) & 15 for i in range(a.cols)])
        c = BitMatrix(4, 4, [(c_bits >> (4 * i)) & 15 for i in range(4)])
        assert gf2.matmul(gf2.matmul(a, b), c) == gf2.matmul(a, gf2.matmul(b, c))


class TestAdd:
    def test_self_inverse(self):
        m = from_rows([[1, 0], [1, 1]])
        assert gf2.add(m, m) == BitMatrix.zeros(2, 2)

    def test_identity_and_bitwise(self):
        m = from_rows([[1, 0]])
        assert gf2.add(m, BitMatrix.zeros(1, 2)) == m
        assert gf2.add(m, from_rows([[1, 1]])) == from_rows([[0, 1]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf2.add(BitMatrix.zeros(1, 2), BitMatrix.zeros(2, 1))


class TestRank:
    def test_identity_and_zero(self):
        assert gf2.rank(BitMatrix.identity(5)) == 5
        assert gf2.rank(BitMatrix.zeros(4, 4)) == 0
        assert gf2.rank(BitMatrix.zeros(0, 3)) == 0

    def test_dependent_rows(self):
        assert gf2.rank(from_rows([[1, 1], [1, 1]])) == 1

    @settings(max_examples=200)
    @given(bitmatrix(6, 6))
    def test_matches_row_space_oracle(self, m):
        assert gf2.rank(m) == rank_by_row_space(m)

    @settings(max_examples=100)
    @given(bitmatrix(5, 5, min_rows=1, min_cols=1), st.randoms(use_true_random=False))
    def test_invariant_under_permutations(self, m, rnd):
        rows = list(range(m.rows))
        cols = list(range(m.cols))
        rnd.shuffle(rows)
        rnd.shuffle(cols)
        permuted = BitMatrix(
            m.rows,
            m.cols,
            [sum(m.row_bits(i)[cols[j]] << j for j in range(m.cols)) for i in rows],
        )
        assert gf2.rank(permuted) == gf2.rank(m)


class TestSolveUnique:
    """The unique solve of a full-column-rank system by ``rlc_decode``."""

    def test_identity_system(self):
        b = from_rows([[1, 0], [0, 1], [1, 1]])
        assert rlc_decode(BitMatrix.identity(3), b) == b

    def test_forward_substitution_example(self):
        a = from_rows([[1, 0], [0, 1], [1, 1]])
        assert rlc_decode(a, a) == BitMatrix.identity(2)

    def test_rank_deficient(self):
        a = from_rows([[1, 1], [1, 1]])
        assert rlc_decode(a, BitMatrix.zeros(2, 1)) is None

    def test_inconsistent_redundant_rows(self):
        a = from_rows([[1, 0], [0, 1], [1, 1]])
        bad = from_rows([[1], [1], [1]])  # third row should be 1^1 = 0
        with pytest.raises(InconsistentSystemError):
            rlc_decode(a, bad)

    @settings(max_examples=100)
    @given(bitmatrix(6, 3, min_rows=3, min_cols=1), bitmatrix(3, 4, min_rows=3, min_cols=1))
    def test_round_trip(self, a, x):
        x = BitMatrix(a.cols, x.cols, x.row_ints[: a.cols] + (0,) * max(0, a.cols - x.rows))
        got = rlc_decode(a, gf2.matmul(a, x))
        assert got == (None if gf2.rank(a) < a.cols else x)


class TestRlcDecode:
    """``rlc_decode`` ranks and solves in one elimination: it solves
    exactly when the rank is full, raise for raise."""

    def test_right_side_row_count_must_match(self):
        with pytest.raises(ValueError, match="right-hand side row count does not match"):
            rlc_decode(BitMatrix.identity(2), BitMatrix.zeros(3, 1))

    @settings(max_examples=300)
    @given(
        a=bitmatrix(8, 5, min_cols=1),
        x_bits=st.lists(st.integers(0, 7), min_size=5, max_size=5),
        flips=st.lists(st.integers(0, 7), max_size=8),
    )
    # Full rank, deficient, overdetermined, inconsistent, underdetermined.
    @example(a=BitMatrix.identity(3), x_bits=[1, 2, 3, 0, 0], flips=[])
    @example(a=from_rows([[1, 1], [1, 1], [0, 0]]), x_bits=[1, 0, 0, 0, 0], flips=[])
    @example(a=from_rows([[1, 0], [0, 1], [1, 1]]), x_bits=[1, 2, 0, 0, 0], flips=[])
    @example(a=from_rows([[1, 0], [0, 1], [1, 1]]), x_bits=[1, 2, 0, 0, 0], flips=[0, 0, 4])
    @example(a=from_rows([[1, 0, 1], [0, 1, 1]]), x_bits=[1, 2, 3, 0, 0], flips=[1])
    def test_one_pass_equals_rank_and_solve_unique(self, a, x_bits, flips):
        # b = a·x with some bits flipped, so redundant rows may contradict.
        x = BitMatrix(a.cols, 3, x_bits[: a.cols])
        clean = gf2.matmul(a, x)
        b = BitMatrix(a.rows, 3, [r ^ f for r, f in zip(clean.row_ints, flips + [0] * a.rows)])
        rank = rank_by_row_space(a)
        solvable = rank_by_row_space(BitMatrix(a.rows, a.cols + 3, [
            ra | rb << a.cols for ra, rb in zip(a.row_ints, b.row_ints)
        ])) == rank
        if rank == a.cols and not solvable:
            with pytest.raises(InconsistentSystemError):
                rlc_decode(a, b)
            return
        got_x = rlc_decode(a, b)
        assert rank == gf2.rank(a)
        if rank < a.cols:
            assert got_x is None
        else:
            assert gf2.matmul(a, got_x) == b


def _echelon(a: BitMatrix, b: BitMatrix, order) -> gf2.Echelon:
    ech = gf2.Echelon(a.cols, b.cols)
    for i in order:
        ech.add(a.row_ints[i], b.row_ints[i])
    return ech


def _state(ech: gf2.Echelon):
    return ech.cols, ech.rhs_cols, ech.rank, ech.inconsistent, list(ech.pivots)


def _expect_same_as_rlc_decode(ech: gf2.Echelon, a: BitMatrix, b: BitMatrix):
    """The echelon of a's rows, in any order, agrees with the row-space
    oracle and with ``rlc_decode`` on the stacked rows, raise for raise."""
    assert ech.rank == rank_by_row_space(a)
    try:
        expected = rlc_decode(a, b)
    except InconsistentSystemError:
        with pytest.raises(InconsistentSystemError):
            ech.solve()
        return
    assert ech.solve() == expected


class TestEchelon:
    @settings(max_examples=300)
    @given(
        a=bitmatrix(8, 5, min_cols=0),
        x_bits=st.lists(st.integers(0, 7), min_size=5, max_size=5),
        flips=st.lists(st.integers(0, 7), max_size=8),
        data=st.data(),
    )
    def test_matches_oracles_in_any_row_order(self, a, x_bits, flips, data):
        x = BitMatrix(a.cols, 3, x_bits[: a.cols])
        clean = gf2.matmul(a, x)
        b = BitMatrix(a.rows, 3, [r ^ f for r, f in zip(clean.row_ints, flips + [0] * a.rows)])
        order = data.draw(st.permutations(range(a.rows)))
        ech = _echelon(a, b, order)
        _expect_same_as_rlc_decode(ech, a, b)
        solvable = rank_by_row_space(BitMatrix(a.rows, a.cols + 3, [
            ra | rb << a.cols for ra, rb in zip(a.row_ints, b.row_ints)
        ])) == ech.rank
        assert ech.inconsistent == (not solvable)
        if ech.rank == a.cols and solvable:
            assert gf2.matmul(a, ech.solve()) == b

        # A copy takes further rows; its source keeps its own.
        split = data.draw(st.integers(0, a.rows))
        head = order[:split]
        source = _echelon(a, b, head)
        before = _state(source)
        copied = source.copy()
        for i in order[split:]:
            copied.add(a.row_ints[i], b.row_ints[i])
        assert _state(source) == before
        assert _state(copied) == _state(ech)
        _expect_same_as_rlc_decode(source, a.take_rows(head), b.take_rows(head))

    @pytest.mark.parametrize(
        "k, n, rows",
        [
            (4, 8, range(8)),  # all rows clean
            (4, 12, range(4, 12)),  # no systematic row clean
            (5, 5, range(5)),  # N == K
            (3, 5, (4, 1, 3, 2)),  # parity rows before systematic ones
            (4, 8, (0, 5, 6)),  # fewer rows than columns
            (4, 8, ()),  # no rows at all
        ],
    )
    def test_receiver_shaped_systems(self, k, n, rows):
        gen = rlc.make_generator(k, n, 17)
        u = random_bit_matrix(3, k, 6)
        a = gen.matrix.take_rows(rows)
        b = rlc.encode(gen, u).take_rows(rows)
        ech = _echelon(a, b, range(a.rows))
        _expect_same_as_rlc_decode(ech, a, b)
        assert ech.solve() == (u if ech.rank == k else None)

    def test_systematic_rows_enter_as_unit_pivots(self):
        ech = gf2.Echelon(4, 2)
        for i in range(4):
            ech.add(1 << i, 3)
        assert ech.pivots == [1 | 3 << 4, 2 | 3 << 4, 4 | 3 << 4, 8 | 3 << 4]

    def test_contradiction_below_full_rank_raises_once_lifted(self):
        # Rows 0-2 have rank 2 and row 2 contradicts rows 0 and 1; row 3
        # then lifts the system to full rank.
        a = from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]])
        b = from_rows([[1], [0], [0], [1]])
        ech = _echelon(a, b, range(3))
        assert ech.rank == 2 and ech.inconsistent
        assert ech.solve() is None
        assert rlc_decode(a.take_rows(range(3)), b.take_rows(range(3))) is None
        lifted = ech.copy()
        lifted.add(a.row_ints[3], b.row_ints[3])
        assert lifted.rank == 3
        with pytest.raises(InconsistentSystemError):
            lifted.solve()
        with pytest.raises(InconsistentSystemError):
            rlc_decode(a, b)
        assert ech.solve() is None


class TestEchelonAddAndReduce:
    @settings(max_examples=300)
    @given(a=bitmatrix(7, 5), unit=st.booleans(), data=st.data())
    def test_match_the_span_oracle(self, a, unit, data):
        # Right sides are either arbitrary or one index bit per row, as the
        # repair search uses them; with index bits no leftover is zero.
        if unit:
            ys = [1 << i for i in range(a.rows)]
        else:
            ys = data.draw(st.lists(st.integers(0, 127), min_size=a.rows, max_size=a.rows))
        ech = gf2.Echelon(a.cols, 7)
        # (g, right side) of every XOR of a subset of the rows added so far.
        combos = {(0, 0)}
        for i, (g, y) in enumerate(zip(a.row_ints, ys)):
            rank = ech.rank
            left = ech.add(g, y)
            grew = ech.rank == rank + 1
            if grew or unit:
                assert (left == 0) == grew
            if not grew:
                assert left & ((1 << a.cols) - 1) == 0
                assert (g, (left >> a.cols) ^ y) in combos
            combos |= {(cg ^ g, cy ^ y) for cg, cy in combos}
            added = a.take_rows(range(i + 1))
            assert ech.rank == rank_by_row_space(added)
            for target in range(1 << a.cols):
                before = _state(ech)
                got = ech.reduce(target)
                assert _state(ech) == before
                in_span = rank_by_row_space(added.vstack(BitMatrix(1, a.cols, [target]))) == ech.rank
                assert (got is None) == (not in_span)
                if got is not None:
                    assert (target, got) in combos


class TestMatvecCheck:
    def test_zero_vector_zero_target(self):
        a = from_rows([[1, 1], [0, 1]])
        assert matvec_check(a, [0, 0], [0, 0])

    def test_hand_evaluation(self):
        a = from_rows([[1, 0], [1, 1]])
        assert matvec_check(a, [1, 0], [1, 1])
        assert not matvec_check(a, [0, 1], [1, 1])

    def test_vacuous_with_no_rows(self):
        assert matvec_check(BitMatrix.zeros(0, 3), [1, 0, 1], [])

    def test_dimension_errors(self):
        a = from_rows([[1, 0]])
        with pytest.raises(ValueError):
            matvec_check(a, [1], [0])
        with pytest.raises(ValueError):
            matvec_check(a, [1, 0], [0, 0])
