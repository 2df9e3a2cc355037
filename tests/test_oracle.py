import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyrows.instances import GeneratorConfig, generate
from noisyrows.oracle import QueryOracle


def fresh_oracle(n1=4, n2=5, seed=0):
    values = np.arange(n1 * n2, dtype=float).reshape(n1, n2) + 1.0
    return QueryOracle(values, rng_seed=seed)


def read_block(oracle: QueryOracle, rows, cols) -> np.ndarray:
    """N[rows x cols] in the order given, read as one `query_cells` call over
    the block's pairs, as the reference probe loop reads its bordered blocks."""
    r, c = np.asarray(rows), np.asarray(cols)
    if r.ndim != 1 or c.ndim != 1:
        raise IndexError("block rows and columns must each form a 1-D sequence")
    return oracle.query_cells(np.repeat(r, c.size), np.tile(c, r.size)).reshape(r.size, c.size)


class TestConstruction:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_raises(self, bad):
        values = np.ones((3, 4))
        values[1, 2] = bad
        with pytest.raises(ValueError):
            QueryOracle(values)

    def test_complex_matrix_raises(self):
        # Rank 3 real and imaginary parts: a float cast would drop the
        # imaginary part and complete the real part alone.
        rng = np.random.default_rng(0)
        real = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 30))
        imag = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 30))
        with pytest.raises(ValueError, match="dtype complex128"):
            QueryOracle(real + 1j * imag)

    def test_entry_beyond_float_raises(self):
        with pytest.raises(ValueError, match=r"entry \(1, 0\) is too large"):
            QueryOracle([[1, 2], [10**400, 3]])

    def test_numbers_as_text_raise(self):
        with pytest.raises(ValueError, match="dtype <U"):
            QueryOracle([["1.5", "2"], ["3", " 4e0 "]])

    def test_integer_no_float_holds_raises(self):
        # 2**53 + 1 would be read back as 2**53.
        with pytest.raises(ValueError, match=r"entry \(1, 1\) is an integer no float holds"):
            QueryOracle([[1, 2], [3, 2**53 + 1]])


class TestEntryQueries:
    def test_first_query_counts(self):
        o = fresh_oracle()
        o.query_entry(0, 0)
        assert o.unique_query_count == 1

    def test_repeat_is_free_and_stable(self):
        o = fresh_oracle()
        v1 = o.query_entry(1, 2)
        v2 = o.query_entry(1, 2)
        assert v1 == v2
        assert o.unique_query_count == 1

    def test_noisy_entry_is_sum(self):
        inst = generate(GeneratorConfig(n1=6, n2=5, rank_r=1, num_noisy=1, seed=7))
        o = QueryOracle(inst)
        i = inst.noisy_rows[0]
        assert o.query_entry(i, 3) == pytest.approx(inst.m[i, 3] + inst.noise_rows[0, 3])

    def test_out_of_range(self):
        o = fresh_oracle()
        with pytest.raises(IndexError):
            o.query_entry(4, 0)
        with pytest.raises(IndexError):
            o.query_entry(0, 5)

    @pytest.mark.parametrize("bad", [True, np.True_, 1.0])
    def test_non_integer_index_reveals_nothing(self, bad):
        # numpy would read a bool as a mask over a whole row or the matrix.
        o = fresh_oracle()
        for query in (
            lambda: o.query_entry(bad, 1),
            lambda: o.query_entry(1, bad),
            lambda: o.query_row(bad),
            lambda: o.query_column(bad),
        ):
            with pytest.raises(IndexError):
                query()
        assert o.unique_query_count == 0
        assert not o.observed_mask.any()


class TestRowColumnQueries:
    def test_fresh_column_counts_full_height(self):
        o = fresh_oracle(n1=4)
        o.query_column(2)
        assert o.unique_query_count == 4

    def test_column_after_entry_deduplicates(self):
        o = fresh_oracle(n1=4)
        o.query_entry(1, 2)
        o.query_column(2)
        assert o.unique_query_count == 4

    def test_row_column_inclusion_exclusion(self):
        o = fresh_oracle(n1=4, n2=5)
        o.query_row(1)
        o.query_column(2)
        assert o.unique_query_count == 4 + 5 - 1

    def test_values_match_source(self):
        values = np.arange(12, dtype=float).reshape(3, 4)
        o = QueryOracle(values)
        np.testing.assert_array_equal(o.query_row(1), values[1])
        np.testing.assert_array_equal(o.query_column(2), values[:, 2])


class TestBlockQueries:
    """Blocks read through `read_block`: one `query_cells` call per block."""

    def test_values_in_given_order(self):
        values = np.arange(20, dtype=float).reshape(4, 5)
        o = QueryOracle(values)
        rows, cols = [3, 0, 2], [4, 1]
        np.testing.assert_array_equal(read_block(o, rows, cols), values[np.ix_(rows, cols)])

    def test_repeats_count_once(self):
        o = fresh_oracle()
        block = read_block(o, [1, 1, 2], [0, 3, 0])
        assert block.shape == (3, 3)
        assert o.unique_query_count == 4
        assert o.observed_mask.sum() == 4
        assert o.observed_mask[np.ix_([1, 2], [0, 3])].all()

    def test_overlap_with_entry_counts_new_cells_only(self):
        o = fresh_oracle()
        o.query_entry(0, 0)
        read_block(o, [0, 1], [0, 1])
        assert o.unique_query_count == 4

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([-1], [0]),
            ([0], [-1]),
            ([4], [0]),
            ([0], [5]),
            ([1.5], [0]),
            ([0], [2.0]),
            ([True], [0]),
            ([[0, 1]], [0]),
            (0, [0]),
        ],
    )
    def test_bad_indices_raise(self, rows, cols):
        o = fresh_oracle()
        with pytest.raises(IndexError):
            read_block(o, rows, cols)
        assert o.unique_query_count == 0
        assert o.log.entries == []

    @pytest.mark.parametrize("rows, cols", [([], [0, 1]), ([2], []), ([], [])])
    def test_empty_reveals_nothing(self, rows, cols):
        o = fresh_oracle()
        block = read_block(o, rows, cols)
        assert block.shape == (len(rows), len(cols))
        assert o.unique_query_count == 0
        assert not o.observed_mask.any()

    def test_accepts_ranges_and_arrays(self):
        values = np.arange(20, dtype=float).reshape(4, 5)
        o = QueryOracle(values)
        block = read_block(o, range(4), np.array([2, 4]))
        np.testing.assert_array_equal(block, values[:, [2, 4]])


class TestCellQueries:
    def test_values_in_given_order(self):
        values = np.arange(20, dtype=float).reshape(4, 5)
        o = QueryOracle(values)
        rows, cols = [3, 0, 2, 3], [4, 1, 1, 0]
        np.testing.assert_array_equal(o.query_cells(rows, cols), values[rows, cols])

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16])
    def test_narrow_indices_on_a_fortran_order_matrix(self, dtype):
        # Cell (127, 127) lies at flat index 127 * 300 + 127, past the range
        # of each dtype, and the matrix is not laid out in C order.
        values = np.asfortranarray(np.arange(128 * 300, dtype=float).reshape(128, 300))
        o = QueryOracle(values)
        rows, cols = [127, 5, 127], [127, 3, 127]
        np.testing.assert_array_equal(
            o.query_cells(np.array(rows, dtype), np.array(cols, dtype)), values[rows, cols])
        np.testing.assert_array_equal(o.query_row(dtype(127)), values[127, :])
        np.testing.assert_array_equal(o.query_column(dtype(127)), values[:, 127])
        expected = np.zeros(values.shape, dtype=bool)
        expected[127, :] = expected[:, 127] = expected[5, 3] = True
        np.testing.assert_array_equal(o.observed_mask, expected)
        assert o.unique_query_count == expected.sum()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=30))
    def test_count_and_mask_equal_entry_reads(self, cells):
        a, b = fresh_oracle(), fresh_oracle()
        a.query_row(1)
        b.query_row(1)
        for i, j in cells:
            a.query_entry(i, j)
        rows, cols = [i for i, _ in cells], [j for _, j in cells]
        b.query_cells(rows, cols)
        assert b.unique_query_count == a.unique_query_count
        assert type(b.unique_query_count) is int
        np.testing.assert_array_equal(b.observed_mask, a.observed_mask)

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([-1], [0]),
            ([0], [-1]),
            ([4], [0]),
            ([0], [5]),
            ([1.5], [0]),
            ([0], [2.0]),
            ([True], [0]),
            ([0], [np.True_]),
            ([[0, 1]], [[0, 1]]),
            (0, 0),
            ([0, 1], [0]),
        ],
    )
    def test_bad_indices_reveal_nothing(self, rows, cols):
        o = fresh_oracle()
        with pytest.raises(IndexError):
            o.query_cells(rows, cols)
        assert o.unique_query_count == 0
        assert not o.observed_mask.any()
        assert o.log.entries == []

    def test_one_cells_event(self):
        o = fresh_oracle()
        o.query_cells([0, 1, 0], [1, 2, 1])
        o.query_cells([], [])
        assert o.log.entries == [("cells", None, None, 2), ("cells", None, None, 2)]

    def test_accepts_ranges_and_arrays(self):
        values = np.arange(20, dtype=float).reshape(4, 5)
        o = QueryOracle(values)
        cells = o.query_cells(range(4), np.array([2, 4, 0, 2]))
        np.testing.assert_array_equal(cells, values[[0, 1, 2, 3], [2, 4, 0, 2]])


class TestRandomRowDraws:
    def test_equal_seeds_replay(self):
        a, b = fresh_oracle(seed=42), fresh_oracle(seed=42)
        assert [a.draw_random_row() for _ in range(50)] == [
            b.draw_random_row() for _ in range(50)
        ]

    @pytest.mark.parametrize("n1", [7, 36, 100, 400, 2000])
    @pytest.mark.parametrize("seed", [0, 11, 2**40 + 3])
    def test_batched_draws_equal_successive_draws(self, n1, seed):
        one, batched = QueryOracle(np.zeros((n1, 1)), seed), QueryOracle(np.zeros((n1, 1)), seed)
        expected = [one.draw_random_row() for _ in range(1000)]
        got = []
        for size in [0, 1, 3, 400, 17, 0, 579]:
            got += batched.draw_random_rows(size).tolist()
        assert got == expected

    def test_uniformity(self):
        o = QueryOracle(np.zeros((10, 3)), rng_seed=5)
        draws = np.array([o.draw_random_row() for _ in range(100_000)])
        freq = np.bincount(draws, minlength=10) / draws.size
        assert np.all(np.abs(freq - 0.1) <= 0.01)

    def test_range(self):
        o = fresh_oracle(n1=4)
        assert all(0 <= o.draw_random_row() < 4 for _ in range(200))


class TestCounting:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 4)), min_size=1, max_size=30
        ),
        st.randoms(use_true_random=False),
    )
    def test_order_invariance(self, queries, rnd):
        shuffled = list(queries)
        rnd.shuffle(shuffled)
        a, b = fresh_oracle(), fresh_oracle()
        for i, j in queries:
            a.query_entry(i, j)
        for i, j in shuffled:
            b.query_entry(i, j)
        assert a.unique_query_count == b.unique_query_count

    def test_count_matches_mask(self):
        o = fresh_oracle()
        o.query_row(0)
        o.query_entry(2, 2)
        o.query_column(1)
        assert o.unique_query_count == o.observed_mask.sum()

    def test_count_is_python_int(self):
        # The count is written to JSON, which rejects numpy integer scalars.
        o = fresh_oracle(n1=3, n2=3)
        assert type(o.unique_query_count) is int
        o.query_entry(0, 0)
        assert type(o.unique_query_count) is int
        o.query_row(0)
        assert type(o.unique_query_count) is int
        o.query_column(1)
        assert type(o.unique_query_count) is int
        for j in range(3):
            o.query_column(j)
        before = o.unique_query_count
        o.query_row(2)  # every cell of row 2 is already revealed
        o.query_column(0)
        assert o.unique_query_count == before
        assert type(o.unique_query_count) is int
        assert all(type(count) is int for *_, count in o.log.entries)

    def test_mixed_queries_count_matches_mask(self):
        o = fresh_oracle()
        o.query_entry(3, 4)
        o.query_cells([0, 0, 3, 3], [4, 0, 4, 0])
        o.query_row(1)
        o.query_column(2)
        o.query_cells([1, 1, 2, 2], [2, 3, 2, 3])
        assert o.unique_query_count == o.observed_mask.sum() == 13
        assert type(o.unique_query_count) is int
        assert all(type(count) is int for *_, count in o.log.entries)

    def test_count_never_exceeds_size(self):
        o = fresh_oracle(n1=3, n2=3)
        for i in range(3):
            o.query_row(i)
        for j in range(3):
            o.query_column(j)
        assert o.unique_query_count == 9


class TestQueryLog:
    def test_running_counts_nondecreasing(self):
        o = fresh_oracle()
        rng = np.random.default_rng(1)
        for _ in range(40):
            o.query_entry(int(rng.integers(4)), int(rng.integers(5)))
        counts = [c for *_, c in o.log.entries]
        assert counts == sorted(counts)

    def test_block_is_one_event(self):
        o = fresh_oracle()
        o.query_entry(0, 1)
        read_block(o, [0, 1], [1, 2, 3])
        read_block(o, [0], [1])
        assert [kind for kind, *_ in o.log.entries] == ["cells", "cells", "cells"]
        assert [count for *_, count in o.log.entries] == [1, 6, 6]
