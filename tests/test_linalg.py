import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noisyrows.linalg import (
    CapacityError,
    DegenerateSystemError,
    RankTolerance,
    SubspaceBasis,
    column_space_basis,
    ei_in_colspace,
    has_unit_coordinate_vector,
    is_invertible,
    nonsparsity_number,
    numerical_rank,
    row_space_basis,
    solve_least_squares,
    sparsity_number,
)

# Nonzero magnitudes start at twice the smallest normal float, so scaling by
# any factor of at least 0.5 (as test_scaling_invariance does) cannot
# underflow to a subnormal or to zero.
_magnitudes = st.floats(
    min_value=2 * np.finfo(float).tiny, max_value=100, allow_subnormal=False
)
finite_entries = st.one_of(st.just(0.0), _magnitudes, _magnitudes.map(lambda x: -x))


def small_matrices(max_side=6):
    return st.tuples(
        st.integers(1, max_side), st.integers(1, max_side)
    ).flatmap(lambda s: arrays(float, s, elements=finite_entries))


class TestNumericalRank:
    def test_invertible_2x2(self):
        assert numerical_rank([[1, 2], [3, 4]]) == 2

    def test_proportional_rows(self):
        assert numerical_rank([[1, 2], [2, 4]]) == 1

    def test_tall_rank_two(self):
        # row-reduce by hand: rows 1 and 3 are independent, row 2 = 2*row 1
        assert numerical_rank([[1, 2], [2, 4], [5, 7]]) == 2

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 4))) == 0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            numerical_rank([[1.0, np.nan], [0.0, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            numerical_rank([[1.0, np.inf]])

    @given(small_matrices())
    def test_permutation_invariance(self, m):
        rng = np.random.default_rng(0)
        permuted = m[rng.permutation(m.shape[0])][:, rng.permutation(m.shape[1])]
        assert numerical_rank(permuted) == numerical_rank(m)

    @given(small_matrices(), st.floats(min_value=0.5, max_value=8.0))
    def test_scaling_invariance(self, m, scale):
        assert numerical_rank(scale * m) == numerical_rank(m)
        assert numerical_rank(-scale * m) == numerical_rank(m)


class TestIsInvertible:
    def test_det_one(self):
        assert is_invertible([[1, 2], [2, 5]])

    def test_singular(self):
        assert not is_invertible([[1, 2], [2, 4]])

    def test_zero_1x1(self):
        assert not is_invertible([[0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            is_invertible([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


class TestSolveLeastSquares:
    def test_exact_proportionality(self):
        x = solve_least_squares([[1.0], [2.0]], [3.0, 6.0])
        np.testing.assert_allclose(x, [3.0])

    def test_identity(self):
        x = solve_least_squares([[1, 0], [0, 1]], [4.0, 7.0])
        np.testing.assert_allclose(x, [4.0, 7.0])

    def test_hand_inverted_2x2(self):
        # det = 1, inverse [[5,-2],[-2,1]], times (1,0) gives (5,-2)
        x = solve_least_squares([[1, 2], [2, 5]], [1.0, 0.0])
        np.testing.assert_allclose(x, [5.0, -2.0], atol=1e-12)

    def test_rank_deficient_raises(self):
        with pytest.raises(DegenerateSystemError):
            solve_least_squares([[1, 2], [2, 4]], [1.0, 0.0])

    @given(
        arrays(float, (4, 4), elements=st.floats(min_value=-5, max_value=5)),
        arrays(float, (4,), elements=st.floats(min_value=-5, max_value=5)),
    )
    def test_square_solve_residual(self, a, b):
        # Diagonal entries of at least 20 beat every off-diagonal row sum (at
        # most 3 * 5), so a is strictly diagonally dominant and invertible.
        a = a + 25.0 * np.eye(4)
        x = solve_least_squares(a, b)
        residual = np.linalg.norm(a @ x - b)
        assert residual <= 1e-8 * max(1.0, np.linalg.norm(b))


class TestSolveManyRightHandSides:
    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (4, 1)])
    def test_matches_column_by_column(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        a = rng.standard_normal(shape)
        b = rng.standard_normal((shape[0], 7))
        x = solve_least_squares(a, b)
        assert x.shape == (shape[1], 7)
        for k in range(b.shape[1]):
            np.testing.assert_allclose(
                x[:, k], solve_least_squares(a, b[:, k]), rtol=0, atol=1e-12
            )

    def test_no_columns(self):
        x = solve_least_squares(np.eye(3), np.zeros((3, 0)))
        assert x.shape == (3, 0)

    def test_rank_deficient_raises(self):
        with pytest.raises(DegenerateSystemError):
            solve_least_squares([[1, 2], [2, 4]], np.ones((2, 3)))

    def test_row_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve_least_squares(np.eye(3), np.ones((2, 4)))

    def test_three_dimensional_rhs_raises(self):
        with pytest.raises(ValueError):
            solve_least_squares(np.eye(2), np.ones((2, 2, 2)))


class TestEiInColspace:
    def test_combination_reaches_e3(self):
        # (2/3, -1/3) combines the columns into (0, 0, 1)
        assert ei_in_colspace([[1, 2], [2, 4], [5, 7]], 2)

    def test_first_row_not_reachable(self):
        assert not ei_in_colspace([[1, 2], [2, 4], [5, 7]], 0)

    def test_identity_column(self):
        assert ei_in_colspace(np.eye(2), 0)

    def test_single_row_matrix(self):
        assert ei_in_colspace([[3.0, 1.0]], 0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            ei_in_colspace(np.eye(2), 2)

    def test_all_zero(self):
        assert not ei_in_colspace(np.zeros((3, 3)), 1)


def span(*vecs):
    return SubspaceBasis(ambient_dim=len(vecs[0]), vectors=np.array(vecs, dtype=float).T)


class TestSparsityNumber:
    def test_standard_basis_vector(self):
        assert sparsity_number(span([1, 0, 0])) == 1

    def test_all_ones_vector(self):
        assert sparsity_number(span([1, 1, 1])) == 3

    def test_two_dim_span(self):
        # members are (a, a+b, b); no single-nonzero member, (1, 0, -1) has two
        assert sparsity_number(span([1, 1, 0], [0, 1, 1])) == 2

    def test_nonsparsity_examples(self):
        assert nonsparsity_number(span([1, 0, 0])) == 2
        assert nonsparsity_number(span([1, 1, 1])) == 0
        assert nonsparsity_number(span([1, 1, 0], [0, 1, 1])) == 1

    def test_capacity_cap(self):
        vec = np.zeros(23)
        vec[0] = 1.0
        with pytest.raises(CapacityError):
            sparsity_number(SubspaceBasis(ambient_dim=23, vectors=vec.reshape(-1, 1)))

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            SubspaceBasis(ambient_dim=2, vectors=np.array([[1.0, 2.0], [1.0, 2.0]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 2**31 - 1))
    def test_range_bound(self, n, d, seed):
        d = min(d, n)
        rng = np.random.default_rng(seed)
        basis = column_space_basis(rng.standard_normal((n, d)))
        psi = sparsity_number(basis)
        assert 1 <= psi <= n - basis.dim + 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 2**31 - 1))
    def test_disjoint_supports(self, r, support, seed):
        n = r * support + 1
        rng = np.random.default_rng(seed)
        vectors = np.zeros((n, r))
        for k in range(r):
            block = rng.standard_normal(support)
            block[np.abs(block) < 1e-3] += 1.0
            vectors[k * support : (k + 1) * support, k] = block
        assert sparsity_number(SubspaceBasis(ambient_dim=n, vectors=vectors)) == support

    def test_disjoint_supports_mixed_sizes(self):
        # supports of sizes 2, 3, 4: the minimum support size wins
        rng = np.random.default_rng(8)
        vectors = np.zeros((10, 3))
        vectors[0:2, 0] = rng.standard_normal(2) + 2.0
        vectors[2:5, 1] = rng.standard_normal(3) + 2.0
        vectors[5:9, 2] = rng.standard_normal(4) + 2.0
        assert sparsity_number(SubspaceBasis(ambient_dim=10, vectors=vectors)) == 2


class TestBases:
    def test_column_space_dimension(self):
        b = column_space_basis([[1, 2], [2, 4], [5, 7]])
        assert b.ambient_dim == 3 and b.dim == 2

    def test_row_space_ambient(self):
        b = row_space_basis([[1, 2, 3], [2, 4, 6]])
        assert b.ambient_dim == 3 and b.dim == 1

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            column_space_basis(np.zeros((3, 3)))


class TestUnitCoordinateDetector:
    def test_identity_has_one(self):
        assert has_unit_coordinate_vector(np.eye(3))

    def test_dense_span_has_none(self):
        assert not has_unit_coordinate_vector(np.array([[1.0], [1.0], [1.0]]))

    def test_matches_sparsity_number(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.standard_normal((5, 2))
            if rng.random() < 0.5:
                m[:, 0] = 0.0
                m[rng.integers(5), 0] = 1.0
            basis = column_space_basis(m)
            assert has_unit_coordinate_vector(m) == (sparsity_number(basis) == 1)

    @settings(max_examples=50, deadline=None)
    @given(small_matrices())
    def test_matches_row_by_row_membership(self, m):
        assert has_unit_coordinate_vector(m) == any(
            ei_in_colspace(m, i) for i in range(m.shape[0])
        )


class TestRankTolerance:
    def test_default(self):
        assert RankTolerance().rel_threshold == 1e-9

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_range(self, bad):
        with pytest.raises(ValueError):
            RankTolerance(rel_threshold=bad)

    def test_loose_tolerance_lowers_rank(self):
        m = np.diag([1.0, 1e-6])
        assert numerical_rank(m, RankTolerance(1e-9)) == 2
        assert numerical_rank(m, RankTolerance(1e-3)) == 1
