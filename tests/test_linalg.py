import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noisyrows import linalg
from noisyrows.linalg import (
    CapacityError,
    DegenerateSystemError,
    RankTolerance,
    ei_in_colspace,
    has_unit_coordinate_vector,
    is_invertible,
    numerical_rank,
    solve_least_squares,
    sparsity_number,
)
from noisyrows.verify import ei_in_colspace_append

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


class TestAsMatrix:
    @pytest.mark.parametrize("m, message", [
        pytest.param(np.ones((2, 2), dtype=np.complex64), "dtype complex64", id="complex64"),
        pytest.param([[1.0, 1 + 0j]], "dtype complex128", id="zero-imaginary"),
        pytest.param(np.array([[1.0, np.complex128(2j)]], dtype=object),
                     r"entry \(0, 1\) is complex", id="complex-object"),
        pytest.param([[10**400]], r"entry \(0, 0\) is too large", id="int-10^400"),
        pytest.param([[1, -(10**400)]], r"entry \(0, 1\) is too large", id="int--10^400"),
        pytest.param([[2**53 + 1]], r"entry \(0, 0\) is an integer no float holds",
                     id="int64-2^53+1"),
        pytest.param([[0, -(2**53 + 1)]], r"entry \(0, 1\) is an integer no float holds",
                     id="int64--2^53-1"),
        pytest.param(np.array([[1], [2**64 - 1]], dtype=np.uint64),
                     r"entry \(1, 0\) is an integer no float holds", id="uint64-max"),
        pytest.param([[2**64, 2**53 + 1]], r"entry \(0, 1\) is an integer no float holds",
                     id="object-2^53+1"),
        pytest.param([[10**300]], r"entry \(0, 0\) is an integer no float holds",
                     id="int-10^300"),
    ])
    def test_rejects_what_no_float_holds(self, m, message):
        with pytest.raises(ValueError, match=message):
            linalg.as_matrix(m)

    @pytest.mark.parametrize("m, message", [
        pytest.param([["1.5", " 2e3 "]], "dtype <U5", id="str"),
        pytest.param(np.array([[b"1", b"2"]]), r"dtype \|S1", id="bytes"),
        pytest.param([[1.0, "2"]], "dtype <U32", id="number-and-str"),
        pytest.param(np.array([[1.0, "2"]], dtype=object),
                     r"entry \(0, 1\) is text, not a number: '2'", id="object-str"),
        pytest.param(np.array([[b"3", 1.0]], dtype=object),
                     r"entry \(0, 0\) is text, not a number: b'3'", id="object-bytes"),
        pytest.param(np.array([[np.str_("4")]], dtype=object),
                     r"entry \(0, 0\) is text", id="object-numpy-str"),
    ])
    def test_rejects_text(self, m, message):
        # Numbers written as text are rejected, not parsed.
        with pytest.raises(ValueError, match=message):
            linalg.as_matrix(m)

    @pytest.mark.parametrize("m", [
        pytest.param([[2**53, -(2**53)]], id="int64-2^53"),
        pytest.param([[2**62, -(2**63)]], id="int64-powers"),
        pytest.param(np.array([[2**63, 3 * 2**60]], dtype=np.uint64), id="uint64-powers"),
        pytest.param([[2**53 - 1, True]], id="int64-below-2^53"),
    ])
    def test_integers_a_float_holds_convert_exactly(self, m):
        got = linalg.as_matrix(m)
        assert got.dtype == float
        assert [int(x) for x in got.ravel()] == [int(x) for x in np.ravel(m)]

    @pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(float).max,
                        reason="long double is no wider than float here")
    def test_rejects_long_double_beyond_float(self):
        with pytest.raises(ValueError, match="finite"):
            linalg.as_matrix(np.full((2, 2), np.finfo(np.longdouble).max))

    def test_python_ints_beyond_int64_convert(self):
        np.testing.assert_array_equal(linalg.as_matrix([[2**1000, -3], [2**64, 0]]),
                                      [[2.0**1000, -3.0], [2.0**64, 0.0]])


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

    def test_wide_full_row_rank_is_minimum_norm(self):
        rng = np.random.default_rng(35)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        x = solve_least_squares(a, b)
        np.testing.assert_allclose(a @ x, b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x, np.linalg.pinv(a) @ b, rtol=0, atol=1e-12)

    def test_wide_rank_deficient_raises(self):
        # second row = 2 * first row, so the rank is 1 < min(2, 3)
        with pytest.raises(DegenerateSystemError):
            solve_least_squares([[1, 2, 3], [2, 4, 6]], [1.0, 2.0])

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
    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (4, 1), (3, 5)])
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


def with_spectrum(shape, s, rng):
    """A matrix of the given shape whose singular values are `s`, one per
    min(shape), between random orthonormal factors drawn from `rng`."""
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], len(s))))
    return (u * s) @ v.T


def solve_shapes(min_side=1):
    """Square, tall and wide shapes with min(shape) >= min_side."""
    sides = st.tuples(st.integers(min_side, 8), st.integers(0, 5))
    return st.one_of(
        sides.map(lambda t: (t[0], t[0])),
        sides.map(lambda t: (t[0] + t[1], t[0])),
        sides.map(lambda t: (t[0], t[0] + t[1])),
    )


_EPS = np.finfo(float).eps


class TestSolveThroughOneSvd:
    @settings(max_examples=80, deadline=None)
    @given(
        shape=solve_shapes(),
        log_kappa=st.floats(0, 7),
        log_scale=st.floats(-50, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_lstsq_to_conditioned_rounding(self, shape, log_kappa, log_scale, seed):
        s = 10.0 ** (log_scale - np.linspace(0, log_kappa, min(shape)))
        kappa = s[0] / s[-1]
        rng = np.random.default_rng(seed)
        a = with_spectrum(shape, s, rng)
        # b lies in the range of a for every shape, so the solution's
        # sensitivity is kappa, also for tall a.
        b = a @ rng.standard_normal((shape[1], 3))
        ref, *_ = np.linalg.lstsq(a, b, rcond=None)
        bound = 50 * max(shape) * kappa * _EPS * np.linalg.norm(ref, axis=0)
        x = solve_least_squares(a, b)
        assert np.all(np.linalg.norm(x - ref, axis=0) <= bound)
        x0 = solve_least_squares(a, b[:, 0])
        assert np.linalg.norm(x0 - ref[:, 0]) <= bound[0]

    @pytest.mark.parametrize("seed", range(20))
    def test_inconsistent_tall_meets_normal_equations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        shape = (n + int(rng.integers(1, 6)), n)
        s = np.geomspace(1.0, 10.0 ** -rng.uniform(0, 4), n)
        kappa = s[0] / s[-1]
        a = with_spectrum(shape, s, rng)
        # A unit residual orthogonal to the range of a: no x solves a x = b.
        # Projecting twice keeps w orthogonal even when the draw lies close
        # to the range.
        q, _ = np.linalg.qr(a)
        w = rng.standard_normal(shape[0])
        for _ in range(2):
            w -= q @ (q.T @ w)
        w /= np.linalg.norm(w)
        b = a @ rng.standard_normal(n) + w
        x = solve_least_squares(a, b)
        r = b - a @ x
        assert np.linalg.norm(r) >= 0.5
        norm_a = np.linalg.norm(a, 2)
        scale = norm_a * (norm_a * np.linalg.norm(x) + np.linalg.norm(b))
        bound = 50 * max(shape) * kappa * _EPS * scale
        assert np.linalg.norm(a.T @ r) <= bound

    @settings(max_examples=100, deadline=None)
    @given(
        shape=solve_shapes(min_side=2),
        ratio=st.one_of(st.floats(1e-2, 1 - 1e-3), st.floats(1 + 1e-3, 1e2)),
        rel=st.sampled_from([1e-9, 1e-6, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_raises_exactly_below_the_cut(self, shape, ratio, rel, seed):
        # sigma_max is 1, the others lie in [0.1, 1] except sigma_min, which
        # is ratio times the cut: at least 1e-3 relative away from it.
        tol = RankTolerance(rel)
        k = min(shape)
        rng = np.random.default_rng(seed)
        s = np.concatenate([[1.0], rng.uniform(0.1, 1.0, k - 2), [rel * ratio]])
        a = with_spectrum(shape, s, rng)
        deficient = numerical_rank(a, tol) < k
        assert deficient == (ratio < 1)
        try:
            solve_least_squares(a, np.ones(shape[0]), tol)
        except DegenerateSystemError:
            assert deficient
        else:
            assert not deficient


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

    @pytest.mark.parametrize("bad", [-1, 1.5, 1.0, True])
    def test_index_not_a_row(self, bad):
        with pytest.raises(IndexError):
            ei_in_colspace(np.eye(2), bad)

    def test_all_zero(self):
        assert not ei_in_colspace(np.zeros((3, 3)), 1)

    def test_near_miss_is_not_a_member(self):
        # e_3 lies 1.75e-5 from the column space, but 1 - ||U_3||^2 is only
        # 3.1e-10: a leverage-score test at tolerance 1e-9 would flag it.
        rng = np.random.default_rng(8256)
        rng.integers(1, 13)
        rng.integers(1, 13)
        m = rng.standard_normal((8, 7))
        assert not ei_in_colspace(m, 3)
        assert ei_in_colspace(m, 3) == ei_in_colspace_append(m, 3)


def span(*vecs):
    return np.array(vecs, dtype=float).T


class TestSparsityNumber:
    def test_standard_basis_vector(self):
        assert sparsity_number(span([1, 0, 0])) == 1

    def test_all_ones_vector(self):
        assert sparsity_number(span([1, 1, 1])) == 3

    def test_two_dim_span(self):
        # members are (a, a+b, b); no single-nonzero member, (1, 0, -1) has two
        assert sparsity_number(span([1, 1, 0], [0, 1, 1])) == 2

    def test_capacity_cap(self):
        vec = np.zeros(23)
        vec[0] = 1.0
        with pytest.raises(CapacityError):
            sparsity_number(vec.reshape(-1, 1))

    def test_dependent_columns(self):
        # both columns span (1, 1), whose only members have two nonzeros
        assert sparsity_number([[1, 2], [1, 2]]) == 2

    def test_no_rank_recheck(self, monkeypatch):
        # one SVD for the basis, then one per zero set of size 2: {0,1}, {0,2}, {1,2}
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert sparsity_number([[1.0], [0.0], [0.0]]) == 1
        assert len(calls) == 4

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 2**31 - 1))
    def test_range_bound(self, n, d, seed):
        d = min(d, n)
        rng = np.random.default_rng(seed)
        psi = sparsity_number(rng.standard_normal((n, d)))
        assert 1 <= psi <= n - d + 1

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
        assert sparsity_number(vectors) == support

    def test_disjoint_supports_mixed_sizes(self):
        # supports of sizes 2, 3, 4: the minimum support size wins
        rng = np.random.default_rng(8)
        vectors = np.zeros((10, 3))
        vectors[0:2, 0] = rng.standard_normal(2) + 2.0
        vectors[2:5, 1] = rng.standard_normal(3) + 2.0
        vectors[5:9, 2] = rng.standard_normal(4) + 2.0
        assert sparsity_number(vectors) == 2


class TestBases:
    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            sparsity_number(np.zeros((3, 3)))


class TestUnitCoordinateDetector:
    def test_identity_has_one(self):
        assert has_unit_coordinate_vector(np.eye(3))

    def test_dense_span_has_none(self):
        assert not has_unit_coordinate_vector(np.array([[1.0], [1.0], [1.0]]))

    def test_matches_sparsity_number(self):
        # Dense draws, draws with a unit column, and draws with half their
        # entries zeroed, whose rank may fall below the column count.
        rng = np.random.default_rng(3)
        for t in range(1000):
            m = rng.standard_normal((int(rng.integers(2, 6)), int(rng.integers(1, 4))))
            if t % 3 == 1:
                m[:, 0] = 0.0
                m[rng.integers(m.shape[0]), 0] = 1.0
            elif t % 3 == 2:
                m[rng.random(m.shape) < 0.5] = 0.0
                if not m.any():
                    continue
            assert has_unit_coordinate_vector(m) == (sparsity_number(m) == 1)

    @settings(max_examples=50, deadline=None)
    @given(small_matrices())
    def test_matches_row_by_row_membership(self, m):
        assert has_unit_coordinate_vector(m) == any(
            ei_in_colspace(m, i) for i in range(m.shape[0])
        )


class TestUnitVectorsInColspace:
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunked_flags_equal_unchunked(self, monkeypatch, chunk):
        rng = np.random.default_rng(chunk)
        for _ in range(20):
            n1 = int(rng.integers(1, 40))
            m = rng.standard_normal((n1, int(rng.integers(1, 8))))
            if rng.random() < 0.5:
                m[:, 0] = 0.0
                m[rng.integers(n1), 0] = 1.0
            monkeypatch.setattr(linalg, "_RESIDUAL_CHUNK", 10**9)
            flags = [ei_in_colspace(m, i) for i in range(n1)]
            whole = has_unit_coordinate_vector(m)
            monkeypatch.setattr(linalg, "_RESIDUAL_CHUNK", chunk)
            assert [ei_in_colspace(m, i) for i in range(n1)] == flags
            assert has_unit_coordinate_vector(m) == whole == any(flags)

    def test_memory_stays_small_over_all_rows(self):
        # One n1 x n1 residual array would take 32 MB here.
        m = np.random.default_rng(5).standard_normal((2000, 35))
        tracemalloc.start()
        try:
            has_unit_coordinate_vector(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


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
