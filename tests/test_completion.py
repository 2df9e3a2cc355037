import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyrows import completion
from noisyrows.completion import (
    STATUS_BUDGET,
    STATUS_OK,
    STATUS_PRECONDITION,
    CompletionParams,
    DiscoveryState,
    compute_eta,
    discover,
    identify_noisy_rows,
    query_budget,
    recover,
    run,
)
from noisyrows.instances import GeneratorConfig, generate
from noisyrows.linalg import DegenerateSystemError, RankTolerance, is_invertible, numerical_rank
from noisyrows.oracle import QueryOracle
from noisyrows.verify import max_relative_error, oracle_noisy_rows

PARAMS = CompletionParams(epsilon=0.1)


class TestComputeEta:
    def test_tall(self):
        assert compute_eta(100, 50, 0.1) == 10

    def test_square(self):
        assert compute_eta(8, 8, 0.1) == 5

    def test_floor_at_one(self):
        assert compute_eta(10, 10, 0.99) == 1

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            compute_eta(4, 4, 0.0)
        with pytest.raises(ValueError):
            compute_eta(4, 4, 1.0)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            compute_eta(*shape, 0.1)
        with pytest.raises(ValueError, match="dimensions must be positive"):
            run(QueryOracle(np.zeros(shape)), PARAMS)


class TestDiscover:
    def test_rank_one_all_ones(self):
        o = QueryOracle(np.ones((4, 4)), rng_seed=0)
        state = discover(o, PARAMS)
        assert state.rank_estimate == 1
        assert len(state.pivot_rows) == 1 and len(state.pivot_cols) == 1

    def test_zero_matrix(self):
        o = QueryOracle(np.zeros((4, 4)), rng_seed=0)
        state = discover(o, PARAMS)
        assert state.rank_estimate == 0
        assert state.pivot_rows == [] and state.pivot_cols == []

    def test_seed7_rank_found(self):
        inst = generate(GeneratorConfig(n1=6, n2=5, rank_r=1, num_noisy=1, seed=7))
        found = sum(
            discover(QueryOracle(inst, rng_seed=s), PARAMS).rank_estimate == 2
            for s in range(100)
        )
        assert found >= 90

    def test_certificate_invertible_at_every_prefix(self):
        inst = generate(GeneratorConfig(n1=8, n2=8, rank_r=3, num_noisy=1, seed=2))
        o = QueryOracle(inst, rng_seed=3)
        state = discover(o, PARAMS)
        n_obs = inst.n_observed
        for k in range(1, state.rank_estimate + 1):
            sub = n_obs[np.ix_(state.pivot_rows[:k], state.pivot_cols[:k])]
            assert is_invertible(sub, PARAMS.tol)

    def test_rank_estimate_capped(self):
        inst = generate(GeneratorConfig(n1=8, n2=6, rank_r=2, num_noisy=1, seed=5))
        state = discover(QueryOracle(inst, rng_seed=1), PARAMS)
        assert state.rank_estimate <= 6

    def test_stale_counter_at_budget(self):
        o = QueryOracle(np.ones((4, 4)), rng_seed=0)
        state = discover(o, PARAMS)
        assert state.stale_passes == state.pass_budget


def hand_state(values, rows, cols):
    """A discovery state with pivot rows `rows` and columns `cols` of `values`."""
    return DiscoveryState(
        pivot_rows=list(rows),
        pivot_cols=list(cols),
        stale_passes=0,
        pass_budget=1,
        row_values=values[list(rows), :],
        col_values=values[:, list(cols)],
        pivot_inverse=np.linalg.inv(values[np.ix_(list(rows), list(cols))]),
    )


class TestIdentifyNoisyRows:
    def test_rank_drop_row(self):
        # deleting row 2 drops the rank 2 -> 1; deleting row 0 keeps it
        values = np.array([[1.0, 2.0], [2.0, 4.0], [5.0, 7.0]])
        flagged = identify_noisy_rows(hand_state(values, [0, 2], [0, 1]), PARAMS)
        assert flagged == [2]

    def test_clean_instance_flags_nothing(self):
        inst = generate(
            GeneratorConfig(n1=7, n2=7, rank_r=2, num_noisy=0, seed=9, enforce_psi=True)
        )
        o = QueryOracle(inst, rng_seed=4)
        state = discover(o, PARAMS)
        assert state.rank_estimate == 2
        assert identify_noisy_rows(state, PARAMS) == []

    def test_identity_flags_every_pivot(self):
        flagged = identify_noisy_rows(hand_state(np.eye(2), [0, 1], [0, 1]), PARAMS)
        assert flagged == [0, 1]

    def test_empty_state(self):
        assert identify_noisy_rows(hand_state(np.zeros((3, 3)), [], []), PARAMS) == []

    # The scales of the README's "Limits" section, with the number of its 50
    # seeds on which row 5 became a pivot when measured; the rest are the
    # misses it counts. Whether row 5 becomes a pivot can turn on the last bit
    # of the SVD, so another BLAS may move a count by one; `[5]` on every
    # pivoting seed is the pin.
    @pytest.mark.parametrize("scale, pivots", [(1e7, 50), (1e8, 49), (3e8, 48), (1e9, 49)],
                             ids=["1e7", "1e8", "3e8", "1e9"])
    def test_one_row_far_larger_than_the_rest(self, scale, pivots):
        # Clean row 0 is `scale` times the others and row 5 is noisy. The test
        # compares each row's coefficients with that row's largest, so row
        # 0's scale cannot hide the noisy pivot, and the reference scales
        # each row before its rank tests.
        checked = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 30))
            n[0] *= scale
            n[5] += rng.standard_normal(30)
            state = discover(QueryOracle(n, rng_seed=seed), PARAMS)
            if 5 not in state.pivot_rows:
                continue
            checked += 1
            assert identify_noisy_rows(state, PARAMS) == [5], seed
            assert oracle_noisy_rows(n) == [5], seed
        assert checked >= pivots - 1


class TestRecover:
    def test_rank_one_proportionality(self):
        values = np.array([[1.0, 3.0], [2.0, 6.0]])
        result = recover(QueryOracle(values), hand_state(values, [0], [0]), [], PARAMS)
        np.testing.assert_allclose(result.recovered[:, 1], [3.0, 6.0])

    def test_pivot_columns_copied(self):
        inst = generate(GeneratorConfig(n1=6, n2=6, rank_r=2, num_noisy=1, seed=21))
        o = QueryOracle(inst, rng_seed=8)
        state = discover(o, PARAMS)
        noisy = identify_noisy_rows(state, PARAMS)
        result = recover(o, state, noisy, PARAMS)
        clean = [i for i in range(6) if i not in set(noisy)]
        for j in state.pivot_cols:
            np.testing.assert_array_equal(
                result.recovered[clean, j], inst.n_observed[clean, j]
            )

    def test_seed7_exact_recovery(self):
        inst = generate(GeneratorConfig(n1=6, n2=5, rank_r=1, num_noisy=1, seed=7))
        o = QueryOracle(inst, rng_seed=1)
        result = run(o, PARAMS)
        assert result.status == STATUS_OK
        assert result.noisy_rows_hat == inst.noisy_rows
        err = max_relative_error(result.recovered, inst.m, list(inst.clean_rows))
        assert err <= 1e-8

    def test_noisy_rows_marked_unknown(self):
        inst = generate(GeneratorConfig(n1=6, n2=5, rank_r=1, num_noisy=1, seed=7))
        o = QueryOracle(inst, rng_seed=1)
        result = run(o, PARAMS)
        for i in result.noisy_rows_hat:
            assert np.isnan(result.recovered[i]).all()
        clean = [i for i in range(6) if i not in result.noisy_rows_hat]
        assert np.isfinite(result.recovered[clean]).all()

    def test_every_pivot_flagged_is_precondition_violated(self):
        m = np.zeros((5, 4))
        m[0, :] = [1.0, 2.0, 3.0, 4.0]
        o = QueryOracle(m, rng_seed=0)
        state = discover(o, PARAMS)
        result = recover(o, state, list(state.pivot_rows), PARAMS)
        assert result.status == STATUS_PRECONDITION
        assert result.noisy_rows_hat == tuple(state.pivot_rows)
        expected = np.zeros((5, 4))
        expected[list(state.pivot_rows), :] = np.nan
        np.testing.assert_array_equal(result.recovered, expected)
        assert result.query_count == o.unique_query_count

    def test_degenerate_solve_is_budget_exhausted(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateSystemError("forced")

        inst = generate(GeneratorConfig(n1=40, n2=60, rank_r=4, num_noisy=2, seed=11))
        o = QueryOracle(inst, rng_seed=5)
        state = discover(o, PARAMS)
        noisy = identify_noisy_rows(state, PARAMS)
        monkeypatch.setattr(completion, "solve_least_squares", degenerate)
        result = recover(o, state, noisy, PARAMS)
        assert result.status == STATUS_BUDGET
        assert np.isnan(result.recovered).all()
        assert result.noisy_rows_hat == tuple(noisy)
        assert result.query_count == o.unique_query_count


class TestRun:
    def test_clean_gaussian_family(self):
        good = 0
        for s in range(100):
            inst = generate(GeneratorConfig(n1=8, n2=8, rank_r=2, num_noisy=0, seed=s))
            o = QueryOracle(inst, rng_seed=s + 1000)
            result = run(o, PARAMS)
            err = max_relative_error(result.recovered, inst.m, list(range(8)))
            good += (
                result.status == STATUS_OK
                and result.noisy_rows_hat == ()
                and err <= 1e-8
            )
        assert good >= 90

    def test_seed7_family(self):
        inst = generate(GeneratorConfig(n1=6, n2=5, rank_r=1, num_noisy=1, seed=7))
        good = 0
        for s in range(100):
            o = QueryOracle(inst, rng_seed=s)
            result = run(o, PARAMS)
            good += result.status == STATUS_OK and result.noisy_rows_hat == inst.noisy_rows
        assert good >= 90

    def test_small_noise_passes_as_clean(self):
        # The README's "Limits": noise of std 1e-7 on 2 rows of a 40x40, r=4
        # matrix is below what identification resolves. Every run is ok and
        # flags no clean row, the clean rows come back exact, and no run
        # flags exactly the noisy rows.
        for seed in range(60):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 40))
            noisy = sorted(rng.choice(40, size=2, replace=False).tolist())
            n = m.copy()
            n[noisy] += 1e-7 * rng.standard_normal((2, 40))
            result = run(QueryOracle(n, rng_seed=seed + 1000), PARAMS)
            clean = [i for i in range(40) if i not in noisy]
            assert result.status == STATUS_OK, seed
            assert set(result.noisy_rows_hat) <= set(noisy), seed
            assert max_relative_error(result.recovered, m, clean) <= 1e-12, seed
            assert list(result.noisy_rows_hat) != noisy, seed

    def test_basis_vector_in_column_space(self):
        # only row 0 is nonzero, so its deletion mimics a noise row
        m = np.zeros((5, 4))
        m[0, :] = [1.0, 2.0, 3.0, 4.0]
        o = QueryOracle(m, rng_seed=0)
        result = run(o, PARAMS)
        assert result.status == STATUS_PRECONDITION

    def test_zero_matrix_recovers_zeros(self):
        o = QueryOracle(np.zeros((4, 5)), rng_seed=0)
        result = run(o, PARAMS)
        assert result.status == STATUS_OK
        assert result.noisy_rows_hat == ()
        np.testing.assert_array_equal(result.recovered, np.zeros((4, 5)))

    def test_query_count_matches_oracle(self):
        inst = generate(GeneratorConfig(n1=8, n2=8, rank_r=2, num_noisy=1, seed=13))
        o = QueryOracle(inst, rng_seed=2)
        result = run(o, PARAMS)
        assert result.query_count == o.unique_query_count
        assert result.query_count <= 64

    def test_json_fields_are_python_types(self):
        # cli writes these fields with json.dumps, which rejects numpy scalars.
        row_zero_only = np.zeros((5, 4))
        row_zero_only[0, :] = [1.0, 2.0, 3.0, 4.0]
        oracles = [QueryOracle(row_zero_only), QueryOracle(np.zeros((4, 5)))]
        for s in range(6):
            inst = generate(GeneratorConfig(n1=8, n2=8, rank_r=2, num_noisy=1, seed=s))
            oracles.append(QueryOracle(inst, rng_seed=s))
        results = [run(o, PARAMS) for o in oracles]
        assert {STATUS_OK, STATUS_PRECONDITION} <= {r.status for r in results}
        assert any(r.noisy_rows_hat for r in results)
        for result in results:
            assert type(result.query_count) is int
            assert type(result.status) is str
            for field in (result.noisy_rows_hat, result.pivot_rows, result.pivot_cols):
                assert type(field) is tuple
                assert all(type(v) is int for v in field)

    def test_unknown_only_on_flagged_rows(self):
        for s in range(20):
            inst = generate(GeneratorConfig(n1=7, n2=6, rank_r=2, num_noisy=1, seed=s))
            o = QueryOracle(inst, rng_seed=s)
            result = run(o, PARAMS)
            if result.status != STATUS_OK:
                continue
            flagged = set(result.noisy_rows_hat)
            for i in range(7):
                row_nan = np.isnan(result.recovered[i]).any()
                assert row_nan == (i in flagged)

    def test_clean_recovered_rank(self):
        inst = generate(GeneratorConfig(n1=8, n2=7, rank_r=2, num_noisy=2, seed=3))
        o = QueryOracle(inst, rng_seed=11)
        result = run(o, PARAMS)
        assert result.status == STATUS_OK
        clean = [i for i in range(8) if i not in set(result.noisy_rows_hat)]
        assert (
            numerical_rank(result.recovered[clean, :], PARAMS.tol)
            == len(result.pivot_rows) - len(result.noisy_rows_hat)
        )


def near_threshold_matrix(seed, n1, n2, rel_threshold, scale_exp, noise_rel):
    """An n1 x n2 matrix whose singular values straddle rel_threshold times
    the largest: each one after the first lies within 1.5 decades of that cut
    or between it and the largest. The whole is scaled by 10**scale_exp; with
    `noise_rel`, one row gets noise of that size relative to the scale."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, min(n1, n2) + 1))
    cut = math.log10(rel_threshold)
    near = rng.random(k) < 0.5
    exps = np.where(near, cut + rng.uniform(-1.5, 1.5, k), rng.uniform(cut, 0.0, k))
    exps[0] = 0.0
    u, _ = np.linalg.qr(rng.standard_normal((n1, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n2, k)))
    m = (u * 10.0 ** exps) @ v.T
    if noise_rel is not None:
        m[rng.integers(n1)] += noise_rel * rng.standard_normal(n2)
    return m * 10.0 ** scale_exp


class TestOutputContract:
    """Near the rank threshold, at any scale: the pivot block that discovery
    leaves is invertible, and run() keeps its output contract."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 30),
        st.integers(2, 30),
        st.floats(min_value=-13.0, max_value=-2.0),
        st.floats(min_value=-100.0, max_value=100.0),
        # About a third of the examples get a noise row.
        st.one_of(st.none(), st.none(), st.floats(min_value=-12.0, max_value=0.0)),
    )
    def test_near_threshold(self, seed, n1, n2, tol_exp, scale_exp, noise_exp):
        params = CompletionParams(epsilon=0.1, tol=RankTolerance(10.0 ** tol_exp))
        noise_rel = None if noise_exp is None else 10.0 ** noise_exp
        m = near_threshold_matrix(seed, n1, n2, 10.0 ** tol_exp, scale_exp, noise_rel)

        state = discover(QueryOracle(m, rng_seed=seed), params)
        if state.pivot_rows:
            assert is_invertible(m[np.ix_(state.pivot_rows, state.pivot_cols)], params.tol)

        oracle = QueryOracle(m, rng_seed=seed)
        result = run(oracle, params)
        assert result.status in (STATUS_OK, STATUS_PRECONDITION, STATUS_BUDGET)
        assert result.recovered.shape == m.shape
        flagged = list(result.noisy_rows_hat)
        assert np.isnan(result.recovered[flagged]).all()
        if result.status == STATUS_BUDGET:
            assert np.isnan(result.recovered).all()
        if result.status == STATUS_PRECONDITION:
            unflagged = [i for i in range(n1) if i not in set(flagged)]
            assert (result.recovered[unflagged] == 0.0).all()
        assert result.query_count == oracle.unique_query_count

    def test_degenerate_recovery_is_budget_exhausted(self, monkeypatch):
        # Recovery's solve is the only source of budget-exhausted; it fails
        # only at a rounding tie, so the failure is forced here.
        def degenerate(*args, **kwargs):
            raise DegenerateSystemError("forced")

        identified = []

        def identify(*args, **kwargs):
            identified.append(identify_noisy_rows(*args, **kwargs))
            return identified[0]

        monkeypatch.setattr(completion, "solve_least_squares", degenerate)
        monkeypatch.setattr(completion, "identify_noisy_rows", identify)
        inst = generate(GeneratorConfig(n1=40, n2=60, rank_r=4, num_noisy=2, seed=11))
        oracle = QueryOracle(inst, rng_seed=5)
        result = run(oracle, PARAMS)
        assert result.status == STATUS_BUDGET
        assert np.isnan(result.recovered).all()
        assert len(identified) == 1 and result.noisy_rows_hat == tuple(identified[0])
        assert result.noisy_rows_hat == inst.noisy_rows
        assert result.query_count == oracle.unique_query_count


def clopper_pearson_upper(successes: int, trials: int, alpha: float = 0.01) -> float:
    """One-sided 1 - alpha Clopper-Pearson upper bound on a binomial rate:
    the rate at which `successes` or fewer in `trials` has chance alpha,
    found by bisection on the binomial tail."""
    def tail(p):
        return sum(math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)
                   for k in range(successes + 1))

    lo, hi = successes / trials, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if tail(mid) > alpha else (lo, mid)
    return hi


class TestMissRate:
    """The method's guarantee: a run flags the wrong rows with probability
    at most epsilon. On this tall shape a noisy row is easily never probed
    (about 13% of runs at epsilon = 0.3 and 2% at 0.1), so a change that
    stopped discovery early shows here, where criterion 1's 1 - 2 epsilon
    over 200 runs would not."""

    RUNS = 500

    def test_upper_bound(self):
        assert clopper_pearson_upper(0, 500) == pytest.approx(1 - 0.01 ** (1 / 500))
        assert clopper_pearson_upper(500, 500) == 1.0
        # The tail at the bound is alpha.
        p = clopper_pearson_upper(66, 500)
        tail = sum(math.comb(500, k) * p**k * (1 - p) ** (500 - k) for k in range(67))
        assert tail == pytest.approx(0.01, rel=1e-6)

    @pytest.fixture(scope="class")
    def instances(self):
        return [generate(GeneratorConfig(n1=200, n2=50, rank_r=4, num_noisy=3, seed=s))
                for s in range(self.RUNS)]

    @pytest.mark.parametrize("epsilon", [0.3, 0.1])
    def test_within_epsilon(self, instances, epsilon):
        params = CompletionParams(epsilon=epsilon)
        misses = sum(
            run(QueryOracle(inst, rng_seed=s + 10_000), params).noisy_rows_hat
            != inst.noisy_rows
            for s, inst in enumerate(instances)
        )
        assert clopper_pearson_upper(misses, self.RUNS) <= epsilon, misses


class TestSoundness:
    """A run never flags a clean row, even when a large epsilon stops
    discovery before every noisy row is a pivot. What a miss does flag is
    not pinned here."""

    SEEDS = range(60)

    @pytest.fixture(scope="class")
    def outcomes(self):
        """(true noisy rows, flagged rows) of every run."""
        pairs = []
        for seed in self.SEEDS:
            for psi in range(2, 7):
                inst = generate(GeneratorConfig(n1=60, n2=40, rank_r=4, num_noisy=3,
                                                mode="sparse-basis", target_psi=psi,
                                                seed=seed))
                for epsilon in (0.9, 0.5):
                    result = run(QueryOracle(inst, rng_seed=seed + 7),
                                 CompletionParams(epsilon=epsilon))
                    pairs.append((inst.noisy_rows, result.noisy_rows_hat))
        return pairs

    def test_no_clean_row_flagged(self, outcomes):
        assert all(set(flagged) <= set(noisy) for noisy, flagged in outcomes)

    def test_misses_are_forced(self, outcomes):
        assert any(flagged != noisy for noisy, flagged in outcomes)


class TestScaleEquivariance:
    """Scaling N by a power of two is exact in floating point, and every
    decision compares quantities that scale alike, so the run is the same
    and the recovery scales exactly."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("mode", ["gaussian", "sparse-basis"])
    def test_power_of_two_scaling(self, mode, seed):
        extra = dict(target_psi=5) if mode == "sparse-basis" else {}
        inst = generate(GeneratorConfig(n1=40, n2=30, rank_r=4, num_noisy=2, mode=mode,
                                        seed=600 + seed, **extra))
        base = run(QueryOracle(inst.n_observed, rng_seed=seed), PARAMS)
        for e in (-60, -7, 3, 45, 60):
            scale = 2.0**e
            scaled = run(QueryOracle(inst.n_observed * scale, rng_seed=seed), PARAMS)
            assert (scaled.status, scaled.noisy_rows_hat, scaled.pivot_rows,
                    scaled.pivot_cols, scaled.query_count) == (
                base.status, base.noisy_rows_hat, base.pivot_rows,
                base.pivot_cols, base.query_count)
            np.testing.assert_array_equal(scaled.recovered, base.recovered * scale)

    # The README's "Limits": near the ends of the exponent range a run still
    # makes the unscaled run's decisions, and its clean rows, scaled back,
    # hold to 1e-8 though subnormal entries have lost bits. Discovery's
    # residual filter rejects as much as unscaled, so it runs as many full
    # invertibility tests.
    @pytest.mark.parametrize("e", [-1040, -1030, -1022, -1020, 1000, 1018])
    def test_extreme_exponents(self, monkeypatch, e):
        tests = []

        def counted(*args):
            tests[-1] += 1
            return is_invertible(*args)

        monkeypatch.setattr(completion, "is_invertible", counted)
        for seed in range(20):
            inst = generate(GeneratorConfig(n1=40, n2=40, rank_r=4, num_noisy=3, seed=seed))
            tests.append(0)
            base = run(QueryOracle(inst.n_observed, rng_seed=seed + 7), PARAMS)
            tests.append(0)
            scaled = run(QueryOracle(np.ldexp(inst.n_observed, e), rng_seed=seed + 7), PARAMS)
            assert (scaled.status, scaled.noisy_rows_hat, scaled.pivot_rows,
                    scaled.pivot_cols, scaled.query_count) == (
                base.status, base.noisy_rows_hat, base.pivot_rows,
                base.pivot_cols, base.query_count), seed
            assert tests[-1] == tests[-2], seed
            clean = list(inst.clean_rows)
            assert max_relative_error(np.ldexp(scaled.recovered, -e), inst.m, clean) <= 1e-8, seed


class TestQueryBudget:
    def test_discovery_terms_example(self):
        report = query_budget(100, 10, 2, 2, 50, 1, 0.1)
        level = math.log(10.0)
        expected_phases = 2 * 100 * (2 + 2 + level) + (2 * 100 / 50) * (2 + 2 + 2 + level)
        assert expected_phases == pytest.approx(1293.727, abs=0.01)
        full = (2 + 2) * (100 + 10)
        probes = 2 * (10 - 2 - 2)
        assert report.proof_bound == pytest.approx(expected_phases + full + probes)

    def test_no_noise_substitution(self):
        n1 = 12
        report = query_budget(n1, 12, 3, 0, n1, 5, 0.1)
        level = math.log(10.0)
        phases = 2 * n1 * (2 + level) + 2 * (3 + 2 + level)
        assert report.proof_bound == pytest.approx(phases + 3 * (n1 + 12) + 3 * (12 - 3))

    def test_natural_log_calibration(self):
        eps = 1 / math.e
        report = query_budget(10, 10, 2, 1, 5, 5, eps)
        # with ln(1/eps) = 1 exactly, both formulas collapse to rationals
        assert report.proof_bound == 2 * 10 * (1 + 2 + 1) + (2 * 10 / 5) * (
            2 + 1 + 2 + 1
        ) + (2 + 1) * 20 + 2 * (10 - 2 - 1)
        assert report.stated_bound == (10 + 10 - 1) * 1 + (4 * 10 / 5) * (
            2 + 2 + 1
        ) * 10 / 5 + 2 * 10 * (1 + 2 + 1)

    def test_stated_first_term_vanishes_without_noise(self):
        with_noise = query_budget(10, 10, 2, 1, 5, 5, 0.1)
        without = query_budget(10, 10, 2, 0, 5, 5, 0.1)
        assert without.stated_bound < with_noise.stated_bound

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n1=0, n2=5, rank=1, omega_size=0, psi_u=1, psi_v=1, epsilon=0.1),
            dict(n1=5, n2=5, rank=0, omega_size=0, psi_u=1, psi_v=1, epsilon=0.1),
            dict(n1=5, n2=5, rank=1, omega_size=-1, psi_u=1, psi_v=1, epsilon=0.1),
            dict(n1=5, n2=5, rank=1, omega_size=0, psi_u=0, psi_v=1, epsilon=0.1),
            dict(n1=5, n2=5, rank=1, omega_size=0, psi_u=1, psi_v=1, epsilon=1.5),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            query_budget(**kwargs)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(4, 40),
        st.integers(8, 40),
        st.integers(1, 4),
        st.integers(0, 3),
        st.integers(1, 20),
        st.floats(min_value=0.01, max_value=0.9),
    )
    def test_monotonicity(self, n1, n2, rank, omega, psi_u, epsilon):
        base = query_budget(n1, n2, rank, omega, psi_u, 3, epsilon).proof_bound
        assert query_budget(n1, n2, rank, omega, psi_u + 1, 3, epsilon).proof_bound <= base
        assert query_budget(n1, n2, rank + 1, omega, psi_u, 3, epsilon).proof_bound >= base
        assert query_budget(n1, n2, rank, omega + 1, psi_u, 3, epsilon).proof_bound >= base
        tighter = max(epsilon / 2, 1e-6)
        assert query_budget(n1, n2, rank, omega, psi_u, 3, tighter).proof_bound >= base


class TestCompletionParams:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_epsilon_range(self, bad):
        with pytest.raises(ValueError):
            CompletionParams(epsilon=bad)


# (status, noisy_rows_hat, pivot_rows, pivot_cols, query_count) of seeded
# run() calls, recorded from the per-cell implementation. Any change here is
# a change of behaviour, not of speed.
PINNED_RUNS = [
    (
        dict(n1=8, n2=8, rank_r=2, num_noisy=1, seed=7),
        3,
        (STATUS_OK, (7,), (6, 0, 7), (0, 1, 4), 61),
    ),
    (
        dict(n1=40, n2=60, rank_r=4, num_noisy=2, seed=11),
        5,
        (STATUS_OK, (5, 39), (26, 32, 0, 18, 39, 5), (0, 1, 2, 4, 8, 14), 783),
    ),
    (
        dict(n1=36, n2=300, rank_r=30, num_noisy=3, seed=12),
        6,
        (
            STATUS_OK,
            (8, 20, 35),
            (16, 19, 18, 12, 34, 13, 23, 35, 6, 22, 15, 24, 27, 11, 4, 1, 31,
             30, 0, 21, 29, 28, 5, 9, 7, 26, 20, 17, 3, 8, 32, 14, 2),
            (0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14, 15, 19, 21, 22, 23, 25,
             28, 29, 31, 32, 34, 35, 38, 46, 47, 53, 74, 77, 78, 85),
            10081,
        ),
    ),
    (
        dict(n1=30, n2=24, rank_r=3, num_noisy=2, mode="sparse-basis",
             target_psi=4, seed=13),
        7,
        (STATUS_OK, (25, 29), (20, 17, 25, 6, 29), (2, 4, 6, 7, 3), 355),
    ),
]


class TestPinnedRuns:
    @pytest.mark.parametrize("config, oracle_seed, expected", PINNED_RUNS)
    def test_outcome(self, config, oracle_seed, expected):
        inst = generate(GeneratorConfig(**config))
        result = run(QueryOracle(inst, rng_seed=oracle_seed), PARAMS)
        got = (result.status, result.noisy_rows_hat, result.pivot_rows,
               result.pivot_cols, result.query_count)
        assert got == expected
        assert result.noisy_rows_hat == inst.noisy_rows
        err = max_relative_error(result.recovered, inst.m, list(inst.clean_rows))
        assert err <= 1e-8

    def test_precondition_outcome(self):
        m = np.zeros((5, 4))
        m[0, :] = [1.0, 2.0, 3.0, 4.0]
        result = run(QueryOracle(m, rng_seed=0), PARAMS)
        got = (result.status, result.noisy_rows_hat, result.pivot_rows,
               result.pivot_cols, result.query_count)
        assert got == (STATUS_PRECONDITION, (0,), (0,), (1,), 18)
        expected = np.zeros((5, 4))
        expected[0, :] = np.nan
        np.testing.assert_array_equal(result.recovered, expected)

    def test_clean_rows_recovered_to_rounding(self):
        # On this run's clean pivot rows the first independent square set of
        # pivot columns has condition number 2.1e7, against 95 for all pivot
        # columns together; solving against that square set recovered the
        # clean rows only to 7.75e-9.
        config = GeneratorConfig(n1=100, n2=100, rank_r=6, num_noisy=3,
                                 seed=10300064, enforce_psi=True)
        inst = generate(config)
        result = run(QueryOracle(inst, rng_seed=10350064), PARAMS)
        assert result.status == STATUS_OK
        assert result.noisy_rows_hat == inst.noisy_rows
        err = max_relative_error(result.recovered, inst.m, list(inst.clean_rows))
        assert err <= 1e-12
