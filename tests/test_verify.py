from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyrows import verify
from noisyrows.completion import CompletionParams, discover
from noisyrows.instances import GeneratorConfig, generate
from noisyrows.linalg import (
    CapacityError,
    ei_in_colspace,
    numerical_rank,
    sparsity_number,
)
from noisyrows.oracle import QueryOracle
from noisyrows.verify import (
    TrialStats,
    ei_in_colspace_append,
    estimate_detection_probability,
    estimate_success_rate,
    evaluate_trial,
    generic_psi_profile,
    max_relative_error,
    next_useful_column,
    oracle_exact_rank,
    oracle_noisy_rows,
    read_trial_stats_csv,
    sparsity_number_lex,
    write_trial_stats_csv,
)

PARAMS = CompletionParams(epsilon=0.1)


class TestOracleNoisyRows:
    def test_rank_drop_row(self):
        assert oracle_noisy_rows([[1, 2], [2, 4], [5, 7]]) == [2]

    def test_clean_instance(self):
        inst = generate(
            GeneratorConfig(n1=6, n2=6, rank_r=2, num_noisy=0, seed=1, enforce_psi=True)
        )
        assert oracle_noisy_rows(inst.n_observed) == []

    def test_single_row_matrix(self):
        assert oracle_noisy_rows([[2.0, 3.0, 4.0]]) == [0]

    def test_recovers_planted_rows(self):
        for seed in range(10):
            inst = generate(
                GeneratorConfig(
                    n1=8, n2=7, rank_r=2, num_noisy=2, seed=seed, enforce_psi=True
                )
            )
            assert oracle_noisy_rows(inst.n_observed) == list(inst.noisy_rows)


class TestOracleExactRank:
    def test_proportional(self):
        assert oracle_exact_rank([[1, 2], [2, 4]]) == 1

    def test_identity(self):
        assert oracle_exact_rank(np.eye(3)) == 3

    def test_tall(self):
        assert oracle_exact_rank([[1, 2], [2, 4], [5, 7]]) == 2

    def test_zero(self):
        assert oracle_exact_rank(np.zeros((2, 3))) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 2**31 - 1),
        st.integers(1, 4),
    )
    def test_agrees_with_numerical_rank(self, n, m, seed, inner):
        # integer-valued low-rank products are exactly representable
        rng = np.random.default_rng(seed)
        a = rng.integers(-3, 4, size=(n, inner)).astype(float)
        b = rng.integers(-3, 4, size=(inner, m)).astype(float)
        prod = a @ b
        assert oracle_exact_rank(prod) == numerical_rank(prod)


class TestEiCrossCheck:
    def test_append_form_examples(self):
        m = [[1, 2], [2, 4], [5, 7]]
        assert ei_in_colspace_append(m, 2)
        assert not ei_in_colspace_append(m, 0)
        assert ei_in_colspace_append(np.eye(2), 0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 2**31 - 1),
    )
    def test_agreement_random(self, n, m, seed):
        rng = np.random.default_rng(seed)
        kind = seed % 3
        if kind == 0:
            mat = rng.standard_normal((n, m))
        elif kind == 1:
            mat = np.outer(rng.standard_normal(n), rng.standard_normal(m))
        else:
            k = min(n, m, int(rng.integers(1, 4)))
            mat = rng.standard_normal((n, k)) @ rng.standard_normal((k, m))
        for i in range(n):
            assert ei_in_colspace(mat, i) == ei_in_colspace_append(mat, i)

    def test_agreement_edge_cases(self):
        for mat in [np.zeros((3, 3)), np.eye(4), np.ones((4, 2))]:
            for i in range(mat.shape[0]):
                assert ei_in_colspace(mat, i) == ei_in_colspace_append(mat, i)


class TestSparsityLex:
    def test_agrees_on_examples(self):
        cases = [
            [[1.0], [0.0], [0.0]],
            [[1.0], [1.0], [1.0]],
            [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        ]
        for vecs in cases:
            assert sparsity_number_lex(vecs) == sparsity_number(vecs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 2**31 - 1))
    def test_agrees_random(self, n, d, seed):
        d = min(d, n)
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((n, d))
        if seed % 2:
            mat[rng.random((n, d)) < 0.4] = 0.0
        if not mat.any():
            return
        assert sparsity_number_lex(mat) == sparsity_number(mat)

    def test_cap(self):
        vec = np.zeros((17, 1))
        vec[0] = 1.0
        with pytest.raises(CapacityError):
            sparsity_number_lex(vec)


class TestIdentificationEquivalence:
    def test_pipeline_matches_oracle(self):
        from noisyrows.completion import identify_noisy_rows

        agreements = 0
        for seed in range(100):
            inst = generate(
                GeneratorConfig(
                    n1=8,
                    n2=8,
                    rank_r=2,
                    num_noisy=seed % 3,
                    seed=seed,
                    enforce_psi=True,
                )
            )
            o = QueryOracle(inst, rng_seed=seed + 1)
            state = discover(o, CompletionParams(epsilon=0.01))
            flagged = identify_noisy_rows(state, PARAMS)
            reference = [
                i for i in oracle_noisy_rows(inst.n_observed) if i in state.pivot_rows
            ]
            agreements += flagged == reference
        assert agreements == 100


class TestTrialStats:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialStats(
                n1=4, n2=4, rank=1, omega_size=0, psi_u=4, epsilon=0.1,
                trials=5, successes=6, mean_queries=3.0, proof_bound=10.0,
                bound_violations=0,
            )
        with pytest.raises(ValueError):
            TrialStats(
                n1=4, n2=4, rank=1, omega_size=0, psi_u=4, epsilon=0.1,
                trials=5, successes=5, mean_queries=17.0, proof_bound=10.0,
                bound_violations=0,
            )

    def test_csv_round_trip(self, tmp_path):
        stats = TrialStats(
            n1=8, n2=8, rank=2, omega_size=1, psi_u=6, epsilon=0.1,
            trials=10, successes=9, mean_queries=41.5, proof_bound=123.456,
            bound_violations=1,
        )
        path = tmp_path / "stats.csv"
        write_trial_stats_csv(path, [stats])
        assert read_trial_stats_csv(path) == [stats]

    def test_csv_header(self, tmp_path):
        path = tmp_path / "stats.csv"
        write_trial_stats_csv(path, [])
        assert path.read_text(encoding="utf-8").splitlines() == [
            "n1,n2,r,omega,psi_u,epsilon,trials,successes,mean_queries,"
            "proof_bound,bound_violations"
        ]


class TestMaxRelativeError:
    def test_relative_to_the_truth_at_any_scale(self):
        # A 100% error reads 1.0 however small the matrix is.
        truth = np.full((3, 3), 1e-40)
        assert max_relative_error(2 * truth, truth, [0, 1, 2]) == 1.0

    def test_all_zero_truth(self):
        zeros = np.zeros((2, 3))
        assert max_relative_error(zeros, zeros, [0, 1]) == 0.0
        assert max_relative_error(np.full((2, 3), 1e-300), zeros, [0, 1]) == float("inf")

    def test_nan_reads_inf(self):
        truth = np.ones((2, 2))
        assert max_relative_error(np.full((2, 2), np.nan), truth, [1]) == float("inf")


class TestSuccessRate:
    def test_clean_family(self):
        stats = estimate_success_rate(
            GeneratorConfig(n1=8, n2=8, rank_r=2, num_noisy=0, seed=0), PARAMS, 50
        )
        assert stats.successes / stats.trials >= 0.8
        assert stats.mean_queries <= 64

    def test_tighter_epsilon_helps(self):
        cfg = GeneratorConfig(n1=8, n2=8, rank_r=2, num_noisy=1, seed=0)
        loose = estimate_success_rate(cfg, CompletionParams(epsilon=0.3), 60)
        tight = estimate_success_rate(cfg, CompletionParams(epsilon=0.01), 60)
        assert tight.successes >= loose.successes

    def test_psi_one_family_not_required_to_succeed(self):
        # a clean row indistinguishable from noise: success is simply not promised
        stats = estimate_success_rate(
            GeneratorConfig(n1=6, n2=6, rank_r=1, num_noisy=0, seed=0), PARAMS, 5
        )
        assert stats.trials == 5  # completes without crashing

    def test_default_seeds_count_up_from_config_seed(self):
        cfg = GeneratorConfig(n1=8, n2=8, rank_r=2, num_noisy=1, seed=40)
        stats = estimate_success_rate(cfg, PARAMS, 6)
        # Trial t: instance seed 40 + t, oracle seed 10,000 higher (as documented).
        trials = [
            evaluate_trial(generate(replace(cfg, seed=s)), s + 10_000, PARAMS)
            for s in range(40, 46)
        ]
        assert stats.successes == sum(ok for ok, _, _ in trials)
        assert stats.mean_queries == sum(queries for _, queries, _ in trials) / 6


class TestGenericPsiProfile:
    def test_gaussian(self):
        cfg = GeneratorConfig(n1=10, n2=8, rank_r=2, num_noisy=2, seed=0)
        psi_u, psi_v = generic_psi_profile(cfg)
        assert psi_u == (10 - 2) - 2 + 1
        assert psi_v == 8 - 2 + 1

    def test_sparse_basis(self):
        cfg = GeneratorConfig(
            n1=12, n2=8, rank_r=3, num_noisy=0, mode="sparse-basis", target_psi=4, seed=0
        )
        assert generic_psi_profile(cfg)[0] == 4

    def test_matches_exhaustive_on_small_gaussian(self):
        from noisyrows.instances import compute_profile

        # The sparse-basis family's rank-1 clean matrices have all-zero rows,
        # where the SVD's basis carries only rounding.
        cfgs = [GeneratorConfig(n1=7, n2=6, rank_r=2, num_noisy=1, seed=seed) for seed in range(10)]
        cfgs += [
            GeneratorConfig(n1=8, n2=6, rank_r=1, num_noisy=1, mode="sparse-basis",
                            target_psi=psi, seed=seed)
            for psi in (2, 3)
            for seed in range(50)
        ]
        for cfg in cfgs:
            inst = generate(cfg)
            profile = compute_profile(inst)
            psi_u, psi_v = generic_psi_profile(cfg)
            assert profile.psi_col_clean == psi_u
            assert profile.psi_row_clean == psi_v


class TestDetectionProbability:
    def test_dense_span_matches_formula(self):
        # rank one with dense factors: every row detects, estimate near
        # (noisy + psi_u) / n1 which is exactly 1 here
        inst = generate(GeneratorConfig(n1=10, n2=8, rank_r=1, num_noisy=2, seed=6))
        est = estimate_detection_probability(inst, [], [], probes=4000, seed=0)
        psi_u = (10 - 2) - 1 + 1
        expected = (2 + psi_u) / 10
        se = max(np.sqrt(est * (1 - est) / 4000), 1e-6)
        assert abs(est - expected) <= max(3 * se, 0.01)

    def test_sparse_span_lower_bound(self):
        inst = generate(
            GeneratorConfig(
                n1=12, n2=8, rank_r=2, num_noisy=1, mode="sparse-basis",
                target_psi=3, seed=2,
            )
        )
        est = estimate_detection_probability(inst, [], [], probes=4000, seed=1)
        se = np.sqrt(max(est * (1 - est), 0.25 / 4000) / 4000)
        assert est >= 3 / 12 - 3 * se

    def test_mid_state_lower_bound(self):
        inst = generate(GeneratorConfig(n1=9, n2=8, rank_r=3, num_noisy=1, seed=8))
        o = QueryOracle(inst, rng_seed=0)
        full_state = discover(o, PARAMS)
        assert full_state.rank_estimate == 4
        est = estimate_detection_probability(
            inst, full_state.pivot_rows[:2], full_state.pivot_cols[:2], probes=4000, seed=3
        )
        psi_u = (9 - 1) - 3 + 1
        se = np.sqrt(max(est * (1 - est), 0.25 / 4000) / 4000)
        assert est >= psi_u / 9 - 3 * se

    def test_each_drawn_row_tested_once(self, monkeypatch):
        # A probe's outcome depends only on its row, so 4000 probes on 9 rows
        # make at most 9 bordered-block rank tests (3 x 3 from 2 pivots).
        inst = generate(GeneratorConfig(n1=9, n2=8, rank_r=3, num_noisy=1, seed=8))
        state = discover(QueryOracle(inst, rng_seed=0), PARAMS)
        rows, cols = state.pivot_rows[:2], state.pivot_cols[:2]
        shapes = []

        def counted(m, tol):
            shapes.append(np.shape(m))
            return numerical_rank(m, tol)

        monkeypatch.setattr(verify, "numerical_rank", counted)
        estimate_detection_probability(inst, rows, cols, probes=4000, seed=3)
        assert 0 < shapes.count((3, 3)) <= inst.n1

    def test_zero_probes_rejected(self):
        inst = generate(GeneratorConfig(n1=6, n2=5, rank_r=1, num_noisy=1, seed=7))
        with pytest.raises(ValueError):
            estimate_detection_probability(inst, [], [], probes=0)

    def test_complete_state_rejected(self):
        inst = generate(GeneratorConfig(n1=6, n2=5, rank_r=1, num_noisy=1, seed=7))
        o = QueryOracle(inst, rng_seed=1)
        state = discover(o, PARAMS)
        assert state.rank_estimate == 2
        with pytest.raises(ValueError):
            estimate_detection_probability(
                inst, state.pivot_rows, state.pivot_cols, probes=10
            )

    def test_next_useful_column_extends_rank(self):
        inst = generate(GeneratorConfig(n1=8, n2=6, rank_r=2, num_noisy=1, seed=4))
        j = next_useful_column(inst, [])
        assert numerical_rank(inst.n_observed[:, [j]]) == 1
