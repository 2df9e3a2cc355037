import dataclasses
import json

import numpy as np
import pytest

from noisyrows.instances import (
    MAX_GENERATION_ATTEMPTS,
    GenerationError,
    GeneratorConfig,
    GroundTruthInstance,
    InstanceFormatError,
    _check_draw,
    _check_instance,
    _draw_candidate,
    _product_rank,
    compute_profile,
    generate,
    load,
    save,
)
from noisyrows.linalg import CapacityError, has_unit_coordinate_vector, numerical_rank


@pytest.fixture
def seed7_instance():
    return generate(GeneratorConfig(n1=6, n2=5, rank_r=1, num_noisy=1, seed=7))


class TestGeneratorConfig:
    def test_valid(self):
        GeneratorConfig(n1=8, n2=8, rank_r=2, num_noisy=1)

    def test_infeasible_rank_noisy(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n1=8, n2=8, rank_r=5, num_noisy=5)

    def test_sparse_basis_needs_target(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n1=9, n2=6, rank_r=3, mode="sparse-basis")

    def test_sparse_basis_support_budget(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n1=8, n2=6, rank_r=3, mode="sparse-basis", target_psi=3)

    def test_target_psi_floor(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n1=9, n2=6, rank_r=3, mode="sparse-basis", target_psi=1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n1=4, n2=4, rank_r=1, mode="uniform")


class TestGenerate:
    def test_seed7_observed_rank(self, seed7_instance):
        assert numerical_rank(seed7_instance.n_observed) == 2

    def test_clean_rank(self, seed7_instance):
        assert numerical_rank(seed7_instance.m) == 1

    def test_noise_support(self, seed7_instance):
        gamma = set(seed7_instance.noisy_rows)
        for i in range(6):
            assert np.any(seed7_instance.noise[i]) == (i in gamma)

    def test_observed_is_sum(self, seed7_instance):
        np.testing.assert_array_equal(
            seed7_instance.n_observed, seed7_instance.m + seed7_instance.noise
        )

    def test_no_noise_mode(self):
        inst = generate(GeneratorConfig(n1=5, n2=5, rank_r=2, num_noisy=0, seed=3))
        assert inst.noisy_rows == ()
        assert not np.any(inst.noise)

    def test_determinism(self):
        cfg = GeneratorConfig(n1=7, n2=6, rank_r=2, num_noisy=2, seed=11)
        a, b = generate(cfg), generate(cfg)
        np.testing.assert_array_equal(a.m, b.m)
        np.testing.assert_array_equal(a.noise, b.noise)
        assert a.noisy_rows == b.noisy_rows

    def test_different_seeds_differ(self):
        a = generate(GeneratorConfig(n1=7, n2=6, rank_r=2, seed=1))
        b = generate(GeneratorConfig(n1=7, n2=6, rank_r=2, seed=2))
        assert not np.array_equal(a.m, b.m)

    def test_sparse_basis_psi(self):
        inst = generate(
            GeneratorConfig(
                n1=9, n2=6, rank_r=3, num_noisy=0, mode="sparse-basis", target_psi=3, seed=4
            )
        )
        assert compute_profile(inst).psi_col_clean == 3

    def test_enforce_psi(self):
        inst = generate(
            GeneratorConfig(n1=8, n2=8, rank_r=2, num_noisy=1, seed=5, enforce_psi=True)
        )
        assert compute_profile(inst).psi_col_clean > 1

    def test_gaussian_rank_rarely_degenerate(self):
        # raw draws, before the generator's retry loop
        bad = 0
        for seed in range(200):
            cfg = GeneratorConfig(n1=8, n2=8, rank_r=2, num_noisy=1, seed=seed)
            inst, _, _ = _draw_candidate(cfg, 0)
            ok = (
                numerical_rank(inst.m) == 2
                and numerical_rank(inst.n_observed) == 3
            )
            bad += not ok
        assert bad <= 2  # at least 99% of seeded trials

    def test_fresh_noise_row_raises_rank(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            base = rng.standard_normal((6, k)) @ rng.standard_normal((k, 8))
            stacked = np.vstack([base, rng.standard_normal(8)])
            assert numerical_rank(stacked) == numerical_rank(base) + 1


def _factor_cases():
    rng = np.random.default_rng(31)
    left, right = rng.standard_normal((9, 3)), rng.standard_normal((3, 7))
    duplicated = left.copy()
    duplicated[:, 2] = duplicated[:, 0]
    gamma = [1, 4]
    units = np.zeros((9, 2))
    units[gamma, [0, 1]] = 1.0
    noise_rows = rng.standard_normal((2, 7))
    return [
        pytest.param(left, right, 3, id="full-rank"),
        pytest.param(np.hstack([left, units]), np.vstack([right, noise_rows]), 5,
                     id="full-rank-with-gamma"),
        pytest.param(duplicated, right, 2, id="duplicated-column"),
        pytest.param(np.hstack([duplicated, units]), np.vstack([right, noise_rows]), 4,
                     id="duplicated-column-with-gamma"),
        pytest.param(np.zeros((9, 3)), right, 0, id="zero-left"),
        pytest.param(left, np.zeros((3, 7)), 0, id="zero-right"),
        pytest.param(np.hstack([left, np.zeros((9, 0))]), np.vstack([right, np.zeros((0, 7))]),
                     3, id="empty-gamma"),
        pytest.param(np.zeros((9, 0)), np.zeros((0, 7)), 0, id="empty-factors"),
    ]


# Small versions of the benchmark shapes (square, wide, trials), g = 0, both
# modes with and without enforce_psi, and a clean space that is all of R^5,
# where every draw fails the psi check.
EQUIVALENCE_CONFIGS = [
    dict(n1=40, n2=40, rank_r=4, num_noisy=3),
    dict(n1=12, n2=200, rank_r=8, num_noisy=2),
    dict(n1=30, n2=30, rank_r=6, num_noisy=3, enforce_psi=True),
    dict(n1=30, n2=30, rank_r=6, num_noisy=3, mode="sparse-basis", target_psi=3),
    dict(n1=12, n2=10, rank_r=3, num_noisy=1, mode="sparse-basis", target_psi=3,
         enforce_psi=True),
    dict(n1=10, n2=8, rank_r=3, num_noisy=0, enforce_psi=True),
    dict(n1=5, n2=6, rank_r=5, num_noisy=0, enforce_psi=True),
]
EQUIVALENCE_SEEDS = range(43)
PSI_REJECTED = "clean column space contains a standard basis vector"


def _dense_verdict(config, inst):
    """The dense reference decision: None, or the message of the first failed check."""
    try:
        _check_instance(inst)
    except InstanceFormatError as exc:
        return str(exc)
    if config.enforce_psi and has_unit_coordinate_vector(inst.m[list(inst.clean_rows)]):
        return PSI_REJECTED
    return None


def _factored_verdict(config, inst, left, right):
    try:
        _check_draw(inst, left, right, config.enforce_psi)
    except InstanceFormatError as exc:
        return str(exc)
    return None


class TestFactoredChecks:
    @pytest.mark.parametrize("a, b, rank", _factor_cases())
    def test_product_rank_matches_dense(self, a, b, rank):
        assert _product_rank(a, b) == numerical_rank(a @ b) == rank

    def test_decisions_match_dense(self):
        verdicts = []
        for config in EQUIVALENCE_CONFIGS:
            for seed in EQUIVALENCE_SEEDS:
                cfg = GeneratorConfig(**config, seed=seed)
                inst, left, right = _draw_candidate(cfg, 0)
                dense = _dense_verdict(cfg, inst)
                assert _factored_verdict(cfg, inst, left, right) == dense, cfg
                verdicts.append(dense)
        assert set(verdicts) == {None, PSI_REJECTED}

    def test_generated_instances_pass_dense_checks(self):
        outcomes = set()
        for config in EQUIVALENCE_CONFIGS:
            for seed in EQUIVALENCE_SEEDS:
                cfg = GeneratorConfig(**config, seed=seed)
                try:
                    inst = generate(cfg)
                except GenerationError:
                    outcomes.add("rejected")
                    for attempt in range(MAX_GENERATION_ATTEMPTS):
                        assert _dense_verdict(cfg, _draw_candidate(cfg, attempt)[0]), cfg
                    continue
                outcomes.add("generated")
                assert _dense_verdict(cfg, inst) is None, cfg
        assert outcomes == {"generated", "rejected"}

    def test_observed_off_by_one_ulp(self, seed7_instance):
        n_obs = seed7_instance.n_observed.copy()
        n_obs[2, 3] = np.nextafter(n_obs[2, 3], np.inf)
        inst = dataclasses.replace(seed7_instance, n_observed=n_obs)
        with pytest.raises(InstanceFormatError, match=r"observed matrix is not m \+ noise"):
            _check_instance(inst)


class TestComputeProfile:
    def test_rank_one_all_ones(self):
        m = np.ones((4, 4))
        inst = GroundTruthInstance(
            m=m, noisy_rows=(), noise=np.zeros((4, 4)), n_observed=m, rank_r=1, seed=0
        )
        profile = compute_profile(inst)
        assert profile.psi_col_clean == 4
        assert profile.psi_row_clean == 4

    def test_basis_vector_column_space(self):
        m = np.zeros((4, 3))
        m[0, :] = [1.0, 2.0, 3.0]
        inst = GroundTruthInstance(
            m=m, noisy_rows=(), noise=np.zeros((4, 3)), n_observed=m, rank_r=1, seed=0
        )
        assert compute_profile(inst).psi_col_clean == 1

    def test_capacity(self):
        rng = np.random.default_rng(0)
        m = np.outer(rng.standard_normal(25), rng.standard_normal(4))
        inst = GroundTruthInstance(
            m=m, noisy_rows=(), noise=np.zeros((25, 4)), n_observed=m, rank_r=1, seed=0
        )
        with pytest.raises(CapacityError):
            compute_profile(inst)


class TestSaveLoad:
    def test_round_trip(self, seed7_instance, tmp_path):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        loaded = load(path)
        assert loaded.noisy_rows == seed7_instance.noisy_rows
        assert loaded.rank_r == seed7_instance.rank_r
        assert loaded.seed == seed7_instance.seed
        np.testing.assert_array_equal(loaded.m, seed7_instance.m)
        np.testing.assert_array_equal(loaded.noise, seed7_instance.noise)

    def test_truncated_file(self, seed7_instance, tmp_path):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(InstanceFormatError):
            load(path)

    def test_gamma_too_large(self, seed7_instance, tmp_path):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        doc = json.loads(path.read_text())
        doc["gamma"] = list(range(doc["n1"] + 1))
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError):
            load(path)

    def test_dimension_mismatch(self, seed7_instance, tmp_path):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        doc = json.loads(path.read_text())
        doc["m"] = doc["m"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError):
            load(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n1": 2, "n2": 2}))
        with pytest.raises(InstanceFormatError):
            load(path)

    def test_noise_pattern_validated(self, seed7_instance, tmp_path):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        doc = json.loads(path.read_text())
        doc["gamma"] = []  # noise rows remain, so the pattern no longer matches
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError):
            load(path)

    def test_noisy_row_without_noise_is_named(self, seed7_instance, tmp_path):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        doc = json.loads(path.read_text())
        (row,) = doc["gamma"]
        doc["noise"][row] = [0.0] * doc["n2"]
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=f"noisy row {row} carries no noise"):
            load(path)

    def test_lowest_mismatched_row_is_named(self, seed7_instance, tmp_path):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        doc = json.loads(path.read_text())
        (row,) = doc["gamma"]
        clean = [i for i in range(doc["n1"]) if i != row]
        # Noise on the two highest clean rows: the lower one is reported.
        for i in clean[-2:]:
            doc["noise"][i] = [1.0] * doc["n2"]
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError,
                           match=f"row {clean[-2]} carries noise but is not in gamma"):
            load(path)

    @pytest.mark.parametrize("tail, loads", [(1e-8, False), (1e-10, True)])
    def test_rank_at_tolerance_edge(self, tmp_path, tail, loads):
        # Declared rank 2, with a third singular value `tail` times the first:
        # above the default 1e-9 cut the matrix has rank 3, below it rank 2.
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        m = (u * [1.0, 0.5, tail]) @ v.T
        s = np.linalg.svd(m, compute_uv=False)
        assert s[2] / s[0] == pytest.approx(tail, rel=1e-6)
        inst = GroundTruthInstance(
            m=m, noisy_rows=(), noise=np.zeros_like(m), n_observed=m, rank_r=2, seed=0
        )
        path = tmp_path / "edge.json"
        save(inst, path)
        if loads:
            np.testing.assert_array_equal(load(path).m, m)
        else:
            with pytest.raises(InstanceFormatError,
                               match="clean matrix rank does not match declared rank"):
                load(path)
