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


def dense_noise(inst):
    """The n1 x n2 noise matrix: the noise rows on gamma, zero elsewhere."""
    noise = np.zeros(inst.m.shape)
    noise[list(inst.noisy_rows)] = inst.noise_rows
    return noise


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
        noise = dense_noise(seed7_instance)
        for i in range(6):
            assert np.any(noise[i]) == (i in gamma)

    def test_observed_is_sum(self, seed7_instance):
        np.testing.assert_array_equal(
            seed7_instance.n_observed, seed7_instance.m + dense_noise(seed7_instance)
        )

    def test_no_noise_mode(self):
        inst = generate(GeneratorConfig(n1=5, n2=5, rank_r=2, num_noisy=0, seed=3))
        assert inst.noisy_rows == ()
        assert inst.noise_rows.shape == (0, 5)

    def test_determinism(self):
        cfg = GeneratorConfig(n1=7, n2=6, rank_r=2, num_noisy=2, seed=11)
        a, b = generate(cfg), generate(cfg)
        np.testing.assert_array_equal(a.m, b.m)
        np.testing.assert_array_equal(a.noise_rows, b.noise_rows)
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


class TestComputeProfile:
    def test_rank_one_all_ones(self):
        m = np.ones((4, 4))
        inst = GroundTruthInstance(
            m=m, noisy_rows=(), noise_rows=np.zeros((0, 4)), rank_r=1, seed=0
        )
        profile = compute_profile(inst)
        assert profile.psi_col_clean == 4
        assert profile.psi_row_clean == 4

    def test_basis_vector_column_space(self):
        m = np.zeros((4, 3))
        m[0, :] = [1.0, 2.0, 3.0]
        inst = GroundTruthInstance(
            m=m, noisy_rows=(), noise_rows=np.zeros((0, 3)), rank_r=1, seed=0
        )
        assert compute_profile(inst).psi_col_clean == 1

    def test_capacity(self):
        rng = np.random.default_rng(0)
        m = np.outer(rng.standard_normal(25), rng.standard_normal(4))
        inst = GroundTruthInstance(
            m=m, noisy_rows=(), noise_rows=np.zeros((0, 4)), rank_r=1, seed=0
        )
        with pytest.raises(CapacityError):
            compute_profile(inst)


class TestInstanceType:
    @pytest.mark.parametrize("noisy_rows, noise_rows, message", [
        pytest.param((1, 3), np.ones((1, 5)), "matrix dimension mismatch", id="too-few-rows"),
        pytest.param((1,), np.ones((1, 4)), "matrix dimension mismatch", id="too-few-columns"),
        pytest.param((1, 1), np.ones((2, 5)), "duplicate noisy-row indices", id="duplicate"),
        pytest.param((6,), np.ones((1, 5)), "noisy-row index out of range", id="n1"),
        pytest.param((-1,), np.ones((1, 5)), "noisy-row index out of range", id="negative"),
        pytest.param((1, 3), np.array([[1.0] * 5, [0.0, -0.0, 0.0, 0.0, 0.0]]),
                     "noisy row 3 carries no noise", id="silent-row"),
    ])
    def test_structure_faults_raise(self, noisy_rows, noise_rows, message):
        with pytest.raises(InstanceFormatError, match=message):
            GroundTruthInstance(m=np.ones((6, 5)), noisy_rows=noisy_rows,
                                noise_rows=noise_rows, rank_r=1, seed=0)

    def test_arrays_are_read_only(self, seed7_instance):
        for arr in (seed7_instance.m, seed7_instance.noise_rows, seed7_instance.n_observed):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    # Each m has an all-zero row: in sparse-basis mode, the clean rows outside
    # every support; below, a row of -0.0.
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: generate(GeneratorConfig(n1=12, n2=10, rank_r=2, num_noisy=2,
                                                      mode="sparse-basis", target_psi=3,
                                                      seed=4)), id="sparse-basis"),
        pytest.param(lambda: GroundTruthInstance(
            m=np.array([[-0.0, 1.0], [-0.0, -0.0]]), noisy_rows=(1,),
            noise_rows=np.array([[-0.0, 2.0]]), rank_r=1, seed=0), id="signed-zeros"),
    ])
    def test_observed_is_sum_byte_for_byte(self, build):
        inst = build()
        assert not inst.m.any(axis=1).all()
        assert inst.n_observed.tobytes() == (inst.m + dense_noise(inst)).tobytes()


class TestSaveLoad:
    def test_round_trip(self, seed7_instance, tmp_path):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        loaded = load(path)
        assert loaded.noisy_rows == seed7_instance.noisy_rows
        assert loaded.rank_r == seed7_instance.rank_r
        assert loaded.seed == seed7_instance.seed
        np.testing.assert_array_equal(loaded.m, seed7_instance.m)
        np.testing.assert_array_equal(loaded.noise_rows, seed7_instance.noise_rows)

    def test_saved_noise_is_dense(self, seed7_instance, tmp_path):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        noise = json.loads(path.read_text())["noise"]
        assert noise == dense_noise(seed7_instance).tolist()

    @pytest.mark.parametrize("field, corrupt", [
        pytest.param("n1", float, id="n1-float"),
        pytest.param("n1", lambda v: v + 0.9, id="n1-fraction"),
        pytest.param("n2", str, id="n2-string"),
        pytest.param("r", lambda v: v + 0.7, id="r-fraction"),
        pytest.param("r", lambda v: None, id="r-null"),
        pytest.param("r", bool, id="r-bool"),
        pytest.param("seed", lambda v: v + 0.5, id="seed-fraction"),
        pytest.param("seed", lambda v: None, id="seed-null"),
        pytest.param("gamma", lambda v: [i + 0.4 for i in v], id="gamma-fraction"),
        pytest.param("gamma", lambda v: [str(i) for i in v], id="gamma-string"),
        pytest.param("gamma", lambda v: [True], id="gamma-bool"),
        pytest.param("gamma", lambda v: None, id="gamma-null"),
    ])
    def test_integer_fields_take_only_integers(self, seed7_instance, tmp_path, field, corrupt):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        doc = json.loads(path.read_text())
        doc[field] = corrupt(doc[field])
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=f"field '{field}' must be"):
            load(path)

    @pytest.mark.parametrize("gamma, message", [
        pytest.param(lambda n1, row: [n1], "noisy-row index out of range", id="n1"),
        pytest.param(lambda n1, row: [-1], "noisy-row index out of range", id="negative"),
        pytest.param(lambda n1, row: [row, row], "duplicate noisy-row indices", id="duplicate"),
    ])
    def test_gamma_faults_are_named(self, seed7_instance, tmp_path, gamma, message):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        doc = json.loads(path.read_text())
        doc["gamma"] = gamma(doc["n1"], doc["gamma"][0])
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=message):
            load(path)

    @pytest.mark.parametrize("shape", [(6, 4), (5, 5), (6, 6)])
    def test_noise_of_the_wrong_shape(self, seed7_instance, tmp_path, shape):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        doc = json.loads(path.read_text())
        doc["noise"] = np.ones(shape).tolist()
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="matrix dimension mismatch"):
            load(path)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["m", "noise"])
    def test_non_finite_entry_is_named(self, seed7_instance, tmp_path, field, bad):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        doc = json.loads(path.read_text())
        doc[field][2][3] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=f"field '{field}' has non-finite"):
            load(path)

    @pytest.mark.parametrize("field", ["m", "noise"])
    def test_entry_beyond_float_is_named(self, seed7_instance, tmp_path, field):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        doc = json.loads(path.read_text())
        doc[field][2][3] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=r"entry \(2, 3\) is too large"):
            load(path)

    @pytest.mark.parametrize("field", ["m", "noise"])
    def test_quoted_numbers_are_rejected(self, seed7_instance, tmp_path, field):
        # Every entry a quoted number: parsed, the file would load equal to
        # the original.
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        doc = json.loads(path.read_text())
        doc[field] = [[repr(x) for x in row] for row in doc[field]]
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="must be real numbers, got dtype <U"):
            load(path)

    def test_integer_no_float_holds_is_named(self, seed7_instance, tmp_path):
        path = tmp_path / "inst.json"
        save(seed7_instance, path)
        doc = json.loads(path.read_text())
        doc["m"][2][3] = 2**53 + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError,
                           match=r"entry \(2, 3\) is an integer no float holds"):
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
            m=m, noisy_rows=(), noise_rows=np.zeros((0, 6)), rank_r=2, seed=0
        )
        path = tmp_path / "edge.json"
        save(inst, path)
        if loads:
            np.testing.assert_array_equal(load(path).m, m)
        else:
            with pytest.raises(InstanceFormatError,
                               match="clean matrix rank does not match declared rank"):
                load(path)
