"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. All statistics are seeded and deterministic.
"""
import json
import math

import numpy as np
import pytest

from noisyrows.cli import main as cli_main
from noisyrows.completion import (
    CompletionParams,
    compute_eta,
    discover,
    identify_noisy_rows,
    query_budget,
)
from noisyrows.instances import GeneratorConfig, compute_profile, generate, save
from noisyrows.linalg import ei_in_colspace
from noisyrows.linalg import sparsity_number as sparsity_exhaustive
from noisyrows.oracle import QueryOracle
from noisyrows.verify import (
    ei_in_colspace_append,
    estimate_detection_probability,
    evaluate_trial,
    oracle_noisy_rows,
)

EPSILON = 0.1
PARAMS = CompletionParams(epsilon=EPSILON)


def report(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} [{detail}]")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def feasible_config(rng, n_max: int, r_max: int, g_max: int, seed: int, **kw):
    while True:
        n1 = int(rng.integers(8, n_max + 1))
        n2 = int(rng.integers(8, n_max + 1))
        r = int(rng.integers(1, r_max + 1))
        g = int(rng.integers(0, g_max + 1))
        if r + g <= min(n1 - g, n2):
            return GeneratorConfig(n1=n1, n2=n2, rank_r=r, num_noisy=g, seed=seed, **kw)


@pytest.fixture(scope="module")
def recovery_trials():
    """200 seeded gaussian trials shared by criteria 1 and 6."""
    rng = np.random.default_rng(20260809)
    records = []
    for t in range(200):
        cfg = feasible_config(rng, n_max=30, r_max=4, g_max=3, seed=t, enforce_psi=True)
        inst = generate(cfg)
        ok, queries, err = evaluate_trial(inst, 50_000 + t, PARAMS)
        psi_u = (cfg.n1 - cfg.num_noisy) - cfg.rank_r + 1
        psi_v = cfg.n2 - cfg.rank_r + 1
        bound = query_budget(
            cfg.n1, cfg.n2, cfg.rank_r, cfg.num_noisy, psi_u, psi_v, EPSILON
        )
        records.append(
            dict(ok=ok, queries=queries, cells=cfg.n1 * cfg.n2,
                 proof_bound=bound.proof_bound)
        )
    return records


def test_criterion_1_exact_recovery_and_identification(recovery_trials):
    successes = sum(r["ok"] for r in recovery_trials)
    rate = successes / len(recovery_trials)
    report(
        1,
        "exact recovery & identification",
        rate >= 1 - 2 * EPSILON,
        f"{successes}/200 successes, need >= 0.80",
    )


def test_criterion_2_identification_oracle_equivalence():
    # epsilon pinned low so discovery reliably completes on every fixture
    params = CompletionParams(epsilon=0.01)
    rng = np.random.default_rng(42)
    agreements = 0
    for t in range(100):
        cfg = feasible_config(rng, n_max=20, r_max=3, g_max=2, seed=1000 + t,
                              enforce_psi=True)
        inst = generate(cfg)
        oracle = QueryOracle(inst, rng_seed=t)
        state = discover(oracle, params)
        flagged = identify_noisy_rows(state, params)
        reference = [
            i for i in oracle_noisy_rows(inst.n_observed) if i in state.pivot_rows
        ]
        agreements += flagged == reference
    report(
        2,
        "noisy-row detection oracle equivalence",
        agreements == 100,
        f"{agreements}/100 fixtures agree",
    )


def test_criterion_3_rank_drop_vs_basis_membership():
    rng = np.random.default_rng(7)
    matrices = [np.zeros((4, 4)), np.eye(5), np.outer(rng.standard_normal(6), rng.standard_normal(4))]
    for _ in range(500):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        kind = rng.integers(3)
        if kind == 0:
            mat = rng.standard_normal((n, m))
        elif kind == 1:
            mat = np.outer(rng.standard_normal(n), rng.standard_normal(m))
        else:
            k = int(rng.integers(1, min(n, m) + 1))
            mat = rng.standard_normal((n, k)) @ rng.standard_normal((k, m))
        matrices.append(mat)
    disagreements = sum(
        ei_in_colspace(mat, i) != ei_in_colspace_append(mat, i)
        for mat in matrices
        for i in range(mat.shape[0])
    )
    report(
        3,
        "rank-drop vs basis-membership agreement",
        disagreements == 0,
        f"{len(matrices)} matrices, {disagreements} disagreements",
    )


def test_criterion_4_sparsity_number_correctness():
    rng = np.random.default_rng(11)
    construction_hits = 0
    for t in range(50):
        while True:
            r = int(rng.integers(1, 4))
            psi = int(rng.integers(2, 5))
            g = int(rng.integers(0, 3))
            n1 = r * psi + g + int(rng.integers(0, 3))
            n2 = int(rng.integers(max(r + g, 4), 9))
            if r + g <= min(n1 - g, n2) and n1 <= 12:
                break
        inst = generate(
            GeneratorConfig(n1=n1, n2=n2, rank_r=r, num_noisy=g,
                            mode="sparse-basis", target_psi=psi, seed=2000 + t)
        )
        construction_hits += compute_profile(inst).psi_col_clean == psi
    range_ok = True
    for t in range(50):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, min(n, 4) + 1))
        psi = sparsity_exhaustive(rng.standard_normal((n, d)))
        range_ok &= 1 <= psi <= n - d + 1
    report(
        4,
        "sparsity-number correctness",
        construction_hits == 50 and range_ok,
        f"{construction_hits}/50 construction matches, range bound {'ok' if range_ok else 'violated'}",
    )


def test_criterion_5_detection_probability_bound():
    fixture_cfgs = [
        GeneratorConfig(n1=10, n2=8, rank_r=1, num_noisy=2, seed=6),
        GeneratorConfig(n1=12, n2=8, rank_r=2, num_noisy=1,
                        mode="sparse-basis", target_psi=3, seed=2),
        GeneratorConfig(n1=12, n2=9, rank_r=3, num_noisy=0,
                        mode="sparse-basis", target_psi=4, seed=3),
        GeneratorConfig(n1=9, n2=8, rank_r=2, num_noisy=1, seed=11),
        GeneratorConfig(n1=11, n2=10, rank_r=3, num_noisy=2, seed=12),
        GeneratorConfig(n1=8, n2=8, rank_r=1, num_noisy=0, seed=13),
        GeneratorConfig(n1=10, n2=10, rank_r=2, num_noisy=2, seed=14),
        GeneratorConfig(n1=12, n2=10, rank_r=4, num_noisy=0, seed=15),
        GeneratorConfig(n1=10, n2=9, rank_r=2, num_noisy=0,
                        mode="sparse-basis", target_psi=5, seed=16),
        GeneratorConfig(n1=12, n2=11, rank_r=1, num_noisy=3, seed=17),
    ]
    probes = 10_000
    holds = 0
    details = []
    for k, cfg in enumerate(fixture_cfgs):
        inst = generate(cfg)
        psi_u = compute_profile(inst).psi_col_clean
        if k % 2 == 0 or cfg.rank_r + cfg.num_noisy < 2:
            rows, cols = [], []
        else:
            full = discover(QueryOracle(inst, rng_seed=97),
                            CompletionParams(epsilon=0.01))
            rows, cols = full.pivot_rows[:1], full.pivot_cols[:1]
        est = estimate_detection_probability(inst, rows, cols, probes=probes, seed=100 + k)
        se = math.sqrt(max(est * (1 - est), 0.25 / probes) / probes)
        ok = est >= psi_u / cfg.n1 - 3 * se
        holds += ok
        details.append(f"{est:.3f}>={psi_u}/{cfg.n1}")
    report(
        5,
        "detection-probability lower bound",
        holds == len(fixture_cfgs),
        f"{holds}/{len(fixture_cfgs)} fixtures: " + ", ".join(details),
    )


def test_criterion_6_query_budget(recovery_trials):
    violations = sum(r["queries"] > r["proof_bound"] for r in recovery_trials)
    n = len(recovery_trials)
    slack = 3 * math.sqrt(0.2 * 0.8 / n)
    over_cap = sum(r["queries"] > r["cells"] for r in recovery_trials)
    passed = violations / n <= 0.2 + slack and over_cap == 0
    report(
        6,
        "query budget",
        passed,
        f"{violations}/{n} above proof bound (limit {0.2 + slack:.3f}), "
        f"{over_cap} above the cell count",
    )


def test_criterion_7_determinism(tmp_path):
    inst = generate(GeneratorConfig(n1=8, n2=8, rank_r=2, num_noisy=1, seed=7))
    path = tmp_path / "inst.json"
    save(inst, path)
    blobs = set()
    for _ in range(20):
        out = tmp_path / "result.json"
        rc = cli_main(["run", "--instance", str(path), "--oracle-seed", "3",
                       "--json", str(out)])
        assert rc == 0
        blobs.add(out.read_bytes())
    report(
        7,
        "determinism",
        len(blobs) == 1,
        f"{20 - len(blobs) + 1}/20 repeats byte-identical",
    )


def test_criterion_8_formula_calibration():
    eps = 1 / math.e
    report8 = query_budget(100, 50, 3, 2, 10, 7, eps)
    # with ln(1/eps) = 1 both expressions reduce to exact rationals
    proof_expected = 2 * 100 * (2 + 2 + 1) + (2 * 100 / 10) * (3 + 2 + 2 + 1) + (
        3 + 2
    ) * 150 + 3 * (50 - 3 - 2)
    stated_expected = (100 + 50 - 2) * 2 + (4 * 100 / 10) * (3 + 2 + 1) * 50 / 7 + (
        2 * 100
    ) * (2 + 2 + 1)
    eta_expected = max(1, math.ceil(max(2 * 100 / 50, 1.0)))
    passed = (
        report8.proof_bound == proof_expected
        and report8.stated_bound == stated_expected
        and compute_eta(100, 50, eps) == eta_expected
    )
    report(
        8,
        "natural-log calibration at eps=1/e",
        passed,
        f"proof={report8.proof_bound}, stated={report8.stated_bound:.6f}",
    )
