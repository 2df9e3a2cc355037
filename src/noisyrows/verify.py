"""Independent brute-force oracles and statistical validators.

Everything here is deliberately naive (exhaustive enumeration, rational
elimination, ground-truth access) and exists only to anchor the completion
pipeline's correctness; none of it shares decision logic with the algorithm
under test.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import get_type_hints

import numpy as np

from .completion import (
    STATUS_OK,
    CompletionParams,
    query_budget,
)
from .completion import run as run_completion
from .instances import GeneratorConfig, GroundTruthInstance, generate
from .linalg import (
    DEFAULT_TOL,
    CapacityError,
    RankTolerance,
    as_matrix,
    numerical_rank,
)
from .oracle import QueryOracle

SUCCESS_REL_ERROR = 1e-8
LEX_ENUM_CAP = 16
# A trial's oracle seed is its instance seed plus this offset.
ORACLE_SEED_OFFSET = 10_000


def oracle_noisy_rows(n_full, tol: RankTolerance = DEFAULT_TOL) -> list[int]:
    """Rows whose deletion strictly drops the rank of the full matrix: those
    whose e_i lies in the column space, which no row scaling changes. Each
    row is first scaled by an exact power of two to a largest entry in
    [0.5, 1), so a far larger row cannot hide the rest under the rank cut."""
    a = as_matrix(n_full)
    a = np.ldexp(a, -np.frexp(np.abs(a).max(axis=1, keepdims=True, initial=0.0))[1])
    full = numerical_rank(a, tol)
    return [
        i
        for i in range(a.shape[0])
        if numerical_rank(np.delete(a, i, axis=0), tol) < full
    ]


def oracle_exact_rank(m) -> int:
    """Rank over the rationals via fraction-exact Gaussian elimination.

    Entries are converted to exact fractions of their binary float values,
    so this is an exact cross-check for matrices whose entries are exactly
    representable (integer-valued fixtures in particular).
    """
    a = as_matrix(m)
    rows = [[Fraction(x) for x in row] for row in a.tolist()]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next(
            (r for r in range(pivot_row, n_rows) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        for r in range(pivot_row + 1, n_rows):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == n_rows:
            break
    return rank


def ei_in_colspace_append(m, i: int, tol: RankTolerance = DEFAULT_TOL) -> bool:
    """Append-column membership test, the cross-check for the row-deletion form:
    e_i lies in the column space iff adjoining it does not raise the rank."""
    a = as_matrix(m)
    if not (0 <= i < a.shape[0]):
        raise IndexError(f"row index {i} out of range for {a.shape[0]} rows")
    e = np.zeros((a.shape[0], 1))
    e[i, 0] = 1.0
    return numerical_rank(np.hstack([a, e]), tol) == numerical_rank(a, tol)


def sparsity_number_lex(m, tol: RankTolerance = DEFAULT_TOL) -> int:
    """Second, independent sparsity-number enumeration of the column space of m.

    Works on the rows of m itself, with no basis: a support S carries a
    nonzero member iff the rows of m off S have lower rank than m, every
    rank counted above rel_threshold times the largest singular value of m.
    Walks all nonempty supports in subset-lexicographic (bitmask) order and
    keeps the smallest that carries a member, whereas the primary
    implementation scans an orthonormal basis by cardinality with early exit.
    """
    a = as_matrix(m)
    n = a.shape[0]
    if n > LEX_ENUM_CAP:
        raise CapacityError(f"ambient dimension {n} exceeds lex cap {LEX_ENUM_CAP}")
    cut = tol.rel_threshold * max(np.linalg.svd(a, compute_uv=False), default=0.0)
    full = np.linalg.matrix_rank(a, tol=cut)
    if full == 0:
        raise ValueError("zero matrix spans no subspace, so has no sparsity number")
    best = n + 1
    for mask in range(1, 2**n):
        support_size = mask.bit_count()
        off = [i for i in range(n) if not (mask >> i) & 1]
        if support_size < best and np.linalg.matrix_rank(a[off, :], tol=cut) < full:
            best = support_size
    return best


@dataclass(frozen=True)
class TrialStats:
    """Aggregate outcome of a batch of seeded end-to-end trials."""

    n1: int
    n2: int
    rank: int
    omega_size: int
    psi_u: int
    epsilon: float
    trials: int
    successes: int
    mean_queries: float
    proof_bound: float
    bound_violations: int

    def __post_init__(self):
        if self.successes > self.trials:
            raise ValueError("successes cannot exceed trials")
        if self.mean_queries > self.n1 * self.n2:
            raise ValueError("mean queries cannot exceed the matrix size")


# The CSV columns are TrialStats' fields in order, two of them renamed:
# (field name, column name, type) per column.
_CSV_RENAMES = {"rank": "r", "omega_size": "omega"}
_CSV_COLUMNS = [
    (f.name, _CSV_RENAMES.get(f.name, f.name), get_type_hints(TrialStats)[f.name])
    for f in fields(TrialStats)
]


def write_trial_stats_csv(path, stats: list[TrialStats]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow([column for _, column, _ in _CSV_COLUMNS])
        for s in stats:
            w.writerow([getattr(s, name) for name, _, _ in _CSV_COLUMNS])


def read_trial_stats_csv(path) -> list[TrialStats]:
    with open(path, newline="", encoding="utf-8") as f:
        return [
            TrialStats(**{name: kind(row[column]) for name, column, kind in _CSV_COLUMNS})
            for row in csv.DictReader(f)
        ]


def generic_psi_profile(config: GeneratorConfig) -> tuple[int, int]:
    """Sparsity numbers implied by the generator, without enumeration.

    Gaussian draws put the clean spaces in generic position, where an
    r-dimensional subspace of R^m has sparsity number m - r + 1 almost
    surely; the sparse-basis construction pins the column-space value to
    its target instead.
    """
    n_clean = config.n1 - config.num_noisy
    if config.mode == "sparse-basis":
        psi_u = config.target_psi
    else:
        psi_u = n_clean - config.rank_r + 1
    psi_v = config.n2 - config.rank_r + 1
    return psi_u, psi_v


def max_relative_error(recovered: np.ndarray, truth: np.ndarray, rows: list[int]) -> float:
    """Largest entry deviation on the given rows, relative to the largest
    entry magnitude there (per-entry ratios blow up near zero entries). An
    exact match reads 0.0, and any error against an all-zero truth inf."""
    if not rows:
        return 0.0
    truth = truth[rows, :]
    worst = float(np.max(np.abs(recovered[rows, :] - truth)))
    scale = float(np.max(np.abs(truth)))
    if scale > 0.0 and np.isfinite(worst):
        return worst / scale
    return float("inf") if worst else 0.0


def evaluate_trial(
    inst: GroundTruthInstance, oracle_seed: int, params: CompletionParams
) -> tuple[bool, int, float]:
    """Run one trial; return (success, query count, max relative error).

    Success means the flagged set equals the true noisy rows exactly and the
    clean-row entries are reproduced to SUCCESS_REL_ERROR.
    """
    oracle = QueryOracle(inst, rng_seed=oracle_seed)
    result = run_completion(oracle, params)
    err = max_relative_error(result.recovered, inst.m, list(inst.clean_rows))
    success = (
        result.status == STATUS_OK
        and result.noisy_rows_hat == inst.noisy_rows
        and err <= SUCCESS_REL_ERROR
    )
    return success, result.query_count, err


def estimate_success_rate(
    config: GeneratorConfig, params: CompletionParams, trials: int
) -> TrialStats:
    """Monte Carlo success and query statistics over seeded instances.

    Trial t generates a fresh instance from `config` at seed config.seed + t
    and runs the full pipeline through an oracle seeded ORACLE_SEED_OFFSET
    higher. Query counts are scored against the per-phase budget evaluated
    at the generator-implied sparsity numbers.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    psi_u, psi_v = generic_psi_profile(config)
    bound = query_budget(
        config.n1,
        config.n2,
        config.rank_r,
        config.num_noisy,
        psi_u,
        psi_v,
        params.epsilon,
    )
    successes = 0
    violations = 0
    total_queries = 0
    for s in range(config.seed, config.seed + trials):
        inst = generate(replace(config, seed=s), params.tol)
        ok, queries, _ = evaluate_trial(inst, s + ORACLE_SEED_OFFSET, params)
        successes += ok
        total_queries += queries
        violations += queries > bound.proof_bound
    return TrialStats(
        n1=config.n1,
        n2=config.n2,
        rank=config.rank_r,
        omega_size=config.num_noisy,
        psi_u=psi_u,
        epsilon=params.epsilon,
        trials=trials,
        successes=successes,
        mean_queries=total_queries / trials,
        proof_bound=bound.proof_bound,
        bound_violations=violations,
    )


def next_useful_column(
    inst: GroundTruthInstance, cols: list[int], tol: RankTolerance = DEFAULT_TOL
) -> int:
    """Lowest column outside `cols` that still extends their column space
    (ground-truth side; discovery itself never sees this)."""
    n_obs = inst.n_observed
    base = numerical_rank(n_obs[:, cols], tol)
    for j in range(inst.n2):
        if j not in cols and numerical_rank(n_obs[:, cols + [j]], tol) > base:
            return j
    raise ValueError("no useful column left: discovery already complete")


def estimate_detection_probability(
    inst: GroundTruthInstance,
    rows: list[int],
    cols: list[int],
    probes: int,
    seed: int = 0,
    tol: RankTolerance = DEFAULT_TOL,
) -> float:
    """Monte Carlo per-probe success frequency from a fixed mid-discovery
    state, the pivot rows `rows` and columns `cols`.

    Each probe draws a uniform random row and tests whether bordering the
    pivot submatrix with (row, next useful column) stays invertible, exactly
    the acceptance test discovery applies. The column is fixed, so a probe's
    outcome depends only on its row: each distinct drawn row is tested once.
    """
    if probes < 1:
        raise ValueError("probes must be positive")
    if len(rows) >= numerical_rank(inst.n_observed, tol):
        raise ValueError("state must be mid-discovery (fewer pivots than the full rank)")
    cols = cols + [next_useful_column(inst, cols, tol)]
    drawn, counts = np.unique(
        np.random.default_rng(seed).integers(inst.n1, size=probes), return_counts=True
    )
    hits = sum(
        count
        for i, count in zip(drawn.tolist(), counts.tolist())
        if i not in rows
        and numerical_rank(inst.n_observed[np.ix_(rows + [i], cols)], tol) == len(cols)
    )
    return hits / probes
