"""Adaptive three-phase completion of a low-rank matrix whose observed copy
has an unknown sparse set of rows corrupted by non-degenerate random noise.

Phase 1 (discovery) grows index sets of rows and columns whose induced square
submatrix stays invertible, certifying one unit of rank per acceptance: each
sweep probes one random entry per unclaimed column, and a probe is accepted
when the bordered square submatrix passes the invertibility test. A pass
budget of consecutive unproductive sweeps decides when the rank is complete.

Phase 2 (identification) flags the discovered rows whose deletion strictly
drops the rank of the fully observed pivot columns. A corrupted row is
linearly independent of everything else, so removing it loses a dimension;
a clean row can only mimic that signature when the clean column space
contains a standard basis vector, which the precondition excludes.

Phase 3 (recovery) solves for every remaining column against a basis of
pivot columns restricted to the surviving clean pivot rows, reconstructing
all entries on rows not flagged as noisy. Flagged rows carry no information
about the underlying values, so they are reported as NaN, never invented.

The budget calculators evaluate the two closed-form query budgets (the
headline bound and the per-phase sum) for given instance parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DegenerateSystemError,
    RankTolerance,
    is_invertible,
    numerical_rank,
    solve_least_squares,
)
from .oracle import QueryOracle

STATUS_OK = "ok"
STATUS_PRECONDITION = "precondition-violated"
STATUS_BUDGET = "budget-exhausted"


@dataclass(frozen=True)
class CompletionParams:
    epsilon: float = 0.1
    tol: RankTolerance = field(default=DEFAULT_TOL)

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")


@dataclass
class DiscoveryState:
    """Index sets and counters carried across discovery sweeps."""

    pivot_rows: list[int]
    pivot_cols: list[int]
    rank_estimate: int
    stale_passes: int
    pass_budget: int


@dataclass(frozen=True)
class CompletionResult:
    noisy_rows_hat: tuple[int, ...]
    recovered: np.ndarray
    pivot_rows: tuple[int, ...]
    pivot_cols: tuple[int, ...]
    query_count: int
    status: str


@dataclass(frozen=True)
class BoundReport:
    """Both closed-form query budgets plus the parameters they were built from."""

    stated_bound: float
    proof_bound: float
    n1: int
    n2: int
    rank: int
    omega_size: int
    psi_u: int
    psi_v: int
    epsilon: float


def compute_eta(n1: int, n2: int, epsilon: float) -> int:
    """Budget of consecutive unproductive sweeps before declaring the rank
    complete: ceil(max((2 n1 / n2) ln(1/eps), ln(1/eps))), at least 1."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    level = -math.log(epsilon)
    return max(1, math.ceil(max((2.0 * n1 / n2) * level, level)))


def _result(
    oracle: QueryOracle,
    state: DiscoveryState,
    noisy_rows: list[int],
    status: str,
    recovered: np.ndarray | None = None,
) -> CompletionResult:
    """Every result is built here. Flagged rows of `recovered` are set to
    NaN; without `recovered` the result carries no values at all."""
    if recovered is None:
        recovered = np.full(oracle.shape, np.nan)
    flagged = sorted(set(noisy_rows))
    recovered[flagged, :] = np.nan
    return CompletionResult(
        noisy_rows_hat=tuple(flagged),
        recovered=recovered,
        pivot_rows=tuple(state.pivot_rows),
        pivot_cols=tuple(state.pivot_cols),
        query_count=oracle.unique_query_count,
        status=status,
    )


def discover(oracle: QueryOracle, params: CompletionParams) -> DiscoveryState:
    """Grow maximal independent row and column sets by random-entry probing.

    Every sweep visits each unclaimed column once: draw a random row, query
    that entry, and test whether bordering the current pivot submatrix with
    this (row, column) pair keeps it invertible. Acceptance queries the full
    row and column and resets the stale-pass counter.
    """
    n1, n2 = oracle.shape
    budget = compute_eta(n1, n2, params.epsilon)
    rows: list[int] = []
    cols: list[int] = []
    stale = 0
    while stale < budget:
        stale += 1
        claimed = set(cols)
        for j in range(n2):
            if j in claimed:
                continue
            i = oracle.draw_random_row()
            oracle.query_entry(i, j)
            if i in rows:
                # The union leaves the row set unchanged, so the bordered
                # submatrix is not square and cannot certify a new rank unit.
                continue
            candidate = oracle.query_block(rows + [i], cols + [j])
            if is_invertible(candidate, params.tol):
                oracle.query_column(j)
                oracle.query_row(i)
                rows.append(i)
                cols.append(j)
                claimed.add(j)
                stale = 0
    return DiscoveryState(
        pivot_rows=rows,
        pivot_cols=cols,
        rank_estimate=len(rows),
        stale_passes=stale,
        pass_budget=budget,
    )


def identify_noisy_rows(
    oracle: QueryOracle, state: DiscoveryState, params: CompletionParams
) -> list[int]:
    """Flag discovered rows whose deletion drops the rank of the pivot columns.

    Works entirely on the fully observed pivot columns; no new cells are
    revealed. Raises if discovery did not leave those columns fully observed.
    """
    cols = state.pivot_cols
    if not cols:
        return []
    mask = oracle.observed_mask
    if not mask[:, cols].all():
        raise RuntimeError("internal contract: pivot columns must be fully observed")
    observed_cols = oracle.query_block(range(oracle.shape[0]), cols)
    full = numerical_rank(observed_cols, params.tol)
    flagged = []
    for i in state.pivot_rows:
        remaining = np.delete(observed_cols, i, axis=0)
        reduced = numerical_rank(remaining, params.tol) if remaining.size else 0
        if reduced < full:
            flagged.append(i)
    return sorted(flagged)


def _select_column_basis(
    values: np.ndarray, cols: list[int], needed: int, tol: RankTolerance
) -> list[int]:
    """Greedy left-to-right choice of `needed` independent columns.

    `values` holds the candidate columns restricted to the clean pivot rows,
    one column per entry of `cols`, scanned in ascending column-index order.
    """
    order = np.argsort(cols)
    selected: list[int] = []
    selected_vals: list[np.ndarray] = []
    for pos in order:
        trial = np.column_stack(selected_vals + [values[:, pos]])
        if numerical_rank(trial, tol) == len(selected) + 1:
            selected.append(cols[pos])
            selected_vals.append(values[:, pos])
            if len(selected) == needed:
                return selected
    raise DegenerateSystemError(
        f"only {len(selected)} independent columns available, need {needed}"
    )


def recover(
    oracle: QueryOracle,
    state: DiscoveryState,
    noisy_rows: list[int],
    params: CompletionParams,
) -> CompletionResult:
    """Reconstruct every entry on rows not flagged as noisy.

    Selects a square basis among the pivot columns restricted to the clean
    pivot rows, then expresses each remaining column in that basis from its
    values on the clean pivot rows alone. Flagged rows are filled with NaN.
    """
    n1, n2 = oracle.shape
    if state.rank_estimate == 0:
        # Nothing certified anywhere: the observed matrix is zero at tolerance.
        return _result(oracle, state, noisy_rows, STATUS_OK, np.zeros((n1, n2)))

    flagged = set(noisy_rows)
    clean_pivots = [i for i in state.pivot_rows if i not in flagged]
    if not clean_pivots:
        raise ValueError("no clean pivot rows left to recover from")
    clean_all = [i for i in range(n1) if i not in flagged]
    pivot_cols = list(state.pivot_cols)
    claimed = set(pivot_cols)
    others = [j for j in range(n2) if j not in claimed]

    on_clean_pivots = oracle.query_block(clean_pivots, pivot_cols)
    basis_cols = _select_column_basis(
        on_clean_pivots, pivot_cols, len(clean_pivots), params.tol
    )
    basis = oracle.query_block(clean_pivots, basis_cols)
    coeffs = solve_least_squares(basis, oracle.query_block(clean_pivots, others), params.tol)
    recovered = np.full((n1, n2), np.nan)
    recovered[np.ix_(clean_all, pivot_cols)] = oracle.query_block(clean_all, pivot_cols)
    recovered[np.ix_(clean_all, others)] = oracle.query_block(clean_all, basis_cols) @ coeffs
    return _result(oracle, state, noisy_rows, STATUS_OK, recovered)


def run(oracle: QueryOracle, params: CompletionParams | None = None) -> CompletionResult:
    """Full pipeline: discovery, noisy-row identification, recovery.

    Failures surface as statuses, never as invented output. When every
    discovered row is flagged, the clean column space must contain a standard
    basis vector, which the method's precondition excludes; the result is
    then `precondition-violated` with the zero matrix on unflagged rows (the
    span of an empty basis). A numerically singular certificate downstream
    of discovery yields `budget-exhausted` with no recovered values.
    """
    if params is None:
        params = CompletionParams()
    state = discover(oracle, params)

    if state.rank_estimate > 0:
        certificate = oracle.query_block(state.pivot_rows, state.pivot_cols)
        if not is_invertible(certificate, params.tol):
            return _result(oracle, state, [], STATUS_BUDGET)

    noisy = identify_noisy_rows(oracle, state, params)

    if state.rank_estimate > 0 and len(noisy) >= state.rank_estimate:
        return _result(oracle, state, noisy, STATUS_PRECONDITION, np.zeros(oracle.shape))

    try:
        return recover(oracle, state, noisy, params)
    except DegenerateSystemError:
        return _result(oracle, state, noisy, STATUS_BUDGET)


def query_budget(
    n1: int,
    n2: int,
    rank: int,
    omega_size: int,
    psi_u: int,
    psi_v: int,
    epsilon: float,
) -> BoundReport:
    """Evaluate both closed-form query budgets.

    `psi_u` is the sparsity number of the clean-row column space, `psi_v`
    that of the clean-row row space. All logarithms are natural. The
    proof_bound sums the two detection-phase counts plus the full row and
    column queries and the per-column recovery probes; the stated_bound is
    the headline expression, whose extra psi_v divisor the phase sum never
    reproduces (the discrepancy is reported, not resolved).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("dimensions must be positive")
    if rank < 1:
        raise ValueError("rank must be positive")
    if omega_size < 0:
        raise ValueError("noisy-row count cannot be negative")
    if psi_u < 1 or psi_v < 1:
        raise ValueError("sparsity numbers are at least 1")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    level = -math.log(epsilon)
    noisy_phase = 2.0 * n1 * (omega_size + 2.0 + level)
    clean_phase = (2.0 * n1 / psi_u) * (rank + omega_size + 2.0 + level)
    full_queries = (rank + omega_size) * (n1 + n2)
    recovery_probes = rank * (n2 - rank - omega_size)
    proof = noisy_phase + clean_phase + full_queries + recovery_probes
    stated = (
        (n1 + n2 - omega_size) * omega_size
        + (4.0 * n1 / psi_u) * (rank + 2.0 + level) * n2 / psi_v
        + 2.0 * n1 * (omega_size + 2.0 + level)
    )
    return BoundReport(
        stated_bound=stated,
        proof_bound=proof,
        n1=n1,
        n2=n2,
        rank=rank,
        omega_size=omega_size,
        psi_u=psi_u,
        psi_v=psi_v,
        epsilon=epsilon,
    )
