"""Adaptive three-phase completion of a low-rank matrix whose observed copy
has an unknown sparse set of rows corrupted by non-degenerate random noise.

Phase 1 (discovery) grows index sets of rows and columns whose induced square
submatrix stays invertible, certifying one unit of rank per acceptance: each
sweep probes one random entry per unclaimed column, and a probe is accepted
when the bordered square submatrix passes the invertibility test. The pivot
rows and columns are kept as the oracle returns them, in buffers each
acceptance grows in place, so no probe re-reads its block. A residual bound,
sigma_min of the bordered block against its largest entry, rejects almost
every probe without an SVD: it multiplies the probes' pivot-row entries by
an inverse of the pivot block, taken once per acceptance. Only where it
cannot reject does the invertibility test run, on the block assembled from
those pivots; the bound rejects nothing that test would accept. A pass
budget of consecutive unproductive sweeps decides when the rank is complete.

Phase 2 (identification) flags the discovered rows i whose standard basis
vector e_i lies in the column space of the fully observed pivot columns,
that is, whose deletion drops their rank. A corrupted row is linearly
independent of everything else, so the pivot columns isolate it; a clean
row can only mimic that signature when the clean column space contains a
standard basis vector, which the precondition excludes.

Phase 3 (recovery) solves every remaining column against the pivot columns
on the surviving clean pivot rows in one minimum-norm solve, exact because
those rows span the clean row space, and reconstructs all entries on rows
not flagged as noisy. Flagged rows carry no information about the
underlying values, so they are reported as NaN, never invented. Recovery
also decides the run's status, so every result is built in this phase.

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
    solve_least_squares,
    unit_vectors_in_colspace,
)
from .oracle import QueryOracle

STATUS_OK = "ok"
STATUS_PRECONDITION = "precondition-violated"
STATUS_BUDGET = "budget-exhausted"

_EPS = float(np.finfo(float).eps)


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
    stale_passes: int
    pass_budget: int

    @property
    def rank_estimate(self) -> int:
        """One certified unit of rank per pivot."""
        return len(self.pivot_rows)


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
    """Both closed-form query budgets."""

    stated_bound: float
    proof_bound: float


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


class _Pivots:
    """The pivot rows P = N[R, :] and columns Q = N[:, C] as the oracle
    returned them, grown in place by each acceptance, and the test that
    decides a probe against them.

    A probe (i, j) with value v borders the pivot block A = P[:, C] into
    B = [[A, P[:, j]], [Q[i], v]]. With w = A^-1 P[:, j] and z = [-w; 1],
    sigma_min(B) <= ||Bz|| / ||z||, whatever rounding w carries, and
    ||Bz|| = hypot(||P[:, j] - A w||, v - Q[i] w). Since
    sigma_max(B) >= max|B|, a bound at most
    max|B| (rel_threshold - 4 (k+1)^2 eps) fails the invertibility test;
    the last term leaves room for the rounding of that test's SVD. So w
    may come from an inverse of A, taken once per acceptance, rather than
    from a solve per probe: its rounding moves the bound, never its
    soundness.
    """

    def __init__(self, n1: int, n2: int, tol: RankTolerance):
        self.rows: list[int] = []
        self.cols: list[int] = []
        self._tol = tol
        # Row t of _p is N[rows[t], :] and row t of _q is N[:, cols[t]]; the
        # capacity of both doubles whenever an acceptance fills it.
        self._p, self._q = np.empty((1, n2)), np.empty((1, n1))
        self._on_pivot_row = np.zeros(n1, dtype=bool)
        self._set_block(np.empty((0, 0)), np.empty((0, 0)))

    def _set_block(self, a: np.ndarray, a_inv: np.ndarray) -> None:
        k = a.shape[0]
        self._a, self._a_inv = a, a_inv
        self._abs_a = np.abs(a)
        self._a_max = self._abs_a.max(initial=0.0)
        # Evaluating Bz with k-term dot products errs by at most
        # 2 (k+2) eps times the magnitudes summed; the factor after the
        # threshold covers the rounding of ||z|| and of the product.
        self._rounding = 2 * (k + 2) * _EPS
        self._level = (self._tol.rel_threshold - 4 * (k + 1) ** 2 * _EPS) * (1 - 2 * (k + 3) * _EPS)

    def accept(self, i: int, j: int, v: float, row: np.ndarray, col: np.ndarray) -> None:
        """Make the probe (i, j) with value v a pivot, given its full row
        N[i, :] and column N[:, j]: the bordered block becomes A."""
        a = self.block(i, j, v)
        k = len(self.rows)
        if k == self._p.shape[0]:
            self._p = np.vstack([self._p, np.empty_like(self._p)])
            self._q = np.vstack([self._q, np.empty_like(self._q)])
        self._p[k], self._q[k] = row, col
        self.rows.append(i)
        self.cols.append(j)
        self._on_pivot_row[i] = True
        self._set_block(a, np.linalg.inv(a))

    def rejects(self, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> np.ndarray:
        """For each probe (i[t], j[t]) with value v[t], whether the residual
        bound shows that the bordered block fails `is_invertible`. A bound
        that overflows or is NaN rejects nothing."""
        k = len(self.rows)
        p, q = self._p[:k, j], self._q[:k, i]  # P[:, j] and Q[i]^T
        abs_p = np.abs(p)
        # hypot sums squares without overflow or underflow.
        with np.errstate(over="ignore", invalid="ignore"):
            w = self._a_inv @ p
            top = np.hypot.reduce(p - self._a @ w, axis=0)
            top_scale = np.hypot.reduce(abs_p + self._abs_a @ np.abs(w), axis=0)
            bottom = v - (q * w).sum(axis=0)
            bottom_scale = np.abs(v) + (np.abs(q) * np.abs(w)).sum(axis=0)
            bound = np.hypot(top, bottom) + self._rounding * (top_scale + bottom_scale)
            z = np.hypot(1.0, np.hypot.reduce(w, axis=0))
            max_b = np.maximum(
                np.maximum(abs_p.max(axis=0, initial=0.0), np.abs(q).max(axis=0, initial=0.0)),
                np.maximum(np.abs(v), self._a_max),
            )
            return np.isfinite(bound) & (bound <= z * max_b * self._level)

    def block(self, i: int, j: int, v: float) -> np.ndarray:
        """B = N[R + [i], C + [j]], assembled from the cached pivots."""
        k = len(self.rows)
        b = np.empty((k + 1, k + 1))
        b[:k, :k] = self._a
        b[:k, k] = self._p[:k, j]
        b[k, :k] = self._q[:k, i]
        b[k, k] = v
        return b

    def first_accepted(self, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> int | None:
        """Position of the first probe whose bordered block passes
        `is_invertible`, or None. A probe on a pivot row cannot border the
        block into a square one, so a window of only such probes accepts
        nothing; the residual bound rejects most others, and the rest get
        the full test."""
        open_ = np.flatnonzero(~self._on_pivot_row[i])
        if not open_.size:
            return None
        open_ = open_[~self.rejects(i[open_], j[open_], v[open_])]
        for t in open_:
            if is_invertible(self.block(i[t], j[t], v[t]), self._tol):
                return int(t)
        return None


def discover(oracle: QueryOracle, params: CompletionParams) -> DiscoveryState:
    """Grow maximal independent row and column sets by random-entry probing.

    Every sweep visits each column unclaimed at its start once: it draws a
    random row per column in one call, reveals those cells in one read, and
    tests in turn whether bordering the current pivot submatrix with each
    (row, column) pair keeps it invertible. Acceptance queries the full row
    and column, grows the pivots by them, resets the stale-pass counter and
    decides the rest of the sweep against the grown pivots.
    """
    n1, n2 = oracle.shape
    budget = compute_eta(n1, n2, params.epsilon)
    pivots = _Pivots(n1, n2, params.tol)
    unclaimed = np.ones(n2, dtype=bool)
    stale = 0
    while stale < budget:
        stale += 1
        probe_cols = np.flatnonzero(unclaimed)
        probe_rows = oracle.draw_random_rows(probe_cols.size)
        values = oracle.query_cells(probe_rows, probe_cols)
        # Most sweeps accept nothing, so a sweep is first decided whole.
        # After an acceptance the rest is decided in windows that double
        # while none is accepted: the probes an acceptance leaves decided
        # against stale pivots are at most as many as it took to reach it.
        start, width = 0, probe_cols.size
        while start < probe_cols.size:
            stop = start + width
            t = pivots.first_accepted(
                probe_rows[start:stop], probe_cols[start:stop], values[start:stop]
            )
            if t is None:
                start, width = stop, 2 * width
                continue
            t += start
            i, j = int(probe_rows[t]), int(probe_cols[t])
            col = oracle.query_column(j)
            row = oracle.query_row(i)
            pivots.accept(i, j, values[t], row, col)
            unclaimed[j] = False
            stale = 0
            start, width = t + 1, 1
    return DiscoveryState(
        pivot_rows=pivots.rows,
        pivot_cols=pivots.cols,
        stale_passes=stale,
        pass_budget=budget,
    )


def identify_noisy_rows(
    oracle: QueryOracle, state: DiscoveryState, params: CompletionParams
) -> list[int]:
    """Flag the discovered rows i whose e_i lies in the column space of the
    pivot columns, i.e. whose deletion drops the rank of those columns.

    Works entirely on the fully observed pivot columns; no new cells are
    revealed. Raises if discovery did not leave those columns fully observed.
    """
    cols = state.pivot_cols
    if not cols:
        return []
    if not oracle.columns_observed(cols):
        raise RuntimeError("internal contract: pivot columns must be fully observed")
    observed_cols = oracle.query_block(range(oracle.shape[0]), cols)
    flags = unit_vectors_in_colspace(observed_cols, state.pivot_rows, params.tol)
    return sorted(i for i, flagged in zip(state.pivot_rows, flags) if flagged)


def recover(
    oracle: QueryOracle,
    state: DiscoveryState,
    noisy_rows: list[int],
    params: CompletionParams,
) -> CompletionResult:
    """Reconstruct every entry on rows not flagged as noisy, and decide the
    run's status.

    Solves all non-pivot columns at once against the pivot columns on the
    clean pivot rows: a wide system of full row rank whose minimum-norm
    solution is exact, because the clean pivot rows span the clean row
    space. One thin SVD of that block decides its rank and gives the
    solution. The pivot columns on all clean rows times that solution give
    the other columns. Flagged rows are filled with NaN.

    With no pivots the observed matrix is zero at tolerance, and the result
    is `ok` with zeros. When every pivot row is flagged, the clean column
    space must contain a standard basis vector, which the method's
    precondition excludes; the result is then `precondition-violated` with
    the zero matrix on unflagged rows (the span of an empty basis).
    `budget-exhausted`, with no values, comes only from the solve finding
    the clean pivot rows rank deficient. They are a row subset of the block
    that discovery's last acceptance certified invertible, so by interlacing
    their singular-value ratio passes the same relative cut except at a
    rounding tie.
    """
    n1, n2 = oracle.shape
    flagged = set(noisy_rows)
    clean_pivots = [i for i in state.pivot_rows if i not in flagged]
    if not clean_pivots:
        status = STATUS_PRECONDITION if state.pivot_rows else STATUS_OK
        return _result(oracle, state, noisy_rows, status, np.zeros((n1, n2)))
    clean_all = [i for i in range(n1) if i not in flagged]
    pivot_cols = list(state.pivot_cols)
    claimed = set(pivot_cols)
    others = [j for j in range(n2) if j not in claimed]

    basis = oracle.query_block(clean_pivots, pivot_cols)
    rhs = oracle.query_block(clean_pivots, others)
    try:
        coeffs = solve_least_squares(basis, rhs, params.tol)
    except DegenerateSystemError:
        return _result(oracle, state, noisy_rows, STATUS_BUDGET)
    on_pivot_cols = oracle.query_block(clean_all, pivot_cols)
    recovered = np.full((n1, n2), np.nan)
    recovered[np.ix_(clean_all, pivot_cols)] = on_pivot_cols
    recovered[np.ix_(clean_all, others)] = on_pivot_cols @ coeffs
    return _result(oracle, state, noisy_rows, STATUS_OK, recovered)


def run(oracle: QueryOracle, params: CompletionParams | None = None) -> CompletionResult:
    """Full pipeline: discovery, noisy-row identification, recovery.

    Failures surface as statuses, never as invented output; recovery decides
    all three (see `recover`). Discovery's last acceptance already certified
    the pivot block N[R, C] invertible, so it is not tested again.
    """
    if params is None:
        params = CompletionParams()
    state = discover(oracle, params)
    noisy = identify_noisy_rows(oracle, state, params)
    return recover(oracle, state, noisy, params)


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
    return BoundReport(stated_bound=stated, proof_bound=proof)
