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
the pivot block's inverse, which each acceptance borders in O(k^2) rather
than recomputes. Only where it cannot reject does the invertibility test
run, on the block assembled from those pivots; the bound rejects nothing
that test would accept. The test is handed the bordered inverse, whose
residual certificate accepts without an SVD wherever it can vouch that the
SVD would. A pass budget of consecutive unproductive sweeps decides when
the rank is complete.

Phases 2 and 3 work from what discovery revealed and read no cell. Phase
2 (identification) flags the pivot rows that no other row draws on in the
interpolation matrix S = N[:, C] A^-1, formed with discovery's inverse of
the certified pivot block A = N[R, C], taken once when discovery ends:
deleting such a row drops the rank of the pivot columns. A corrupted row
is independent of everything else, so none draws on it; a clean row can
only mimic that when the clean column space contains a standard basis
vector, which the precondition excludes.

Phase 3 (recovery) solves every column against the pivot columns on the
surviving clean pivot rows in one minimum-norm solve, exact because those
rows span the clean row space; with the identity as the pivot columns' own
coefficients, one product with the pivot columns rebuilds every entry.
Flagged rows carry no information about the underlying values, so they are
reported as NaN, never invented. Recovery also decides the run's status,
so every result is built in this phase.

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
    inverse_residual,
    is_invertible,
    solve_least_squares,
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
    """Index sets and counters carried across discovery sweeps, the pivot
    rows N[R, :] (k x n2) and columns N[:, C] (n1 x k) discovery revealed,
    and one inversion of the pivot block N[R, C] at the scale `_Pivots` sets.
    Equality and repr are about the decisions only."""

    pivot_rows: list[int]
    pivot_cols: list[int]
    stale_passes: int
    pass_budget: int
    row_values: np.ndarray = field(compare=False, repr=False)
    col_values: np.ndarray = field(compare=False, repr=False)
    pivot_inverse: np.ndarray = field(compare=False, repr=False)

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
    if n1 < 1 or n2 < 1:
        raise ValueError("dimensions must be positive")
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


def _accurate(residual: float, b_norm: float, x_norm: float, n: int) -> bool:
    """Whether an approximate inverse X of an invertible n x n block B,
    with ||fl(XB) - I||_F = residual (`inverse_residual`), is as accurate
    as one inversion of B: ||fl(XB) - I||_2 <= n eps kappa_2(B).

    kappa_2(B) is bounded below by what is at hand. XB = I + E with
    ||E||_2 <= lam = residual + gamma_n ||X||_F ||B||_F, so ||X||_2 <=
    (1 + lam) ||B^-1||_2; with ||M||_2 >= ||M||_F / sqrt(n) for both B and
    X, n kappa_2(B) >= ||X||_F ||B||_F / (1 + lam). So residual (1 + lam)
    <= eps ||X||_F ||B||_F suffices; the factor 1 - (n^2 + 8) eps covers
    the rounding of the norms. A non-finite X is not accurate.
    """
    norms = b_norm * x_norm
    lam = residual + 2.0 * n * _EPS * norms
    return math.isfinite(norms) and residual * (1.0 + lam) <= _EPS * norms * (1.0 - (n * n + 8) * _EPS)


class _Pivots:
    """The pivot rows P = N[R, :] and columns Q = N[:, C] as the oracle
    returned them, grown in place by each acceptance, and the test that
    decides a probe against them.

    A probe (i, j) with value v borders the pivot block A = P[:, C] into
    B = [[A, P[:, j]], [Q[i], v]]. With w = A^-1 P[:, j] and z = [-w; 1],
    sigma_min(B) <= ||Bz|| / ||z|| whatever rounding w carries, so w may
    come from the held inverse (bordered at each acceptance, below) of
    2^-a A with max|A| = g 2^a and g in [0.5, 1), finite however tiny A
    is; w and P[:, j] - A w are formed from 2^-a P[:, j] and 2^-a A, exact
    scalings. Since
    sigma_max(B) >= m = max|B|, ||Bz|| <= ||z|| m (rel_threshold -
    4 (k+1)^2 eps) fails the invertibility test, the last term leaving room
    for its SVD's rounding. m is the largest of max|A|, |v| and the running
    maxima max|P[:, j]| and max|Q[i]| that each acceptance updates; a max
    rounds nothing, so m is exact. With m = f 2^e, f in [0.5, 1), the exact
    scale 2^-e makes this ||2^-e Bz||^2 <= ||z||^2 (f level)^2, on sums of
    squares. Computing Bz errs by at most gamma_{k+1} |B| |z| (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1), so by (k+1)^2 eps
    m ||z|| in norm, and the level takes 5 (k+1)^2 eps off the threshold;
    the factor 1 - 2 (k+4) eps covers the rounding of the sums, products and
    level. A level at most 2^-500 rejects only an all-zero block (its square
    is -1), so the right-hand side is at least 2^-1002 and a square that
    underflows is negligible. Sums that overflow or are NaN reject nothing.
    Where v - Q[i] w overflows, as at 2^1018, it is formed again from 2^-e v
    and 2^-e Q[i], the probe's own exact scale.

    Each acceptance keeps the inverse current by bordering. With X_A the
    held inverse of 2^-a A, the probe's block scaled by its own 2^-e has
    2^(e-a) X_A as the inverse of its A block, an exact scaling. With
    w = 2^(e-a) X_A 2^-e P[:, j], u = 2^-e Q[i] 2^(e-a) X_A and Schur
    complement s = 2^-e v - 2^-e Q[i] w, X = [[2^(e-a) X_A + w u / s,
    -w / s], [-u / s, 1 / s]] approximates (2^-e B)^-1 in O(k^2). The
    invertibility test gets 2^-e B and X, so its residual certificate can
    vouch for B without an SVD; where it cannot, its SVD decides, on the
    exactly scaled block. The certificate measures whatever error bordering
    accumulated, so the decisions are the SVD's either way. On acceptance X
    becomes the held inverse if its left residual is as small as one
    inversion leaves (`_accurate`), so drift never accumulates; else
    one Newton step X - (XB - I) X, which squares that residual, and
    failing that one `np.linalg.inv`. A zero s or an overflowing scale
    makes X non-finite, which neither the certificate nor the accuracy test
    accepts, and no warning escapes.
    """

    def __init__(self, n1: int, n2: int, tol: RankTolerance):
        self.rows: list[int] = []
        self.cols: list[int] = []
        self._tol = tol
        # Row t of p is N[rows[t], :] and row t of q is N[:, cols[t]]. An
        # acceptance that fills them regrows both to min(2k, n1, n2) rows,
        # copying the k filled ones; k = n1 leaves no probe off a pivot row
        # and k = n2 no unclaimed column, so a buffer at min(n1, n2) is final.
        self.p, self.q = np.empty((1, n2)), np.empty((1, n1))
        # max|P[:, j]| per column j and max|Q[i]| per row i.
        self._p_max, self._q_max = np.zeros(n2), np.zeros(n1)
        self._on_pivot_row = np.zeros(n1, dtype=bool)
        # The pivot block A, max|A| = g 2^a, 2^-a A and its inverse; the
        # 0 x 0 block is its own inverse.
        self._a = self._a_scaled = self.a_inv = np.empty((0, 0))
        self._a_max, self._a_exp = 0.0, 0
        self._set_level(0)
        self._last = None  # the last probe bordered, and its bordering

    def _set_level(self, k: int) -> None:
        level = (self._tol.rel_threshold - 5 * (k + 1) ** 2 * _EPS) * (1 - 2 * (k + 4) * _EPS)
        self._level_sq = level * level if level > 2.0**-500 else -1.0

    def _bordered(self, i: int, j: int, v: float) -> tuple:
        """(B, max|B|, e, 2^-e B, X, L, accurate) for the probe (i, j) with
        value v: its bordered block B, with max|B| = f 2^e and f in
        [0.5, 1), the held inverse bordered into an approximation X of
        (2^-e B)^-1, and X's left residual fl(X 2^-e B) - I and accuracy
        (`_accurate`). The last probe's is kept for `accept`."""
        if self._last is not None and self._last[0] == (i, j, v):
            return self._last[1]
        k = len(self.rows)
        b = self.block(i, j, v)
        b_max = max(self._a_max, self._p_max[j], self._q_max[i], abs(v))
        e = math.frexp(b_max)[1]
        b_hat = np.ldexp(b, -e)
        x = np.zeros((k + 1, k + 1))
        with np.errstate(all="ignore"):
            np.ldexp(self.a_inv, e - self._a_exp, out=x[:k, :k])
            z, y = x @ b_hat[:, k], b_hat[k] @ x  # [w; 0] and [u, 0]
            z[k] = y[k] = -1.0
            x += z[:, None] * (y / -(b_hat[k] @ z))  # 1 / s = -1 / (b_hat[k] z)
            left, *norms = inverse_residual(b_hat, x)
        bordered = (b, b_max, e, b_hat, x, left, _accurate(*norms, k + 1))
        self._last = ((i, j, v), bordered)
        return bordered

    def accept(self, i: int, j: int, v: float, row: np.ndarray, col: np.ndarray) -> None:
        """Make the probe (i, j) with value v a pivot, given its full row
        N[i, :] and column N[:, j]: the bordered block becomes A."""
        b, b_max, e, b_hat, x, left, accurate = self._bordered(i, j, v)
        self._last = None
        k = len(self.rows)
        if k == len(self.p):
            size = min(2 * k, len(row), len(col))
            p, q = np.empty((size, len(row))), np.empty((size, len(col)))
            p[:k], q[:k] = self.p, self.q
            self.p, self.q = p, q
        self.p[k], self.q[k] = row, col
        np.maximum(self._p_max, np.abs(row), out=self._p_max)
        np.maximum(self._q_max, np.abs(col), out=self._q_max)
        self.rows.append(i)
        self.cols.append(j)
        self._on_pivot_row[i] = True
        if not accurate:
            with np.errstate(all="ignore"):
                x = x - left @ x
                if not _accurate(*inverse_residual(b_hat, x)[1:], k + 1):
                    x = np.linalg.inv(b_hat)
        self._a, self._a_max, self._a_exp, self._a_scaled, self.a_inv = b, b_max, e, b_hat, x
        self._set_level(k + 1)

    def rejects(self, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> np.ndarray:
        """For each probe (i[t], j[t]) with value v[t], whether the residual
        bound shows that the bordered block fails `is_invertible`. A bound
        whose sums overflow or are NaN rejects nothing."""
        k = len(self.rows)
        # P[:, j] and Q[i]^T; take lays them out row-major, which the einsums need.
        p, q = self.p[:k].take(j, axis=1), self.q[:k].take(i, axis=1)
        max_b = np.maximum(np.maximum(self._p_max[j], self._q_max[i]), np.abs(v))
        np.maximum(max_b, self._a_max, out=max_b)
        f, e = np.frexp(max_b)  # max_b = f 2^e, f in [0.5, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.ldexp(p, -self._a_exp)
            w = self.a_inv @ p
            top = np.ldexp(p - self._a_scaled @ w, self._a_exp - e)
            bottom = np.ldexp(v - np.einsum("ij,ij->j", q, w), -e)
            if not math.isfinite(bottom @ bottom):
                # Some v - Q[i] w overflowed: form it at the probe's own 2^-e.
                redo = np.flatnonzero(~np.isfinite(bottom))
                scale = -e[redo]
                bottom[redo] = np.ldexp(v[redo], scale) - np.einsum(
                    "ij,ij->j", np.ldexp(q[:, redo], scale), w[:, redo])
            residual = np.einsum("ij,ij->j", top, top) + bottom * bottom
            limit = (1.0 + np.einsum("ij,ij->j", w, w)) * (f * f * self._level_sq)
            return np.isfinite(limit) & (residual <= limit)

    def block(self, i: int, j: int, v: float) -> np.ndarray:
        """B = N[R + [i], C + [j]], assembled from the cached pivots."""
        k = len(self.rows)
        b = np.empty((k + 1, k + 1))
        b[:k, :k] = self._a
        b[:k, k] = self.p[:k, j]
        b[k, :k] = self.q[:k, i]
        b[k, k] = v
        return b

    def first_accepted(self, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> int | None:
        """Position of the first probe whose bordered block passes
        `is_invertible`, or None. A probe on a pivot row cannot border the
        block into a square one, so a window of only such probes accepts
        nothing; the residual bound rejects most others, and the rest get
        the full test, handed their bordered inverse for its certificate."""
        open_ = np.flatnonzero(~self._on_pivot_row[i])
        if not open_.size:
            return None
        open_ = open_[~self.rejects(i[open_], j[open_], v[open_])]
        for t in open_:
            b_hat, x = self._bordered(i[t], j[t], v[t])[3:5]
            if is_invertible(b_hat, self._tol, x):
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
        # while none is accepted. Deciding restarts one past the acceptance,
        # with the next gap guessed from the last one: the first window is
        # as long as the stretch from the previous restart to the acceptance.
        resumed, start, width = 0, 0, probe_cols.size
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
            start, width = t + 1, t + 1 - resumed
            resumed = start
    k = len(pivots.rows)
    # Identification's fixed cut can sit within the rounding S carries, so
    # it reads one inversion of the final block, not the bordered inverse.
    return DiscoveryState(
        pivot_rows=pivots.rows,
        pivot_cols=pivots.cols,
        stale_passes=stale,
        pass_budget=budget,
        row_values=pivots.p[:k],
        col_values=pivots.q[:k].T,
        pivot_inverse=np.linalg.inv(pivots._a_scaled),
    )


def identify_noisy_rows(state: DiscoveryState, params: CompletionParams) -> list[int]:
    """Flag the pivot rows whose deletion drops the rank of N[:, C]: pivot t
    when no other row i has |S[i, t]| above rel_threshold max|S[i, :]|, with
    S = N[:, C] A^-1 and A = N[R, C] the block discovery certified. Each row
    of N[:, C] is scaled to a largest entry in [0.5, 1), so S comes out with
    exact power-of-two row scales: no row overflows, and no flag changes."""
    _, e = np.frexp(np.abs(state.col_values).max(axis=1, keepdims=True, initial=0.0))
    s = np.abs(np.ldexp(state.col_values, -e) @ state.pivot_inverse)
    s[state.pivot_rows] = 0.0
    flags = (s <= params.tol.rel_threshold * s.max(axis=1, keepdims=True, initial=0.0)).all(axis=0)
    return sorted(i for i, flagged in zip(state.pivot_rows, flags) if flagged)


def recover(
    oracle: QueryOracle,
    state: DiscoveryState,
    noisy_rows: list[int],
    params: CompletionParams,
) -> CompletionResult:
    """Reconstruct every entry on rows not flagged as noisy, and decide the
    run's status.

    Solves every column at once against the pivot columns on the clean
    pivot rows: a wide system of full row rank whose minimum-norm solution
    is exact, because the clean pivot rows span the clean row space. One
    thin SVD of that block decides its rank and gives the coefficients W.
    On the pivot columns W is set to the identity, so those columns are
    copied exactly, and the result is the one product N[:, C] W, with the
    flagged rows then set to NaN. All of it comes from the pivot rows
    N[R, :] and columns N[:, C] discovery revealed; the oracle gives only
    the shape and the query count.

    With no pivots the solve and the product are empty and give `ok` with
    zeros. When every pivot row is flagged, the clean column space must
    contain a standard basis vector, which the method's precondition
    excludes; the result is then `precondition-violated` with the zero
    matrix on unflagged rows (the span of an empty basis).
    `budget-exhausted`, with no values, comes only from the solve finding
    the clean pivot rows rank deficient. They are a row subset of the block
    that discovery's last acceptance certified invertible, so by interlacing
    their singular-value ratio passes the same relative cut except at a
    rounding tie.
    """
    flagged = set(noisy_rows)
    # Positions in R of the clean pivot rows.
    clean_pivots = [t for t, i in enumerate(state.pivot_rows) if i not in flagged]
    if state.pivot_rows and not clean_pivots:
        return _result(oracle, state, noisy_rows, STATUS_PRECONDITION, np.zeros(oracle.shape))
    rows = state.row_values[clean_pivots]
    try:
        coeffs = solve_least_squares(rows[:, state.pivot_cols], rows, params.tol)
    except DegenerateSystemError:
        return _result(oracle, state, noisy_rows, STATUS_BUDGET)
    # Products with 0 and 1 are exact, so the pivot columns come out as read.
    coeffs[:, state.pivot_cols] = np.eye(len(state.pivot_cols))
    return _result(oracle, state, noisy_rows, STATUS_OK, state.col_values @ coeffs)


def run(oracle: QueryOracle, params: CompletionParams | None = None) -> CompletionResult:
    """Full pipeline: discovery, noisy-row identification, recovery.

    Failures surface as statuses, never as invented output; recovery decides
    all three (see `recover`). Discovery's last acceptance already certified
    the pivot block N[R, C] invertible, so it is not tested again.
    """
    if params is None:
        params = CompletionParams()
    state = discover(oracle, params)
    noisy = identify_noisy_rows(state, params)
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
