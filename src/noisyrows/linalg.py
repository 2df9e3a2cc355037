"""Dense-matrix primitives: tolerance-based rank, invertibility, solves,
standard-basis membership of a column space, and exact sparsity numbers of
the column space of a small matrix.

Rank decisions go through singular values with one relative threshold
rather than determinants, which overflow or underflow under the repeated
invertibility tests the completion algorithm performs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Exhaustive support enumeration is exponential in the ambient dimension;
# above this the caller must supply the sparsity number externally.
SPARSITY_ENUM_CAP = 22

# Rows whose unit-vector residuals unit_vectors_in_colspace forms at once.
_RESIDUAL_CHUNK = 128


class DegenerateSystemError(ValueError):
    """Raised when a solve or basis selection meets a rank-deficient system."""


class CapacityError(ValueError):
    """Raised when an exhaustive-search input exceeds its size cap."""


@dataclass(frozen=True)
class RankTolerance:
    """Relative singular-value cutoff for all rank decisions."""

    rel_threshold: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.rel_threshold < 1.0):
            raise ValueError(
                f"rel_threshold must lie in (0, 1), got {self.rel_threshold}"
            )


DEFAULT_TOL = RankTolerance()


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D float array, validating shape and finiteness."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _above_cut(s: np.ndarray, tol: RankTolerance) -> np.ndarray:
    """Which singular values `s`, in the descending order the SVD returns
    them, exceed rel_threshold times the largest.

    Every rank decision in this module goes through this one cut; with no
    singular values, or only zeros, none is above it.
    """
    return s > tol.rel_threshold * (s[0] if s.size else 0.0)


def numerical_rank(m, tol: RankTolerance = DEFAULT_TOL) -> int:
    """Count singular values above rel_threshold times the largest one.

    The all-zero matrix has rank 0, as does a matrix with an empty dimension.
    """
    s = np.linalg.svd(as_matrix(m), compute_uv=False)
    return int(np.count_nonzero(_above_cut(s, tol)))


def is_invertible(m, tol: RankTolerance = DEFAULT_TOL) -> bool:
    """True iff the square matrix has full numerical rank."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"invertibility requires a square matrix, got {a.shape}")
    return numerical_rank(a, tol) == a.shape[0]


def solve_least_squares(a, b, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Minimum-norm least-squares solution of a @ x = b for a full-rank a.

    `b` is one right-hand side (1-D) or one per column (2-D); x has the same
    number of dimensions. One thin SVD a = U diag(s) V^T decides the rank,
    with `numerical_rank`'s cut, and gives x = V diag(1/s) U^T b. For square
    invertible a this is the exact solution; for wide a of full row rank it
    is the exact solution of least norm; for tall a of full column rank it
    is the least-squares solution. A coefficient matrix of rank below
    min(a.shape) raises DegenerateSystemError instead of returning an
    approximation, because downstream recovery must not silently proceed
    from a broken basis.
    """
    a = as_matrix(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.ndim not in (1, 2):
        raise ValueError(f"rhs must be 1-D or 2-D, got ndim={rhs.ndim}")
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match {a.shape[0]} rows")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if np.count_nonzero(_above_cut(s, tol)) < min(a.shape):
        raise DegenerateSystemError(
            f"coefficient matrix of shape {a.shape} is rank deficient"
        )
    return vt.T @ ((u.T @ rhs) / (s if rhs.ndim == 1 else s[:, None]))


def unit_vectors_in_colspace(m, rows, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """For each index i in `rows`, whether e_i lies in the column space of m.

    Equivalently, whether deleting row i drops the rank of m. One thin SVD
    gives U_r, the left singular vectors above rel_threshold times the
    largest singular value; row i is flagged when ||e_i - U_r U_r^T e_i|| is
    at most rel_threshold. The residual is formed explicitly because
    1 - ||U_r[i]||^2 cancels when e_i is near the span. Row indices are
    0-based; the result is a boolean array aligned with `rows`.
    """
    a = as_matrix(m)
    idx = np.asarray(rows)
    if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"row indices {rows} are not integers in [0, {a.shape[0]})")
    idx = idx.astype(int)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    u_r = u[:, _above_cut(s, tol)]
    flags = np.empty(idx.size, dtype=bool)
    # The residuals of a chunk of rows form one n1 x chunk array, so memory
    # stays O(n1) per chunk however many rows are asked for.
    for start in range(0, idx.size, _RESIDUAL_CHUNK):
        chunk = idx[start:start + _RESIDUAL_CHUNK]
        residual = -(u_r @ u_r[chunk].T)
        residual[chunk, np.arange(chunk.size)] += 1.0
        flags[start:start + chunk.size] = np.linalg.norm(residual, axis=0) <= tol.rel_threshold
    return flags


def ei_in_colspace(m, i: int, tol: RankTolerance = DEFAULT_TOL) -> bool:
    """Whether the i-th standard basis vector lies in the column space of m.

    Equivalently, whether deleting row i strictly decreases the numerical
    rank. Row indices are 0-based.
    """
    return bool(unit_vectors_in_colspace(m, [i], tol)[0])


def sparsity_number(m, tol: RankTolerance = DEFAULT_TOL) -> int:
    """Sparsity number of the column space of m: the fewest nonzeros of any
    nonzero member. The row space's is sparsity_number(m.T).

    Exact, by enumeration. One thin SVD gives an orthonormal basis Q (n x d)
    of the column space, d counted with `numerical_rank`'s cut. A member
    with at most k nonzeros exists iff some set T of n - k coordinates makes
    Q[T] rank deficient; sets are tried in order of increasing k, and the
    answer is found by k = n - d + 1. Q[T] is judged on Q's own scale: its
    singular values are counted above rel_threshold times sigma_max(Q),
    which is 1. Scaling the cut by sigma_max(Q[T]) instead would count as
    rank the rounding the SVD leaves (about 1e-16) in rows where every
    member vanishes, and so over-report the sparsity number.
    """
    a = as_matrix(m)
    n = a.shape[0]
    if n > SPARSITY_ENUM_CAP:
        raise CapacityError(
            f"ambient dimension {n} exceeds enumeration cap {SPARSITY_ENUM_CAP}"
        )
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    q = u[:, _above_cut(s, tol)]
    d = q.shape[1]
    if d == 0:
        raise ValueError("zero matrix spans no subspace, so has no sparsity number")
    for k in range(1, n - d + 2):
        for zero_set in itertools.combinations(range(n), n - k):
            s_t = np.linalg.svd(q[list(zero_set)], compute_uv=False)
            if np.count_nonzero(s_t > tol.rel_threshold) < d:
                return k
    raise AssertionError("unreachable: every subspace has a member by k = n-d+1")


def has_unit_coordinate_vector(m, tol: RankTolerance = DEFAULT_TOL) -> bool:
    """True iff some standard basis vector lies in the column space of m.

    Equivalent to sparsity number 1 of the column space, but one SVD instead
    of an exponential enumeration, so usable at any scale.
    """
    a = as_matrix(m)
    return bool(unit_vectors_in_colspace(a, range(a.shape[0]), tol).any())
