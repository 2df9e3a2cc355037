"""Dense-matrix primitives: tolerance-based rank, invertibility, solves,
standard-basis membership of a column space, column-basis extraction, and
exact sparsity numbers of small subspaces.

Rank decisions go through singular values with one relative threshold
rather than determinants, which overflow or underflow under the repeated
invertibility tests the completion algorithm performs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of R^ambient_dim spanned by the columns of `vectors`."""

    ambient_dim: int
    vectors: np.ndarray
    tol: RankTolerance = field(default=DEFAULT_TOL)

    def __post_init__(self):
        v = as_matrix(self.vectors)
        object.__setattr__(self, "vectors", v)
        if self.ambient_dim <= 0:
            raise ValueError("ambient_dim must be positive")
        if v.shape[0] != self.ambient_dim:
            raise ValueError(
                f"vectors live in R^{v.shape[0]}, expected R^{self.ambient_dim}"
            )
        if v.shape[1] > self.ambient_dim:
            raise ValueError("more basis vectors than ambient dimension")
        if numerical_rank(v, self.tol) != v.shape[1]:
            raise ValueError("basis vectors are linearly dependent at tolerance")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def column_space_basis(m, tol: RankTolerance = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space of m, extracted via one SVD."""
    a = as_matrix(m)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = int(np.count_nonzero(_above_cut(s, tol)))
    if r == 0:
        raise ValueError("zero matrix spans no usable column space")
    return SubspaceBasis(ambient_dim=a.shape[0], vectors=u[:, :r], tol=tol)


def row_space_basis(m, tol: RankTolerance = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the row space of m (a subspace of R^n_cols)."""
    return column_space_basis(as_matrix(m).T, tol)


def sparsity_number(basis: SubspaceBasis) -> int:
    """Minimum support size over all nonzero vectors in the subspace.

    Exact, by enumerating candidate zero sets in order of increasing support
    size k: a vector with at most k nonzeros exists iff some set T of
    ambient_dim - k coordinates makes the rows T of the basis rank deficient.
    The answer is always found by k = ambient_dim - dim + 1.
    """
    n = basis.ambient_dim
    d = basis.dim
    if d == 0:
        raise ValueError("zero-dimensional span has no sparsity number")
    if n > SPARSITY_ENUM_CAP:
        raise CapacityError(
            f"ambient dimension {n} exceeds enumeration cap {SPARSITY_ENUM_CAP}"
        )
    q = basis.vectors
    tol = basis.tol
    for k in range(1, n - d + 2):
        for zero_set in itertools.combinations(range(n), n - k):
            if numerical_rank(q[list(zero_set), :], tol) < d:
                return k
    raise AssertionError("unreachable: every subspace has a member by k = n-d+1")


def has_unit_coordinate_vector(m, tol: RankTolerance = DEFAULT_TOL) -> bool:
    """True iff some standard basis vector lies in the column space of m.

    Equivalent to sparsity number 1 of the column space, but one SVD instead
    of an exponential enumeration, so usable at any scale.
    """
    a = as_matrix(m)
    return bool(unit_vectors_in_colspace(a, range(a.shape[0]), tol).any())
