"""Dense-matrix primitives: tolerance-based rank, invertibility, solves,
column-basis extraction, and exact sparsity numbers of small subspaces.

Rank decisions go through singular values with a relative threshold rather
than determinants, which overflow or underflow under the repeated rank-drop
tests the completion algorithm performs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# Exhaustive support enumeration is exponential in the ambient dimension;
# above this the caller must supply the sparsity number externally.
SPARSITY_ENUM_CAP = 22


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


def as_matrix(m, allow_nan: bool = False) -> np.ndarray:
    """Coerce input to a 2-D float array, validating shape and finiteness."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not allow_nan and a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def numerical_rank(m, tol: RankTolerance = DEFAULT_TOL) -> int:
    """Count singular values above rel_threshold times the largest one.

    The all-zero matrix has rank 0, as does a matrix with an empty dimension.
    """
    a = as_matrix(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rel_threshold * s[0]))


def is_invertible(m, tol: RankTolerance = DEFAULT_TOL) -> bool:
    """True iff the square matrix has full numerical rank."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"invertibility requires a square matrix, got {a.shape}")
    return numerical_rank(a, tol) == a.shape[0]


def solve_least_squares(a, b, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Least-squares solution of a @ x = b for a full-column-rank a.

    `b` is one right-hand side (1-D) or one per column (2-D); x has the same
    number of dimensions. For square invertible a this is the exact
    solution. A rank-deficient coefficient matrix raises
    DegenerateSystemError instead of returning a minimum-norm answer,
    because downstream recovery must not silently proceed from a broken
    basis.
    """
    a = as_matrix(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.ndim not in (1, 2):
        raise ValueError(f"rhs must be 1-D or 2-D, got ndim={rhs.ndim}")
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match {a.shape[0]} rows")
    if numerical_rank(a, tol) < a.shape[1]:
        raise DegenerateSystemError(
            f"coefficient matrix of shape {a.shape} is rank deficient"
        )
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return x


def ei_in_colspace(m, i: int, tol: RankTolerance = DEFAULT_TOL) -> bool:
    """Whether the i-th standard basis vector lies in the column space of m.

    Implemented as the row-deletion test: deleting row i strictly decreases
    the numerical rank exactly when some combination of the columns equals
    e_i. Row indices are 0-based.
    """
    a = as_matrix(m)
    if not (0 <= i < a.shape[0]):
        raise IndexError(f"row index {i} out of range for {a.shape[0]} rows")
    return _drops_rank(a, i, numerical_rank(a, tol), tol)


def _drops_rank(a: np.ndarray, i: int, full: int, tol: RankTolerance) -> bool:
    """Whether deleting row i of a leaves a rank below `full`, a's rank."""
    return numerical_rank(np.delete(a, i, axis=0), tol) < full


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
    """Orthonormal basis of the column space of m, extracted via SVD."""
    a = as_matrix(m)
    r = numerical_rank(a, tol)
    if r == 0:
        raise ValueError("zero matrix spans no usable column space")
    u, _, _ = np.linalg.svd(a, full_matrices=False)
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


def nonsparsity_number(basis: SubspaceBasis) -> int:
    """Ambient dimension minus the sparsity number."""
    return basis.ambient_dim - sparsity_number(basis)


def has_unit_coordinate_vector(m, tol: RankTolerance = DEFAULT_TOL) -> bool:
    """True iff some standard basis vector lies in the column space of m.

    Equivalent to sparsity number 1 of the column space, but linear in the
    number of rows instead of exponential, so usable at any scale.
    """
    a = as_matrix(m)
    full = numerical_rank(a, tol)
    return any(_drops_rank(a, i, full, tol) for i in range(a.shape[0]))
