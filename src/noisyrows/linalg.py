"""Dense-matrix primitives: tolerance-based rank, invertibility, solves,
standard-basis membership of a column space, and exact sparsity numbers of
the column space of a small matrix.

Rank decisions go through singular values with one relative threshold
rather than determinants, which overflow or underflow under the repeated
invertibility tests the completion algorithm performs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Exhaustive support enumeration is exponential in the ambient dimension;
# above this the caller must supply the sparsity number externally.
SPARSITY_ENUM_CAP = 22

# Rows whose unit-vector residuals _unit_vectors_in_colspace forms at once.
_RESIDUAL_CHUNK = 128

_EPS = float(np.finfo(float).eps)


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


def _check_held(index: tuple, x, value: float) -> None:
    """Raise ValueError unless the float `value` is the integer x exactly."""
    if int(value) != int(x):
        raise ValueError(f"matrix entry {index} is an integer no float holds exactly")


def as_real(m) -> np.ndarray:
    """Coerce input to a float array holding the same values. Input that is
    not real numbers (a complex or text dtype, or a complex, str or bytes
    entry of an object array), and an integer no float holds (2**53 + 1, or
    10**400), raise ValueError naming the dtype or the entry, rather than
    losing the imaginary part, parsing the text, rounding or overflowing; a
    float wider than 64 bits past the float range becomes inf."""
    a = np.asarray(m)
    if not isinstance(m, np.ndarray) and a.dtype.kind == "f" and (np.abs(a) >= 2.0**53).any():
        # Python integers beside floats were cast with them; check each.
        a = np.asarray(m, dtype=object)
    if a.dtype.kind not in "biufO":
        raise ValueError(f"matrix entries must be real numbers, got dtype {a.dtype}")
    if a.dtype.kind == "O":
        # Python numbers of mixed types or beyond int64, one entry at a time.
        out = np.empty(a.shape)
        for index, x in np.ndenumerate(a):
            if isinstance(x, (complex, np.complexfloating)):
                raise ValueError(f"matrix entry {index} is complex: {x!r}")
            if isinstance(x, (str, bytes)):
                raise ValueError(f"matrix entry {index} is text, not a number: {x!r}")
            try:
                out[index] = x
            except OverflowError:
                raise ValueError(f"matrix entry {index} is too large for a float") from None
            if isinstance(x, (int, np.integer)):
                _check_held(index, x, out[index])
        return out
    if a.dtype != float:
        with np.errstate(over="ignore"):
            f = a.astype(float)
        if a.dtype.kind in "iu":
            # Every integer of magnitude below 2**53 is a float.
            for index in map(tuple, np.argwhere(np.abs(f) >= 2.0**53).tolist()):
                _check_held(index, a[index], f[index])
        a = f
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D float array (`as_real`), validating shape and
    finiteness."""
    a = as_real(m)
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


def inverse_residual(m: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """(R, ||R||_F, ||m||_F, ||X||_F) for a square float matrix m and an
    approximate inverse X, with R = fl(X m) - I. Under `np.errstate` what
    overflows comes out inf or NaN with no warning; callers set it."""
    r = x @ m
    r.ravel()[:: m.shape[0] + 1] -= 1.0
    return r, math.sqrt(np.vdot(r, r)), math.sqrt(np.vdot(m, m)), math.sqrt(np.vdot(x, x))


def is_invertible(m, tol: RankTolerance = DEFAULT_TOL, inverse=None, residual=None) -> bool:
    """True iff the square matrix has full numerical rank.

    With `inverse`, an approximate inverse X of the n x n matrix B = m, a
    residual certificate decides first and returns True with no SVD when
    it can vouch for B. Let E = XB - I and rho = ||fl(XB) - I||_F +
    gamma_n ||X||_F ||B||_F, which bounds ||E||_2: forming XB errs by at
    most gamma_n |X| |B| (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.5). If rho < 1, B is invertible with B^-1 = (I + E)^-1 X,
    so sigma_min(B) >= (1 - rho) / ||X||_F, while sigma_max(B) <= ||B||_F:
    sigma_min / sigma_max is at least (1 - rho) / (||X||_F ||B||_F). The
    certificate vouches when that clears rel_threshold + 5 n^2 eps (1 +
    rel_threshold). The SVD's singular values are within 4 n^2 eps
    sigma_max of the exact ones, the margin discovery's filter also leaves,
    so the SVD would accept too: the certificate changes no decision. The
    rest of the margin, and the factor 1 + (n^2 + 8) eps, cover the
    rounding of the sums of squares, square roots and products that form
    the test. A residual or norm that overflows or is NaN vouches for
    nothing, and no warning escapes. (A verified-inverse check: Rump,
    "Verification methods", Acta Numerica 2010.) Otherwise, or with no
    `inverse`, the SVD decides.

    `residual`, when given with `inverse`, must be exactly the value
    `inverse_residual(m, inverse)` returns; the certificate then reads it
    instead of forming fl(XB) - I itself, so a caller that needs that
    residual too forms it once.
    """
    a = as_matrix(m)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError(f"invertibility requires a square matrix, got {a.shape}")
    if inverse is not None:
        if residual is None:
            with np.errstate(all="ignore"):
                residual = inverse_residual(a, np.asarray(inverse, dtype=float))
        _, r_norm, a_norm, x_norm = residual
        slack = 1.0 + (n * n + 8) * _EPS
        norms = a_norm * x_norm * slack
        rho = r_norm * slack + 2.0 * n * _EPS * norms
        cut = tol.rel_threshold + 5 * n * n * _EPS * (1.0 + tol.rel_threshold)
        if rho < 1.0 and 1.0 - rho > cut * norms * slack:
            return True
    return numerical_rank(a, tol) == n


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

    Of the arrays as wide as b, at most two are alive at once: U^T b is
    formed, the references to b are dropped (so a b the caller passed as a
    temporary is freed), and U^T b is divided by s in place before the
    product with V, which returns x.
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
    x = u.T @ rhs
    del b, rhs
    x /= s if x.ndim == 1 else s[:, None]
    return vt.T @ x


def _unit_vectors_in_colspace(a: np.ndarray, rows: range, tol: RankTolerance) -> np.ndarray:
    """For each row index i in `rows`, whether e_i lies in the column space
    of a: whether deleting row i drops the rank of a.

    One thin SVD gives U_r, the left singular vectors above rel_threshold
    times the largest singular value; row i is flagged when
    ||e_i - U_r U_r^T e_i|| is at most rel_threshold. The residual is formed
    explicitly because 1 - ||U_r[i]||^2 cancels when e_i is near the span.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    u_r = u[:, _above_cut(s, tol)]
    flags = np.empty(len(rows), dtype=bool)
    # The residuals of a chunk of rows form one n1 x chunk array, so memory
    # stays O(n1) per chunk however many rows are asked for.
    for start in range(rows.start, rows.stop, _RESIDUAL_CHUNK):
        chunk = np.arange(start, min(start + _RESIDUAL_CHUNK, rows.stop))
        residual = -(u_r @ u_r[chunk].T)
        residual[chunk, np.arange(chunk.size)] += 1.0
        flags[chunk - rows.start] = np.linalg.norm(residual, axis=0) <= tol.rel_threshold
    return flags


def ei_in_colspace(m, i: int, tol: RankTolerance = DEFAULT_TOL) -> bool:
    """Whether the i-th standard basis vector lies in the column space of m.

    Equivalently, whether deleting row i strictly decreases the numerical
    rank. Row indices are 0-based; any other i raises IndexError.
    """
    a = as_matrix(m)
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < a.shape[0]:
        raise IndexError(f"row index {i!r} is not an integer in [0, {a.shape[0]})")
    return bool(_unit_vectors_in_colspace(a, range(i, i + 1), tol)[0])


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
    return bool(_unit_vectors_in_colspace(a, range(a.shape[0]), tol).any())
