"""Ground-truth problem instances: a hidden low-rank matrix, a set of rows
corrupted by additive Gaussian noise, and the observed sum.

Two generation modes:

* ``gaussian`` draws the low-rank factor entries i.i.d. standard normal, so
  the clean column space is in generic position.
* ``sparse-basis`` spans the clean-row column space with vectors of pairwise
  disjoint supports of a chosen size, which pins the column-space sparsity
  number to exactly that size by construction.

Instances serialize to a single JSON document; all row indices are 0-based.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    CapacityError,
    RankTolerance,
    SPARSITY_ENUM_CAP,
    as_real,
    has_unit_coordinate_vector,
    numerical_rank,
    sparsity_number,
)

MAX_GENERATION_ATTEMPTS = 16

GENERATOR_MODES = ("gaussian", "sparse-basis")


class InstanceFormatError(ValueError):
    """Raised for malformed or inconsistent instance files."""


class GenerationError(ValueError):
    """Raised when repeated draws keep violating the instance invariants. A
    ValueError, because such a configuration is a bad argument."""


@dataclass(frozen=True)
class GeneratorConfig:
    n1: int
    n2: int
    rank_r: int
    num_noisy: int = 0
    mode: str = "gaussian"
    target_psi: int | None = None
    seed: int = 0
    enforce_psi: bool = False

    def __post_init__(self):
        if self.n1 <= 0 or self.n2 <= 0:
            raise ValueError("matrix dimensions must be positive")
        if self.rank_r <= 0:
            raise ValueError("rank must be positive")
        if self.num_noisy < 0:
            raise ValueError("noisy-row count cannot be negative")
        if self.mode not in GENERATOR_MODES:
            raise ValueError(f"mode must be one of {GENERATOR_MODES}, got {self.mode!r}")
        if self.rank_r + self.num_noisy > min(self.n1 - self.num_noisy, self.n2):
            raise ValueError(
                "infeasible: rank + noisy rows must not exceed "
                "min(clean row count, column count)"
            )
        if self.mode == "sparse-basis":
            if self.target_psi is None:
                raise ValueError("sparse-basis mode requires target_psi")
            if self.target_psi < 2:
                raise ValueError("target_psi must be at least 2")
            if self.rank_r * self.target_psi > self.n1 - self.num_noisy:
                raise ValueError(
                    "infeasible: disjoint supports need rank * target_psi "
                    "clean rows"
                )
        elif self.target_psi is not None:
            raise ValueError("target_psi only applies to sparse-basis mode")


@dataclass(frozen=True)
class GroundTruthInstance:
    """The hidden triple: clean matrix, noisy row set, and additive noise.

    Row t of ``noise_rows`` is the noise on row ``noisy_rows[t]``; every other
    row is clean. The observed matrix n_observed = m + noise is built here,
    once, so an instance is consistent by construction.
    """

    m: np.ndarray
    noisy_rows: tuple[int, ...]
    noise_rows: np.ndarray
    rank_r: int
    seed: int
    n_observed: np.ndarray = field(init=False)

    def __post_init__(self):
        n1, n2 = self.m.shape
        gamma = self.noisy_rows
        if self.noise_rows.shape != (len(gamma), n2):
            raise InstanceFormatError("matrix dimension mismatch")
        if len(set(gamma)) != len(gamma):
            raise InstanceFormatError("duplicate noisy-row indices")
        if any(not (0 <= i < n1) for i in gamma):
            raise InstanceFormatError("noisy-row index out of range")
        silent = np.flatnonzero(~self.noise_rows.any(axis=1))
        if silent.size:
            raise InstanceFormatError(f"noisy row {gamma[silent[0]]} carries no noise")
        # Every row is m plus its noise row, a zero row off gamma, so signed
        # zeros come out as in the dense sum m + noise: -0.0 + 0.0 is 0.0.
        n_observed = self.m + 0.0
        n_observed[list(gamma)] = self.m[list(gamma)] + self.noise_rows
        object.__setattr__(self, "n_observed", n_observed)
        for arr in (self.m, self.noise_rows, self.n_observed):
            arr.flags.writeable = False

    @property
    def n1(self) -> int:
        return self.m.shape[0]

    @property
    def n2(self) -> int:
        return self.m.shape[1]

    @property
    def clean_rows(self) -> tuple[int, ...]:
        gamma = set(self.noisy_rows)
        return tuple(i for i in range(self.n1) if i not in gamma)


@dataclass(frozen=True)
class SparsityProfile:
    """Exhaustive sparsity numbers of the clean-row column and row spaces."""

    psi_col_clean: int
    psi_row_clean: int


def _check_ranks(inst: GroundTruthInstance, clean_rank: int, observed_rank: int) -> None:
    """Compare rank(m) and rank(n_observed) with the declared rank r and r + |gamma|."""
    if clean_rank != inst.rank_r:
        raise InstanceFormatError("clean matrix rank does not match declared rank")
    if observed_rank != inst.rank_r + len(inst.noisy_rows):
        raise InstanceFormatError("observed matrix rank is not rank + noisy count")


def _check_instance(inst: GroundTruthInstance, tol: RankTolerance = DEFAULT_TOL) -> None:
    """The rank invariants of an instance, taken of the dense matrices."""
    _check_ranks(inst, numerical_rank(inst.m, tol), numerical_rank(inst.n_observed, tol))


def _product_rank(a: np.ndarray, b: np.ndarray, tol: RankTolerance = DEFAULT_TOL) -> int:
    """numerical_rank(a @ b) for an n1 x k and a k x n2 factor, without the product.

    With the thin QRs a = Q_a R_a and b^T = Q_b R_b, a @ b = Q_a (R_a R_b^T) Q_b^T
    has the singular values of the small core R_a R_b^T.
    """
    return numerical_rank(np.linalg.qr(a, mode="r") @ np.linalg.qr(b.T, mode="r").T, tol)


def _check_draw(
    inst: GroundTruthInstance,
    left: np.ndarray,
    right: np.ndarray,
    enforce_psi: bool,
    tol: RankTolerance = DEFAULT_TOL,
) -> None:
    """The rank and psi invariants of a fresh draw m = left @ right, decided on
    the factors instead of the dense n1 x n2 matrices.

    n_observed = [left | E_gamma] @ [right; noise_rows], where E_gamma holds
    the unit columns e_i for i in gamma.
    """
    gamma = list(inst.noisy_rows)
    units = np.zeros((inst.n1, len(gamma)))
    units[gamma, range(len(gamma))] = 1.0
    _check_ranks(
        inst,
        _product_rank(left, right, tol),
        _product_rank(np.hstack([left, units]), np.vstack([right, inst.noise_rows]), tol),
    )
    if enforce_psi:
        # m[clean] = left[clean] R^T Q^T for the thin QR right^T = Q R, so the
        # n x r matrix left[clean] R^T has the singular values and left
        # singular vectors of m[clean]: the same cut and the same residuals.
        clean_basis = left[list(inst.clean_rows)] @ np.linalg.qr(right.T, mode="r").T
        if has_unit_coordinate_vector(clean_basis, tol):
            raise InstanceFormatError("clean column space contains a standard basis vector")


def _draw_candidate(
    config: GeneratorConfig, attempt: int
) -> tuple[GroundTruthInstance, np.ndarray, np.ndarray]:
    """One raw draw and its factors (m = left @ right); its ranks and psi are not yet verified."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed & (2**64 - 1), attempt]))
    n1, n2, r, g = config.n1, config.n2, config.rank_r, config.num_noisy
    gamma = tuple(sorted(rng.choice(n1, size=g, replace=False).tolist())) if g else ()
    noisy = set(gamma)
    clean = [i for i in range(n1) if i not in noisy]

    if config.mode == "gaussian":
        left = rng.standard_normal((n1, r))
    else:
        psi = config.target_psi
        # Disjoint supports of size psi among the clean rows; noisy rows get
        # dense generic coefficients so the full matrix still has rank r.
        positions = rng.permutation(len(clean))
        left = np.zeros((n1, r))
        for k in range(r):
            block = positions[k * psi : (k + 1) * psi]
            left[[clean[p] for p in block], k] = rng.standard_normal(psi)
        left[list(gamma), :] = rng.standard_normal((g, r))
    right = rng.standard_normal((r, n2))
    inst = GroundTruthInstance(
        m=left @ right,
        noisy_rows=gamma,
        noise_rows=rng.standard_normal((g, n2)),
        rank_r=r,
        seed=config.seed,
    )
    return inst, left, right


def generate(config: GeneratorConfig, tol: RankTolerance = DEFAULT_TOL) -> GroundTruthInstance:
    """Draw an instance, retrying with derived seeds until invariants hold.

    The rank checks, and the psi check under enforce_psi, run on the drawn
    factors (small QR cores, an n x r clean basis), never on the dense
    n1 x n2 matrices; load() has no factors and checks the dense matrices.
    Degenerate draws are measure-zero events but do occur in floating point;
    after MAX_GENERATION_ATTEMPTS rejections a GenerationError is raised.
    """
    last_error = None
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        inst, left, right = _draw_candidate(config, attempt)
        try:
            _check_draw(inst, left, right, config.enforce_psi, tol)
        except InstanceFormatError as exc:
            last_error = exc
            continue
        return inst
    raise GenerationError(
        f"no valid draw in {MAX_GENERATION_ATTEMPTS} attempts: {last_error}"
    )


def compute_profile(
    inst: GroundTruthInstance, tol: RankTolerance = DEFAULT_TOL
) -> SparsityProfile:
    """Exhaustive sparsity numbers of the clean-row submatrix's two spaces.

    Only valid at desk scale: both the clean row count and the column count
    must sit within the enumeration cap.
    """
    clean = list(inst.clean_rows)
    if len(clean) > SPARSITY_ENUM_CAP or inst.n2 > SPARSITY_ENUM_CAP:
        raise CapacityError(
            f"clean submatrix {len(clean)}x{inst.n2} exceeds the "
            f"enumeration cap {SPARSITY_ENUM_CAP}"
        )
    clean_m = inst.m[clean, :]
    psi_col = sparsity_number(clean_m, tol)
    psi_row = sparsity_number(clean_m.T, tol)
    return SparsityProfile(psi_col_clean=psi_col, psi_row_clean=psi_row)


def save(inst: GroundTruthInstance, path) -> None:
    """Write the instance as a single JSON document (row-major arrays), with
    the noise as a dense n1 x n2 field."""
    noise = np.zeros((inst.n1, inst.n2))
    noise[list(inst.noisy_rows)] = inst.noise_rows
    doc = {
        "n1": inst.n1,
        "n2": inst.n2,
        "r": inst.rank_r,
        "gamma": list(inst.noisy_rows),
        "seed": inst.seed,
        "m": inst.m.tolist(),
        "noise": noise.tolist(),
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load(path, tol: RankTolerance = DEFAULT_TOL) -> GroundTruthInstance:
    """Read and validate an instance file written by save()."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"not a valid instance file: {exc}") from exc
    required = {"n1", "n2", "r", "gamma", "seed", "m", "noise"}
    if not isinstance(doc, dict) or not required.issubset(doc):
        missing = required - set(doc) if isinstance(doc, dict) else required
        raise InstanceFormatError(f"missing fields: {sorted(missing)}")
    # JSON integers only: bool is a subclass of int, and a float would be truncated.
    for name in ("n1", "n2", "r", "seed"):
        if type(doc[name]) is not int:
            raise InstanceFormatError(f"field {name!r} must be an integer, got {doc[name]!r}")
    gamma = doc["gamma"]
    if type(gamma) is not list or any(type(i) is not int for i in gamma):
        raise InstanceFormatError(f"field 'gamma' must be a list of integers, got {gamma!r}")
    n1, n2 = doc["n1"], doc["n2"]
    try:
        m, noise = as_real(doc["m"]), as_real(doc["noise"])
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed field: {exc}") from exc
    if m.ndim != 2 or m.shape != (n1, n2) or noise.shape != (n1, n2):
        raise InstanceFormatError("matrix dimension mismatch")
    for name, arr in (("m", m), ("noise", noise)):
        if not np.isfinite(arr).all():
            raise InstanceFormatError(f"field {name!r} has non-finite entries")
    if len(gamma) > n1:
        raise InstanceFormatError("more noisy rows than rows")
    gamma = sorted(gamma)
    inst = GroundTruthInstance(
        m=m,
        noisy_rows=tuple(gamma),
        # Clamped, so that an index out of range meets the type's range check
        # instead of failing, or wrapping if negative, in this gather.
        noise_rows=noise[[min(max(i, 0), n1 - 1) for i in gamma]],
        rank_r=doc["r"],
        seed=doc["seed"],
    )
    off_gamma = np.ones(n1, dtype=bool)
    off_gamma[gamma] = False
    stray = np.flatnonzero(off_gamma & noise.any(axis=1))
    if stray.size:
        raise InstanceFormatError(f"row {stray[0]} carries noise but is not in gamma")
    _check_instance(inst, tol)
    return inst
