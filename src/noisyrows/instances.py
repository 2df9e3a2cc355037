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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    CapacityError,
    RankTolerance,
    SPARSITY_ENUM_CAP,
    column_space_basis,
    has_unit_coordinate_vector,
    numerical_rank,
    row_space_basis,
    sparsity_number,
)

MAX_GENERATION_ATTEMPTS = 16

GENERATOR_MODES = ("gaussian", "sparse-basis")


class InstanceFormatError(ValueError):
    """Raised for malformed or inconsistent instance files."""


class GenerationError(RuntimeError):
    """Raised when repeated draws keep violating the instance invariants."""


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
    """The hidden triple: clean matrix, noisy row set, and additive noise."""

    m: np.ndarray
    noisy_rows: tuple[int, ...]
    noise: np.ndarray
    n_observed: np.ndarray
    rank_r: int
    seed: int

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


def _check_structure(inst: GroundTruthInstance) -> None:
    """Shapes, the noisy-row set, the noise-row pattern and n_observed = m + noise."""
    m, noise, n_obs = inst.m, inst.noise, inst.n_observed
    n1, n2 = m.shape
    if noise.shape != (n1, n2) or n_obs.shape != (n1, n2):
        raise InstanceFormatError("matrix dimension mismatch")
    gamma = inst.noisy_rows
    if len(set(gamma)) != len(gamma):
        raise InstanceFormatError("duplicate noisy-row indices")
    if any(not (0 <= i < n1) for i in gamma):
        raise InstanceFormatError("noisy-row index out of range")
    # Built only now: a negative index would have wrapped.
    in_gamma = np.zeros(n1, dtype=bool)
    in_gamma[list(gamma)] = True
    mismatched = np.flatnonzero(noise.any(axis=1) != in_gamma)
    if mismatched.size:
        i = int(mismatched[0])
        if in_gamma[i]:
            raise InstanceFormatError(f"noisy row {i} carries no noise")
        raise InstanceFormatError(f"row {i} carries noise but is not in gamma")
    if not np.array_equal(n_obs, m + noise):
        raise InstanceFormatError("observed matrix is not m + noise")


def _check_ranks(inst: GroundTruthInstance, clean_rank, observed_rank) -> None:
    """Compare rank(m) and rank(n_observed), each computed by its callable
    only when reached, with the declared rank r and r + |gamma|."""
    if clean_rank() != inst.rank_r:
        raise InstanceFormatError("clean matrix rank does not match declared rank")
    if observed_rank() != inst.rank_r + len(inst.noisy_rows):
        raise InstanceFormatError("observed matrix rank is not rank + noisy count")


def _check_instance(inst: GroundTruthInstance, tol: RankTolerance = DEFAULT_TOL) -> None:
    """Every invariant of an instance, with the ranks taken of the dense matrices."""
    _check_structure(inst)
    _check_ranks(
        inst,
        lambda: numerical_rank(inst.m, tol),
        lambda: numerical_rank(inst.n_observed, tol),
    )


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

    The structure holds by construction (_draw_candidate builds n_observed as
    m + noise), so only load() runs _check_structure.
    n_observed = [left | E_gamma] @ [right; noise[gamma]], where E_gamma holds
    the unit columns e_i for i in gamma.
    """
    gamma = list(inst.noisy_rows)
    units = np.zeros((inst.n1, len(gamma)))
    units[gamma, range(len(gamma))] = 1.0
    _check_ranks(
        inst,
        lambda: _product_rank(left, right, tol),
        lambda: _product_rank(
            np.hstack([left, units]), np.vstack([right, inst.noise[gamma]]), tol
        ),
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
    """One raw draw and its factors (m = left @ right); invariants are not yet verified."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed & (2**64 - 1), attempt]))
    n1, n2, r, g = config.n1, config.n2, config.rank_r, config.num_noisy
    gamma = tuple(sorted(rng.choice(n1, size=g, replace=False).tolist())) if g else ()
    clean = [i for i in range(n1) if i not in set(gamma)]

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
    m = left @ right

    noise = np.zeros((n1, n2))
    if g:
        noise[list(gamma), :] = rng.standard_normal((g, n2))
    inst = GroundTruthInstance(
        m=m,
        noisy_rows=gamma,
        noise=noise,
        n_observed=m + noise,
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
        for arr in (inst.m, inst.noise, inst.n_observed):
            arr.flags.writeable = False
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
    psi_col = sparsity_number(column_space_basis(clean_m, tol))
    psi_row = sparsity_number(row_space_basis(clean_m, tol))
    return SparsityProfile(psi_col_clean=psi_col, psi_row_clean=psi_row)


def save(inst: GroundTruthInstance, path) -> None:
    """Write the instance as a single JSON document (row-major arrays)."""
    doc = {
        "n1": inst.n1,
        "n2": inst.n2,
        "r": inst.rank_r,
        "gamma": list(inst.noisy_rows),
        "seed": inst.seed,
        "m": inst.m.tolist(),
        "noise": inst.noise.tolist(),
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
    try:
        n1, n2 = int(doc["n1"]), int(doc["n2"])
        m = np.asarray(doc["m"], dtype=float)
        noise = np.asarray(doc["noise"], dtype=float)
        gamma = tuple(int(i) for i in doc["gamma"])
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed field: {exc}") from exc
    if m.ndim != 2 or m.shape != (n1, n2) or noise.shape != (n1, n2):
        raise InstanceFormatError("matrix dimension mismatch")
    for name, arr in (("m", m), ("noise", noise)):
        if not np.isfinite(arr).all():
            raise InstanceFormatError(f"field {name!r} has non-finite entries")
    if len(gamma) > n1:
        raise InstanceFormatError("more noisy rows than rows")
    inst = GroundTruthInstance(
        m=m,
        noisy_rows=tuple(sorted(gamma)),
        noise=noise,
        n_observed=m + noise,
        rank_r=int(doc["r"]),
        seed=int(doc["seed"]),
    )
    _check_instance(inst, tol)
    for arr in (inst.m, inst.noise, inst.n_observed):
        arr.flags.writeable = False
    return inst
