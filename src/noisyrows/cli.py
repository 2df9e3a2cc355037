"""Command-line entry point.

Subcommands:
  generate  write a seeded ground-truth instance file
  run       complete one instance and report the outcome
  trials    seeded Monte Carlo batch, one CSV row of aggregate statistics
  bound     print both closed-form query budgets for given parameters

A detected algorithmic failure (an honest non-ok status) exits 0 with the
status in the output; only usage and I/O errors exit nonzero, so batch
sweeps never abort on expected stochastic failures.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .completion import CompletionParams, query_budget
from .completion import run as run_completion
from .instances import (
    GENERATOR_MODES,
    GeneratorConfig,
    compute_profile,
    generate,
    load,
    save,
)
from .linalg import DEFAULT_TOL, CapacityError, RankTolerance
from .oracle import QueryOracle
from .verify import (
    estimate_success_rate,
    max_relative_error,
    write_trial_stats_csv,
)

DEFAULT_EPSILON = CompletionParams().epsilon
DEFAULT_TOL_VALUE = DEFAULT_TOL.rel_threshold


def _print_header(args) -> None:
    print(
        f"# epsilon={args.epsilon} tol={args.tol} "
        f"(defaults: epsilon={DEFAULT_EPSILON} tol={DEFAULT_TOL_VALUE})"
    )


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n1", type=int, required=True, help="row count")
    p.add_argument("--n2", type=int, required=True, help="column count")
    p.add_argument("--rank", type=int, required=True, help="rank of the clean matrix")
    p.add_argument("--noisy", type=int, default=0, help="number of noisy rows")
    p.add_argument("--mode", choices=GENERATOR_MODES, default="gaussian")
    p.add_argument(
        "--target-psi",
        type=int,
        default=None,
        help="column-space sparsity number (sparse-basis mode only)",
    )
    p.add_argument(
        "--enforce-psi",
        action="store_true",
        help="regenerate until no standard basis vector lies in the clean column space",
    )


def _generator_config(args) -> GeneratorConfig:
    return GeneratorConfig(
        n1=args.n1,
        n2=args.n2,
        rank_r=args.rank,
        num_noisy=args.noisy,
        mode=args.mode,
        target_psi=args.target_psi,
        seed=args.seed,
        enforce_psi=args.enforce_psi,
    )


def cmd_generate(args) -> int:
    config = _generator_config(args)
    inst = generate(config)
    save(inst, args.output)
    print(f"wrote {args.output}: {inst.n1}x{inst.n2} rank={inst.rank_r} "
          f"noisy_rows={list(inst.noisy_rows)} seed={inst.seed}")
    try:
        profile = compute_profile(inst)
        print(f"psi_col_clean={profile.psi_col_clean} "
              f"psi_row_clean={profile.psi_row_clean}")
    except CapacityError:
        print("sparsity profile skipped: dimensions exceed the enumeration cap")
    return 0


def _result_json(result, proof_bound: float, stated_bound: float, max_rel_error) -> str:
    doc = {
        "status": result.status,
        "noisy_rows_hat": list(result.noisy_rows_hat),
        "query_count": result.query_count,
        "proof_bound": proof_bound,
        "stated_bound": stated_bound,
        # Strict JSON has no Infinity: a non-finite error is written as null.
        "max_rel_error": max_rel_error if math.isfinite(max_rel_error) else None,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def cmd_run(args) -> int:
    params = CompletionParams(
        epsilon=args.epsilon, tol=RankTolerance(rel_threshold=args.tol)
    )
    inst = load(args.instance, params.tol)
    # Generic-position sparsity numbers unless the caller knows better.
    # The budget is evaluated first, so a bad value is rejected before the run.
    n_clean = inst.n1 - len(inst.noisy_rows)
    psi_u = args.psi_u if args.psi_u is not None else max(1, n_clean - inst.rank_r + 1)
    psi_v = args.psi_v if args.psi_v is not None else max(1, inst.n2 - inst.rank_r + 1)
    bound = query_budget(
        inst.n1, inst.n2, inst.rank_r, len(inst.noisy_rows), psi_u, psi_v, args.epsilon
    )
    _print_header(args)
    oracle = QueryOracle(inst, rng_seed=args.oracle_seed)
    result = run_completion(oracle, params)
    err = max_relative_error(result.recovered, inst.m, list(inst.clean_rows))

    print(f"status: {result.status}")
    print(f"noisy_rows_hat: {list(result.noisy_rows_hat)} (true: {list(inst.noisy_rows)})")
    print(f"query_count: {result.query_count} of {inst.n1 * inst.n2} entries")
    print(f"proof_bound: {bound.proof_bound}")
    print(f"stated_bound: {bound.stated_bound}")
    print(f"max_rel_error: {err}")
    if args.json:
        Path(args.json).write_text(
            _result_json(result, bound.proof_bound, bound.stated_bound, err),
            encoding="utf-8",
        )
        print(f"wrote {args.json}")
    return 0


def cmd_trials(args) -> int:
    if args.trials < 1:
        raise SystemExit("trials must be positive")
    config = _generator_config(args)
    params = CompletionParams(
        epsilon=args.epsilon, tol=RankTolerance(rel_threshold=args.tol)
    )
    _print_header(args)
    stats = estimate_success_rate(config, params, args.trials)
    write_trial_stats_csv(args.output, [stats])
    print(f"wrote {args.output}: {stats.successes}/{stats.trials} successes, "
          f"mean_queries={stats.mean_queries:.1f}, "
          f"bound_violations={stats.bound_violations}")
    return 0


def cmd_bound(args) -> int:
    report = query_budget(
        args.n1, args.n2, args.rank, args.omega, args.psi_u, args.psi_v, args.epsilon
    )
    print(f"# epsilon={args.epsilon} (default {DEFAULT_EPSILON})")
    print(f"proof_bound:  {report.proof_bound}")
    print(f"stated_bound: {report.stated_bound}")
    print(
        "note: the headline expression divides its middle term by psi_v; "
        "the per-phase sum never reproduces that divisor. Both are reported."
    )
    if args.psi_u == 1:
        print(
            "note: psi_u=1 is accepted for the formula, but recovery "
            "requires psi_u > 1 (a standard basis vector in the clean "
            "column space makes a clean row indistinguishable from noise)."
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyrows",
        description="Adaptive exact completion of low-rank matrices with "
        "noisy-row detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a ground-truth instance file")
    _add_generator_flags(p_gen)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True, help="instance file path")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="complete one instance file")
    p_run.add_argument("--instance", required=True, help="instance file path")
    p_run.add_argument("--oracle-seed", type=int, default=0)
    p_run.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_run.add_argument("--tol", type=float, default=DEFAULT_TOL_VALUE)
    p_run.add_argument("--psi-u", type=int, default=None,
                       help="known clean column-space sparsity number "
                       "(default: generic-position value)")
    p_run.add_argument("--psi-v", type=int, default=None,
                       help="known clean row-space sparsity number")
    p_run.add_argument("--json", default=None, help="also write a JSON result file")
    p_run.set_defaults(func=cmd_run)

    p_tr = sub.add_parser("trials", help="seeded Monte Carlo batch")
    _add_generator_flags(p_tr)
    p_tr.add_argument("--trials", type=int, required=True)
    p_tr.add_argument("--base-seed", dest="seed", type=int, default=0,
                      help="seed of the first trial; trial t uses seed + t")
    p_tr.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_tr.add_argument("--tol", type=float, default=DEFAULT_TOL_VALUE)
    p_tr.add_argument("-o", "--output", required=True, help="CSV output path")
    p_tr.set_defaults(func=cmd_trials)

    p_b = sub.add_parser("bound", help="print both query budgets")
    p_b.add_argument("--n1", type=int, required=True)
    p_b.add_argument("--n2", type=int, required=True)
    p_b.add_argument("--rank", type=int, required=True)
    p_b.add_argument("--omega", type=int, required=True, help="noisy-row count")
    p_b.add_argument("--psi-u", type=int, required=True,
                     help="clean column-space sparsity number")
    p_b.add_argument("--psi-v", type=int, required=True,
                     help="clean row-space sparsity number")
    p_b.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_b.set_defaults(func=cmd_bound)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
