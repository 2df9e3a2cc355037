#!/usr/bin/env python3
"""Sweep instance families and measure end-to-end success and query usage.

Each family row reports the fraction of seeded trials that identified the
noisy rows exactly and reproduced every clean-row entry, the mean unique
query count, and how often the count exceeded the per-phase budget.

Example:
    python scripts/success_rate_sweep.py --trials 200 -o sweep.csv
"""
import argparse
import sys

from noisyrows.completion import CompletionParams
from noisyrows.instances import GeneratorConfig
from noisyrows.verify import estimate_success_rate, write_trial_stats_csv

FAMILIES = [
    dict(n1=8, n2=8, rank_r=1, num_noisy=0),
    dict(n1=8, n2=8, rank_r=2, num_noisy=0),
    dict(n1=8, n2=8, rank_r=2, num_noisy=1),
    dict(n1=12, n2=10, rank_r=2, num_noisy=2),
    dict(n1=16, n2=16, rank_r=3, num_noisy=2),
    dict(n1=24, n2=20, rank_r=4, num_noisy=3),
    dict(n1=30, n2=12, rank_r=2, num_noisy=1),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--epsilon", type=float, default=CompletionParams().epsilon)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("-o", "--output", default="success_rate_sweep.csv")
    args = parser.parse_args(argv)

    params = CompletionParams(epsilon=args.epsilon)
    rows = []
    for family in FAMILIES:
        config = GeneratorConfig(seed=args.base_seed, enforce_psi=True, **family)
        stats = estimate_success_rate(config, params, args.trials)
        rows.append(stats)
        print(
            f"n1={stats.n1:>3} n2={stats.n2:>3} r={stats.rank} "
            f"noisy={stats.omega_size}  success={stats.successes}/{stats.trials}  "
            f"mean_queries={stats.mean_queries:7.1f}  "
            f"proof_bound={stats.proof_bound:8.1f}  "
            f"violations={stats.bound_violations}"
        )
    write_trial_stats_csv(args.output, rows)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
