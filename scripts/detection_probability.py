#!/usr/bin/env python3
"""Estimate the per-probe detection probability against its lower bound.

For a batch of desk-scale fixtures with exhaustively computed column-space
sparsity numbers, the script Monte-Carlo-estimates how often a single
(random row, next useful column) probe certifies a new rank unit from an
empty discovery state, and compares the frequency with psi_u / n1 and with
the refined value (noisy + psi_u) / n1.

Example:
    python scripts/detection_probability.py --probes 10000 -o detection.csv
"""
import argparse
import csv
import sys

from noisyrows.completion import DiscoveryState
from noisyrows.instances import GeneratorConfig, compute_profile, generate
from noisyrows.verify import estimate_detection_probability

FIXTURES = [
    GeneratorConfig(n1=10, n2=8, rank_r=1, num_noisy=2, seed=6),
    GeneratorConfig(n1=12, n2=8, rank_r=2, num_noisy=1,
                    mode="sparse-basis", target_psi=3, seed=2),
    GeneratorConfig(n1=12, n2=9, rank_r=3, num_noisy=0,
                    mode="sparse-basis", target_psi=4, seed=3),
    GeneratorConfig(n1=9, n2=8, rank_r=2, num_noisy=1, seed=11),
    GeneratorConfig(n1=11, n2=10, rank_r=3, num_noisy=2, seed=12),
    GeneratorConfig(n1=10, n2=9, rank_r=2, num_noisy=0,
                    mode="sparse-basis", target_psi=5, seed=16),
    GeneratorConfig(n1=12, n2=11, rank_r=1, num_noisy=3, seed=17),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probes", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", default=None, help="optional CSV path")
    args = parser.parse_args(argv)

    rows = []
    for k, config in enumerate(FIXTURES):
        inst = generate(config)
        psi_u = compute_profile(inst).psi_col_clean
        state = DiscoveryState(pivot_rows=[], pivot_cols=[],
                               stale_passes=0, pass_budget=1)
        est = estimate_detection_probability(
            inst, state, probes=args.probes, seed=args.seed + k
        )
        lower = psi_u / config.n1
        refined = (config.num_noisy + psi_u) / config.n1
        rows.append([config.n1, config.n2, config.rank_r, config.num_noisy,
                     psi_u, est, lower, refined])
        print(
            f"n1={config.n1:>3} r={config.rank_r} noisy={config.num_noisy} "
            f"psi_u={psi_u}  estimate={est:.4f}  "
            f"lower={lower:.4f}  refined={refined:.4f}"
        )
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["n1", "n2", "r", "omega", "psi_u",
                        "estimate", "lower_bound", "refined_value"])
            w.writerows(rows)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
