#!/usr/bin/env python3
"""Digest every decision the benchmark's workloads make, to compare commits.

For each workload and seed the script builds the benchmark's cases
(`perfbench/run.py`, loaded read-only), runs every op once and feeds each
op's per-run keys (status, flagged rows, query count, pivot rows, pivot
columns) and contract violation into one sha256. It prints one JSON line
per workload. Two commits make the same decisions on those seeds when their
lines are equal.

Example:
    python scripts/decision_digest.py --workload square wide --seeds 101 102
"""
import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    """perfbench/run.py as a module, with no bytecode written beside it."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def digest(bench, workload, seeds) -> dict:
    sha = hashlib.sha256()
    runs = queries = successes = 0
    for seed in seeds:
        ops = bench.Bench(bench.WORKLOADS[workload], seed)
        ops.build()
        for i in range(len(ops.cases)):
            outcome = ops.op(i)
            sha.update(repr((outcome.keys, outcome.violation)).encode())
            runs += outcome.runs
            queries += outcome.queries
            successes += outcome.successes
    return {"workload": workload, "seeds": list(seeds), "runs": runs,
            "unique_queries": queries, "successes": successes,
            "decisions": sha.hexdigest()}


def main(argv=None) -> int:
    bench = load_bench()
    bench._set_blas_threads()  # before numpy loads, as the benchmark does
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=list(bench.WORKLOADS),
                        default=list(bench.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(101, 111)))
    args = parser.parse_args(argv)
    for workload in args.workload:
        print(json.dumps(digest(bench, workload, args.seeds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
