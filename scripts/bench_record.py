#!/usr/bin/env python3
"""Record benchmark runs of this checkout into one BENCH_<label>.json file.

For each workload and seed the script runs `perfbench/run.py` in a child
process and keeps the run's last two standard-output lines: the header that
describes the run and its environment, and the verdict with the metrics.
The file also holds `git rev-parse HEAD`, whether the working tree differed
from it in any file but the BENCH_*.json files at its top (both null outside
a git checkout, or without git), and the command that made the file.
Workloads and run length default to those BENCHMARK.json declares.

Example:
    python scripts/bench_record.py --label base --seeds 101 102 103
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str | None:
    """git's output on this tree, or None without git or outside a checkout."""
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def record_run(workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    *_, header, result = done.stdout.splitlines()
    return {"command": command, "header": json.loads(header), "result": json.loads(result)}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--workload", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    # Read before the file is written, which would itself change the tree;
    # the BENCH_*.json files at the top are left out, so one recording does
    # not mark the next dirty. A tree exported without .git records null for
    # both, not the commit of a repository it happens to sit in.
    top = git("rev-parse", "--show-toplevel")
    commit = dirty = None
    if top is not None and Path(top).resolve() == ROOT:
        commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json"))
    runs = []
    for workload in args.workload:
        for seed in args.seeds:
            runs.append(record_run(workload, seed, args.seconds))
            ops = runs[-1]["result"]["metrics"].get("ops_per_s", {}).get("value")
            print(f"{workload} seed {seed}: ops_per_s={ops}", flush=True)
    doc = {
        "label": args.label,
        "commit": commit,
        "dirty": dirty,
        "command": ["scripts/bench_record.py", *argv],
        "runs": runs,
    }
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
