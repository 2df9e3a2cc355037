#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the noisyrows completer.

Run from the repository root:

    python3 perfbench/run.py --workload square --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory. Every op is
checked against the instance's ground truth. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it describes the run and its
environment; a traced run prints its phase spans before that. See README.md
in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every BLAS call here is on a matrix of at most a few hundred rows, where a
# second thread brings no speed but doubles CPU use on a shared 2-CPU
# machine; one thread keeps runs steady and stays within nproc.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3

# The host's speed drifts by up to 2x over spells of tens of seconds. Each
# op is bracketed by a fixed reference kernel (the same mix of numpy element
# reads from Python, tuple appends to a growing list, small SVDs and one
# 100x100 SVD that the ops do), and its time is scaled by REFERENCE_S over
# the kernel's median time around it. REFERENCE_S is the kernel's time on
# an idle Intel Xeon 2.1 GHz vCPU, so scaled seconds read as seconds on
# that machine at rest. The raw seconds are in the header line.
REFERENCE_S = 0.007
# Kernel samples on each side of an op that set its scale; a window of a
# few seconds follows the drift and smooths the kernel's own jitter.
KERNEL_WINDOW = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import noisyrows; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Trial:
    """One run() input: an instance configuration and an oracle seed."""

    config: object
    oracle_seed: int


@dataclass(frozen=True)
class Workload:
    # Whether instances are generated inside the timed op (trials) or built
    # during set-up (square, wide).
    generate_in_op: bool
    # (GeneratorConfig class, seed) -> one tuple of trials per op.
    cases: object


def _square_cases(config_cls, seed):
    return [
        (Trial(config_cls(n1=400, n2=400, rank_r=10, num_noisy=3,
                          seed=seed * 1000 + k), seed * 1000 + 500 + k),)
        for k in range(24)
    ]


def _wide_cases(config_cls, seed):
    return [
        (Trial(config_cls(n1=36, n2=2000, rank_r=30, num_noisy=3,
                          seed=seed * 1000 + k), seed * 1000 + 500 + k),)
        for k in range(8)
    ]


def _trials_cases(config_cls, seed):
    """Each op is one trial of each family, so op times are not bimodal."""
    cases = []
    for k in range(40):
        base = seed * 100_000 + 2 * k
        gaussian = config_cls(n1=100, n2=100, rank_r=6, num_noisy=3,
                              seed=base, enforce_psi=True)
        sparse = config_cls(n1=100, n2=100, rank_r=6, num_noisy=3,
                            mode="sparse-basis", target_psi=5, seed=base + 1)
        cases.append((Trial(gaussian, base + 50_000), Trial(sparse, base + 50_001)))
    return cases


WORKLOADS = {
    "square": Workload(False, _square_cases),
    "wide": Workload(False, _wide_cases),
    "trials": Workload(True, _trials_cases),
}


@dataclass
class Outcome:
    """One op: its time and, per run(), what must repeat exactly."""

    seconds: float
    keys: tuple  # per run: (status, flagged, queries, pivot rows, pivot cols)
    queries: int
    runs: int
    successes: int
    violation: str | None  # "raised" when the op threw
    log_entries: int | None
    slot: int = 0  # position among the reference kernel samples (see Pace)
    scale: float = 1.0  # set by Pace.rescale once the run is over

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


class Pace:
    """Brackets timed work with the reference kernel (see REFERENCE_S)."""

    def __init__(self):
        import numpy as np

        self._small = np.arange(64.0).reshape(8, 8) % 7.0 + np.eye(8)
        self._large = np.arange(10_000.0).reshape(100, 100) % 13.0 + np.eye(100)
        self._svd = np.linalg.svd
        self.kernel_s: list[float] = [self._kernel()]

    def _kernel(self) -> float:
        small, svd = self._small, self._svd
        start = time.perf_counter()
        total = 0.0
        log = []
        for i in range(20_000):
            total += float(small[i & 7, (i >> 3) & 7])
            log.append(("entry", i, i + 1, i))
        for _ in range(100):
            svd(small, compute_uv=False)
        svd(self._large, compute_uv=False)
        return time.perf_counter() - start

    def run(self, fn):
        """(fn(), slot), where slot indexes the kernel sample just before."""
        slot = len(self.kernel_s) - 1
        out = fn()
        self.kernel_s.append(self._kernel())
        return out, slot

    def scale(self, slot: int) -> float:
        """REFERENCE_S over the median of the KERNEL_WINDOW kernel samples
        on each side of the work at `slot`."""
        near = self.kernel_s[max(0, slot + 1 - KERNEL_WINDOW): slot + 1 + KERNEL_WINDOW]
        return REFERENCE_S / statistics.median(near)

    def op(self, bench, index: int) -> "Outcome":
        out, out.slot = self.run(lambda: bench.op(index))
        return out

    def rescale(self, outcomes) -> None:
        for o in outcomes:
            o.scale = self.scale(o.slot)


def _set_blas_threads() -> None:
    """Pin BLAS to BLAS_THREADS threads; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _import_library():
    """Import noisyrows from this checkout's src/, never from elsewhere."""
    if not (SRC / "noisyrows" / "__init__.py").is_file():
        raise SystemExit(f"error: no noisyrows package under {SRC}")
    sys.path.insert(0, str(SRC))
    import noisyrows

    if not Path(noisyrows.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: noisyrows resolved outside {SRC}")


def _child_import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


class Bench:
    """Runs one workload's ops and checks each against ground truth."""

    def __init__(self, workload: Workload, seed: int):
        from noisyrows import completion, instances, oracle, verify

        self.completion = completion
        self.instances = instances
        self.oracle_mod = oracle
        self.verify = verify
        self.workload = workload
        self.cases = workload.cases(instances.GeneratorConfig, seed)
        self.built: list | None = None
        self.statuses = {completion.STATUS_OK, completion.STATUS_PRECONDITION,
                         completion.STATUS_BUDGET}

    def build(self) -> float:
        """Generate the set-up instances; return the seconds it took."""
        self.built = None
        if self.workload.generate_in_op:
            return 0.0
        start = time.perf_counter()
        self.built = [
            [self.instances.generate(t.config) for t in case] for case in self.cases
        ]
        return time.perf_counter() - start

    def op(self, index: int) -> Outcome:
        """One op. Timed: oracle set-up and run(); in trials also generation
        and the check, which is untimed otherwise."""
        keys, queries, successes, violation, logs = [], 0, 0, None, 0
        untimed = 0.0
        start = time.perf_counter()
        try:
            for j, trial in enumerate(self.cases[index]):
                if self.built is None:
                    inst = self.instances.generate(trial.config)
                else:
                    inst = self.built[index][j]
                oracle = self.oracle_mod.QueryOracle(inst, rng_seed=trial.oracle_seed)
                result = self.completion.run(oracle)
                check_start = time.perf_counter()
                key, ok, broken = self._check(inst, oracle, result)
                if not self.workload.generate_in_op:
                    untimed += time.perf_counter() - check_start
                keys.append(key)
                queries += key[2]
                successes += ok
                violation = violation or broken
                log = getattr(oracle, "log", None)
                logs = logs + len(log.entries) if hasattr(log, "entries") else None
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc(file=sys.stderr)
            violation = "raised"
        seconds = time.perf_counter() - start - untimed
        return Outcome(seconds, tuple(keys), queries, len(self.cases[index]),
                       successes, violation, logs)

    def _check(self, inst, oracle, result):
        """(key, success, violation) for one completed run().

        A violation breaks the output contract on any input: unknown status,
        wrong shape, a flagged row with values, values under
        budget-exhausted, or a query count that disagrees with the oracle.
        Success is the stricter, statistical outcome: status ok, the flagged
        set equal to the true noisy rows, and clean rows reproduced to
        verify.SUCCESS_REL_ERROR.
        """
        import numpy as np

        recovered = result.recovered
        flagged = tuple(int(i) for i in result.noisy_rows_hat)
        queries = int(result.query_count)
        violation = None
        if result.status not in self.statuses:
            violation = f"unknown status {result.status!r}"
        elif recovered.shape != (inst.n1, inst.n2):
            violation = f"recovered shape {recovered.shape}"
        elif flagged and not np.isnan(recovered[list(flagged), :]).all():
            violation = "a flagged row carries values"
        elif (result.status == self.completion.STATUS_BUDGET
              and not np.isnan(recovered).all()):
            violation = "budget-exhausted result carries values"
        elif queries != int(oracle.unique_query_count):
            violation = "query_count disagrees with the oracle"
        err = self.verify.max_relative_error(recovered, inst.m, list(inst.clean_rows))
        success = (
            violation is None
            and result.status == self.completion.STATUS_OK
            and flagged == tuple(inst.noisy_rows)
            and err <= self.verify.SUCCESS_REL_ERROR
        )
        key = (
            result.status,
            flagged,
            queries,
            tuple(int(i) for i in result.pivot_rows),
            tuple(int(i) for i in result.pivot_cols),
        )
        return key, success, violation


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def _repeat(seconds: float, step, minimum: int = 1) -> list:
    """Call step(k) for k = 0, 1, ... at least `minimum` times, then while
    another call should still end within the time budget."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed * (1 + 1 / len(results)) > seconds:
            return results


def _tally(outcomes, reference) -> dict:
    """Failures, violations and mismatches of outcomes against reference."""
    failed = [o.violation for o in outcomes if o.violation]
    mismatches = sum(
        o.keys != r.keys for o, r in zip(outcomes, reference)
        if not (o.violation or r.violation)
    )
    return {
        "failed": len(failed),
        "violations": sorted(set(failed)),
        "mismatches": mismatches,
        # An op that raised is a failure; any other violation, or a result
        # that does not repeat, is a wrong answer.
        "correct": mismatches == 0 and all(v == "raised" for v in failed),
    }


def _per_case(outcomes, n: int, attr: str) -> list[float]:
    """Each case's median time over the ops of it that did not fail."""
    times = ([getattr(o, attr) for o in outcomes[i::n] if not o.violation] for i in range(n))
    return [statistics.median(t) for t in times if t] or [float("nan")]


def measure(bench: Bench, pace: Pace, seconds: float) -> tuple[dict, dict]:
    """Untraced closed loop over the cases in turn, one op at a time.

    The first pass over all cases always completes; ops after it repeat
    cases while the budget lasts and must reproduce the first pass exactly.
    A case's time is its median scaled time; ops_per_s and the percentiles
    are taken over cases.
    """
    n = len(bench.cases)
    outcomes = _repeat(seconds, lambda k: pace.op(bench, k % n), minimum=n)
    pace.rescale(outcomes)
    first = outcomes[:n]
    per_case = _per_case(outcomes, n, "scaled")
    raw = _per_case(outcomes, n, "seconds")
    runs = sum(o.runs for o in first)
    metrics = {
        "ops_per_s": (len(per_case) / sum(per_case), "1/s"),
        "op_s.p50": (statistics.median(per_case), "s"),
        "op_s.p90": (_percentile(per_case, 90), "s"),
        "unique_queries": (sum(o.queries for o in first), "count"),
        "success_rate": (sum(o.successes for o in first) / runs, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "ops": len(outcomes),
        "passes": len(outcomes) / n,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_s.p50": statistics.median(raw),
        **_tally(outcomes, [first[k % n] for k in range(len(outcomes))]),
    }
    return metrics, info


def measure_traced(bench: Bench, pace: Pace, seconds: float) -> tuple[dict, dict, object]:
    """Each case run untraced, then traced, in turn while the budget lasts.

    The traced op must reproduce the untraced one exactly: same status,
    flagged rows, unique query count and pivots. Per-layer values are means
    per traced op, in raw seconds; the untraced ops give the tracing
    overhead, from scaled seconds.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    plain: list[Outcome] = []
    traced: list[Outcome] = []

    def traced_op(i):
        tracer.op_id = len(traced)
        with tracer:
            return bench.op(i)

    def pair(k):
        i = k % len(bench.cases)
        plain.append(pace.op(bench, i))
        out, out.slot = pace.run(lambda: traced_op(i))
        traced.append(out)

    _repeat(seconds, pair)
    pace.rescale(plain + traced)
    metrics = layer_metrics(tracer, traced)
    plain_s = sum(o.scaled for o in plain)
    traced_s = sum(o.scaled for o in traced)
    metrics["trace.untraced_ops_per_s"] = (len(plain) / plain_s, "1/s")
    metrics["trace.ops_per_s"] = (len(traced) / traced_s, "1/s")
    metrics["trace.overhead"] = (1.0 - plain_s / traced_s, "ratio")
    info = {
        "ops": len(plain) + len(traced),
        "traced_ops": len(traced),
        **_tally(plain + traced, traced + traced),
    }
    return metrics, info, tracer


def _as_number(value):
    """Plain Python number; numpy 2 scalars (np.int64 counts) included."""
    if isinstance(value, float):
        return float(value)
    if float(value).is_integer():
        return int(value)
    return float(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _set_blas_threads()
    _import_library()
    bench = Bench(WORKLOADS[args.workload], args.seed)
    pace = Pace()
    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        bench.build()
        metrics, info, tracer = measure_traced(bench, pace, args.seconds)
        header["absent"] = tracer.absent
        print(json.dumps({"spans": tracer.spans}))
    else:
        setups = [
            pace.run(lambda: _child_import_seconds() + bench.build())
            for _ in range(SETUP_REPEATS)
        ]
        metrics, info = measure(bench, pace, args.seconds)
        metrics["setup_s"] = (
            statistics.median(raw * pace.scale(slot) for raw, slot in setups), "s")
        header["raw_setup_s"] = [raw for raw, _ in setups]

    header["env"] = _environment()
    header["speed"] = REFERENCE_S / statistics.median(pace.kernel_s)
    header.update({k: v for k, v in info.items() if k not in ("correct", "failed")})
    print(json.dumps(header))
    print(json.dumps({
        "correct": bool(info["correct"]),
        "attempted": int(info["ops"]),
        "failed": int(info["failed"]),
        "metrics": {
            name: {"value": _as_number(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
