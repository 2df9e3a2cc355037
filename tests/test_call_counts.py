"""Per-phase decision and read counts of completion.run().

The counts are deterministic, so they pin the work each phase does, not its
time: a change that brought back a re-check, one SVD per probe or a per-cell
read loop fails here whatever the machine's speed. The wrappers are
installed by monkeypatching, as the benchmark's tracer does: the three phase
functions as `run` calls them mark the phase, and every `np.linalg` SVD,
least-squares, solve and inverse call, every `is_invertible` call as
`completion` makes it, every `inverse_residual` call in `completion` and
`linalg`, every call of discovery's filter `_Pivots.rejects`,
and every `QueryOracle` read or draw is counted
against the phase it happens in, with the cells each read is passed
(repeats included) and the rows each draw makes. Anything in `run`
outside the three phases counts under "run".

Ceilings, with k pivots of an n1 x n2 matrix and S sweeps
(`draw_random_rows` calls) of P probes in all:
  run        no SVD, solve, inverse, decision or oracle call at all
  discover   at most k invertibility tests, no SVD (the residual
             certificate vouches for every acceptance of these cases),
             at most one left residual per test plus one per acceptance
             (each probe that reaches the test forms one, which its
             acceptance reuses; only a Newton step forms another), and
             at most the residuals measured for the case (RESIDUALS),
             exactly one inverse (of the final pivot block, for
             identification), no solve, exactly k row and k column reads,
             one cell read per sweep, no entry reads, exactly
             k (n1 + n2) + P cells read, and at most the filter calls
             measured for the case (REJECTS), and S + k of them when
             n2 <= _WHOLE_TAIL
  identify   no inverse (it reads discovery's), SVD, solve, decision or
             oracle call at all
  recover    at most 1 SVD, no inverse, residual or oracle call; no SVD
             either when every pivot row is flagged (precondition-violated);
             on the square and wide cases a tracemalloc peak of at most
             (k + n1) n2 8 bytes + 16 KiB: W and the result
  generate   at most 3 SVDs per draw attempt (two ranks and the psi check),
             none of an input wider than r + g columns
A later change may lower a ceiling; raising one is a change of behaviour.
"""
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from noisyrows import completion, instances, linalg
from noisyrows.completion import _WHOLE_TAIL, CompletionParams
from noisyrows.instances import (
    MAX_GENERATION_ATTEMPTS,
    GenerationError,
    GeneratorConfig,
    generate,
)
from noisyrows.oracle import QueryOracle
from test_completion import PINNED_RUNS

PARAMS = CompletionParams(epsilon=0.1)

PHASES = {"discover": "discover", "identify_noisy_rows": "identify", "recover": "recover"}
LINALG = ("svd", "lstsq", "solve", "inv")
DECISIONS = ("is_invertible",)
# Cells passed to each oracle read, from its arguments after `self`.
READS = {
    "query_entry": lambda o, i, j: 1,
    "query_row": lambda o, i: o.shape[1],
    "query_column": lambda o, j: o.shape[0],
    "query_cells": lambda o, rows, cols: len(rows),
}


def counted_run(monkeypatch, oracle):
    """run(oracle) with every counted call tallied by phase."""
    counts = {name: Counter() for name in ("run", *PHASES.values())}
    counts["phases"] = Counter()  # calls of each phase function
    stack = ["run"]

    def phase(name, fn):
        def wrapper(*args, **kwargs):
            counts["phases"][name] += 1
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return wrapper

    def counter(name, fn, key=None, amount=None):
        """fn, counted by calls and, under `key`, by amount(*args)."""
        def wrapper(*args, **kwargs):
            counts[stack[-1]][name] += 1
            if key:
                counts[stack[-1]][key] += amount(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as mp:
        for attr, name in PHASES.items():
            mp.setattr(completion, attr, phase(name, getattr(completion, attr)))
        for name in LINALG:
            mp.setattr(np.linalg, name, counter(name, getattr(np.linalg, name)))
        for name in DECISIONS:
            mp.setattr(completion, name, counter(name, getattr(completion, name)))
        # Formed by discovery's bordering and Newton steps, and by the
        # certificate when it is not handed one.
        for module in (completion, linalg):
            mp.setattr(module, "inverse_residual",
                       counter("inverse_residual", module.inverse_residual))
        mp.setattr(completion._Pivots, "rejects",
                   counter("rejects", completion._Pivots.rejects))
        for name, cells in READS.items():
            mp.setattr(QueryOracle, name,
                       counter(name, getattr(QueryOracle, name), "cells", cells))
        mp.setattr(QueryOracle, "draw_random_rows",
                   counter("draw_random_rows", QueryOracle.draw_random_rows, "probes",
                           lambda o, size: size))
        result = completion.run(oracle, PARAMS)
    return result, counts


def _instance_matrix(config):
    return lambda: generate(GeneratorConfig(**config)).n_observed


def precondition_matrix():
    m = np.zeros((5, 4))
    m[0, :] = [1.0, 2.0, 3.0, 4.0]
    return m


# One case per benchmark workload, at that workload's first seed (101).
WORKLOAD_CASES = [
    ("square", dict(n1=400, n2=400, rank_r=10, num_noisy=3, seed=101000), 101500),
    ("wide", dict(n1=36, n2=2000, rank_r=30, num_noisy=3, seed=101000), 101500),
    ("trials-gaussian", dict(n1=100, n2=100, rank_r=6, num_noisy=3, seed=10100000,
                             enforce_psi=True), 10150000),
    ("trials-sparse", dict(n1=100, n2=100, rank_r=6, num_noisy=3, mode="sparse-basis",
                           target_psi=5, seed=10100001), 10150001),
]

# Filter calls in discovery per case, as measured. Each window that holds
# two or more probes off the pivot rows takes one call: the sweep, the rest
# after each acceptance when at most _WHOLE_TAIL probes remain, and the
# doubling windows over a longer rest. A window with one such probe bounds
# it from its bordering and takes none. Where no sweep has more than
# _WHOLE_TAIL probes that gives at most S + k calls, which the test checks.
REJECTS = {"pinned-0": 11, "pinned-1": 11, "pinned-2": 20, "pinned-3": 13,
           "precondition": 8, "square": 20, "wide": 24, "trials-gaussian": 16,
           "trials-sparse": 16}

# Left residuals formed in discovery per case, as measured: one per
# invertibility test, and one more per Newton step of an acceptance.
RESIDUALS = {"pinned-0": 3, "pinned-1": 6, "pinned-2": 43, "pinned-3": 5,
             "precondition": 1, "square": 14, "wide": 38, "trials-gaussian": 10,
             "trials-sparse": 9}

# (observed-matrix factory, oracle seed) of each case.
CASES = (
    [pytest.param(_instance_matrix(config), seed, id=f"pinned-{k}")
     for k, (config, seed, _) in enumerate(PINNED_RUNS)]
    + [pytest.param(precondition_matrix, 0, id="precondition")]
    + [pytest.param(_instance_matrix(config), seed, id=name)
       for name, config, seed in WORKLOAD_CASES]
)


@pytest.mark.parametrize("make_matrix, oracle_seed", CASES)
def test_each_decision_once(monkeypatch, request, make_matrix, oracle_seed):
    oracle = QueryOracle(make_matrix(), rng_seed=oracle_seed)
    result, counts = counted_run(monkeypatch, oracle)
    k = len(result.pivot_cols)
    n1, n2 = oracle.shape
    assert k > 0

    assert counts["run"] == Counter()

    found = counts["discover"]
    sweeps = found["draw_random_rows"]
    assert found["is_invertible"] <= k
    assert found["svd"] == 0
    assert found["inv"] == 1
    assert found["solve"] == 0
    assert found["query_row"] == k
    assert found["query_column"] == k
    assert found["query_cells"] == sweeps
    assert found["query_entry"] == 0
    assert found["lstsq"] == 0
    assert found["cells"] == k * (n1 + n2) + found["probes"]
    assert found["rejects"] <= REJECTS[request.node.callspec.id]
    assert found["inverse_residual"] <= found["is_invertible"] + k
    assert found["inverse_residual"] <= RESIDUALS[request.node.callspec.id]
    # The first sweep probes every column, and no later one probes more.
    if n2 <= _WHOLE_TAIL:
        assert found["rejects"] <= sweeps + k

    # Identification and recovery work from what discovery revealed.
    assert counts["identify"] == Counter()

    solved = counts["recover"]
    assert solved["svd"] <= 1
    assert solved["lstsq"] == 0
    assert solved["inv"] == 0
    assert solved["cells"] == 0
    assert set(solved) <= {"svd"}


@pytest.mark.parametrize(
    "config, oracle_seed",
    [pytest.param(config, seed, id=name) for name, config, seed in WORKLOAD_CASES
     if name in ("square", "wide")],
)
def test_recovery_memory_is_bounded(config, oracle_seed):
    # Each n2-wide temporary of recovery is freed once used, so at its peak
    # it holds W (at most k x n2) and the n1 x n2 result, and little else.
    oracle = QueryOracle(generate(GeneratorConfig(**config)).n_observed, rng_seed=oracle_seed)
    state = completion.discover(oracle, PARAMS)
    noisy = completion.identify_noisy_rows(state, PARAMS)
    n1, n2 = oracle.shape
    tracemalloc.start()
    try:
        result = completion.recover(oracle, state, noisy, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == completion.STATUS_OK
    assert peak <= (state.rank_estimate + n1) * n2 * 8 + 16 * 1024


def test_precondition_is_decided_in_recover(monkeypatch):
    oracle = QueryOracle(precondition_matrix(), rng_seed=0)
    result, counts = counted_run(monkeypatch, oracle)
    assert result.status == completion.STATUS_PRECONDITION
    assert counts["phases"] == Counter(discover=1, identify=1, recover=1)
    # Every pivot row is flagged, so there is nothing to read or solve.
    assert counts["recover"] == Counter()


def counted_generate(monkeypatch, config):
    """(instance or None, SVD input widths, draw attempts) of generate(config)."""
    widths, attempts = [], []
    svd, draw = np.linalg.svd, instances._draw_candidate

    def counted_svd(a, *args, **kwargs):
        widths.append(np.shape(a)[1])
        return svd(a, *args, **kwargs)

    def counted_draw(*args):
        attempts.append(args)
        return draw(*args)

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "svd", counted_svd)
        mp.setattr(instances, "_draw_candidate", counted_draw)
        try:
            inst = generate(config)
        except GenerationError:
            inst = None
    return inst, widths, len(attempts)


GENERATE_CASES = (
    [pytest.param(config, True, id=f"pinned-{k}")
     for k, (config, _, _) in enumerate(PINNED_RUNS)]
    + [pytest.param(config, True, id=name) for name, config, _ in WORKLOAD_CASES]
    # Every draw fails the psi check: the clean space is all of R^4.
    + [pytest.param(dict(n1=4, n2=5, rank_r=4, enforce_psi=True), False, id="rejected")]
)


@pytest.mark.parametrize("config, generated", GENERATE_CASES)
def test_generate_checks_the_factors(monkeypatch, config, generated):
    config = GeneratorConfig(**config)
    inst, widths, attempts = counted_generate(monkeypatch, config)
    assert (inst is not None) == generated
    assert attempts == (1 if generated else MAX_GENERATION_ATTEMPTS)
    assert len(widths) <= 3 * attempts
    assert max(widths) <= config.rank_r + config.num_noisy
