"""Call tracing for the benchmark's traced run.

The tracer wraps the public names that callers resolve at call time: the
phase functions of ``noisyrows.completion``, ``instances.generate``,
``verify.max_relative_error``, the ``linalg`` functions as imported into
``completion`` and ``instances``, and the ``QueryOracle`` methods. Phase
calls become spans (name, start, end, parent, op). Hot calls (per-cell
oracle reads, rank tests, solves) are too many for one span each, so they
are aggregated into (calls, seconds, cells) per enclosing phase.

A wrapped name that no longer exists is recorded in ``absent`` and skipped;
the metrics that depend only on it are then reported as absent.
"""
from __future__ import annotations

import importlib
import time

# (module, attribute path) -> span name. "run" covers the whole completion.
PHASE_TARGETS = (
    ("noisyrows.completion", "run", "run"),
    ("noisyrows.completion", "discover", "discover"),
    ("noisyrows.completion", "identify_noisy_rows", "identify"),
    ("noisyrows.completion", "recover", "recover"),
    ("noisyrows.instances", "generate", "generate"),
    ("noisyrows.verify", "max_relative_error", "verify"),
)

# (module, attribute path) -> aggregate label.
HOT_TARGETS = (
    ("noisyrows.completion", "is_invertible", "rank"),
    ("noisyrows.completion", "numerical_rank", "rank"),
    ("noisyrows.instances", "numerical_rank", "rank"),
    ("noisyrows.completion", "solve_least_squares", "solve"),
    ("noisyrows.instances", "has_unit_coordinate_vector", "unit_vector"),
    ("noisyrows.oracle", "QueryOracle.draw_random_row", "probe"),
)

# QueryOracle.query_* methods with a metric of their own; any other query_*
# method still counts towards oracle time and cells read.
ORACLE_LABELS = {"query_entry": "entry", "query_row": "row", "query_column": "col"}

# The span a hot call is charged to when it happens inside "run" but outside
# the three named phases (the certificate check).
RUN_OTHER = "run_other"
OUTSIDE = "outside"


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value), or None if anything is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    ``phase_s`` sums span durations by name, ``hot[label][phase]`` holds
    [calls, seconds, cells] and ``discoveries`` keeps each DiscoveryState
    returned by ``discover``. The object is reused across traced ops; only
    ``op_id`` changes between them.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, str, int]] = []
        self.phase_s: dict[str, float] = {}
        self.hot: dict[str, dict[str, list]] = {}
        self.discoveries: list = []
        self.absent: list[str] = []
        self.op_id = 0
        self._stack = [OUTSIDE]
        self._saved: list[tuple[object, str, object]] = []
        self._plan = self._make_plan()

    def _make_plan(self):
        plan = []
        for module_name, path, name in PHASE_TARGETS:
            plan.append((module_name, path, self._phase_wrapper, name))
        for module_name, path, label in HOT_TARGETS:
            plan.append((module_name, path, self._hot_wrapper, label))
        oracle_cls = _resolve("noisyrows.oracle", "QueryOracle")
        if oracle_cls is None:
            self.absent.append("noisyrows.oracle.QueryOracle")
        else:
            for attr in sorted(vars(oracle_cls[2])):
                if attr.startswith("query_") and callable(getattr(oracle_cls[2], attr)):
                    label = "oracle." + ORACLE_LABELS.get(attr, "other")
                    plan.append(("noisyrows.oracle", "QueryOracle." + attr,
                                 self._hot_wrapper, label))
            for attr in ORACLE_LABELS:
                if not hasattr(oracle_cls[2], attr):
                    self.absent.append("noisyrows.oracle.QueryOracle." + attr)
        resolved = []
        for module_name, path, make, name in plan:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            resolved.append((found, make, name))
        return resolved

    def __enter__(self):
        for (owner, attr, original), make, name in self._plan:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def present(self, *labels: str) -> bool:
        """Whether any wrapper feeds one of the given hot labels or spans."""
        return any(name in labels for _, _, name in self._plan)

    def _phase_wrapper(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            stack.append(name)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((name, start, end, parent, self.op_id))
                self.phase_s[name] = self.phase_s.get(name, 0.0) + (end - start)
            if name == "discover":
                self.discoveries.append(out)
            return out

        return wrapper

    def _hot_wrapper(self, label, fn):
        table = self.hot.setdefault(label, {})
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            elapsed = clock() - start
            phase = stack[-1]
            rec = table.get(phase)
            if rec is None:
                rec = table[phase] = [0, 0.0, 0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += getattr(out, "size", 1)
            return out

        return wrapper

    def hot_total(self, label: str, field: int, phase: str | None = None):
        """Sum one field of a hot label over all phases, or one phase.

        Phase "run" is reported as RUN_OTHER: the part of run() outside the
        three named phases.
        """
        table = self.hot.get(label, {})
        if phase is not None:
            key = "run" if phase == RUN_OTHER else phase
            rec = table.get(key)
            return rec[field] if rec else 0
        return sum(rec[field] for rec in table.values())

    def oracle_total(self, field: int, phase: str | None = None):
        return sum(
            self.hot_total(label, field, phase)
            for label in self.hot
            if label.startswith("oracle.")
        )


def _state_total(states: list, field: str) -> int | None:
    """Sum of one DiscoveryState field, or None if it is gone or no state."""
    values = [getattr(state, field, None) for state in states]
    if not values or None in values:
        return None
    return sum(int(v) for v in values)


def layer_metrics(tracer: Tracer, traced: list) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from the traced ops.

    Values are means per traced op unless the unit is "ratio". A metric
    whose every source name is absent is left out.
    """
    ops = len(traced)
    per = 1.0 / ops
    m: dict = {}

    def put(name, value, unit, *sources):
        if tracer.present(*sources):
            m[name] = (value, unit)

    phase = tracer.phase_s.get
    named = {p: phase(p, 0.0) for p in ("discover", "identify", "recover")}
    run_s = phase("run", 0.0)
    put("run.s", run_s * per, "s/op", "run")
    for p in named:
        put(f"{p}.s", named[p] * per, "s/op", p)
        inside = sum(tracer.hot_total(label, 1, p) for label in tracer.hot)
        put(f"{p}.self_s", (named[p] - inside) * per, "s/op", p)
    put("run.other_s", (run_s - sum(named.values())) * per, "s/op", "run")

    put("discover.probes", tracer.hot_total("probe", 0, "discover") * per,
        "count/op", "probe")
    tests = tracer.hot_total("rank", 0, "discover")
    put("discover.tests", tests * per, "count/op", "rank")
    pivots = _state_total(tracer.discoveries, "rank_estimate")
    if pivots is not None and tests:
        m["discover.accept_ratio"] = (pivots / tests, "ratio")
    for name, field in (("discover.stale_sweeps", "stale_passes"),
                        ("discover.eta", "pass_budget")):
        total = _state_total(tracer.discoveries, field)
        if total is not None:
            m[name] = (total / len(tracer.discoveries), "count/op")

    oracle_labels = ("oracle.entry", "oracle.row", "oracle.col", "oracle.other")
    for short in ("entry", "row", "col"):
        put(f"oracle.{short}_calls", tracer.hot_total(f"oracle.{short}", 0) * per,
            "count/op", f"oracle.{short}")
    put("oracle.s", tracer.oracle_total(1) * per, "s/op", *oracle_labels)
    for p in ("discover", "identify", "recover", RUN_OTHER):
        put(f"oracle.s.{p}", tracer.oracle_total(1, p) * per, "s/op", *oracle_labels)
    cells = tracer.oracle_total(2)
    put("oracle.cells_read", cells * per, "count/op", *oracle_labels)
    if cells:
        m["oracle.useful_ratio"] = (sum(o.queries for o in traced) / cells, "ratio")
    logs = [o.log_entries for o in traced if o.log_entries is not None]
    if logs:
        m["oracle.log_entries"] = (sum(logs) / len(logs), "count/op")

    put("linalg.rank_calls", tracer.hot_total("rank", 0) * per, "count/op", "rank")
    put("linalg.rank_s", tracer.hot_total("rank", 1) * per, "s/op", "rank")
    for p in ("discover", "identify", "recover", RUN_OTHER, "generate"):
        put(f"linalg.rank_calls.{p}", tracer.hot_total("rank", 0, p) * per,
            "count/op", "rank")
        put(f"linalg.rank_s.{p}", tracer.hot_total("rank", 1, p) * per,
            "s/op", "rank")
    put("linalg.solve_calls", tracer.hot_total("solve", 0) * per, "count/op", "solve")
    put("linalg.solve_s", tracer.hot_total("solve", 1) * per, "s/op", "solve")
    put("linalg.unit_vector_calls", tracer.hot_total("unit_vector", 0) * per,
        "count/op", "unit_vector")
    put("linalg.unit_vector_s", tracer.hot_total("unit_vector", 1) * per,
        "s/op", "unit_vector")

    generate_calls = sum(1 for span in tracer.spans if span[0] == "generate")
    put("instances.generate_calls", generate_calls * per, "count/op", "generate")
    put("instances.generate_s", phase("generate", 0.0) * per, "s/op", "generate")
    put("verify.check_s", phase("verify", 0.0) * per, "s/op", "verify")
    return m
