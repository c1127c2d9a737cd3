"""Span tracing for the benchmark, installed from outside the program.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
the public entry points of each layer (``service``, ``runtime``,
``core``, ``layout``, ``eval``, ``route``, ``variation``, ``sim``,
``netlist``) by patching every binding of the original function in the
loaded ``repro`` modules, including the suite tables the evaluator
dispatches through.  Each wrapped call records one span::

    [span_id, parent_id, name, start, end, request_id, thread_id]

Spans live in memory (:class:`Tracer`) and are written as one JSON file
per process when the process ends; forked pool workers flush theirs
after every ``execute_run``.  The hottest leaf call, the BFS
connectivity check, is counted rather than spanned.

Self time of a span is its duration minus the durations of its direct
children; every span belongs to the layer named by the first component
of its name.  :class:`SpanSet` turns dumped spans into per-name and
per-layer self times; :func:`per_layer_metrics` into the report.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Layers of the program, in the order the report lists them.
LAYERS = ("cli", "service", "runtime", "core", "layout", "eval", "route",
          "variation", "sim", "netlist")


class Tracer:
    """Process-wide span store (one per process; reset after a fork)."""

    def __init__(self, out_dir: str | Path | None = None):
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.main_pid = os.getpid()
        self._reset()

    @property
    def is_pool_worker(self) -> bool:
        return os.getpid() != self.main_pid

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        #: request id of the work a thread is doing (thread ident → id).
        self.request_of: dict[int, object] = {}

    def check_fork(self) -> None:
        """Drop the parent's spans in a freshly forked child, keeping the
        request id the forking thread was working on."""
        if os.getpid() != self.pid:
            inherited = dict(self.request_of)
            self._reset()
            self.request_of = inherited

    def set_request(self, request_id) -> None:
        self.request_of[threading.get_ident()] = request_id

    def clear_request(self) -> None:
        self.request_of.pop(threading.get_ident(), None)

    def open(self) -> tuple[int, int | None, float]:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, name: str, handle: tuple[int, int | None, float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = handle
        tid = threading.get_ident()
        self._stacks[tid].pop()
        self.spans.append([span_id, parent, name, start, end,
                           self.request_of.get(tid), tid])

    def payload(self) -> dict:
        return {"pid": self.pid, "spans": self.spans,
                "counts": dict(self.counts)}

    def dump(self, tag: str) -> None:
        """Write (append) this process's spans and counters, then forget
        them — safe to call repeatedly."""
        if self.out_dir is None:
            return
        path = self.out_dir / f"{tag}-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.payload()) + "\n")
        self.spans = []
        self.counts = Counter()


TRACER: Tracer | None = None


# ------------------------------------------------------------- wrappers


def _span_wrapper(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        handle = tracer.open()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(name, handle)
    return wrapper


def _count_wrapper(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        TRACER.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _evaluator_wrapper(fn, name: str):
    """Span plus the evaluator's own sim/cache/failure counter deltas."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        tracer = TRACER
        sims, hits, fails = self.sim_count, self.cache_hits, self.sim_failures
        handle = tracer.open()
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(name, handle)
            tracer.counts["eval.sims"] += self.sim_count - sims
            tracer.counts["eval.cache_hits"] += self.cache_hits - hits
            tracer.counts["sim.failures"] += self.sim_failures - fails
    return wrapper


def _execute_run_wrapper(fn, name: str):
    """Worker entry: reset after a fork, fold the solver's process-global
    counters into the trace, and flush when running in a pool worker."""
    from repro.sim.fastpath import solver_stats

    @functools.wraps(fn)
    def wrapper(spec):
        tracer = TRACER
        tracer.check_fork()
        stats = solver_stats()
        before = (stats.newton_iterations, stats.warm_exact_hits,
                  stats.warm_near_hits, stats.warm_misses)
        handle = tracer.open()
        try:
            return fn(spec)
        finally:
            tracer.close(name, handle)
            after = (stats.newton_iterations, stats.warm_exact_hits,
                     stats.warm_near_hits, stats.warm_misses)
            delta = [a - b for a, b in zip(after, before)]
            tracer.counts["sim.newton_iters"] += delta[0]
            tracer.counts["eval.op_cache_hits"] += delta[1] + delta[2]
            tracer.counts["eval.op_cache_lookups"] += sum(delta[1:])
            if tracer.is_pool_worker:
                tracer.dump("worker")
    return wrapper


def _request_root_wrapper(fn, name: str):
    """``JobManager._run(job_id)``: everything below works for that job."""
    @functools.wraps(fn)
    def wrapper(self, job_id, *args, **kwargs):
        tracer = TRACER
        tracer.set_request(job_id)
        handle = tracer.open()
        try:
            return fn(self, job_id, *args, **kwargs)
        finally:
            tracer.close(name, handle)
            tracer.clear_request()
    return wrapper


def _submit_wrapper(fn, name: str):
    """``JobManager.submit``: the returned job id names the enclosing
    HTTP request too (its span closes after this returns)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        handle = tracer.open()
        job_id = None
        try:
            job_id = fn(*args, **kwargs)
            return job_id
        finally:
            if job_id is not None:
                tracer.set_request(job_id)
            tracer.close(name, handle)
    return wrapper


def _http_wrapper(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        handle = tracer.open()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(name, handle)
            tracer.clear_request()
    return wrapper


# (module, attribute path, span or counter name, wrapper factory)
TARGETS = (
    ("repro.service.http", "_Handler.do_POST", "service.http.post",
     _http_wrapper),
    ("repro.service.requests", "PlacementRequest.from_json_dict",
     "service.requests.decode", _span_wrapper),
    ("repro.service.requests", "PlacementResult.to_json_dict",
     "service.requests.encode", _span_wrapper),
    ("repro.service.journal", "JobJournal.append", "service.journal.append",
     _span_wrapper),
    ("repro.service.jobs", "JobManager.submit", "service.jobs.submit",
     _submit_wrapper),
    ("repro.service.jobs", "JobManager._run", "service.jobs.run",
     _request_root_wrapper),
    ("repro.service.service", "PlacementService.place", "service.place",
     _span_wrapper),
    ("repro.service.corpus", "corpus_registry", "netlist.corpus_ingest",
     _span_wrapper),
    ("repro.service.corpus", "CorpusBuilder.__call__", "netlist.build",
     _span_wrapper),
    ("repro.runtime.spec", "build_block", "netlist.build_block",
     _span_wrapper),
    ("repro.runtime.spec", "map_runs", "runtime.map_runs", _span_wrapper),
    ("repro.runtime.spec", "execute_run", "runtime.execute_run",
     _execute_run_wrapper),
    ("repro.runtime.backend", "ProcessPoolBackend._executor",
     "runtime.pool_spawns", _count_wrapper),
    ("repro.core.optimizer", "price_proposals", "core.turn", _span_wrapper),
    ("repro.core.hierarchy", "_QTurn.propose", "core.propose",
     _span_wrapper),
    ("repro.core.hierarchy", "_QTurn.observe", "core.observe",
     _span_wrapper),
    ("repro.core.hierarchy", "MultiLevelPlacer.optimize", "core.optimize",
     _span_wrapper),
    ("repro.layout.env", "PlacementEnv.legal_unit_actions",
     "layout.legal_actions", _span_wrapper),
    ("repro.layout.env", "PlacementEnv.legal_group_actions",
     "layout.legal_actions", _span_wrapper),
    ("repro.layout.moves", "is_connected", "layout.is_connected_calls",
     _count_wrapper),
    ("repro.layout.context", "device_contexts_all", "layout.contexts",
     _span_wrapper),
    ("repro.layout.context", "unit_context_arrays", "layout.contexts",
     _span_wrapper),
    ("repro.eval.evaluator", "PlacementEvaluator.evaluate", "eval.evaluate",
     _evaluator_wrapper),
    ("repro.eval.evaluator", "PlacementEvaluator.evaluate_many",
     "eval.evaluate", _evaluator_wrapper),
    ("repro.eval.evaluator", "PlacementEvaluator.deltas_for", "eval.deltas",
     _span_wrapper),
    ("repro.eval.evaluator", "PlacementEvaluator.deltas_for_many",
     "eval.deltas", _span_wrapper),
    ("repro.eval.suites", "measure_cm", "eval.suite", _span_wrapper),
    ("repro.eval.suites", "measure_comp", "eval.suite", _span_wrapper),
    ("repro.eval.suites", "measure_ota", "eval.suite", _span_wrapper),
    ("repro.eval.batch_suites", "measure_cm_many", "eval.suite",
     _span_wrapper),
    ("repro.eval.batch_suites", "measure_comp_many", "eval.suite",
     _span_wrapper),
    ("repro.eval.batch_suites", "measure_ota_many", "eval.suite",
     _span_wrapper),
    ("repro.route.parasitics", "annotate_parasitics", "route.parasitics",
     _span_wrapper),
    ("repro.variation.model", "VariationModel.systematic_devices",
     "variation.systematic", _span_wrapper),
    ("repro.variation.model", "VariationModel.systematic_units",
     "variation.systematic", _span_wrapper),
    ("repro.sim.dc", "solve_dc", "sim.dc", _span_wrapper),
    ("repro.sim.ac", "solve_ac", "sim.ac", _span_wrapper),
    ("repro.sim.batch", "solve_dc_many", "sim.batch_dc", _span_wrapper),
    ("repro.sim.batch", "solve_ac_many", "sim.batch_ac", _span_wrapper),
    ("repro.sim.batch", "solve_noise_many", "sim.batch_noise",
     _span_wrapper),
)


def _rebind(original, replacement) -> int:
    """Point every module-level binding (and every module-level dict
    entry, e.g. the suite tables) of ``original`` in loaded ``repro``
    modules at ``replacement``; returns how many were rebound."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        count += 1
    return count


def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` current, import every traced module and wrap each
    target in place.  Call once per process, before any pool forks."""
    import importlib

    global TRACER
    TRACER = tracer
    for module_name, path, name, factory in TARGETS:
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(factory(raw.__func__, name)))
            continue
        wrapped = factory(raw, name)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        elif not _rebind(raw, wrapped):
            raise RuntimeError(f"no binding of {module_name}.{path} found")
    return TRACER


# ------------------------------------------------------------- analysis


def load_dumps(directory: str | Path) -> list[dict]:
    """Every per-process payload written under ``directory``."""
    payloads = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            payloads.extend(json.loads(line) for line in handle if line.strip())
    return payloads


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanSet:
    """Spans of one or more processes with self time and request ids
    resolved (a span without a request inherits its parent's)."""

    def __init__(self, payloads: list[dict]):
        self.counts: Counter = Counter()
        #: (name, self_s, duration_s, request, start, end, pid)
        self.rows: list[tuple] = []
        by_proc: dict[int, list] = defaultdict(list)
        for payload in payloads:
            by_proc[payload["pid"]].extend(payload["spans"])
            self.counts.update(payload["counts"])
        # A pool worker's run is the child of the map that shipped it,
        # across the process boundary.
        remote_runs = {
            s[5]: (pid, s[4] - s[3])
            for pid, spans in by_proc.items() for s in spans
            if s[2] == "runtime.execute_run" and s[5] is not None
        }
        for pid, spans in by_proc.items():
            by_id = {s[0]: s for s in spans}
            child_time: dict[int, float] = defaultdict(float)
            for s in spans:
                if s[1] is not None:
                    child_time[s[1]] += s[4] - s[3]
                if s[2] == "runtime.map_runs" and s[5] in remote_runs:
                    run_pid, run_s = remote_runs[s[5]]
                    if run_pid != pid:
                        child_time[s[0]] += run_s
            request_cache: dict[int, object] = {}

            def request(span_id: int):
                if span_id in request_cache:
                    return request_cache[span_id]
                span = by_id.get(span_id)
                if span is None:
                    return None
                req = span[5] if span[5] is not None else (
                    request(span[1]) if span[1] is not None else None)
                request_cache[span_id] = req
                return req

            for s in sorted(spans, key=lambda s: s[0]):
                duration = s[4] - s[3]
                self.rows.append((s[2], duration - child_time[s[0]], duration,
                                  request(s[0]), s[3], s[4], pid))
            for s in spans:
                self.counts[s[2] + ".calls"] += 1

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, self_s, *_ in self.rows:
            out[name] += self_s
        return out

    def self_by_layer(self, requests=None) -> dict[str, float]:
        """Self time per layer, optionally only for the given requests."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, self_s, _, req, *_ in self.rows:
            if requests is None or req in requests:
                out[layer_of(name)] += self_s
        return out

    def by_request(self, name: str) -> dict:
        """The first span called ``name`` of each request."""
        out: dict = {}
        for row in self.rows:
            if row[0] == name and row[3] not in out:
                out[row[3]] = row
        return out


# --------------------------------------------------------------- report

#: ``BENCHMARK.json``, which declares every per-layer metric and its unit.
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_per_layer() -> dict[str, str]:
    """Every declared per-layer metric with its unit, in report order."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


#: Per-layer metrics that are the self time of one span name.
_SELF_OF = {
    "netlist.corpus_ingest_s": "netlist.corpus_ingest",
    "service.http.post_s": "service.http.post",
    "service.requests.decode_s": "service.requests.decode",
    "service.journal.append_s": "service.journal.append",
    "core.propose_s": "core.propose", "core.observe_s": "core.observe",
    "layout.legal_actions_s": "layout.legal_actions",
    "eval.evaluate_s": "eval.evaluate", "eval.deltas_s": "eval.deltas",
    "eval.suite_s": "eval.suite", "route.parasitics_s": "route.parasitics",
    "sim.dc_s": "sim.dc", "sim.ac_s": "sim.ac",
    "sim.batch_dc_s": "sim.batch_dc", "sim.batch_ac_s": "sim.batch_ac",
}

#: Per-layer metrics that are a counter or a span count.
_COUNT_OF = {
    "service.journal.appends": "service.journal.append.calls",
    "runtime.pool_spawns": "runtime.pool_spawns",
    "core.turns": "core.turn.calls",
    "layout.legal_actions_calls": "layout.legal_actions.calls",
    "layout.is_connected_calls": "layout.is_connected_calls",
    "eval.sims": "eval.sims", "sim.dc_calls": "sim.dc.calls",
    "sim.newton_iters": "sim.newton_iters", "sim.failures": "sim.failures",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: SpanSet, walls: dict, *, overhead_ratio: float,
                      extra: dict | None = None) -> dict[str, tuple]:
    """The per-layer report of one traced phase.

    ``walls`` maps each measured request to its wall-clock; the layer
    self times of those requests' spans (queue waits count to
    ``service``) plus ``trace.unattributed_s`` add up to their sum.
    ``extra`` supplies metrics measured outside the spans.  Every metric
    ``BENCHMARK.json`` declares is reported; those a workload never
    exercises read 0.
    """
    units = declared_per_layer()
    values = dict.fromkeys(units, 0.0)
    by_name = spans.self_by_name()
    for metric, name in _SELF_OF.items():
        values[metric] = by_name.get(name, 0.0)
    for metric, name in _COUNT_OF.items():
        values[metric] = float(spans.counts.get(name, 0))
    counts = spans.counts
    values["eval.cache_hit_ratio"] = _ratio(
        counts["eval.cache_hits"], counts["eval.cache_hits"] + counts["eval.sims"])
    values["eval.op_cache_hit_ratio"] = _ratio(
        counts["eval.op_cache_hits"], counts["eval.op_cache_lookups"])

    requests = set(walls)
    maps = spans.by_request("runtime.map_runs")
    runs = spans.by_request("runtime.execute_run")
    values["runtime.map_overhead_s"] = sum(
        maps[r][2] - runs[r][2] for r in requests if r in maps and r in runs)
    submits = spans.by_request("service.jobs.submit")
    starts = spans.by_request("service.jobs.run")
    queue_wait = sum(starts[r][4] - submits[r][5]
                     for r in requests if r in submits and r in starts)
    values["service.jobs.queue_wait_s"] = queue_wait

    layers = spans.self_by_layer(requests)
    layers["service"] += queue_wait
    for layer, self_s in layers.items():
        values[f"{layer}.self_s"] = self_s
    wall = sum(walls.values())
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = wall - sum(layers.values())
    values["trace.unattributed_ratio"] = _ratio(
        values["trace.unattributed_s"], wall)
    values["trace.overhead_ratio"] = overhead_ratio
    values.update(extra or {})
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise RuntimeError(f"per-layer metrics missing from {BENCHMARK.name}: "
                           f"{undeclared}")
    return {name: (values[name], unit) for name, unit in units.items()}
