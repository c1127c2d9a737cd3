"""Shared pieces of the benchmark: checkout paths, statistics, result
verification and the run-result record every workload returns."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for journals and trace dumps (ignored by git).
WORK = ROOT / ".perfbench_tmp"

#: A re-evaluated best cost may drift from the reported one by this share
#: of the circuit's target.  The op-cache warm start moves the last bits:
#: over 42 placements of the workload circuits the drift was at most
#: 4e-12 of the target, but up to 9e-9 of best_cost, which can be tiny.
REEVAL_TOL = 1e-7


def child_env() -> dict:
    """Environment of every program process: imports from ``src/``,
    unbuffered output (the server's port announcement is read live)."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")


def ensure_program() -> None:
    """Exit non-zero when the checkout does not hold the program; else
    byte-compile it (the build step: every process then imports from
    bytecode, as an installed package would) and make it importable."""
    import compileall

    if not (SRC / "repro" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"perfbench: no program under {SRC} (need src/repro and "
              "corpus/)", file=sys.stderr)
        raise SystemExit(2)
    if not compileall.compile_dir(SRC, quiet=1):
        raise SystemExit(f"perfbench: {SRC} does not compile")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_checked(argv: list[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)


# ------------------------------------------------------------ statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, int, float]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, n, percentile)``: the 11th-largest sample, the
    sample count and the share of samples at or below it.  With 11 or
    fewer samples that is the smallest one.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, n - 11)
    return float(ordered[index]), n, (index + 1) / n


class ReferenceClock:
    """Measures time in *refs*: multiples of how long a fixed piece of
    pure-Python work takes on this host while the workload runs.

    On a shared host, neighbours slow every process at once, for seconds
    to minutes; a request's time in refs moves far less with them than
    its time in seconds, while a change to the program moves both alike
    (the reference work runs none of the program's code).  Call
    :meth:`tick` between requests; :meth:`ref_s` is then one ref in
    seconds.
    """

    #: Loop iterations of the reference work, about 4 ms on a 2-core
    #: x86 host.
    LOOP = 60_000

    def __init__(self):
        self.samples: list[float] = []

    def tick(self) -> None:
        # CPU time of this thread: a neighbour's load slows it as much as
        # wall time, but another thread of this process holding the GIL
        # does not.
        start = time.thread_time()
        total = 0
        for i in range(self.LOOP):
            total += i * i
        self.samples.append(time.thread_time() - start)

    def ref_s(self) -> float:
        return median(self.samples)


def paired_ratio(traced: list[float], untraced: list[float]) -> float:
    """Median of per-request traced/untraced latency ratios (the same
    requests, in the same order) — the tracing overhead."""
    return median([t / u for t, u in zip(traced, untraced)])


def rss_peak_mb(*, children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------- verification


def _episode_length() -> int:
    import inspect

    from repro.core.hierarchy import MultiLevelPlacer

    return inspect.signature(MultiLevelPlacer).parameters[
        "episode_length"].default


def sims_bound(steps: int, batch: int) -> int:
    """Most simulations a ``ql`` placement may report.

    ``sims_used`` counts every evaluation the run's evaluator made: the
    agent's ``steps * batch`` candidates, plus the symmetric reference
    layouts priced to derive the target (the target evaluator is shared),
    the initial placement, and one re-pricing per episode restart.
    """
    from repro.runtime.spec import SYMMETRIC_STYLES

    restarts = math.ceil(steps / _episode_length())
    return steps * batch + len(SYMMETRIC_STYLES) + 1 + restarts


class Verifier:
    """Independent checks of one :class:`PlacementResult` payload."""

    def __init__(self, registry):
        self.registry = registry
        self._blocks: dict[str, object] = {}

    def block(self, circuit: str):
        if circuit not in self._blocks:
            self._blocks[circuit] = self.registry.build(circuit)
        return self._blocks[circuit]

    def check(self, request, result: dict) -> list[str]:
        """Problems found in ``result`` (empty when it is correct)."""
        from repro.layout.moves import is_connected
        from repro.runtime.spec import RunSpec, _make_evaluator
        from repro.service.requests import placement_from_dict

        problems = []
        block = self.block(request.circuit)
        for key in ("circuit", "seed", "steps", "batch"):
            if result[key] != getattr(request, key):
                problems.append(f"{key} echoed as {result[key]!r}")
        expected = {(device.name, k) for device in block.circuit.mosfets()
                    for k in range(device.n_units)}
        units = [(d, k) for d, k, _, _ in result["placement"]["units"]]
        cells = [(c, r) for _, _, c, r in result["placement"]["units"]]
        cols, rows = result["placement"]["canvas"]
        if sorted(units) != sorted(expected):
            problems.append("units not placed exactly once")
        if len(set(cells)) != len(cells):
            problems.append("two units share a cell")
        if tuple(result["placement"]["canvas"]) != tuple(block.canvas) or any(
                not (0 <= c < cols and 0 <= r < rows) for c, r in cells):
            problems.append("unit outside the canvas")
        cell_of = {(d, k): (c, r) for d, k, c, r in result["placement"]["units"]}
        for group in block.groups:
            group_cells = [cell for (d, _), cell in cell_of.items()
                           if d in group.devices]
            if not is_connected(group_cells):
                problems.append(f"group {group.name} is not connected")
        costs = [c for _, c in result["history"]]
        sims = [s for s, _ in result["history"]]
        if any(b > a for a, b in zip(costs, costs[1:])) or any(
                b < a for a, b in zip(sims, sims[1:])):
            problems.append("history is not monotone")
        if costs and costs[-1] != result["best_cost"]:
            problems.append("history does not end at best_cost")
        target = result["target"]
        if result["reached_target"] != (result["best_cost"] <= target):
            problems.append("reached_target disagrees with best_cost/target")
        if (result["sims_to_target"] is None) == result["reached_target"]:
            problems.append("sims_to_target disagrees with reached_target")
        if not 0 < result["sims_used"] <= sims_bound(request.steps,
                                                     request.batch):
            problems.append(f"sims_used {result['sims_used']} out of bound")
        spec = RunSpec.from_request(request, registry=self.registry,
                                    key="verify")
        evaluator = _make_evaluator(spec, block)
        cost = evaluator.cost(placement_from_dict(result["placement"]))
        if not abs(cost - result["best_cost"]) <= REEVAL_TOL * target:
            problems.append(f"re-evaluated cost {cost!r} != best_cost "
                            f"{result['best_cost']!r}")
        return problems


# ------------------------------------------------------------ run result


@dataclass
class Outcome:
    """What a workload run reports: counts, metrics and problems."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def to_json(self) -> dict:
        return {
            "correct": not self.problems and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def timing_metrics(out: Outcome, clock: ReferenceClock,
                   latencies: list[float], busy_s: float, completed: int,
                   sims: int) -> None:
    """The timing metrics in refs (see :class:`ReferenceClock`): latency
    median and tail, and ``completed`` placements and ``sims``
    simulations per ref of ``busy_s`` seconds.  The same figures in
    seconds go to stderr."""
    ref_s = clock.ref_s()
    p50 = median(latencies)
    value, n, share = tail(latencies)
    out.metric("latency_p50_ref", p50 / ref_s, "ref")
    out.metric("latency_tail_ref", value / ref_s, "ref")
    out.metric("throughput_per_ref", completed * ref_s / busy_s, "1/ref")
    out.metric("sims_per_ref", sims * ref_s / busy_s, "1/ref")
    out.notes.append(
        f"in seconds: latency p50 {p50:.4f} s, tail {value:.4f} s "
        f"(p{100 * share:.0f} of n={n}), {completed / busy_s:.4f} "
        f"placements/s, {sims / busy_s:.2f} sims/s; one ref is "
        f"{ref_s * 1e3:.3f} ms here")


# ----------------------------------------------------------------- set-up


def launch_to_ready(code: str) -> float:
    """Seconds from launching ``python3 -c code`` until the child prints
    its ``time.perf_counter()`` (one monotonic clock across processes)."""
    start = time.perf_counter()
    proc = run_checked([sys.executable, "-c",
                        code + "\nimport time; print(time.perf_counter())"])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-400:]}")
    return float(proc.stdout.split()[-1]) - start


def import_times(runs: int = 3) -> dict[str, float]:
    """``-X importtime`` split of ``import repro.cli`` (medians of runs):
    the whole import, and the self time of every scipy / networkx module."""
    samples: dict[str, list[float]] = {
        "cli.import_s": [], "cli.import_scipy_s": [],
        "cli.import_networkx_s": []}
    for _ in range(runs):
        proc = run_checked([sys.executable, "-X", "importtime", "-c",
                            "import repro.cli"])
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].rsplit(":", 1)[1])
                cumulative_us = int(parts[1])
            except ValueError:
                continue  # the header line
            module = parts[2].strip()
            if module == "repro.cli":
                totals["cli.import_s"] = cumulative_us / 1e6
            elif module.split(".")[0] == "scipy":
                totals["cli.import_scipy_s"] += self_us / 1e6
            elif module.split(".")[0] == "networkx":
                totals["cli.import_networkx_s"] += self_us / 1e6
        for key, value in totals.items():
            samples[key].append(value)
    return {key: median(values) for key, values in samples.items()}
