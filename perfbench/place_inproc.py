"""``place_inproc``: a closed loop with one client in one warm process.

Each request is a ``PlacementService.place`` call over the serial backend
(``batch=1``, ``steps=100``), cycling through seven circuits — library
blocks and corpus decks — with placement seeds drawn from the workload
seed, until ``--seconds`` have passed.  The reference work of
:class:`common.ReferenceClock` runs before each request (and after the
last), outside the requests' latencies.
No import, HTTP or pool cost is paid inside the timed loop.
"""

from __future__ import annotations

import random
import time

from common import (
    Outcome,
    ReferenceClock,
    Verifier,
    import_times,
    launch_to_ready,
    median,
    paired_ratio,
    rss_peak_mb,
    timing_metrics,
)

CIRCUITS = ("cm", "comp", "ota", "ota2s", "ota_two_stage", "comp_strongarm",
            "mirror_tree")
STEPS = 100
WARMUP_STEPS = 20
SETUP_RUNS = 5
SETUP_CODE = """
import repro.cli
from repro.service.corpus import corpus_registry
from repro.service.service import PlacementService
PlacementService(registry=corpus_registry(), backend="serial")
"""


def requests_for(seed: int, rounds: int):
    from repro.service import PlacementRequest

    rng = random.Random(seed)
    return [PlacementRequest(circuit=c, steps=STEPS, batch=1,
                             seed=rng.randrange(1, 1 << 30))
            for _ in range(rounds) for c in CIRCUITS]


def _place_rounds(service, requests, seconds: float, tracer=None,
                  clock: ReferenceClock | None = None):
    """Place requests until ``seconds`` pass (or ``requests`` run out);
    returns ``(payloads, latencies)``."""
    payloads, latencies = [], []
    start = time.perf_counter()
    for index, request in enumerate(requests):
        if time.perf_counter() - start >= seconds:
            break
        if clock is not None:
            clock.tick()
        if tracer is not None:
            tracer.set_request(index)
        t0 = time.perf_counter()
        payloads.append(service.place(request).to_json_dict())
        latencies.append(time.perf_counter() - t0)
    if clock is not None:
        clock.tick()
    return payloads, latencies


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.service import PlacementRequest
    from repro.service.corpus import corpus_registry
    from repro.service.service import PlacementService

    out = Outcome()
    if not trace:
        out.metric("setup_s", median(
            [launch_to_ready(SETUP_CODE) for _ in range(SETUP_RUNS)]), "s")
    registry = corpus_registry()
    service = PlacementService(registry=registry, backend="serial")
    # Warm-up: lazy imports and compiled-topology caches fill once per
    # process, which a warm service has already paid.
    for circuit in CIRCUITS:
        service.place(PlacementRequest(circuit=circuit, steps=WARMUP_STEPS))
    requests = requests_for(seed, rounds=100)
    phase = seconds / 2 if trace else seconds
    clock = ReferenceClock()
    payloads, latencies = _place_rounds(service, requests, phase, clock=clock)
    out.attempted = len(payloads)

    if trace:
        import tracing

        tracer = tracing.install(tracing.Tracer())
        traced_payloads, traced_latencies = _place_rounds(
            service, requests[:len(payloads)], float("inf"), tracer)
        if traced_payloads != payloads:
            out.problems.append("traced placements differ from untraced ones")
        spans = tracing.SpanSet([tracer.payload()])
        out.metrics.update(tracing.per_layer_metrics(
            spans, dict(enumerate(traced_latencies)),
            overhead_ratio=paired_ratio(traced_latencies, latencies),
            extra=import_times()))
    else:
        timing_metrics(out, clock, latencies, busy_s=sum(latencies),
                       completed=len(payloads),
                       sims=sum(p["sims_used"] for p in payloads))
        out.metric("rss_peak_mb", rss_peak_mb(children=False), "MB")

    verifier = Verifier(registry)
    for request, payload in zip(requests, payloads):
        out.problems += [f"{request.circuit} seed {request.seed}: {p}"
                         for p in verifier.check(request, payload)]
    return out

