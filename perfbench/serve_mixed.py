"""``serve_mixed``: an open loop at a fixed rate against ``repro serve``.

The benchmark starts ``repro serve --jobs 2 --corpus --journal-dir D
--result-cache`` and sends ``RATE`` requests per second from one thread
while a second thread polls the jobs.  The timed traffic is fixed in
shape and drawn from the workload seed:

* ~70% fresh ``batch=8`` placements, cycling through library blocks and
  corpus decks;
* ~30% repeats of earlier fresh requests (answered from the result cache
  once the original is done).

Fresh-request latency is timed from when the request was due.  While
none of its jobs is running, the sending thread runs the reference work
of :class:`common.ReferenceClock`.  After the timed traffic, five malformed
bodies are sent, each of which must be refused with a 4xx; they come
after it so that a body the server wrongly accepts holds up no timed
request.  A sample of fresh requests is re-run in-process over the
serial backend and must give byte-equal payloads; cache hits must be
byte-equal to their original; every fresh result must pass
:class:`common.Verifier`.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    ROOT,
    WORK,
    Outcome,
    ReferenceClock,
    Verifier,
    canonical,
    child_env,
    import_times,
    median,
    paired_ratio,
    rss_peak_mb,
    timing_metrics,
)

RATE = 2.0
STEPS = 40
BATCH = 8
REPEAT_SHARE = 0.30
CIRCUITS = ("cm", "comp", "ota", "ota2s", "mirror_tree", "ota_two_stage",
            "comp_strongarm")
#: Bodies the service must refuse with a 4xx.  The last two are accepted
#: by the decoder today, so they count as failed operations.
MALFORMED = (
    b"{not json",
    json.dumps({"circuit": "cm", "no_such_field": 1}).encode(),
    json.dumps({"circuit": "no_such_circuit"}).encode(),
    json.dumps({"circuit": "cm", "seed": "1"}).encode(),
    json.dumps({"circuit": ["cm"]}).encode(),
)
SETUP_RUNS = 5
DETERMINISM_SAMPLE = 3
POLL_S = 0.02
#: Least time before the next send for the reference work to run.
IDLE_TICK_S = 0.02
HOOK = Path(__file__).resolve().parent / "tracehook.py"


@dataclass
class Slot:
    """One scheduled request and what happened to it."""

    index: int
    due: float
    kind: str                 # "fresh" | "repeat" | "malformed"
    body: bytes
    request: object = None    # PlacementRequest (fresh and repeat)
    original: "Slot | None" = None
    original_done: bool = False
    status: int = 0
    job: str | None = None
    seen: float | None = None
    record: dict | None = None


def schedule(seed: int, seconds: float) -> list[Slot]:
    from repro.service import PlacementRequest

    rng = random.Random(seed)
    n = max(4, int(seconds * RATE))
    repeat_at = set(rng.sample(range(3, n), round(REPEAT_SHARE * n)))
    slots, fresh = [], []
    for i in range(n):
        slot = Slot(index=i, due=i / RATE, kind="fresh", body=b"")
        if i in repeat_at and fresh:
            slot.kind = "repeat"
            slot.original = rng.choice(fresh)
            slot.request = slot.original.request
            slot.body = slot.original.body
        else:
            slot.request = PlacementRequest(
                circuit=CIRCUITS[len(fresh) % len(CIRCUITS)], steps=STEPS,
                batch=BATCH, seed=rng.randrange(1, 1 << 30))
            slot.body = json.dumps(slot.request.to_json_dict()).encode()
            fresh.append(slot)
        slots.append(slot)
    return slots


# ---------------------------------------------------------------- server


class Server:
    """One ``repro serve`` process (optionally under the trace hook)."""

    def __init__(self, tag: str, trace_dir: Path | None = None):
        journal = WORK / f"journal-{tag}"
        args = ["serve", "--port", "0", "--jobs", "2", "--corpus",
                "--journal-dir", str(journal), "--result-cache"]
        prefix = ([sys.executable, "-m", "repro"] if trace_dir is None else
                  [sys.executable, str(HOOK), str(trace_dir), "--"])
        self.stderr = open(WORK / f"server-{tag}.err", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(prefix + args, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=self.stderr)
        try:
            self.port = self._read_port(deadline=self.started + 60)
            self._wait_healthy(deadline=self.started + 60)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - self.started

    def _read_port(self, deadline: float) -> int:
        line = b""
        while b"\n" not in line:
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError("repro serve did not announce its port")
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if ready:
                line += self.proc.stdout.readline()
        return int(line.split(b"http://", 1)[1].split(b" ", 1)[0]
                   .rsplit(b":", 1)[1])

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve never answered /healthz")

    def request(self, method: str, path: str, body: bytes | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


# ------------------------------------------------------------- generator


def _ended_job(server: Server, job: str) -> dict | None:
    """The job's record once it has ended, else None.  An answer that is
    not a JSON record ends the job with a ``poll error`` state."""
    try:
        status, body = server.request("GET", f"/jobs/{job}")
        record = json.loads(body) if status == 200 else None
    except (OSError, ValueError) as exc:
        return {"state": f"poll error: {exc}"}
    if not isinstance(record, dict):
        return {"state": f"poll error: HTTP {status}: {body[:200]!r}"}
    return record if record.get("state") in ("done", "failed",
                                             "cancelled") else None


def drive(server: Server, slots: list[Slot], timeout: float = 90.0,
          clock: ReferenceClock | None = None) -> float:
    """Send every slot on schedule and poll its job to completion.

    ``clock`` ticks only while none of the sent jobs is running (and
    before the first send and after the last job ends), so the work of
    the server does not slow the reference work.  Returns the
    generator's worst lateness in seconds.
    """
    submitted: queue.Queue = queue.Queue()
    done_sending = threading.Event()

    def poll() -> None:
        outstanding: list[Slot] = []
        deadline = None
        while True:
            try:
                while True:
                    outstanding.append(submitted.get_nowait())
            except queue.Empty:
                pass
            if not outstanding and done_sending.is_set() and submitted.empty():
                return
            if done_sending.is_set() and deadline is None:
                deadline = time.perf_counter() + timeout
            if deadline is not None and time.perf_counter() > deadline:
                return
            for slot in list(outstanding):
                record = _ended_job(server, slot.job)
                if record is not None:
                    slot.seen = time.perf_counter()
                    slot.record = record
                    outstanding.remove(slot)
            try:
                outstanding.append(submitted.get(timeout=POLL_S))
            except queue.Empty:
                pass

    def idle_ticks(until: float) -> None:
        while clock is not None and until - time.perf_counter() > IDLE_TICK_S:
            if all(s.seen is not None for s in sent):
                clock.tick()
            time.sleep(IDLE_TICK_S / 2)

    sent: list[Slot] = []
    idle_ticks(time.perf_counter() + 0.2)
    poller = threading.Thread(target=poll, daemon=True)
    poller.start()
    start = time.perf_counter()
    lateness = 0.0
    for slot in slots:
        slot.due += start
        idle_ticks(slot.due)
        delay = slot.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lateness = max(lateness, time.perf_counter() - slot.due)
        if slot.original is not None:
            slot.original_done = slot.original.seen is not None
        status, body = server.request("POST", "/place", slot.body)
        slot.status = status
        if status == 202:
            slot.job = json.loads(body)["job"]
            submitted.put(slot)
            sent.append(slot)
    done_sending.set()
    poller.join()
    idle_ticks(time.perf_counter() + 0.2)
    return lateness


def _failure(slot: Slot) -> str | None:
    """Why ``slot`` failed, or None when it succeeded."""
    if slot.kind == "malformed":
        return (None if 400 <= slot.status < 500 else
                f"malformed body answered {slot.status}, not a 4xx")
    if slot.status != 202:
        return f"POST /place answered {slot.status}"
    if slot.record is None:
        return f"job {slot.job} did not end before the poller gave up"
    if slot.record.get("state") != "done":
        return (f"job {slot.job} ended {slot.record.get('state')}: "
                f"{str(slot.record.get('error'))[:200]}")
    return None


def _failed(slot: Slot) -> bool:
    return _failure(slot) is not None


def _failure_problems(slots: list[Slot], label: str = "") -> list[str]:
    """Every failed placement request.  Accepted malformed bodies (ROADMAP
    4(a)) are failed operations of the program, reported in ``failed``
    only; any other failure makes the run wrong."""
    return [f"{label}slot {s.index} ({s.kind}): {_failure(s)}"
            for s in slots if s.kind != "malformed" and _failed(s)]


def send_malformed(server: Server, first_index: int) -> list[Slot]:
    """POST every malformed body once, untimed, and record the answer."""
    slots = []
    for k, body in enumerate(MALFORMED):
        slot = Slot(index=first_index + k, due=0.0, kind="malformed",
                    body=body)
        slot.status = server.request("POST", "/place", body)[0]
        slots.append(slot)
    return slots


def _run_phase(seed: int, seconds: float, tag: str,
               trace_dir: Path | None = None,
               clock: ReferenceClock | None = None):
    """The timed schedule against a fresh server, then (untraced only)
    the malformed bodies; returns ``(slots, lateness, ready_s)``."""
    server = Server(tag, trace_dir)
    try:
        slots = schedule(seed, seconds)
        lateness = drive(server, slots, clock=clock)
        if trace_dir is None:
            slots += send_malformed(server, len(slots))
    finally:
        server.stop()
    return slots, lateness, server.ready_s


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.service.corpus import corpus_registry
    from repro.service.service import PlacementService

    out = Outcome()
    if not trace:
        setups = []
        for k in range(SETUP_RUNS - 1):
            server = Server(f"setup{k}")
            setups.append(server.ready_s)
            server.stop()
    phase = seconds / 2 if trace else seconds
    clock = ReferenceClock()
    slots, lateness, ready_s = _run_phase(seed, phase, "main", clock=clock)
    out.notes.append(f"generator ran at most {lateness * 1e3:.1f} ms late")
    out.attempted = len(slots)
    out.failed = sum(_failed(s) for s in slots)
    out.problems += _failure_problems(slots)

    fresh = [s for s in slots if s.kind == "fresh" and not _failed(s)]
    repeats = [s for s in slots if s.kind == "repeat" and not _failed(s)]
    registry = corpus_registry()
    verifier = Verifier(registry)
    for slot in fresh:
        out.problems += [f"slot {slot.index}: {p}" for p in verifier.check(
            slot.request, slot.record["result"])]
    for slot in repeats:
        if slot.original_done and not slot.record.get("cached"):
            out.problems.append(f"slot {slot.index}: repeat of a finished "
                                "request was not served from the cache")
        if slot.original.record is None or canonical(
                slot.record["result"]) != canonical(
                slot.original.record["result"]):
            out.problems.append(f"slot {slot.index}: repeat payload differs "
                                "from the original")
    service = PlacementService(registry=registry, backend="serial")
    for slot in random.Random(seed).sample(
            fresh, min(DETERMINISM_SAMPLE, len(fresh))):
        if canonical(service.place(slot.request).to_json_dict()) != canonical(
                slot.record["result"]):
            out.problems.append(f"slot {slot.index}: served payload differs "
                                "from the in-process serial run")

    latencies = [s.seen - s.due for s in fresh]
    if trace:
        import tracing

        trace_dir = WORK / "trace"
        trace_dir.mkdir()
        traced, _, _ = _run_phase(seed, phase, "traced", trace_dir)
        out.problems += _failure_problems(traced, "traced ")
        traced_fresh = [s for s in traced if s.kind == "fresh"
                        and not _failed(s)]
        untraced_results = {s.index: canonical(s.record["result"])
                            for s in fresh}
        if any(untraced_results.get(s.index, canonical(s.record["result"]))
               != canonical(s.record["result"]) for s in traced_fresh):
            out.problems.append("traced payloads differ from untraced ones")
        sent_repeats = [s for s in traced if s.kind == "repeat"]
        hits = [s for s in sent_repeats
                if s.record is not None and s.record.get("cached")]
        spans = tracing.SpanSet(tracing.load_dumps(trace_dir))
        extra = import_times()
        extra.update({
            "service.jobs.cache_hit_ratio": len(hits) / max(1, len(sent_repeats)),
            "service.hit_latency_p50_s": median(
                [s.seen - s.due for s in hits]) if hits else 0.0,
            "service.error_rate": out.failed / out.attempted,
        })
        untraced = {s.index: s.seen - s.due for s in fresh}
        pairs = [(s.seen - s.due, untraced[s.index]) for s in traced_fresh
                 if s.index in untraced]
        out.metrics.update(tracing.per_layer_metrics(
            spans, {s.job: s.seen - s.due for s in traced_fresh},
            overhead_ratio=paired_ratio(*zip(*pairs)), extra=extra))
    else:
        setups.append(ready_s)
        out.metric("setup_s", median(setups), "s")
        # The open loop runs below saturation, so answers per second of
        # wall time would be the offered load; rates are per ref of the
        # fresh jobs' own run time (job start to finish) instead.
        timing_metrics(
            out, clock, latencies,
            busy_s=sum(s.record["finished_at"] - s.record["started_at"]
                       for s in fresh),
            completed=len(fresh),
            sims=sum(s.record["result"]["sims_used"] for s in fresh))
        out.metric("rss_peak_mb", rss_peak_mb(children=True), "MB")
    return out
