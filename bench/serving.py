"""Serving workloads: a ``PredictionService`` under a closed-loop client.

The client sends its next request only when the previous one has been
answered, replaying its seeded stream until the deadline.  The traced run
replays a prefix of the same stream on a fresh stack with ``repro.trace``
on, and attributes the time to layers by span self time.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro import (
    APP_SERV_F,
    APP_SERV_S,
    APP_SERV_VF,
    HybridPredictor,
    LqnPredictor,
    PredictionService,
    ServiceConfig,
)
from repro.lqn.builder import RequestTypeParameters, TradeModelParameters
from repro.trace import (
    TRACER,
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    summarize_events,
    write_chrome_trace,
)
from repro.trace.events import BEGIN, END
from repro.util.tables import format_table

from bench import spec
from bench.stats import tail

ARCHITECTURES = (APP_SERV_S, APP_SERV_F, APP_SERV_VF)
METHODS = {"mrt": "predict_mrt_ms", "throughput": "predict_throughput", "capacity": "max_clients"}

#: Served requests answered again by a fresh predictor after the timed phase.
CHECK_SAMPLE = 200
#: Shortest window over which throughput and median latency are taken.
WINDOW_S = 0.5
#: The traced run replays this share of what the untraced run served ...
TRACE_PREFIX_SHARE = 0.10
#: ... but at most this many requests, which bounds the event ring.
TRACE_PREFIX_CAP = 10_000
#: Far above what a capped replay emits; an overflow fails the run.
EVENT_CAPACITY = 4_000_000

# Which layer each span's self time belongs to.  ``bench.*`` spans are
# recorded by this benchmark around public entry points; the rest are the
# program's own.
SPAN_LAYERS = {
    "bench.service": "service.request",
    "service.request": "service.request",
    "service.execute": "service.request",
    "service.fallback_call": "service.request",
    "bench.cache.get": "service.cache.get",
    "bench.cache.put": "service.cache.put",
    "bench.pool.submit": "service.pool",
    "bench.pool.queue": "service.pool",
    "bench.pool.wakeup": "service.pool",
    "bench.pool.join": "service.pool",
    "bench.predictor.lqn": "predictor.lqn",
    "bench.predictor.hybrid": "predictor.hybrid",
    "historical.predict": "predictor.hybrid",
    "historical.mix_refit": "predictor.hybrid",
    "bench.solver.solve": "lqn.solver",
    "lqn.solve": "lqn.solver",
    "lqn.flatten": "lqn.solver",
    "lqn.build_network": "lqn.solver",
    "lqn.lint": "lqn.solver",
    "lqn.iterate": "lqn.mva",
}
LAYERS = tuple(dict.fromkeys(SPAN_LAYERS.values())) + ("other",)


def model_parameters() -> TradeModelParameters:
    """The fixed section-5 calibration of both request types."""
    return TradeModelParameters(
        request_types={
            name: RequestTypeParameters(name=name, **values)
            for name, values in spec.REQUEST_TYPES.items()
        }
    )


def lqn_predictor() -> LqnPredictor:
    """A new, unserved layered-queuing predictor."""
    return LqnPredictor(model_parameters(), {arch.name: arch for arch in ARCHITECTURES})


def answer(target, request: spec.Request):
    """Ask ``target`` (a service or a raw predictor) one request."""
    kind, server, operand, buy = request
    return getattr(target, METHODS[kind])(server, operand, buy_fraction=buy)


def setup(workload: str) -> PredictionService:
    """Build the served stack; the hot workload also warms its working set."""
    service = PredictionService(
        lqn_predictor(),
        fallback=HybridPredictor.from_parameters(model_parameters(), list(ARCHITECTURES)),
        config=ServiceConfig(max_workers=spec.WORKERS),
    )
    if workload == "serve-lqn-hot":
        for request in spec.hot_warmup():
            answer(service, request)
    return service


@dataclass
class Load:
    """What the client sent and got back."""

    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    answers: list = field(default_factory=list)  # first pass over the stream
    failures: dict = field(default_factory=dict)  # exception name -> count


def drive(
    service, stream: list[spec.Request], *, seconds: float | None = None,
    limit: int | None = None,
) -> tuple[Load, float]:
    """Send ``stream`` (cyclically) one request at a time until ``seconds``
    pass or ``limit`` requests were sent; returns the load and start time."""
    load = Load()
    methods = {kind: getattr(service, name) for kind, name in METHODS.items()}
    perf = time.perf_counter
    starts, ends, answers, failures = load.starts, load.ends, load.answers, load.failures
    length = len(stream)
    start = perf()
    deadline = math.inf if seconds is None else start + seconds
    sent = 0
    while True:
        kind, server, operand, buy = stream[sent % length]
        method = methods[kind]
        begin = perf()
        try:
            value = method(server, operand, buy_fraction=buy)
        except Exception as error:  # counted as failed; the loop goes on
            value = None
            name = type(error).__name__
            failures[name] = failures.get(name, 0) + 1
        end = perf()
        starts.append(begin)
        ends.append(end)
        if sent < length:
            answers.append(value)
        sent += 1
        if sent == limit or end >= deadline:
            return load, start


def _counters(service: PredictionService) -> dict[str, int]:
    cache = service.cache.stats()
    return {
        "cache_requests": cache.requests,
        "cache_hits": cache.hits,
        "solves": service.primary.solver.solve_count,
        "degraded": int(service.export_metrics().get("degraded", 0)),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def check_answers(stream: list[spec.Request], load: Load, seed: int) -> list[str]:
    """Every answer is finite, and a seeded sample equals a fresh predictor's.

    Every request lies on the service's quantization grid, so a served
    answer (cached or not) must be bit-equal to a direct answer.
    """
    answered = [i for i, value in enumerate(load.answers) if value is not None]
    if not answered:
        return ["no request was answered"]
    problems = [
        f"non-finite answer {load.answers[i]!r} to {stream[i]}"
        for i in answered if not math.isfinite(load.answers[i])
    ]
    fresh = lqn_predictor()
    for i in random.Random(f"{seed}:check").sample(answered, min(CHECK_SAMPLE, len(answered))):
        expected = answer(fresh, stream[i])
        if load.answers[i] != expected:
            problems.append(
                f"served {load.answers[i]!r} but a fresh predictor answers "
                f"{expected!r} to {stream[i]}"
            )
    return problems


def windowed(done_s: np.ndarray, latencies: np.ndarray) -> tuple[float, float, int]:
    """Throughput and median latency over windows of the run, fast side.

    A window is a whole number of mix blocks lasting at least
    :data:`WINDOW_S`, so every window holds the same mix of requests.
    The machine's speed varies over seconds (other tenants share it); the
    least disturbed windows are the fastest, so the run reports the 90th
    percentile of window throughput and the 10th percentile of window
    median latency.  Returns those two (req/s, s) and the window count.
    """
    block = len(spec.MIX_BLOCK)
    size = block * max(1, math.ceil(WINDOW_S * len(latencies) / done_s[-1] / block))
    count = len(latencies) // size
    if count < 2:
        return len(latencies) / done_s[-1], float(np.median(latencies)), 1
    edges = np.concatenate([[0.0], done_s[size - 1:count * size:size]])
    rates = (size / np.diff(edges)).tolist()
    medians = [float(np.median(latencies[w * size:(w + 1) * size])) for w in range(count)]
    return statistics.quantiles(rates, n=10)[8], statistics.quantiles(medians, n=10)[0], count


def measure(service: PredictionService, stream, seconds: float, seed: int):
    """The untraced timed phase, its output checks and end-to-end metrics."""
    before = _counters(service)
    load, start = drive(service, stream, seconds=seconds)
    after = _counters(service)
    delta = {key: after[key] - before[key] for key in before}

    ends = np.frombuffer(load.ends)
    latencies = ends - np.frombuffer(load.starts)
    attempted = len(latencies)
    errors = sum(load.failures.values())
    throughput, p50, windows = windowed(ends - start, latencies)
    p99, p99_label = tail(np.sort(latencies))
    metrics = {
        "throughput_rps": (throughput, "req/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
    }
    detail = {
        "samples": attempted,
        "windows": windows,
        "latency_tail_ms": float(p99) * 1e3,
        "latency_tail_is": p99_label,
        "wall_s": load.ends[-1] - start,
        "errors": dict(load.failures),
        "degraded": delta["degraded"],
        "cache_hit_ratio": _ratio(delta["cache_hits"], delta["cache_requests"]),
        "solves_per_req": _ratio(delta["solves"], attempted),
    }
    problems = check_answers(stream, load, seed)
    return load, start, metrics, detail, problems, errors + delta["degraded"]


# -- the traced replay ------------------------------------------------------


class _Spans:
    """Spans recorded by the benchmark around the program's public calls."""

    def __init__(self, sink: RingBufferSink):
        self._sink = sink
        self._ids = itertools.count(-1, -1)  # negative: never a tracer id
        # Map perf_counter seconds onto the tracer's microsecond timeline.
        before = time.perf_counter()
        TRACER.instant("bench.clock")
        after = time.perf_counter()
        self._offset_us = sink.events()[-1].ts_us - (before + after) * 0.5e6

    def wrap(self, owner, attribute: str, name: str, **attributes) -> None:
        """Replace ``owner.attribute`` by a call inside a span called ``name``."""
        inner = getattr(owner, attribute)
        span = TRACER.span

        def traced(*args, **kwargs):
            with span(name, **attributes):
                return inner(*args, **kwargs)

        setattr(owner, attribute, traced)

    def interval(self, name: str, start_s: float, end_s: float) -> None:
        """Record a finished interval as a child of the current span."""
        parent = TRACER.current_span()
        common = dict(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else 0,
            ts_us=start_s * 1e6 + self._offset_us,
        )
        self._sink.emit(TraceEvent(kind=BEGIN, **common))
        self._sink.emit(TraceEvent(kind=END, dur_us=max(0.0, end_s - start_s) * 1e6, **common))

    def wrap_pool(self, pool) -> None:
        """Split each request's wait on the pool into queueing and wake-up.

        The worker's execution is already the ``service.execute`` span;
        what the request thread waits beyond it is the pool's hand-off.
        """
        inner = pool.submit_or_join
        spans = self

        def submit_or_join(key, fn):
            times = [0.0, 0.0]

            def timed():
                times[0] = time.perf_counter()
                try:
                    return fn()
                finally:
                    times[1] = time.perf_counter()

            with TRACER.span("bench.pool.submit"):
                future, started = inner(key, timed)
            submitted = time.perf_counter()
            return _TimedFuture(future, times if started else None, submitted, spans), started

        pool.submit_or_join = submit_or_join


class _TimedFuture:
    """The pool's future, recording the hand-off intervals when it is read."""

    __slots__ = ("_future", "_times", "_submitted", "_spans")

    def __init__(self, future, times, submitted: float, spans: _Spans):
        self._future = future
        self._times = times
        self._submitted = submitted
        self._spans = spans

    def result(self, timeout=None):
        try:
            return self._future.result(timeout)
        finally:
            now = time.perf_counter()
            if self._times is not None and self._times[1]:
                started, finished = self._times
                self._spans.interval(
                    "bench.pool.queue", self._submitted, max(self._submitted, started)
                )
                self._spans.interval("bench.pool.wakeup", finished, now)
            else:  # joined another request's work, or gave up waiting
                self._spans.interval("bench.pool.join", self._submitted, now)


def instrument(service: PredictionService, spans: _Spans) -> None:
    """Wrap every layer boundary of ``service`` in a benchmark span."""
    for kind, method in METHODS.items():
        spans.wrap(service, method, "bench.service", op=kind)
        spans.wrap(service.primary, method, "bench.predictor.lqn", op=kind)
        spans.wrap(service.fallback, method, "bench.predictor.hybrid", op=kind)
    spans.wrap(service.primary.solver, "solve", "bench.solver.solve")
    spans.wrap(service.cache, "get", "bench.cache.get")
    spans.wrap(service.cache, "put", "bench.cache.put")
    spans.wrap_pool(service.pool)


def attribute(events: list[TraceEvent]) -> dict:
    """Per-layer self time and exact counts of one traced replay."""
    summary = summarize_events(events)
    self_ms = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for name, stats in summary.spans.items():
        layer = SPAN_LAYERS.get(name, "other")
        self_ms[layer] += stats.self_ms
        if name.startswith("bench.") or layer == "lqn.mva":
            calls[layer] += stats.count
    root = summary.spans["bench.service"]

    ends = {event.span_id: event for event in events if event.kind == END}

    def capacity_search(event: TraceEvent) -> bool:
        while event is not None and event.name != "bench.predictor.lqn":
            event = ends.get(event.parent_id)
        return event is not None and event.attributes.get("op") == "capacity"

    searches = sum(
        1 for e in ends.values()
        if e.name == "bench.predictor.lqn" and e.attributes.get("op") == "capacity"
    )
    search_solves = sum(
        1 for e in ends.values() if e.name == "bench.solver.solve" and capacity_search(e)
    )
    iterations = [
        e.attributes["iterations"] for e in ends.values()
        if e.name == "lqn.solve" and "iterations" in e.attributes
    ]
    return {
        "requests": root.count,
        "request_ms": root.total_ms,
        "self_ms": self_ms,
        "calls": calls,
        "coverage": sum(self_ms.values()) / root.total_ms,
        "solves_per_capacity": _ratio(search_solves, searches),
        "iterations_per_solve": _ratio(sum(iterations), len(iterations)),
    }


def layer_table(workload: str, layers: dict) -> str:
    """The printable per-layer table of one traced replay."""
    requests = layers["requests"]
    rows = [
        (
            layer,
            layers["calls"][layer],
            layers["self_ms"][layer] * 1e3 / requests,
            _ratio(layers["self_ms"][layer] * 1e3, layers["calls"][layer]),
            layers["self_ms"][layer] / layers["request_ms"],
        )
        for layer in LAYERS
    ]
    rows.append(("(traced request)", requests, layers["request_ms"] * 1e3 / requests, "", 1.0))
    return format_table(
        ["layer", "calls", "self us/req", "self us/call", "share"],
        rows,
        title=f"{workload}: self time by layer (coverage {layers['coverage']:.4f})",
    )


def traced_replay(workload: str, stream, prefix: int, out_dir: Path):
    """Replay the first ``prefix`` requests on a fresh, traced stack."""
    service = setup(workload)
    sink = RingBufferSink(EVENT_CAPACITY)
    TRACER.enable(sink)
    try:
        instrument(service, _Spans(sink))
        load, start = drive(service, stream, limit=prefix)
    finally:
        TRACER.detach(sink)
        service.shutdown()
    events = sink.events()
    problems = [] if not sink.dropped else [f"trace ring overflowed ({sink.dropped} events)"]
    layers = attribute(events)
    out_dir.mkdir(parents=True, exist_ok=True)
    with JsonlSink(out_dir / f"{workload}.trace.jsonl") as out:
        for event in events:
            out.emit(event)
    write_chrome_trace(events, out_dir / f"{workload}.chrome.json")
    table = layer_table(workload, layers)
    (out_dir / f"{workload}.layers.txt").write_text(table + "\n", encoding="utf-8")
    return load, load.ends[-1] - start, layers, table, problems


def run(workload: str, service: PredictionService, stream, seconds: float, seed: int,
        trace: bool, out_dir: Path) -> dict:
    """One run: the timed phase, then (traced runs only) the traced replay."""
    try:
        load, start, metrics, detail, problems, failed = measure(service, stream, seconds, seed)
    finally:
        service.shutdown()
    outcome = {
        "attempted": detail["samples"],
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "problems": problems,
    }
    if not trace:
        return outcome

    prefix = min(TRACE_PREFIX_CAP, max(1, int(detail["samples"] * TRACE_PREFIX_SHARE)))
    traced, traced_s, layers, table, trace_problems = traced_replay(
        workload, stream, prefix, out_dir
    )
    problems.extend(trace_problems)
    if load.answers[:prefix] != traced.answers[:prefix]:
        problems.append("traced answers differ from untraced ones")
    share = {layer: layers["self_ms"][layer] / layers["request_ms"] for layer in LAYERS}
    outcome["layers"] = {
        "service.request.self_share": share["service.request"],
        "service.cache.get_share": share["service.cache.get"],
        "service.cache.put_share": share["service.cache.put"],
        "service.cache.hit_ratio": detail["cache_hit_ratio"],
        "service.pool.handoff_share": share["service.pool"],
        "predictor.lqn.self_share": share["predictor.lqn"],
        "predictor.lqn.solves_per_capacity": layers["solves_per_capacity"],
        "lqn.solver.prepare_share": share["lqn.solver"],
        "lqn.solver.solves_per_req": detail["solves_per_req"],
        "lqn.mva.iterate_share": share["lqn.mva"],
        "lqn.mva.iterations_per_solve": layers["iterations_per_solve"],
        "trace.layer_coverage": layers["coverage"],
        "trace.op_us": layers["request_ms"] * 1e3 / layers["requests"],
        "trace.overhead_share": traced_s / (load.ends[prefix - 1] - start) - 1.0,
    }
    outcome["detail"]["trace_prefix"] = prefix
    outcome["report"] = table
    return outcome
