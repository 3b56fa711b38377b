"""repro.trace — hierarchical tracing and structured events.

The observability layer the ROADMAP's "fast as the hardware allows" goal
needs: where :mod:`repro.service.metrics` answers *how much/how often*
in aggregate, this subsystem answers *where the time went inside one
request* — a tree of context-propagated spans over the solver,
historical, hybrid, service, simulation and experiment layers, with a
bounded structured event log behind pluggable sinks.

Quickstart::

    from repro.trace import TRACER, RingBufferSink, summarize_events

    sink = RingBufferSink()
    TRACER.enable(sink)
    try:
        ...  # any instrumented workload: solves, service calls, sims
    finally:
        TRACER.disable()
    print(render_summary(summarize_events(sink.events())))

File-backed traces use :class:`JsonlSink`; ``python -m repro.trace
summarize trace.jsonl`` prints per-span stats and ``python -m
repro.trace export`` converts to Chrome ``trace_event`` JSON for
``chrome://tracing`` / Perfetto.  Tracing is **disabled by default** and
the disabled path is a no-op fast path (gated at < 2 % of a solve in
``tests/test_wallclock_gates.py``).
"""

from repro.trace.chrome import chrome_trace_events, write_chrome_trace
from repro.trace.events import TraceEvent
from repro.trace.sinks import JsonlSink, RingBufferSink, TraceSink, load_events_jsonl
from repro.trace.summary import (
    SpanStats,
    TraceSummary,
    render_summary,
    summarize_events,
)
from repro.trace.tracer import TRACER, Span, Tracer

__all__ = [
    "TRACER",
    "Tracer",
    "Span",
    "TraceEvent",
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "load_events_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "SpanStats",
    "TraceSummary",
    "summarize_events",
    "render_summary",
]
