"""Trace analysis: per-span-name aggregates and the critical path.

This is the backend of ``python -m repro.trace summarize``: given the
events of one trace it reports, per span name —

* **count** and **total** wall time;
* **p50/p95** span durations (exact sample quantiles of the recorded
  durations, the simulator's definition — the event volume of one trace
  is small enough not to need sketching);
* **self time** (duration minus time spent in child spans) vs **child
  time**, which is what localises cost in a hierarchy: a
  ``service.request`` span is wide, but if its self time is nil the
  milliseconds live in the ``lqn.solve`` below it —

plus the **critical path** of the longest root span: the chain built by
repeatedly descending into the longest child, the first place to look
when asking "where did this request's time go?" (the per-stage
decomposition the paper's cost analysis, section 8, calls for).

Only ``end`` events carry durations, so summaries are computed from
those; spans still open when the trace was cut are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.trace.events import END, INSTANT, TraceEvent
from repro.util.tables import format_table

__all__ = ["SpanStats", "CriticalPathStep", "TraceSummary", "summarize_events", "render_summary"]


@dataclass
class SpanStats:
    """Aggregates over every completed span sharing one name."""

    name: str
    count: int = 0
    total_ms: float = 0.0
    self_ms: float = 0.0
    durations_ms: list[float] = field(default_factory=list)

    @property
    def child_ms(self) -> float:
        """Total time spent inside child spans."""
        return self.total_ms - self.self_ms

    def percentile_ms(self, q: float) -> float:
        """The ``q``-quantile of the recorded durations (0 when empty).

        Linear interpolation between the order statistics at rank
        ``q * (n - 1)`` (``np.percentile``'s default), the one sample
        quantile definition shared with
        :meth:`repro.simulation.metrics.ResponseTimeStats.percentile`.
        """
        if not self.durations_ms:
            return 0.0
        return float(np.percentile(self.durations_ms, 100.0 * q))


@dataclass(frozen=True)
class CriticalPathStep:
    """One hop of the longest root span's longest-child chain."""

    depth: int
    name: str
    dur_ms: float
    self_ms: float


@dataclass
class TraceSummary:
    """Everything the summarize CLI renders for one trace."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    critical_path: list[CriticalPathStep] = field(default_factory=list)
    total_events: int = 0
    completed_spans: int = 0
    instants: int = 0


def summarize_events(events: Iterable[TraceEvent]) -> TraceSummary:
    """Aggregate one trace's events into a :class:`TraceSummary`."""
    summary = TraceSummary()
    ends: dict[int, TraceEvent] = {}
    children: dict[int, list[int]] = {}
    for event in events:
        summary.total_events += 1
        if event.kind == INSTANT:
            summary.instants += 1
        if event.kind != END:
            continue
        ends[event.span_id] = event
        children.setdefault(event.parent_id, []).append(event.span_id)

    summary.completed_spans = len(ends)
    for event in ends.values():
        stats = summary.spans.get(event.name)
        if stats is None:
            stats = summary.spans[event.name] = SpanStats(name=event.name)
        dur_ms = event.dur_us / 1000.0
        child_us = sum(ends[c].dur_us for c in children.get(event.span_id, ()))
        stats.count += 1
        stats.total_ms += dur_ms
        # A child that outlives its parent (ended out of order) would drive
        # self time negative; clamp so aggregates stay interpretable.
        stats.self_ms += max(0.0, (event.dur_us - child_us) / 1000.0)
        stats.durations_ms.append(dur_ms)

    roots = children.get(0, [])
    if roots:
        span_id = max(roots, key=lambda s: ends[s].dur_us)
        depth = 0
        while span_id is not None:
            event = ends[span_id]
            child_ids = children.get(span_id, [])
            child_us = sum(ends[c].dur_us for c in child_ids)
            summary.critical_path.append(
                CriticalPathStep(
                    depth=depth,
                    name=event.name,
                    dur_ms=event.dur_us / 1000.0,
                    self_ms=max(0.0, (event.dur_us - child_us) / 1000.0),
                )
            )
            span_id = max(child_ids, key=lambda s: ends[s].dur_us) if child_ids else None
            depth += 1
    return summary


def render_summary(summary: TraceSummary, *, source: str = "") -> str:
    """The printable report: aggregate table plus the critical path."""
    rows = [
        (
            stats.name,
            stats.count,
            stats.total_ms,
            stats.percentile_ms(0.50),
            stats.percentile_ms(0.95),
            stats.self_ms,
            stats.child_ms,
        )
        for stats in sorted(
            summary.spans.values(), key=lambda s: s.total_ms, reverse=True
        )
    ]
    title = "Trace summary" + (f": {source}" if source else "")
    table = format_table(
        ["span", "count", "total (ms)", "p50 (ms)", "p95 (ms)", "self (ms)", "child (ms)"],
        rows,
        title=title,
    )
    lines = [
        table,
        "",
        f"events: {summary.total_events}  completed spans: "
        f"{summary.completed_spans}  instants: {summary.instants}",
    ]
    if summary.critical_path:
        lines.append("")
        lines.append("Critical path (longest root span, descending by longest child):")
        for step in summary.critical_path:
            indent = "  " * step.depth
            lines.append(
                f"  {indent}{step.name}  {step.dur_ms:.3f} ms "
                f"(self {step.self_ms:.3f} ms)"
            )
    return "\n".join(lines)
