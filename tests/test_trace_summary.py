"""Tests for trace summarization and the ``python -m repro.trace`` CLI."""

from __future__ import annotations

import json

from repro.trace import (
    JsonlSink,
    RingBufferSink,
    Tracer,
    render_summary,
    summarize_events,
)
from repro.trace.cli import main as trace_cli
from repro.util.clock import FakeClock


def build_trace(clock, tracer):
    """Two solves (40 ms, 100 ms) each holding a 30/80 ms inner stage."""
    for outer_s, inner_s in ((0.04, 0.03), (0.1, 0.08)):
        with tracer.span("solve"):
            clock.advance(outer_s - inner_s)
            with tracer.span("iterate"):
                clock.advance(inner_s)


class TestSummarize:
    def test_counts_totals_and_self_vs_child_time(self):
        clock = FakeClock()
        sink = RingBufferSink()
        tracer = Tracer(clock=clock, sinks=(sink,))
        build_trace(clock, tracer)
        summary = summarize_events(sink.events())

        solve = summary.spans["solve"]
        iterate = summary.spans["iterate"]
        assert solve.count == iterate.count == 2
        assert round(solve.total_ms, 6) == 140.0
        assert round(iterate.total_ms, 6) == 110.0
        # Self time excludes the nested stage; the stage is all self time.
        assert round(solve.self_ms, 6) == 30.0
        assert round(solve.child_ms, 6) == 110.0
        assert round(iterate.self_ms, 6) == 110.0

    def test_exact_percentiles(self):
        clock = FakeClock()
        sink = RingBufferSink()
        tracer = Tracer(clock=clock, sinks=(sink,))
        for ms in (10, 20, 30, 40, 50):
            with tracer.span("op"):
                clock.advance(ms / 1000.0)
        op = summarize_events(sink.events()).spans["op"]
        # Linear interpolation: p95 sits at rank 0.95 * 4 = 3.8 of 0..4.
        assert round(op.percentile_ms(0.50), 6) == 30.0
        assert round(op.percentile_ms(0.95), 6) == 48.0
        assert round(op.percentile_ms(0.0), 6) == 10.0

    def test_critical_path_descends_longest_children(self):
        clock = FakeClock()
        sink = RingBufferSink()
        tracer = Tracer(clock=clock, sinks=(sink,))
        build_trace(clock, tracer)
        steps = summarize_events(sink.events()).critical_path
        assert [s.name for s in steps] == ["solve", "iterate"]
        assert round(steps[0].dur_ms, 6) == 100.0  # the longer root
        assert round(steps[1].dur_ms, 6) == 80.0
        assert steps[0].depth == 0 and steps[1].depth == 1

    def test_render_mentions_every_span_and_the_path(self):
        clock = FakeClock()
        sink = RingBufferSink()
        tracer = Tracer(clock=clock, sinks=(sink,))
        build_trace(clock, tracer)
        text = render_summary(summarize_events(sink.events()), source="unit")
        assert "solve" in text and "iterate" in text
        assert "p95" in text and "Critical path" in text


class TestCli:
    def jsonl(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            tracer = Tracer(clock=clock, sinks=(sink,))
            build_trace(clock, tracer)
        return path

    def test_summarize_reports_stats(self, tmp_path, capsys):
        path = self.jsonl(tmp_path)
        assert trace_cli(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "solve" in out and "p50" in out and "p95" in out

    def test_export_writes_loadable_chrome_trace(self, tmp_path, capsys):
        path = self.jsonl(tmp_path)
        out_path = tmp_path / "out.json"
        assert trace_cli(["export", str(path), "-o", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"]
        assert {e["ph"] for e in payload["traceEvents"]} == {"B", "E"}

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert trace_cli(["summarize", str(tmp_path / "absent.jsonl")]) == 2
        assert "absent.jsonl" in capsys.readouterr().err

    def test_unparsable_file_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        assert trace_cli(["summarize", str(bad)]) == 2
