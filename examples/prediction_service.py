#!/usr/bin/env python
"""Prediction-as-a-service: the layered method made affordable online.

Section 8.5 of the paper prices the layered queuing method out of online
resource management: every prediction is a fresh iterative solve
(milliseconds to seconds), and every capacity query a multi-solve
search.  This example puts the layered predictor behind the serving
layer and shows the arithmetic change:

1. the first query at an operating point pays the solve (a cold miss);
2. repeats are microsecond cache hits — historical-method delay class;
3. sixteen concurrent clients asking the same cold question cost ONE
   solve (in-flight coalescing);
4. a primary that misses its deadline degrades gracefully to the
   historical fallback instead of stalling the control loop;
5. the metrics registry reports p50/p95/p99, hit rate and degradations.

Run:  python examples/prediction_service.py

Set ``REPRO_TRACE_DIR=<dir>`` to record the whole run with
:mod:`repro.trace`: the directory receives ``trace.jsonl`` (summarize
with ``python -m repro.trace summarize``) and ``trace_chrome.json``
(load in ``chrome://tracing`` / Perfetto).
"""

import os
import threading
import time
from pathlib import Path

from repro.experiments.scenario import build_predictors
from repro.servers import APP_SERV_S
from repro.service import (
    AdmissionConfig,
    LoadGenConfig,
    LoadGenerator,
    PredictionService,
    ServiceConfig,
)
from repro.trace import TRACER, JsonlSink, load_events_jsonl, write_chrome_trace


class StalledPredictor:
    """A predictor that answers only once ``release`` is set.

    Step 4 puts it in front of the layered predictor, so the deadline is
    missed on every run: a real solve can beat a short deadline on a fast
    machine.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.release = threading.Event()

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        self.release.wait()
        return self.inner.predict_mrt_ms(server, n_clients, buy_fraction=buy_fraction)

    def predict_throughput(self, server, n_clients, *, buy_fraction=0.0):
        self.release.wait()
        return self.inner.predict_throughput(server, n_clients, buy_fraction=buy_fraction)

    def max_clients(self, server, rt_goal_ms, *, buy_fraction=0.0):
        self.release.wait()
        return self.inner.max_clients(server, rt_goal_ms, buy_fraction=buy_fraction)


def main() -> None:
    print("Calibrating the three prediction methods (simulated testbed)...")
    historical, lqn, _hybrid, _ = build_predictors(fast=True)
    server = APP_SERV_S.name

    print("\n-- 1+2: cold solve vs warm cache ------------------------------")
    service = PredictionService(lqn, fallback=historical)
    start = time.perf_counter()
    mrt = service.predict_mrt_ms(server, 800)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    service.predict_mrt_ms(server, 800)
    warm = time.perf_counter() - start
    print(f"  predicted MRT at 800 clients: {mrt:.1f} ms")
    print(f"  cold (one LQN solve): {cold * 1e3:.2f} ms; warm (cache hit): "
          f"{warm * 1e6:.1f} us  ({cold / warm:.0f}x faster)")

    print("\n-- 3: sixteen concurrent identical queries, one solve ---------")
    solves_before = lqn.solver.solve_count
    threads = [
        threading.Thread(target=lambda: service.predict_mrt_ms(server, 1200))
        for _ in range(16)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    print(f"  underlying LQN solves performed: {lqn.solver.solve_count - solves_before}")
    print(f"  in-flight coalesced requests:    {service.pool.stats().coalesced}")

    print("\n-- 4: graceful degradation when the primary misses its deadline")
    stalled = StalledPredictor(lqn)
    tight = PredictionService(
        stalled,
        fallback=historical,
        config=ServiceConfig(admission=AdmissionConfig(timeout_s=1e-4)),
    )
    with tight:
        try:
            value = tight.predict_mrt_ms(server, 2500)
            metrics = tight.export_metrics()
        finally:
            # Let the abandoned solve finish so shutdown can join its worker.
            stalled.release.set()
        print(f"  answer still served (from the historical fallback): {value:.1f} ms")
        print(f"  degradations recorded: {int(metrics['degraded'])} "
              f"(timeouts: {int(metrics['timeouts'])})")

    print("\n-- 5: a concurrent load-generator run and the metrics export --")
    with service:
        report = LoadGenerator(
            service,
            LoadGenConfig(threads=8, requests_per_thread=40, servers=(server,)),
        ).run()
        metrics = report.metrics
        print(f"  {report.requests} requests in {report.elapsed_s:.2f}s "
              f"= {report.throughput_rps:.0f} req/s from 8 threads")
        print(f"  latency p50/p95/p99: {metrics['latency.p50_s'] * 1e3:.3f} / "
              f"{metrics['latency.p95_s'] * 1e3:.3f} / "
              f"{metrics['latency.p99_s'] * 1e3:.3f} ms")
        print(f"  cache hit rate: {metrics['cache.hit_rate']:.2f}; "
              f"degraded: {int(metrics.get('degraded', 0))}")


def run_with_optional_tracing() -> None:
    """Run :func:`main`, recording a trace when REPRO_TRACE_DIR is set."""
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if not trace_dir:
        main()
        return

    out = Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    jsonl_path = out / "trace.jsonl"
    TRACER.enable(JsonlSink(jsonl_path))
    try:
        with TRACER.span("example.prediction_service"):
            main()
    finally:
        TRACER.disable()
    chrome_path = out / "trace_chrome.json"
    count = write_chrome_trace(load_events_jsonl(jsonl_path), chrome_path)
    print(f"\ntrace: {jsonl_path} ({count} events); chrome: {chrome_path}")


if __name__ == "__main__":
    run_with_optional_tracing()
