"""Closed-loop load generation for the serving layer.

The paper measured its testbed with JMeter driving closed client
populations; this module is the analogue for the prediction service
itself.  :class:`LoadGenerator` runs N generator *threads*, each issuing
requests back-to-back (optionally with a think time) against anything
serving the ``Predictor`` protocol, drawing operating points from
seeded per-thread random streams so runs are reproducible and threads
are decorrelated (:mod:`repro.util.rng`'s common-random-numbers
discipline).  It measures real wall-clock throughput, so its numbers
are only as parallel as the machine running it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.rng import spawn_rng
from repro.util.validation import check_positive_int, require

__all__ = ["LoadGenConfig", "LoadReport", "LoadGenerator"]


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of one closed-loop load-generation run."""

    threads: int = 4
    requests_per_thread: int = 100
    servers: tuple[str, ...] = ("AppServS",)
    client_range: tuple[int, int] = (100, 1100)
    buy_fractions: tuple[float, ...] = (0.0,)
    # Mix of operations issued, as (operation, weight) pairs over
    # "mrt" / "throughput" / "capacity".
    operation_weights: tuple[tuple[str, float], ...] = (("mrt", 0.8), ("throughput", 0.2))
    capacity_goal_ms: float = 500.0
    think_time_s: float = 0.0
    seed: int = 2004

    def __post_init__(self) -> None:
        """Validate the run shape."""
        check_positive_int(self.threads, "threads")
        check_positive_int(self.requests_per_thread, "requests_per_thread")
        require(len(self.servers) > 0, "servers must be non-empty")
        require(
            self.client_range[0] >= 1 and self.client_range[1] >= self.client_range[0],
            "client_range must be a non-empty range of positive counts",
        )
        require(len(self.operation_weights) > 0, "operation_weights must be non-empty")
        known = {"mrt", "throughput", "capacity"}
        require(
            all(op in known for op, _ in self.operation_weights),
            f"operations must be among {sorted(known)}",
        )
        require(
            all(w >= 0 for _, w in self.operation_weights)
            and sum(w for _, w in self.operation_weights) > 0,
            "operation weights must be non-negative and not all zero",
        )
        require(self.think_time_s >= 0.0, "think_time_s must be >= 0")


@dataclass
class LoadReport:
    """What one load-generation run measured."""

    requests: int
    errors: int
    elapsed_s: float
    throughput_rps: float
    per_thread_requests: list[int] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)


class LoadGenerator:
    """Drive any ``Predictor``-protocol target under wall-clock load.

    The target needs the three prediction methods plus
    ``export_metrics()``, which a
    :class:`~repro.service.service.PredictionService` provides.
    """

    def __init__(
        self,
        service: Any,
        config: LoadGenConfig | None = None,
        *,
        clock: Clock = SYSTEM_CLOCK,
        on_request: Callable[[int, bool], None] | None = None,
    ):
        # on_request(completed_count, ok) fires after every request on
        # the issuing thread.  The chaos experiment uses it (with
        # threads=1) to advance a FakeClock per request, giving fault
        # time windows and breaker recovery a deterministic timebase.
        self.service = service
        self.config = config or LoadGenConfig()
        self._clock = clock
        self._on_request = on_request
        total = sum(w for _, w in self.config.operation_weights)
        self._ops = [op for op, _ in self.config.operation_weights]
        self._probs = [w / total for _, w in self.config.operation_weights]

    def _one_request(self, rng) -> None:
        """Issue one randomly drawn request against the service."""
        config = self.config
        server = config.servers[int(rng.integers(0, len(config.servers)))]
        lo, hi = config.client_range
        n_clients = int(rng.integers(lo, hi + 1))
        buy = config.buy_fractions[int(rng.integers(0, len(config.buy_fractions)))]
        op = self._ops[int(rng.choice(len(self._ops), p=self._probs))]
        operand = config.capacity_goal_ms if op == "capacity" else float(n_clients)
        if op == "mrt":
            self.service.predict_mrt_ms(server, operand, buy_fraction=buy)
        elif op == "throughput":
            self.service.predict_throughput(server, operand, buy_fraction=buy)
        else:
            self.service.max_clients(server, operand, buy_fraction=buy)

    def _worker(
        self, index: int, barrier: threading.Barrier, done: list[int], errors: list[int]
    ) -> None:
        """One generator thread's closed loop."""
        rng = spawn_rng(self.config.seed, f"loadgen:{index}")
        barrier.wait()
        for _ in range(self.config.requests_per_thread):
            try:
                self._one_request(rng)
                done[index] += 1
                ok = True
            except Exception:
                errors[index] += 1
                ok = False
            if self._on_request is not None:
                self._on_request(done[index] + errors[index], ok)
            if self.config.think_time_s > 0.0:
                time.sleep(self.config.think_time_s)

    def run(self) -> LoadReport:
        """Run the closed loop on every thread and report what happened.

        All threads start together (barrier) so the measured wall-clock
        window is genuinely concurrent; the report's throughput is total
        completed requests over that window.
        """
        config = self.config
        done = [0] * config.threads
        errors = [0] * config.threads
        barrier = threading.Barrier(config.threads + 1)
        threads = [
            threading.Thread(
                target=self._worker,
                args=(i, barrier, done, errors),
                name=f"repro-loadgen-{i}",
                daemon=True,
            )
            for i in range(config.threads)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = self._clock.perf_s()
        for thread in threads:
            thread.join()
        elapsed = self._clock.perf_s() - start
        total = sum(done)
        return LoadReport(
            requests=total,
            errors=sum(errors),
            elapsed_s=elapsed,
            throughput_rps=total / elapsed if elapsed > 0 else 0.0,
            per_thread_requests=list(done),
            metrics=self.service.export_metrics(),
        )

