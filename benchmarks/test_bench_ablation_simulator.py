"""Ablation benchmarks for the simulation substrate: event-driven processor
sharing vs plain FCFS at the application tier (DESIGN.md's starred
station-model decision) — compares both the cost and the response-time
behaviour the choice buys.

The simulator's event rate is measured by ``python -m bench`` (metric
``sim.engine.events_per_s`` on the ``testbed`` workload).
"""

import numpy as np

from repro.simulation.engine import Simulator
from repro.simulation.resources import FifoServer, ProcessorSharingServer
from repro.util.rng import spawn_rng
from repro.util.tables import format_table


def _drive(station, rng, n_jobs=20_000, lam=0.12, mean_service=5.376):
    sim = station.sim
    arrivals = np.cumsum(rng.exponential(1 / lam, n_jobs))
    demands = rng.exponential(mean_service, n_jobs)
    responses = []
    for at, d in zip(arrivals, demands):
        def submit(at=float(at), d=float(d)):
            start = sim.now
            station.submit(d, lambda: responses.append(sim.now - start))

        sim.schedule_at(float(at), submit)
    sim.run_until(float(arrivals[-1]) + 10_000.0)
    return float(np.mean(responses))


def test_bench_station_ps(benchmark):
    def run():
        sim = Simulator()
        ps = ProcessorSharingServer(sim, "cpu", max_concurrency=10**6)
        return _drive(ps, spawn_rng(3, "ps"))

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_bench_station_fcfs(benchmark):
    def run():
        sim = Simulator()
        fifo = FifoServer(sim, "cpu")
        return _drive(fifo, spawn_rng(3, "fcfs"))

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_bench_station_model_report(benchmark, emit):
    """PS vs FCFS mean response under identical offered load (rho = 0.645).

    For exponential service both give the same M/M/1 mean — the choice
    matters for response-time *distributions* and for non-exponential
    demands; the report records the measured means side by side.
    """

    def build_report() -> str:
        sim_ps = Simulator()
        ps = ProcessorSharingServer(sim_ps, "cpu", max_concurrency=10**6)
        mean_ps = _drive(ps, spawn_rng(3, "ps"))
        sim_fifo = Simulator()
        fifo = FifoServer(sim_fifo, "cpu")
        mean_fcfs = _drive(fifo, spawn_rng(3, "fcfs"))
        theory = 5.376 / (1 - 0.12 * 5.376)
        return format_table(
            ["station model", "mean response (ms)", "M/M/1 theory (ms)"],
            [["processor sharing", mean_ps, theory], ["FCFS", mean_fcfs, theory]],
            title="Ablation: application-tier station model (rho=0.645)",
        )

    emit("ablation_station", benchmark.pedantic(build_report, rounds=1, iterations=1))
