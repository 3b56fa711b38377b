"""Max-throughput benchmarking of (new) server architectures.

The system model's second supporting service (section 2 of the paper) lets
"application-specific benchmarks … be run on new server architectures so as
to calibrate their request processing speeds".  Both the historical method
(relationship 2 takes a new server's max throughput as input) and the
layered queuing method (processing times are scaled by a request-processing
speed ratio) rely on this.

The benchmark drives the simulated server with an aggressive closed client
population and grows it until throughput stops increasing — the plateau is
the max throughput under that workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.servers.architecture import ServerArchitecture
from repro.simulation.system import SimulationConfig, simulate_deployment
from repro.util.validation import check_positive, check_positive_int
from repro.workload.service_class import ServiceClass
from repro.workload.trade import typical_workload

__all__ = ["BenchmarkResult", "measure_max_throughput"]


@dataclass(frozen=True, slots=True)
class BenchmarkResult:
    """Outcome of one max-throughput benchmark."""

    server: str
    max_throughput_req_per_s: float
    clients_at_plateau: int
    runs: int
    benchmark_time_s: float


def measure_max_throughput(
    arch: ServerArchitecture,
    workload_for: "callable[[int], dict[ServiceClass, int]] | None" = None,
    *,
    initial_clients: int = 256,
    plateau_tolerance: float = 0.02,
    duration_s: float = 40.0,
    warmup_s: float = 10.0,
    seed: int = 77,
    max_doublings: int = 8,
) -> BenchmarkResult:
    """Measure a server's max throughput under a workload shape.

    ``workload_for(n)`` builds the workload for ``n`` clients (defaults to
    the typical all-browse workload).  Client counts double until throughput
    grows by less than ``plateau_tolerance`` between steps.
    """
    import time as _time

    check_positive_int(initial_clients, "initial_clients")
    check_positive(plateau_tolerance, "plateau_tolerance")
    if workload_for is None:
        workload_for = typical_workload

    start = _time.perf_counter()
    config = SimulationConfig(duration_s=duration_s, warmup_s=warmup_s, seed=seed)
    clients = initial_clients
    best = 0.0
    runs = 0
    plateau_clients = clients
    for _ in range(max_doublings):
        result = simulate_deployment(arch, workload_for(clients), config)
        runs += 1
        throughput = result.throughput_req_per_s
        if best > 0 and throughput < best * (1.0 + plateau_tolerance):
            best = max(best, throughput)
            plateau_clients = clients
            break
        best = max(best, throughput)
        plateau_clients = clients
        clients *= 2
    return BenchmarkResult(
        server=arch.name,
        max_throughput_req_per_s=best,
        clients_at_plateau=plateau_clients,
        runs=runs,
        benchmark_time_s=_time.perf_counter() - start,
    )
