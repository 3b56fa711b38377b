#!/usr/bin/env python
"""Quickstart: predict a new server's response times three ways.

The scenario of the paper in miniature:

1. "measure" the established AppServF on the simulated testbed and calibrate
   the layered queuing model from throughput + CPU utilisation;
2. benchmark the new AppServS's max throughput;
3. build the three predictors (historical, layered queuing, hybrid);
4. predict the new server's mean response time across a range of loads and
   compare against what the testbed actually measures.

Run:  python examples/quickstart.py
"""

from repro.experiments.scenario import build_predictors
from repro.experiments import ground_truth as gt
from repro.servers import APP_SERV_S
from repro.util.tables import format_series
from repro.workload import typical_workload
from repro.simulation import SimulationConfig, simulate_deployment


def main() -> None:
    print("Calibrating the three prediction methods (simulated testbed)...")
    historical, lqn, hybrid, calibration = build_predictors(fast=True)
    print(
        f"  layered queuing calibrated on {calibration.reference_server} in "
        f"{calibration.calibration_time_s:.2f}s"
    )
    print(
        f"  hybrid start-up delay: {hybrid.model.report.startup_delay_s:.3f}s "
        f"({hybrid.model.report.lqn_solves} layered solves)"
    )

    server = APP_SERV_S.name
    n_at_max = historical.clients_at_max(server)
    print(f"\nPredicting the NEW server {server} (max-throughput load ~{n_at_max:.0f} clients)")

    loads = [int(frac * n_at_max) for frac in (0.3, 0.6, 0.9, 1.2, 1.5)]
    config = SimulationConfig(duration_s=30.0, warmup_s=8.0, seed=99)
    series = {"measured (ms)": [], "historical (ms)": [], "layered queuing (ms)": [], "hybrid (ms)": []}
    for n in loads:
        measured = simulate_deployment(APP_SERV_S, typical_workload(n), config)
        series["measured (ms)"].append(measured.mean_response_ms)
        series["historical (ms)"].append(historical.predict_mrt_ms(server, n))
        series["layered queuing (ms)"].append(lqn.predict_mrt_ms(server, n))
        series["hybrid (ms)"].append(hybrid.predict_mrt_ms(server, n))

    print()
    print(format_series("clients", [float(n) for n in loads], series, precision=1))

    print("\nCapacity question: most clients meeting a 500 ms mean-RT goal")
    print(f"  historical (closed form) : {historical.max_clients(server, 500.0)}")
    print(f"  hybrid (closed form)     : {hybrid.max_clients(server, 500.0)}")
    solves_before = lqn.solver.solve_count
    capacity = lqn.max_clients(server, 500.0)
    print(
        f"  layered queuing (search)  : {capacity} "
        f"({lqn.solver.solve_count - solves_before} solver runs)"
    )


if __name__ == "__main__":
    main()
