"""The overload experiment: finite capacity, loss, and a retry storm.

The paper's methods all assume every offered request is eventually
served; a real e-commerce front end sheds load at its accept queue long
before that assumption holds.  This experiment sweeps an open
(constant-rate) browse workload across the loss knee of a
finite-capacity AppServS — offered rates from well below saturation to
well past it — and compares three loss predictions against the
simulated testbed at every point:

1. **simulation** — the discrete-event testbed with
   ``SimulationConfig.queue_capacity`` bounding the accept queue;
   overload becomes a measured loss rate instead of unbounded queue
   growth;
2. **analytic** — the layered model with the same bound on the
   application processor (``app_queue_capacity``), solved through the
   finite-capacity effective-arrival fixed point of
   :mod:`repro.lqn.loss`, plus the raw single-station M/M/c/K closed
   form as an anchor;
3. **historical** — a :class:`~repro.historical.loss.LossRateModel`
   calibrated on a subset of the simulated points and refitted with the
   held-out one, exactly the calibrate/refit workflow of the other
   historical relationships.

Two integration legs ride along: a **drop-bearing trace round trip**
(synthesise a trace, mark drops, persist the 4-column CSV, re-ingest it
as a :class:`~repro.workload.records.RecordSet` and feed the derived
observation to the historical model) and a **retry storm** driven through
:mod:`repro.faults` and the serving layer — a TRIP at the
``service.admission`` site rejects every request inside a storm window
while the (deterministic, fake-clocked) client retries each rejection,
amplifying the offered load exactly as impatient retries amplify a real
overload.

Everything is seeded and clocked deterministically, so two runs produce
byte-identical JSON; the CI ``overload`` job diffs them and the golden
test pins the fast-mode payload.

Run directly for the CI-facing JSON report::

    python -m repro.experiments.overload --fast --json report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.experiments.scenario import (
    FAST_CONFIG,
    MEASUREMENT_CONFIG,
    SEED,
    SOLVER_OPTIONS,
    ExperimentResult,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec, INJECTOR
from repro.historical.loss import LossRateModel, observations_from_record_sets
from repro.lqn.builder import build_trade_model
from repro.lqn.loss import mmck_loss_probability
from repro.lqn.solver import LqnSolver
from repro.prediction.interface import HistoricalPredictor
from repro.servers.catalogue import APP_SERV_S
from repro.service.admission import AdmissionConfig, ServiceSaturatedError
from repro.service.service import PredictionService, ServiceConfig
from repro.simulation.system import SimulatedDeployment
from repro.util.clock import FakeClock
from repro.util.tables import format_kv, format_table
from repro.workload.generators import (
    TraceEntry,
    generate_trace,
    load_trace_csv,
    save_trace_csv,
)
from repro.workload.records import records_from_trace_entries
from repro.workload.trade import browse_class

__all__ = ["QUEUE_CAPACITY", "TICK_S", "admission_storm_plan", "run", "main"]

#: Accept-queue bound used on both sides of the comparison: the simulated
#: thread pool's total occupancy and the layered model's application
#: processor occupancy (the K of M/M/c/K).
QUEUE_CAPACITY = 60

#: Fake-clock seconds advanced after every retry-storm attempt.
TICK_S = 0.05

# Offered browse rates (req/s).  AppServS saturates near 85 req/s, so the
# grids cross the loss knee: zero loss at the left edge, >30 % at the right.
FAST_RATES = (40.0, 60.0, 75.0, 85.0, 95.0, 110.0, 130.0)
FULL_RATES = (
    30.0, 40.0, 50.0, 60.0, 70.0, 75.0, 80.0, 85.0,
    90.0, 95.0, 100.0, 110.0, 120.0, 130.0, 140.0,
)


def admission_storm_plan(storm_window_s: tuple[float, float], *, seed: int) -> FaultPlan:
    """A hard admission outage over ``storm_window_s``.

    Every consult of the ``service.admission`` site inside the window
    trips a forced rejection — the serving-layer equivalent of the
    simulator's full accept queue.  The client retries each rejection,
    so the storm's offered load is amplified by the retry budget.
    """
    return FaultPlan(
        name="admission-storm",
        description=(
            "admission rejects everything inside the storm window; retrying "
            "clients multiply the offered load while the outage lasts"
        ),
        seed=seed,
        error_rate_ceiling=1.0,  # no fallback: storm-window requests are lost
        specs=(
            FaultSpec(
                site="service.admission",
                kind=FaultKind.TRIP,
                name="admission-rejections",
                time_window=storm_window_s,
            ),
        ),
    )


def _simulate_point(rate: float, *, fast: bool) -> dict:
    """One simulated measurement of the bounded server at ``rate`` req/s."""
    config = (FAST_CONFIG if fast else MEASUREMENT_CONFIG).with_overrides(
        queue_capacity=QUEUE_CAPACITY
    )
    deployment = SimulatedDeployment(
        placements={APP_SERV_S.name: (APP_SERV_S, {})},
        config=config,
        open_arrivals={APP_SERV_S.name: {browse_class(): rate}},
    )
    result = deployment.run()
    return {
        "offered_req_per_s": rate,
        "loss_rate": result.loss_rate,
        "carried_req_per_s": result.throughput_req_per_s,
        "dropped_requests": result.dropped_requests,
        "mean_response_ms": result.mean_response_ms,
        "app_cpu_utilisation": result.app_cpu_utilisation[APP_SERV_S.name],
    }


def _analytic_point(rate: float, params) -> dict:
    """The layered model's finite-capacity solution at ``rate`` req/s."""
    model = build_trade_model(
        APP_SERV_S,
        {},
        params,
        open_workload={browse_class(): rate},
        app_queue_capacity=QUEUE_CAPACITY,
    )
    solution = LqnSolver(SOLVER_OPTIONS).solve(model)
    loss = solution.loss_probability["open_browse"]
    return {
        "loss_probability": loss,
        "station_loss_probability": solution.station_loss_probability["app_cpu"],
        "carried_req_per_s": solution.throughput_req_per_s["open_browse"],
        "response_ms": solution.response_ms["open_browse"],
        "total_loss_rate_req_per_s": solution.total_loss_rate_req_per_s(),
    }


def _closed_form_anchor(rate: float, params) -> float:
    """The raw M/M/c/K blocking probability of the application CPU alone."""
    demand_ms = params.request_types["browse"].app_demand_ms / (
        APP_SERV_S.cpu_speed / params.reference_speed
    )
    offered_erlangs = (rate / 1000.0) * demand_ms
    return mmck_loss_probability(offered_erlangs, APP_SERV_S.cores, QUEUE_CAPACITY)


def _k_inf_degeneration(rate: float, params) -> bool:
    """Does a huge capacity reproduce the unbounded solution bitwise?"""
    sc = browse_class()
    bounded = LqnSolver(SOLVER_OPTIONS).solve(
        build_trade_model(
            APP_SERV_S, {}, params, open_workload={sc: rate}, app_queue_capacity=10**5
        )
    )
    unbounded = LqnSolver(SOLVER_OPTIONS).solve(
        build_trade_model(APP_SERV_S, {}, params, open_workload={sc: rate})
    )
    return (
        bounded.response_ms == unbounded.response_ms
        and bounded.throughput_req_per_s == unbounded.throughput_req_per_s
        and bounded.loss_probability["open_browse"] == 0.0
    )


def _trace_roundtrip(rate: float, sim_loss: float) -> dict:
    """Persist a drop-bearing trace and re-ingest it as a record set.

    A deterministic arrival trace at the sweep's top rate has every
    k-th request marked dropped, with k chosen so the marked fraction
    approximates the simulated loss rate; the 4-column CSV round-trips
    through :func:`load_trace_csv` and :func:`records_from_trace_entries`,
    and the derived ``(offered, loss)`` observation is exactly what
    :meth:`HistoricalModel.calibrate_loss` consumes.
    """
    sc = browse_class()
    entries = generate_trace(sc, rate, 20.0, seed=SEED, n_clients=50)
    every_kth = max(2, round(1.0 / sim_loss)) if sim_loss > 0.0 else 0
    marked = [
        TraceEntry(
            arrival_ms=entry.arrival_ms,
            operation=entry.operation,
            client_id=entry.client_id,
            dropped=every_kth > 0 and index % every_kth == every_kth - 1,
        )
        for index, entry in enumerate(entries)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "overload_trace.csv"
        save_trace_csv(marked, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        reloaded = load_trace_csv(path)
    records = records_from_trace_entries(reloaded)
    observation = observations_from_record_sets([records])[0]
    return {
        "n_entries": len(marked),
        "csv_header": header,
        "roundtrip_equal": reloaded == marked,
        "marked_every_kth": every_kth,
        "etl_loss_rate": records.loss_rate,
        "etl_dropped": records.dropped_count,
        "observation": list(observation),
    }


def _retry_storm(fast: bool, historical_model) -> dict:
    """Drive the serving layer through the admission storm.

    One seeded client issues ``n_requests`` predictions on a fake clock,
    retrying each admission rejection up to ``max_client_retries`` times.
    Inside the storm window every admission consult is tripped, so each
    request burns its full retry budget and is lost — and the attempt
    stream the service sees is amplified by exactly that budget.
    """
    n_requests = 60 if fast else 120
    max_client_retries = 2
    total_s = n_requests * TICK_S
    storm_window_s = (0.25 * total_s, 0.6 * total_s)
    plan = admission_storm_plan(storm_window_s, seed=SEED)

    clock = FakeClock()
    service = PredictionService(
        HistoricalPredictor(historical_model),
        config=ServiceConfig(
            admission=AdmissionConfig(
                max_retries=0, backoff_initial_s=0.0, timeout_s=30.0
            ),
        ),
        clock=clock,
    )

    attempts = rejected = lost = served = 0
    in_window_requests = 0
    INJECTOR.arm(plan, clock=clock, sleep=clock.advance)
    try:
        with service:
            for index in range(n_requests):
                n_clients = 100 + index  # distinct cache cells: every
                # attempt reaches admission instead of the L1 cache
                started_in_window = (
                    storm_window_s[0] <= clock.monotonic_s() < storm_window_s[1]
                )
                in_window_requests += int(started_in_window)
                for attempt in range(max_client_retries + 1):
                    attempts += 1
                    try:
                        service.predict_mrt_ms(APP_SERV_S.name, n_clients)
                    except ServiceSaturatedError:
                        rejected += 1
                        clock.advance(TICK_S)
                        if attempt == max_client_retries:
                            lost += 1
                        continue
                    served += 1
                    clock.advance(TICK_S)
                    break
    finally:
        injected = INJECTOR.disarm()

    counters = service.metrics.snapshot().counters
    return {
        "tick_s": TICK_S,
        "requests": n_requests,
        "max_client_retries": max_client_retries,
        "storm_window_s": list(storm_window_s),
        "plan": plan.describe(),
        "injected": injected,
        "attempts": attempts,
        "served": served,
        "rejected_attempts": rejected,
        "lost_requests": lost,
        "requests_started_in_window": in_window_requests,
        "client_loss_rate": lost / n_requests,
        "retry_amplification": attempts / n_requests,
        "attempts_conserved": attempts == served + rejected,
        "requests_conserved": n_requests == served + lost,
        "degraded_saturated": int(counters.get("degraded.saturated", 0)),
    }


def run(fast: bool = False) -> ExperimentResult:
    """Sweep the loss knee and drive the retry storm; return the artefact."""
    from repro.experiments import ground_truth as gt
    from repro.experiments.scenario import build_historical_model

    params = gt.lqn_calibration(fast=fast).to_model_parameters()
    rates = FAST_RATES if fast else FULL_RATES

    sweep = []
    for rate in rates:
        sim = _simulate_point(rate, fast=fast)
        analytic = _analytic_point(rate, params)
        sweep.append(
            {
                "offered_req_per_s": rate,
                "sim": sim,
                "analytic": analytic,
                "closed_form_mmck_loss": _closed_form_anchor(rate, params),
            }
        )

    # Historical: calibrate on all but the last simulated point, then
    # refit with the held-out one — the standard refit-with-more-data flow.
    observations = [
        (point["offered_req_per_s"], point["sim"]["loss_rate"]) for point in sweep
    ]
    calibrated = LossRateModel.calibrate(APP_SERV_S.name, observations[:-1])
    refitted = calibrated.refit(observations[-1:])
    for point in sweep:
        point["historical"] = {
            "loss_rate": refitted.predict_loss_rate(point["offered_req_per_s"]),
            "carried_req_per_s": refitted.predict_carried_req_per_s(
                point["offered_req_per_s"]
            ),
        }

    first_lossy = next(
        (p["offered_req_per_s"] for p in sweep if p["sim"]["loss_rate"] > 0.0), None
    )
    trace_leg = _trace_roundtrip(rates[-1], sweep[-1]["sim"]["loss_rate"])
    storm = _retry_storm(fast, build_historical_model(fast=fast))

    data = {
        "seed": SEED,
        "server": APP_SERV_S.name,
        "queue_capacity": QUEUE_CAPACITY,
        "offered_rates_req_per_s": list(rates),
        "sweep": sweep,
        "historical_calibration": {
            "calibrated_on_points": len(observations) - 1,
            "carried_capacity_req_per_s": calibrated.carried_capacity_req_per_s,
            "refit_carried_capacity_req_per_s": refitted.carried_capacity_req_per_s,
        },
        "first_lossy_offered_req_per_s": first_lossy,
        "k_inf_bitwise_degeneration": _k_inf_degeneration(rates[0], params),
        "trace_roundtrip": trace_leg,
        "retry_storm": storm,
    }

    sweep_table = format_table(
        ["offered", "sim loss", "lqn loss", "M/M/c/K", "hist loss", "sim carried", "lqn carried"],
        [
            (
                f"{p['offered_req_per_s']:.0f}",
                f"{p['sim']['loss_rate']:.4f}",
                f"{p['analytic']['loss_probability']:.4f}",
                f"{p['closed_form_mmck_loss']:.4f}",
                f"{p['historical']['loss_rate']:.4f}",
                f"{p['sim']['carried_req_per_s']:.1f}",
                f"{p['analytic']['carried_req_per_s']:.1f}",
            )
            for p in sweep
        ],
        title=f"Loss knee sweep (AppServS, K={QUEUE_CAPACITY})",
    )
    summary = format_kv(
        {
            "queue capacity K": QUEUE_CAPACITY,
            "offered rates (req/s)": f"{rates[0]:.0f}..{rates[-1]:.0f}",
            "first lossy offered rate": (
                f"{first_lossy:.0f}" if first_lossy is not None else "none"
            ),
            "historical C (calibrated / refit)": (
                f"{calibrated.carried_capacity_req_per_s:.1f} / "
                f"{refitted.carried_capacity_req_per_s:.1f}"
            ),
            "K->inf degenerates bitwise": data["k_inf_bitwise_degeneration"],
            "trace round trip (4-col CSV)": trace_leg["roundtrip_equal"],
            "ETL loss rate from trace": f"{trace_leg['etl_loss_rate']:.4f}",
            "storm: requests / attempts": f"{storm['requests']} / {storm['attempts']}",
            "storm: retry amplification": f"{storm['retry_amplification']:.2f}x",
            "storm: lost requests": storm["lost_requests"],
            "storm: conservation holds": (
                storm["attempts_conserved"] and storm["requests_conserved"]
            ),
        },
        title="Overload: finite capacity, loss and the retry storm",
    )

    return ExperimentResult(
        experiment_id="overload",
        title="Overload: loss knee, three-way prediction and retry storm",
        rendered=summary + "\n\n" + sweep_table,
        data=data,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the overload experiment, optionally dump JSON.

    ``--json PATH`` writes the payload as canonically sorted JSON; the CI
    ``overload`` job runs this twice and diffs the files to prove the
    sweep, the trace round trip and the retry storm are deterministic.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.overload",
        description="Run the finite-capacity overload experiment.",
    )
    parser.add_argument("--fast", action="store_true", help="fast, coarser profile")
    parser.add_argument(
        "--json", metavar="PATH", help="write the payload as sorted JSON"
    )
    args = parser.parse_args(argv)
    result = run(fast=args.fast)
    print(result.rendered)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.data, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"payload written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
