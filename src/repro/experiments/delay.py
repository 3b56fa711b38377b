"""Section 8.5 — the delay when evaluating a prediction.

Measures, on this machine:

* the historical method's per-prediction delay (closed-form, ~microseconds);
* the layered method's per-solve delay and how it grows as the convergence
  criterion tightens (the paper's 20 ms criterion / 3 s solve trade-off);
* the hybrid method's one-off start-up delay (the paper's 11 s analogue)
  and its per-prediction delay afterwards;
* the cost of a *capacity* query (max clients under an SLA goal): closed
  form for historical/hybrid versus a search for the layered method
  (section 8.2), which solves its probes in a few batched sweeps.

Every per-prediction delay and every solve time in the criterion table is
the fastest of :data:`PASSES` timing passes, interleaved across the methods
(or criteria) being compared, so reruns on one machine agree.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Hashable

from repro.experiments import ground_truth as gt
from repro.experiments.scenario import ExperimentResult, build_predictors
from repro.hybrid.model import AdvancedHybridModel
from repro.lqn.builder import build_trade_model
from repro.lqn.solver import LqnSolver, SolverOptions
from repro.servers.catalogue import ALL_APP_SERVERS, APP_SERV_F, APP_SERV_S
from repro.trace import TRACER, RingBufferSink, summarize_events
from repro.util.tables import format_kv, format_table
from repro.workload.trade import typical_workload

__all__ = ["run"]


#: Timing passes behind every delay: each figure is the fastest pass.
PASSES = 7


def _time_predictions(
    methods: dict[Hashable, tuple[Callable[[int], object], int]],
    passes: int = PASSES,
    timer: Callable[[], float] = time.perf_counter,
) -> dict[Hashable, float]:
    """Per-call delay of each method (s): the minimum over ``passes`` passes.

    ``methods`` maps a name to ``(fn, calls)``; one pass of a method makes
    ``calls`` calls ``fn(n)`` over a spread of client counts.  Passes are
    interleaved across methods (A, B, C, A, B, C, …), so a stall of the
    machine costs one pass of each method instead of every pass of one.
    """
    best = dict.fromkeys(methods, math.inf)
    for _ in range(passes):
        for name, (fn, calls) in methods.items():
            start = timer()
            for i in range(calls):
                fn(400 + i % 700)
            best[name] = min(best[name], (timer() - start) / calls)
    return best


def run(fast: bool = False) -> ExperimentResult:
    """Measure all the section-8.5 delays."""
    historical, lqn, hybrid, calibration = build_predictors(fast=fast)
    calls = 200 if fast else 2000

    delays = _time_predictions(
        {
            "historical": (lambda n: historical.predict_mrt_ms(APP_SERV_S.name, n), calls),
            "hybrid": (lambda n: hybrid.predict_mrt_ms(APP_SERV_S.name, n), calls),
            "layered": (
                lambda n: lqn.predict_mrt_ms(APP_SERV_S.name, n),
                max(10, calls // 50),
            ),
        }
    )
    hist_delay, hybrid_delay, lqn_delay = (
        delays["historical"], delays["hybrid"], delays["layered"]
    )

    # Convergence criterion vs solve time (the paper's 20 ms discussion).
    parameters = calibration.to_model_parameters()
    model = build_trade_model(APP_SERV_F, typical_workload(1200), parameters)
    solvers = {
        criterion: LqnSolver(SolverOptions(convergence_criterion_ms=criterion))
        for criterion in (20.0, 5.0, 1.0, 0.1)
    }
    solve_times = _time_predictions(
        {criterion: (lambda n, s=solver: s.solve(model), 1) for criterion, solver in solvers.items()}
    )
    rows = []
    for criterion, solver in solvers.items():
        solution = solver.solve(model)
        rows.append(
            (
                criterion,
                solve_times[criterion] * 1000.0,
                solution.iterations,
                solution.response_ms["browse"],
            )
        )
    criterion_table = format_table(
        ["criterion (ms)", f"solve time, min of {PASSES} (ms)", "iterations", "predicted MRT (ms)"],
        rows,
        title="Layered solver: convergence criterion vs solve time (AppServF, 1200 clients)",
    )

    # Hybrid start-up delay: rebuild the hybrid from scratch; the build
    # times itself.
    rebuilt = AdvancedHybridModel.build(parameters, list(ALL_APP_SERVERS))
    startup = rebuilt.report.startup_delay_s

    # Capacity query costs.
    hist_before = historical.model.predictions_made
    historical.max_clients(APP_SERV_S.name, 500.0)
    hist_capacity_predictions = historical.model.predictions_made - hist_before
    # The layered search solves its probes in rounds, one sweep each: the
    # trace counts the sweeps, the solver the points solved.
    lqn_before = lqn.solver.solve_count
    sink = RingBufferSink()
    TRACER.enable(sink)
    try:
        lqn.max_clients(APP_SERV_S.name, 500.0)
    finally:
        # detach, not disable: under ``runner --trace`` the runner's own
        # sink is also attached and must keep recording.
        TRACER.detach(sink)
    lqn_capacity_solves = lqn.solver.solve_count - lqn_before
    sweeps = summarize_events(sink.events()).spans.get("lqn.sweep")
    lqn_capacity_sweeps = sweeps.count if sweeps is not None else 0

    summary = format_kv(
        {
            "historical per-prediction delay (us)": hist_delay * 1e6,
            "hybrid per-prediction delay (us)": hybrid_delay * 1e6,
            "layered per-prediction delay (ms)": lqn_delay * 1e3,
            "layered/historical delay ratio": lqn_delay / hist_delay,
            "hybrid start-up delay (s)": startup,
            "hybrid start-up LQN solves": rebuilt.report.lqn_solves,
            "capacity query, historical (model evaluations)": hist_capacity_predictions,
            "capacity query, layered (points solved)": lqn_capacity_solves,
            "capacity query, layered (sweeps)": lqn_capacity_sweeps,
            "paper's anchors": "LQNS up to 3 s/solve; hybrid start-up 11 s; historical ~instant",
        },
        title="Section 8.5: prediction-evaluation delays",
    )

    return ExperimentResult(
        experiment_id="delay",
        title="Section 8.5: prediction delays",
        rendered=criterion_table + "\n\n" + summary,
        data={
            "historical_delay_s": hist_delay,
            "hybrid_delay_s": hybrid_delay,
            "lqn_delay_s": lqn_delay,
            "startup_delay_s": startup,
            "criterion_rows": rows,
            "lqn_capacity_solves": lqn_capacity_solves,
            "lqn_capacity_sweeps": lqn_capacity_sweeps,
        },
    )
