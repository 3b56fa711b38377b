"""The chaos experiment: serving-layer resilience under injected faults.

The ``delay`` experiment shows what the layered method costs per
prediction; this one shows what happens when it *breaks* online.  A
:class:`~repro.faults.plan.FaultPlan` browns out the LQN solver for a
window in the middle of a closed-loop load run (every solve raises
:class:`~repro.util.errors.ConvergenceError`, the cache is forcibly
expired, the worker pool picks up injected latency) while the layered
service — historical fallback registered, circuit breaker armed — keeps
answering.  The emitted **recovery report** documents the three
acceptance properties:

* the request error rate stays at or below the plan's documented
  ``error_rate_ceiling`` (0.0 here: a fallback-equipped service answers
  *every* request, degraded or not);
* the circuit breaker opens during the fault window and **re-closes**
  after it, with the time-to-recover measured on the experiment clock;
* how many requests each degradation path absorbed (breaker short-
  circuits, exhausted retries, forced cache expirations).

Everything is deterministic: one generator thread issues a seeded
request sequence, a shared :class:`~repro.util.clock.FakeClock` advances
a fixed tick per request (and absorbs injected latency via
``sleep=clock.advance``), fault triggers are time windows on that clock,
and retries back off by zero seconds.  Two runs with the same seed
produce byte-identical JSON reports — the CI ``chaos`` job diffs them.

Run directly for the CI-facing JSON report::

    python -m repro.experiments.chaos --fast --json report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.experiments.scenario import SEED, ExperimentResult, build_predictors
from repro.faults import FaultKind, FaultPlan, FaultSpec, INJECTOR
from repro.servers.catalogue import APP_SERV_S
from repro.service.admission import AdmissionConfig
from repro.service.breaker import BreakerConfig
from repro.service.loadgen import LoadGenConfig, LoadGenerator
from repro.service.service import PredictionService, ServiceConfig
from repro.util.clock import FakeClock
from repro.util.errors import ConvergenceError
from repro.util.floats import quantize_to_tick
from repro.util.tables import format_kv, format_table

__all__ = ["TICK_S", "default_fault_plan", "run", "main"]

#: Fake-clock seconds advanced after every load-generator request — the
#: experiment's unit of time.  Fault windows and breaker timings below
#: are all expressed in these ticks.
TICK_S = 0.05


def default_fault_plan(fault_window_s: tuple[float, float], *, seed: int) -> FaultPlan:
    """The canonical solver-brownout plan over ``fault_window_s``.

    Inside the window: every LQN solve raises a (transient, hence
    retried) :class:`ConvergenceError`; every 4th would-be cache hit has
    its entry forcibly expired, keeping pressure on the failing primary
    instead of letting warm entries mask the brownout; and every other
    pool execution picks up 4 ticks of injected latency.
    """
    return FaultPlan(
        name="solver-brownout",
        description=(
            "LQN solver fails for the whole fault window while the cache is "
            "leaking entries and the pool runs slow; the breaker must open, "
            "the fallback must answer, and recovery must follow the window."
        ),
        seed=seed,
        error_rate_ceiling=0.0,  # fallback registered: every request answered
        specs=(
            FaultSpec(
                site="lqn.solve",
                kind=FaultKind.ERROR,
                name="solver-errors",
                error=ConvergenceError,
                message="injected solver brownout",
                time_window=fault_window_s,
            ),
            FaultSpec(
                site="service.cache.expire",
                kind=FaultKind.TRIP,
                name="cache-expiry",
                every_nth=4,
                time_window=fault_window_s,
            ),
            FaultSpec(
                site="service.pool",
                kind=FaultKind.LATENCY,
                name="pool-latency",
                delay_s=4 * TICK_S,
                every_nth=2,
                time_window=fault_window_s,
            ),
        ),
    )


def _analyse_breaker(
    transitions: list[tuple[float, str, str]], *, tick_s: float = TICK_S
) -> dict[str, Any]:
    """Summarise the breaker's transition log into the recovery report.

    Every timestamp the fake clock produced is a whole number of ticks,
    so the report quantizes them (and the durations derived from them)
    back onto the tick grid before they reach any serialised artifact.
    """
    transitions = [
        (quantize_to_tick(at_s, tick_s), old, new) for at_s, old, new in transitions
    ]
    opened = [t for t in transitions if t[2] == "open"]
    closed = [t for t in transitions if t[2] == "closed"]
    recovered = bool(opened) and bool(transitions) and transitions[-1][2] == "closed"
    first_opened_at_s = opened[0][0] if opened else None
    reclosed_at_s = closed[-1][0] if recovered else None
    return {
        "transitions": [[at_s, old, new] for at_s, old, new in transitions],
        "opened": bool(opened),
        "recovered": recovered,
        "first_opened_at_s": first_opened_at_s,
        "reclosed_at_s": reclosed_at_s,
        "time_to_recover_s": (
            quantize_to_tick(reclosed_at_s - first_opened_at_s, tick_s)
            if recovered
            else None
        ),
    }


def run(fast: bool = False) -> ExperimentResult:
    """Drive the layered service through the brownout and report recovery."""
    historical, lqn, _hybrid, _ = build_predictors(fast=fast)
    requests = 80 if fast else 160
    total_s = requests * TICK_S
    fault_window_s = (0.25 * total_s, 0.5 * total_s)
    plan = default_fault_plan(fault_window_s, seed=SEED)

    clock = FakeClock()
    service = PredictionService(
        lqn,
        fallback=historical,
        config=ServiceConfig(
            # A coarse cache grid (~11 cells over the 100-1100 client
            # range) so the seeded stream produces steady would-be hits:
            # the forced-expiry TRIP is consulted on those only, and
            # warm entries would otherwise mask the brownout entirely.
            operand_step=100.0,
            admission=AdmissionConfig(
                max_retries=1, backoff_initial_s=0.0, timeout_s=30.0
            ),
            breaker=BreakerConfig(
                failure_threshold=3,
                recovery_time_s=10 * TICK_S,
                half_open_probes=1,
            ),
        ),
        clock=clock,
    )
    generator = LoadGenerator(
        service,
        LoadGenConfig(
            threads=1,  # one seeded request stream: the determinism anchor
            requests_per_thread=requests,
            servers=(APP_SERV_S.name,),
            client_range=(100, 1100),
            seed=SEED,
        ),
        clock=clock,
        on_request=lambda _n, _ok: clock.advance(TICK_S),
    )

    INJECTOR.arm(plan, clock=clock, sleep=clock.advance)
    try:
        with service:
            load = generator.run()
    finally:
        injected = INJECTOR.disarm()

    metrics = load.metrics
    assert service.breaker is not None  # configured above
    breaker = _analyse_breaker(service.breaker.transitions())
    total_requests = load.requests + load.errors
    error_rate = load.errors / total_requests if total_requests else 0.0
    degraded = {
        "breaker_open": int(metrics.get("degraded.breaker_open", 0)),
        "error": int(metrics.get("degraded.error", 0)),
        "timeout": int(metrics.get("degraded.timeout", 0)),
        "saturated": int(metrics.get("degraded.saturated", 0)),
        "total": int(metrics.get("degraded", 0)),
    }
    data = {
        "seed": SEED,
        "tick_s": TICK_S,
        "requests": total_requests,
        "total_s": quantize_to_tick(total_s, TICK_S),
        "fault_window_s": [quantize_to_tick(t, TICK_S) for t in fault_window_s],
        "plan": plan.describe(),
        "injected": injected,
        "errors": load.errors,
        "error_rate": error_rate,
        "error_rate_ceiling": plan.error_rate_ceiling,
        "within_ceiling": error_rate <= plan.error_rate_ceiling,
        "degraded": degraded,
        "breaker": breaker,
        "service": {
            "retries": int(metrics.get("retries", 0)),
            "cache_hits": int(metrics.get("cache.hits", 0)),
            "cache_misses": int(metrics.get("cache.misses", 0)),
            "cache_expirations": int(metrics.get("cache.expirations", 0)),
            "breaker_health": metrics.get("breaker.health", 1.0),
            "breaker_rejected": int(metrics.get("breaker.rejected", 0)),
        },
    }

    transitions_table = format_table(
        ["t (s)", "from", "to"],
        [(f"{at_s:.2f}", old, new) for at_s, old, new in breaker["transitions"]],
        title="Circuit-breaker transitions (fake-clock seconds)",
    )
    summary = format_kv(
        {
            "requests issued": total_requests,
            "fault window (s)": f"[{fault_window_s[0]:.2f}, {fault_window_s[1]:.2f})",
            "request errors": load.errors,
            "error rate / documented ceiling": (
                f"{error_rate:.4f} / {plan.error_rate_ceiling:.4f}"
            ),
            "faults injected": sum(injected.values()),
            "degraded via breaker short-circuit": degraded["breaker_open"],
            "degraded via exhausted retries": degraded["error"],
            "retries spent": data["service"]["retries"],
            "forced cache expirations": injected.get("cache-expiry", 0),
            "breaker recovered": breaker["recovered"],
            "time to recover (s)": (
                f"{breaker['time_to_recover_s']:.2f}"
                if breaker["time_to_recover_s"] is not None
                else "n/a"
            ),
            "final breaker health": f"{data['service']['breaker_health']:.3f}",
        },
        title=f"Chaos run: plan '{plan.name}' against service({lqn.name})",
    )

    return ExperimentResult(
        experiment_id="chaos",
        title="Chaos: fault-injected serving, degradation and recovery",
        rendered=summary + "\n\n" + transitions_table,
        data=data,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the chaos experiment, optionally dump JSON.

    ``--json PATH`` writes the recovery report as canonically sorted
    JSON; the CI ``chaos`` job runs this twice and diffs the files to
    prove the experiment is deterministic.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.chaos",
        description="Run the fault-injection chaos experiment.",
    )
    parser.add_argument("--fast", action="store_true", help="fast, coarser profile")
    parser.add_argument(
        "--json", metavar="PATH", help="write the recovery report as sorted JSON"
    )
    args = parser.parse_args(argv)
    result = run(fast=args.fast)
    print(result.rendered)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.data, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"recovery report written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
