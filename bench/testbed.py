"""The testbed workload: the simulated measurement loop behind every experiment.

Every point is one ``simulate_deployment`` call.  Passes over all points
are interleaved and repeated while they fit in the run's seconds (at
least two), and each point keeps its fastest wall time.  The traced run
makes one untraced pass, then profiles one server's points with
``cProfile``: a span per event would cost more than the event it times.
"""

from __future__ import annotations

import cProfile
import json
import math
import pstats
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from repro import (
    APP_SERV_F,
    APP_SERV_S,
    APP_SERV_VF,
    ServerArchitecture,
    SimulationConfig,
    build_trade_model,
    mixed_workload,
    simulate_deployment,
    typical_workload,
)
from repro.historical.throughput import gradient_from_think_time
from repro.hybrid.model import lqn_max_throughput
from repro.simulation.metrics import MetricsCollector
from repro.util.rng import RngStreams
from repro.util.tables import format_table

from bench import spec
from bench.serving import model_parameters
from bench.stats import tail

THINK_TIME_MS = 7000.0
#: Each point keeps the fastest of at least this many passes; more run
#: only while another pass fits in the run's seconds.  A pass takes 11-15 s
#: on the reference machine, so a 30 s run makes two there.
MIN_PASSES = 2
ARCHITECTURES = {arch.name: arch for arch in (APP_SERV_S, APP_SERV_F, APP_SERV_VF)}
#: Points at or past this load (x clients at max) are also checked by the
#: bottleneck law, and Little's law allows them the start-up transient.
KNEE = 0.9
#: Little's law tolerance at and past the knee.  There the queue is still
#: draining the start-up overshoot during the 22 s window, which makes
#: X(R+Z)/N read 1.05-1.15 (ten seeds); below the knee it reads 0.92-1.06.
KNEE_LITTLE_BAND = 0.20

# Profiled simulator modules by layer.  Code outside ``repro.simulation``
# (helpers, C functions) is charged to the layer of its caller, except
# random draws, which are charged to ``samplers`` wherever they happen.
MODULE_LAYERS = {
    "engine": "engine",
    "events": "engine",
    "resources": "stations",
    "appserver": "stations",
    "database": "stations",
    "cache": "stations",
    "distributions": "samplers",
    "metrics": "metrics",
    "clients": "clients",
    "open_clients": "clients",
}
LAYERS = ("engine", "stations", "samplers", "metrics", "clients", "other")


def _code_key(code) -> tuple:
    """The ``pstats`` key of a Python function's code object."""
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _counted(method, counter: list[int]):
    def draw(*args, **kwargs):
        counter[0] += 1
        return method(*args, **kwargs)

    return draw


class _CountingRng:
    """A numpy ``Generator`` whose every draw passes through :func:`_counted`.

    NumPy's generator methods are invisible to ``cProfile``, so their time
    would land in whichever simulator function draws.  Routing them
    through one Python frame both counts the draws and gives their time
    a profile entry of its own.
    """

    def __init__(self, rng, counter: list[int]):
        self._rng = rng
        self._counter = counter

    def __getattr__(self, name: str):
        value = getattr(self._rng, name)
        if callable(value):
            value = _counted(value, self._counter)
            setattr(self, name, value)
        return value


DRAW_KEY = _code_key(_counted(None, []).__code__)
RECORD_KEY = _code_key(MetricsCollector.record.__code__)


@contextmanager
def _counting_draws(counter: list[int]):
    """Wrap every simulator random stream in a :class:`_CountingRng`."""
    original = RngStreams.get

    def get(streams, name):
        return _CountingRng(original(streams, name), counter)

    RngStreams.get = get
    try:
        yield
    finally:
        RngStreams.get = original


class SimRun(NamedTuple):
    """One point, ready to simulate."""

    point: spec.SimPoint
    arch: ServerArchitecture
    workload: dict
    config: SimulationConfig
    bound_rps: float  # the bottleneck law's throughput bound (LQN demands)


def setup(points: list[spec.SimPoint]) -> list[SimRun]:
    """Clients at max per architecture (bottleneck law), then every point's run."""
    parameters = model_parameters()
    gradient = gradient_from_think_time(THINK_TIME_MS)
    n_at_max = {
        name: lqn_max_throughput(build_trade_model(arch, typical_workload(100), parameters))
        / gradient
        for name, arch in ARCHITECTURES.items()
    }
    runs = []
    for point in points:
        arch = ARCHITECTURES[point.server]
        clients = max(1, int(round(point.load * n_at_max[point.server])))
        workload = (
            mixed_workload(clients, point.buy_fraction)
            if point.buy_fraction
            else typical_workload(clients)
        )
        config = SimulationConfig(
            duration_s=spec.SIM_DURATION_S,
            warmup_s=spec.SIM_WARMUP_S,
            seed=point.seed,
            queue_capacity=point.queue_capacity,
        )
        bound = lqn_max_throughput(build_trade_model(arch, workload, parameters))
        runs.append(SimRun(point, arch, workload, config, bound))
    return runs


def _fingerprint(result) -> tuple:
    return (
        result.events_processed,
        result.mean_response_ms,
        result.samples,
        result.dropped_requests,
        result.throughput_req_per_s,
    )


def run_pass(runs: list[SimRun]) -> list[tuple[float, object]]:
    """Simulate every point once: ``(wall seconds, result)`` per point."""
    timed = []
    for run in runs:
        start = time.perf_counter()
        result = simulate_deployment(run.arch, run.workload, run.config)
        timed.append((time.perf_counter() - start, result))
    return timed


def check(runs: list[SimRun], results: list[list]) -> list[str]:
    """Each point repeats bitwise, is finite, loses requests exactly when
    bounded, and obeys the operational laws; ``results[i]`` are point
    ``i``'s runs."""
    problems = []
    for run, repeats in zip(runs, results):
        label, first = run.point.label, repeats[0]
        if any(_fingerprint(r) != _fingerprint(first) for r in repeats[1:]):
            problems.append(f"{label}: repeated runs disagree")
        values = (first.mean_response_ms, first.throughput_req_per_s, first.loss_rate)
        if not all(math.isfinite(v) for v in values) or first.samples <= 0:
            problems.append(f"{label}: non-finite or empty result {values}")
            continue
        if (first.dropped_requests > 0) != (run.point.queue_capacity is not None):
            problems.append(f"{label}: {first.dropped_requests} drops")
        # A rate estimated from n completions has a relative standard error
        # of about 1/sqrt(n); four of them (at least 10%) keep false alarms
        # rare on the small points.
        band = max(0.10, 4.0 / math.sqrt(first.samples))
        past_knee = run.point.load >= KNEE
        if run.point.queue_capacity is None:
            # Little's law, N = X (R + Z), on every unbounded point.
            clients = sum(run.workload.values())
            little = first.throughput_req_per_s / 1e3 * (first.mean_response_ms + THINK_TIME_MS)
            if abs(little / clients - 1.0) > (max(band, KNEE_LITTLE_BAND) if past_knee else band):
                problems.append(f"{label}: Little's law X(R+Z)/N = {little / clients:.3f}")
        if past_knee and abs(first.throughput_req_per_s / run.bound_rps - 1.0) > band:
            problems.append(
                f"{label}: throughput {first.throughput_req_per_s:.1f} req/s is not within "
                f"{band:.0%} of the bottleneck bound {run.bound_rps:.1f} req/s"
            )
    return problems


def _profile_layers(raw: dict) -> dict[str, float]:
    """Group ``tottime`` into layers, charging non-simulator code to its caller."""
    memo: dict = {}

    def own_layer(func) -> str | None:
        if func == DRAW_KEY:
            return "samplers"
        path = Path(func[0])
        if path.parent.name == "simulation" and path.parent.parent.name == "repro":
            return MODULE_LAYERS.get(path.stem, "other")
        return None

    def shares(func, visiting: frozenset) -> dict[str, float]:
        """How ``func``'s time divides among layers (by its callers' layers)."""
        if func in memo:
            return memo[func]
        layer = own_layer(func)
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = raw[func][4] if func in raw else {}
            weights = {c: v[3] for c, v in callers.items() if c not in visiting}
            total = sum(weights.values())
            result = {} if total else {"other": 1.0}
            for caller, weight in weights.items() if total else ():
                for key, share in shares(caller, visiting | {func}).items():
                    result[key] = result.get(key, 0.0) + share * weight / total
        memo[func] = result
        return result

    seconds = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, tottime, _, callers) in raw.items():
        own = own_layer(func)
        by_caller = {c: v[2] for c, v in callers.items()}
        if own is not None or not sum(by_caller.values()):
            for key, share in shares(func, frozenset()).items():
                seconds[key] += tottime * share
            continue
        scale = tottime / sum(by_caller.values())
        for caller, caller_tottime in by_caller.items():
            for key, share in shares(caller, frozenset({func})).items():
                seconds[key] += caller_tottime * scale * share
    return seconds


def _metrics(runs: list[SimRun], passes) -> tuple[dict, dict]:
    """Throughput from each point's best time; latency is a point's mean
    time, the median over passes.  (The median point's own time would
    follow whichever of two similar points ranks ninth: ±15%.)"""
    best = [min(done[i][0] for done in passes) for i in range(len(runs))]
    results = [r for _, r in passes[0]]
    requests = sum(r.samples for r in results)
    tail_s, tail_label = tail(sorted(t for done in passes for t, _ in done))
    point_s = statistics.median(sum(t for t, _ in done) / len(done) for done in passes)
    metrics = {
        "throughput_rps": (requests / sum(best), "req/s"),
        "latency_p50_ms": (point_s * 1e3, "ms"),
    }
    detail = {
        "samples": len(runs) * len(passes),
        "latency_tail_ms": tail_s * 1e3,
        "latency_tail_is": tail_label,
        "passes": len(passes),
        "simulated_requests": requests,
        "points": [
            {"point": run.point.label, "best_s": b, "events": r.events_processed,
             "samples": r.samples, "dropped": r.dropped_requests,
             "throughput_per_bound": r.throughput_req_per_s / run.bound_rps}
            for run, b, r in zip(runs, best, results)
        ],
    }
    return metrics, detail


def _traced(runs: list[SimRun], untraced: list[tuple[float, object]], out_dir: Path):
    """Profile the middle server's points (about a third of a pass)."""
    servers = list(dict.fromkeys(run.point.server for run in runs))
    profiled_server = servers[len(servers) // 2]
    subset = [i for i, run in enumerate(runs) if run.point.server == profiled_server]
    draws = [0]
    profile = cProfile.Profile()
    with _counting_draws(draws):
        start = time.perf_counter()
        profile.enable()
        try:
            profiled = run_pass([runs[i] for i in subset])
        finally:
            profile.disable()
        profiled_s = time.perf_counter() - start
    results = [[result] for _, result in untraced]
    for i, (_, result) in zip(subset, profiled):
        results[i].append(result)

    raw = pstats.Stats(profile).stats
    by_layer = _profile_layers(raw)
    total = sum(by_layer.values())
    requests = sum(r.samples for _, r in profiled)
    drops = sum(r.dropped_requests for _, r in untraced)
    samples = sum(r.samples for _, r in untraced)
    layers = {
        "sim.engine.events_per_s": (
            sum(r.events_processed for _, r in untraced) / sum(t for t, _ in untraced)
        ),
        "sim.engine.events_per_request": sum(r.events_processed for _, r in profiled) / requests,
        **{f"sim.{layer}.self_share": by_layer[layer] / total for layer in LAYERS},
        "sim.samplers.draws_per_request": draws[0] / requests,
        "sim.metrics.records_per_request": raw[RECORD_KEY][1] / requests,
        "sim.loss.drop_share": drops / (drops + samples),
        "trace.layer_coverage": total / profiled_s,
        "trace.op_us": profiled_s * 1e6 / requests,
        "trace.overhead_share": profiled_s / sum(untraced[i][0] for i in subset) - 1.0,
    }
    table = format_table(
        ["layer", "self s", "self us/request", "share"],
        [
            (layer, by_layer[layer], by_layer[layer] * 1e6 / requests, by_layer[layer] / total)
            for layer in LAYERS
        ],
        title=f"testbed: profiled self time by layer, {profiled_server} points "
        f"({requests} simulated requests)",
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "testbed.trace.jsonl").open("w", encoding="utf-8") as handle:
        for (filename, line, name), (_, ncalls, tottime, cumtime, _) in raw.items():
            row = {"file": filename, "line": line, "function": name, "ncalls": ncalls,
                   "tottime_s": tottime, "cumtime_s": cumtime}
            handle.write(json.dumps(row) + "\n")
    (out_dir / "testbed.layers.txt").write_text(table + "\n", encoding="utf-8")
    return check(runs, results), layers, table


def run(runs: list[SimRun], seconds: float, trace: bool, out_dir: Path) -> dict:
    """Interleaved passes (at least ``MIN_PASSES``, more while another fits
    in ``seconds``), with their checks.

    A traced run makes one untraced pass, then profiles some points again.
    """
    start = time.perf_counter()
    passes = [run_pass(runs)]
    while not trace:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        passes.append(run_pass(runs))
    metrics, detail = _metrics(runs, passes)
    outcome = {
        "attempted": len(runs) * len(passes),
        "failed": 0,
        "metrics": metrics,
        "detail": detail,
    }
    if trace:
        outcome["problems"], outcome["layers"], outcome["report"] = _traced(
            runs, passes[0], out_dir
        )
    else:
        outcome["problems"] = check(runs, [[done[i][1] for done in passes]
                                           for i in range(len(runs))])
    return outcome
