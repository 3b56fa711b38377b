"""Hybrid prediction models.

The hybrid method trades a one-off "start-up" delay (solving the layered
queuing model a handful of times to generate pseudo-historical data points)
for the historical method's near-instant predictions thereafter — the
paper measures an 11 s mean start-up delay for its setup, after which
"the more responsive historical predictions can be used".

``AdvancedHybridModel.build`` follows section 6 exactly:

1. calibrate the layered queuing model (section 5) — supplied here as
   ``TradeModelParameters``;
2. use it to generate at most ``points_per_equation`` historical data points
   for the lower and upper relationship-1 equations *per target server*;
3. calibrate relationships 1 and 3 of the historical model from those
   points.  Relationship 2 is not used: "the layered queuing model generates
   historical data for specific server architectures".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.historical.datastore import HistoricalDataPoint, HistoricalDataStore
from repro.historical.model import HistoricalModel
from repro.historical.throughput import gradient_from_think_time
from repro.lqn.builder import TradeModelParameters, build_trade_model
from repro.lqn.model import LqnModel
from repro.lqn.solver import LqnSolver, NetworkPoint, PreparedNetwork, SolverOptions
from repro.servers.architecture import ServerArchitecture
from repro.trace import TRACER
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import CalibrationError
from repro.util.validation import check_positive, check_positive_int, require
from repro.workload.service_class import ServiceClass
from repro.workload.trade import mixed_workload, typical_workload

__all__ = [
    "lqn_max_throughput",
    "network_max_throughput",
    "HybridCalibrationReport",
    "AdvancedHybridModel",
    "BasicHybridModel",
]

# Load fractions (of the max-throughput load) at which pseudo-historical data
# points are generated; the lower pair brackets the paper's 66% anchor and
# the upper pair its 110% anchor.
LOWER_POINT_FRACTIONS = (0.35, 0.66)
UPPER_POINT_FRACTIONS = (1.15, 1.6)


def lqn_max_throughput(model: LqnModel) -> float:
    """Asymptotic max throughput of a layered model (req/s).

    By the bottleneck law a closed network's throughput is bounded by
    ``1 / max_k D_k`` where ``D_k`` is the per-request demand at station
    ``k``; the bound is reached as the population grows.  This is how the
    hybrid method benchmarks a modelled server's max throughput without
    running a saturation search.
    """
    require(len(model.reference_tasks()) >= 1, "model needs at least one reference task")
    network = LqnSolver().prepare(model)
    return network_max_throughput(network, network.load_of(model)[0])


def network_max_throughput(network: PreparedNetwork, populations: Sequence[float]) -> float:
    """:func:`lqn_max_throughput` of a prepared network at ``populations``.

    For callers that go on to solve the same network, so it is prepared
    once.
    """
    # Weight per-class demands by population to get the workload-mix demand.
    total = sum(populations)
    if total == 0:
        raise CalibrationError("model has zero clients")
    best = 0.0
    for k, station in enumerate(network.stations):
        if station.waiting_only:
            continue
        demand = sum(
            populations[c] / total * (network.demands[c, k] + network.hidden_demands[c, k])
            for c in range(len(populations))
        )
        demand /= station.servers
        best = max(best, demand)
    if best <= 0:
        raise CalibrationError("model places no demand on any station")
    return 1000.0 / best


@dataclass
class HybridCalibrationReport:
    """Start-up cost accounting for a hybrid calibration."""

    lqn_solves: int = 0
    data_points: int = 0
    startup_delay_s: float = 0.0
    per_server_points: dict[str, int] = field(default_factory=dict)


@dataclass
class AdvancedHybridModel:
    """The advanced hybrid: LQN-generated data for each target architecture."""

    historical: HistoricalModel
    report: HybridCalibrationReport
    parameters: TradeModelParameters

    @classmethod
    def build(
        cls,
        parameters: TradeModelParameters,
        target_servers: list[ServerArchitecture],
        *,
        workload_class: ServiceClass | None = None,
        points_per_equation: int = 2,
        solver_options: SolverOptions | None = None,
        mix_fractions: tuple[float, float] = (0.0, 0.25),
        calibrate_mix: bool = True,
        clock: Clock = SYSTEM_CLOCK,
    ) -> "AdvancedHybridModel":
        """Generate pseudo-historical data and calibrate the historical model.

        ``points_per_equation`` caps the data points generated per equation
        per server ("a maximum of 4 historical data points for the lower and
        upper relationship 1 equations" in the paper's evaluation — the
        default of 2 matches the paper's finding that 2 suffice).
        """
        check_positive_int(points_per_equation, "points_per_equation")
        require(len(target_servers) > 0, "need at least one target server")
        solver = LqnSolver(solver_options, clock=clock)
        report = HybridCalibrationReport()
        with TRACER.span("hybrid.build", servers=len(target_servers)) as span:
            start = clock.perf_s()

            think_ms = (
                workload_class.think_time_ms if workload_class is not None else 7000.0
            )
            gradient = gradient_from_think_time(think_ms)

            store = HistoricalDataStore()
            max_throughputs: dict[str, float] = {}
            lower_fracs = _spread(LOWER_POINT_FRACTIONS, points_per_equation)
            upper_fracs = _spread(UPPER_POINT_FRACTIONS, points_per_equation)

            # The whole (server × load-fraction) calibration grid is one
            # sweep: every point of a server shares its probe's structure
            # (one browse class), so the probe is prepared once and the
            # grid solved in one batch; each data point stays
            # bit-identical to a per-point solve.
            grid: list[tuple[str, int]] = []
            points: list[NetworkPoint] = []
            for arch in target_servers:
                probe = build_trade_model(arch, typical_workload(100), parameters)
                network = solver.prepare(probe)
                mx = network_max_throughput(network, network.load_of(probe)[0])
                max_throughputs[arch.name] = mx
                n_at_max = mx / gradient
                for frac in (*lower_fracs, *upper_fracs):
                    n = max(1, int(round(frac * n_at_max)))
                    grid.append((arch.name, n))
                    points.append((network, (n,), ()))
                report.per_server_points[arch.name] = len(lower_fracs) + len(upper_fracs)
                report.data_points += report.per_server_points[arch.name]

            solutions = solver.solve_networks(points)
            report.lqn_solves += len(solutions)
            for (server_name, n), solution in zip(grid, solutions):
                store.add(
                    HistoricalDataPoint(
                        server=server_name,
                        n_clients=n,
                        mean_response_ms=solution.mean_response_ms(),
                        throughput_req_per_s=solution.total_throughput_req_per_s(),
                        n_samples=1,
                    )
                )

            mix_observations = None
            mix_server = None
            if calibrate_mix and "buy" in parameters.request_types:
                mix_server = target_servers[0].name
                mix_observations = []
                for buy_fraction in mix_fractions:
                    n = 400  # any pre-saturation load: max throughput is asymptotic
                    model = build_trade_model(
                        target_servers[0], mixed_workload(n, buy_fraction), parameters
                    )
                    mix_observations.append((buy_fraction, lqn_max_throughput(model)))
                    report.lqn_solves += 1

            historical = HistoricalModel.calibrate(
                store,
                max_throughputs,
                gradient=gradient,
                mix_observations=mix_observations,
                mix_server=mix_server,
            )
            report.startup_delay_s = clock.perf_s() - start
            span.set_attribute("lqn_solves", report.lqn_solves)
            span.set_attribute("data_points", report.data_points)
        return cls(historical=historical, report=report, parameters=parameters)

    # Convenience passthroughs so the hybrid exposes the same prediction API.

    def predict_mrt_ms(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predict mean response time (ms) — near-instant after start-up."""
        TRACER.instant("hybrid.predict", op="mrt", served_by="historical")
        return self.historical.predict_mrt_ms(server, n_clients, buy_fraction=buy_fraction)

    def predict_throughput(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predict throughput (req/s)."""
        TRACER.instant("hybrid.predict", op="throughput", served_by="historical")
        return self.historical.predict_throughput(server, n_clients, buy_fraction=buy_fraction)

    def max_clients(self, server: str, mrt_goal_ms: float, *, buy_fraction: float = 0.0) -> int:
        """Closed-form capacity query (inherited from the historical model)."""
        TRACER.instant("hybrid.predict", op="capacity", served_by="historical")
        return self.historical.max_clients(server, mrt_goal_ms, buy_fraction=buy_fraction)


@dataclass
class BasicHybridModel:
    """The basic hybrid: data generated before target architectures are known.

    Generates pseudo-historical data only for the *established* servers and
    calibrates relationship 2, so genuinely new architectures are predicted
    the same way the plain historical method predicts them — from a
    benchmarked max throughput.
    """

    historical: HistoricalModel
    report: HybridCalibrationReport
    parameters: TradeModelParameters

    @classmethod
    def build(
        cls,
        parameters: TradeModelParameters,
        established_servers: list[ServerArchitecture],
        *,
        points_per_equation: int = 2,
        solver_options: SolverOptions | None = None,
    ) -> "BasicHybridModel":
        """Pre-generate data for established servers only."""
        advanced = AdvancedHybridModel.build(
            parameters,
            established_servers,
            points_per_equation=points_per_equation,
            solver_options=solver_options,
            calibrate_mix=False,
        )
        return cls(
            historical=advanced.historical,
            report=advanced.report,
            parameters=parameters,
        )

    def predict_new_server(self, server: str, benchmarked_max_throughput: float) -> None:
        """Add a new architecture via relationship 2 (needs >= 2 established)."""
        check_positive(benchmarked_max_throughput, "benchmarked_max_throughput")
        self.historical.add_new_server(server, benchmarked_max_throughput)

    def predict_mrt_ms(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predict mean response time (ms)."""
        served_by = (
            "historical.relationship2"
            if server not in self.report.per_server_points
            else "historical"
        )
        TRACER.instant("hybrid.predict", op="mrt", served_by=served_by)
        return self.historical.predict_mrt_ms(server, n_clients, buy_fraction=buy_fraction)


def _spread(bounds: tuple[float, float], k: int) -> list[float]:
    """``k`` load fractions spread across (and including) the two bounds."""
    lo, hi = bounds
    if k == 1:
        return [lo]
    return [lo + (hi - lo) * i / (k - 1) for i in range(k)]
