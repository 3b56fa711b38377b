"""The unified predictor interface over the three methods.

A resource manager should be able to swap prediction methods without
changing its algorithm, so all three are wrapped behind one protocol:

* ``predict_mrt_ms(server, n_clients, buy_fraction)``
* ``predict_throughput(server, n_clients, buy_fraction)``
* ``max_clients(server, rt_goal_ms, buy_fraction)``

Every call is timed.  The cumulative :class:`PredictionTimer` is what the
section-8.5 delay comparison reads: historical predictions are closed-form
(microseconds), layered predictions solve a network each time (and capacity
queries *search*, multiplying the cost), and hybrid predictions are
historical-fast after the start-up delay recorded at construction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.historical.model import HistoricalModel
from repro.hybrid.model import AdvancedHybridModel
from repro.lqn.builder import TradeModelParameters, build_trade_model
from repro.lqn.solver import LqnSolver, SolverOptions
from repro.servers.architecture import ServerArchitecture
from repro.util.errors import CalibrationError
from repro.util.validation import check_non_negative, check_positive
from repro.workload.trade import mixed_workload

__all__ = [
    "PredictionTimer",
    "Predictor",
    "ClientsAtMaxMixin",
    "HistoricalPredictor",
    "LqnPredictor",
    "HybridPredictor",
]


@dataclass
class PredictionTimer:
    """Cumulative prediction-delay accounting for one predictor.

    Thread-safe: predictors are shared across the serving layer's worker
    threads, so the read-modify-write of the two accumulators is guarded
    by a lock (an unlocked ``+=`` loses updates under contention).
    """

    evaluations: int = 0
    total_time_s: float = 0.0
    startup_delay_s: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(self, elapsed_s: float) -> None:
        """Add one evaluation's wall-clock time."""
        with self._lock:
            self.evaluations += 1
            self.total_time_s += elapsed_s

    def record_batch(self, n_evaluations: int, elapsed_s: float) -> None:
        """Add one *batch* of evaluations answered in ``elapsed_s`` total.

        Keeps ``mean_delay_s`` meaningful for sweep-solved predictions: the
        batch's wall time is spread across its points.
        """
        with self._lock:
            self.evaluations += n_evaluations
            self.total_time_s += elapsed_s

    @property
    def mean_delay_s(self) -> float:
        """Mean per-prediction delay (s)."""
        with self._lock:
            return self.total_time_s / self.evaluations if self.evaluations else 0.0


@runtime_checkable
class Predictor(Protocol):
    """What a prediction-enhanced resource manager needs from a method."""

    name: str
    timer: PredictionTimer

    def predict_mrt_ms(
        self, server: str, n_clients: float, *, buy_fraction: float = 0.0
    ) -> float:
        """Predicted mean response time (ms)."""
        ...

    def predict_throughput(
        self, server: str, n_clients: float, *, buy_fraction: float = 0.0
    ) -> float:
        """Predicted throughput (req/s)."""
        ...

    def max_clients(
        self, server: str, rt_goal_ms: float, *, buy_fraction: float = 0.0
    ) -> int:
        """Most clients the server supports within an SLA goal."""
        ...


class ClientsAtMaxMixin:
    """Shared ``clients_at_max`` for predictors backed by a throughput model.

    The historical and hybrid predictors both expose the max-throughput
    load (used by the percentile predictor) from their underlying
    historical throughput model; subclasses supply that model via
    :meth:`_throughput_model` and inherit the query.
    """

    def _throughput_model(self):
        """The backing clients→throughput model (subclass hook)."""
        raise NotImplementedError  # pragma: no cover - abstract hook

    def clients_at_max(self, server: str) -> float:
        """Max-throughput load (used by the percentile predictor)."""
        return self._throughput_model().clients_at_max(server)


class HistoricalPredictor(ClientsAtMaxMixin):
    """The historical (HYDRA) method behind the common interface."""

    def __init__(self, model: HistoricalModel, *, name: str = "historical"):
        self.name = name
        self.model = model
        self.timer = PredictionTimer()

    def predict_mrt_ms(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predicted mean response time (ms), closed form."""
        start = time.perf_counter()
        try:
            return self.model.predict_mrt_ms(server, n_clients, buy_fraction=buy_fraction)
        finally:
            self.timer.record(time.perf_counter() - start)

    def predict_throughput(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predicted throughput (req/s), closed form."""
        start = time.perf_counter()
        try:
            return self.model.predict_throughput(server, n_clients, buy_fraction=buy_fraction)
        finally:
            self.timer.record(time.perf_counter() - start)

    def max_clients(self, server: str, rt_goal_ms: float, *, buy_fraction: float = 0.0) -> int:
        """Capacity under an SLA goal (inverted equations, no search)."""
        start = time.perf_counter()
        try:
            return self.model.max_clients(server, rt_goal_ms, buy_fraction=buy_fraction)
        finally:
            self.timer.record(time.perf_counter() - start)

    def _throughput_model(self):
        """The historical model's clients→throughput relationship."""
        return self.model.throughput_model


class LqnPredictor:
    """The layered queuing method behind the common interface.

    Every prediction builds and solves the layered model for the requested
    (server, load, mix) — there is no cheaper path, which is the method's
    structural delay cost (section 8.5).
    """

    def __init__(
        self,
        parameters: TradeModelParameters,
        architectures: dict[str, ServerArchitecture],
        *,
        solver_options: SolverOptions | None = None,
        name: str = "layered_queuing",
    ):
        self.name = name
        self.parameters = parameters
        self.architectures = dict(architectures)
        self.solver = LqnSolver(solver_options)
        self.timer = PredictionTimer()

    def _arch(self, server: str) -> ServerArchitecture:
        try:
            return self.architectures[server]
        except KeyError:
            raise CalibrationError(
                f"no architecture registered for {server!r}; known: "
                f"{sorted(self.architectures)}"
            ) from None

    @staticmethod
    def _population(n_clients: float) -> int:
        """The whole-client population a model is built for.

        A negative, NaN or infinite count raises
        :class:`~repro.util.errors.ValidationError`, as the historical
        and hybrid methods do; 0 is solved as one client.
        """
        return max(1, int(round(check_non_negative(n_clients, "n_clients"))))

    def _solve(self, server: str, n_clients: float, buy_fraction: float):
        model = build_trade_model(
            self._arch(server),
            mixed_workload(self._population(n_clients), buy_fraction),
            self.parameters,
        )
        return self.solver.solve(model)

    def solve_points(self, points: list[tuple[str, float, float]]):
        """Solve a sweep of ``(server, n_clients, buy_fraction)`` points.

        One batched :meth:`LqnSolver.solve_sweep` call replaces a loop of
        per-point solves; the returned :class:`~repro.lqn.results.LqnSolution`
        list (input order) answers *both* response-time and throughput
        queries for every point, so sweep-shaped callers solve each model
        once instead of once per metric.  Every point is bit-identical to
        :meth:`predict_mrt_ms`'s solve.
        """
        start = time.perf_counter()
        try:
            models = [
                build_trade_model(
                    self._arch(server),
                    mixed_workload(self._population(n_clients), buy_fraction),
                    self.parameters,
                )
                for server, n_clients, buy_fraction in points
            ]
            return self.solver.solve_sweep(models)
        finally:
            self.timer.record_batch(len(points), time.perf_counter() - start)

    def predict_mrt_ms(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predicted mean response time (ms); builds and solves a model."""
        start = time.perf_counter()
        try:
            return self._solve(server, n_clients, buy_fraction).mean_response_ms()
        finally:
            self.timer.record(time.perf_counter() - start)

    def predict_throughput(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predicted throughput (req/s); builds and solves a model."""
        start = time.perf_counter()
        try:
            return self._solve(server, n_clients, buy_fraction).total_throughput_req_per_s()
        finally:
            self.timer.record(time.perf_counter() - start)

    def max_clients(self, server: str, rt_goal_ms: float, *, buy_fraction: float = 0.0) -> int:
        """Capacity by *search* over client counts — each probe is a solve.

        The paper: "in the current layered queuing solver the number of
        clients can only be an input so it is necessary to search for a
        number of clients that results in response times just below SLA
        compliance" (section 8.2).
        """
        start = time.perf_counter()
        try:
            check_positive(rt_goal_ms, "rt_goal_ms")
            arch = self._arch(server)

            def build(n: int):
                return build_trade_model(
                    arch, mixed_workload(n, buy_fraction), self.parameters
                )

            # The goal is on the workload-mean response across classes;
            # exponential expansion then binary search, one solve per probe.
            def meets(n: int) -> bool:
                return self.solver.solve(build(n)).mean_response_ms() <= rt_goal_ms

            if not meets(1):
                return 0
            lo, hi = 1, 2
            while meets(hi):
                lo, hi = hi, hi * 2
                if hi > 1_000_000:  # pragma: no cover - defensive
                    break
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if meets(mid):
                    lo = mid
                else:
                    hi = mid
            return lo
        finally:
            self.timer.record(time.perf_counter() - start)


class HybridPredictor(ClientsAtMaxMixin):
    """The hybrid method behind the common interface.

    Construction (via :meth:`from_parameters`) pays the start-up delay of
    generating LQN pseudo-historical data; predictions afterwards are
    historical-speed.
    """

    def __init__(self, model: AdvancedHybridModel, *, name: str = "hybrid"):
        self.name = name
        self.model = model
        self.timer = PredictionTimer(startup_delay_s=model.report.startup_delay_s)

    @classmethod
    def from_parameters(
        cls,
        parameters: TradeModelParameters,
        target_servers: list[ServerArchitecture],
        *,
        points_per_equation: int = 2,
        solver_options: SolverOptions | None = None,
        name: str = "hybrid",
    ) -> "HybridPredictor":
        """Build the advanced hybrid for the given target architectures."""
        model = AdvancedHybridModel.build(
            parameters,
            target_servers,
            points_per_equation=points_per_equation,
            solver_options=solver_options,
        )
        return cls(model, name=name)

    def predict_mrt_ms(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predicted mean response time (ms) — historical-speed after start-up."""
        start = time.perf_counter()
        try:
            return self.model.predict_mrt_ms(server, n_clients, buy_fraction=buy_fraction)
        finally:
            self.timer.record(time.perf_counter() - start)

    def predict_throughput(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predicted throughput (req/s)."""
        start = time.perf_counter()
        try:
            return self.model.predict_throughput(server, n_clients, buy_fraction=buy_fraction)
        finally:
            self.timer.record(time.perf_counter() - start)

    def max_clients(self, server: str, rt_goal_ms: float, *, buy_fraction: float = 0.0) -> int:
        """Capacity under an SLA goal (closed form via the historical part)."""
        start = time.perf_counter()
        try:
            return self.model.max_clients(server, rt_goal_ms, buy_fraction=buy_fraction)
        finally:
            self.timer.record(time.perf_counter() - start)

    def _throughput_model(self):
        """The LQN-calibrated historical part's throughput relationship."""
        return self.model.historical.throughput_model
