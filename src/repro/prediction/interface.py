"""The unified predictor interface over the three methods.

A resource manager should be able to swap prediction methods without
changing its algorithm, so all three are wrapped behind one protocol:

* ``predict_mrt_ms(server, n_clients, buy_fraction)``
* ``predict_throughput(server, n_clients, buy_fraction)``
* ``max_clients(server, rt_goal_ms, buy_fraction)``

The predictors do not time themselves: the section-8.5 delay comparison
(:mod:`repro.experiments.delay`) times the calls from outside, and a
served request is timed once by the service.  Historical predictions are
closed-form (microseconds), layered predictions solve a network each time
(and capacity queries *search*, multiplying the cost), and hybrid
predictions are historical-fast after the start-up delay the hybrid build
records in ``model.report.startup_delay_s``.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.historical.model import HistoricalModel
from repro.hybrid.model import AdvancedHybridModel
from repro.lqn.builder import TradeModelParameters, build_trade_model
from repro.lqn.solver import LqnSolver, SolverOptions
from repro.servers.architecture import ServerArchitecture
from repro.util.errors import CalibrationError, ValidationError
from repro.util.validation import check_non_negative, check_positive
from repro.workload.trade import mixed_workload

__all__ = [
    "Predictor",
    "HistoricalPredictor",
    "LqnPredictor",
    "HybridPredictor",
]

# The layered capacity search tests client counts up to this many; a goal
# still met here has no bracketed answer.
_CAPACITY_SEARCH_BOUND = 1 << 20  # a power of two, so the doubling lands on it


@runtime_checkable
class Predictor(Protocol):
    """What a prediction-enhanced resource manager needs from a method."""

    name: str

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


class HistoricalPredictor:
    """The historical (HYDRA) method behind the common interface."""

    def __init__(self, model: HistoricalModel, *, name: str = "historical"):
        self.name = name
        self.model = model

    def predict_mrt_ms(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predicted mean response time (ms), closed form."""
        return self.model.predict_mrt_ms(server, n_clients, buy_fraction=buy_fraction)

    def predict_throughput(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predicted throughput (req/s), closed form."""
        return self.model.predict_throughput(server, n_clients, buy_fraction=buy_fraction)

    def max_clients(self, server: str, rt_goal_ms: float, *, buy_fraction: float = 0.0) -> int:
        """Capacity under an SLA goal (inverted equations, no search)."""
        return self.model.max_clients(server, rt_goal_ms, buy_fraction=buy_fraction)

    def clients_at_max(self, server: str) -> float:
        """Max-throughput load (used by the percentile predictor)."""
        return self.model.throughput_model.clients_at_max(server)


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
        models = [
            build_trade_model(
                self._arch(server),
                mixed_workload(self._population(n_clients), buy_fraction),
                self.parameters,
            )
            for server, n_clients, buy_fraction in points
        ]
        return self.solver.solve_sweep(models)

    def predict_mrt_ms(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predicted mean response time (ms); builds and solves a model."""
        return self._solve(server, n_clients, buy_fraction).mean_response_ms()

    def predict_throughput(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predicted throughput (req/s); builds and solves a model."""
        return self._solve(server, n_clients, buy_fraction).total_throughput_req_per_s()

    def max_clients(self, server: str, rt_goal_ms: float, *, buy_fraction: float = 0.0) -> int:
        """Capacity by *search* over client counts — each probe is a solve.

        The paper: "in the current layered queuing solver the number of
        clients can only be an input so it is necessary to search for a
        number of clients that results in response times just below SLA
        compliance" (section 8.2).  The search tests client counts up to
        ``2**20``; a goal still met there raises
        :class:`~repro.util.errors.ValidationError` rather than return an
        unbracketed capacity.
        """
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
            if hi >= _CAPACITY_SEARCH_BOUND:
                raise ValidationError(
                    f"rt_goal_ms={rt_goal_ms!r} is still met on {server!r} at the "
                    f"capacity search bound of {_CAPACITY_SEARCH_BOUND:,} clients"
                )
            lo, hi = hi, hi * 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if meets(mid):
                lo = mid
            else:
                hi = mid
        return lo


class HybridPredictor:
    """The hybrid method behind the common interface.

    Construction (via :meth:`from_parameters`) pays the start-up delay of
    generating LQN pseudo-historical data, recorded in
    ``model.report.startup_delay_s``; predictions afterwards are
    historical-speed.
    """

    def __init__(self, model: AdvancedHybridModel, *, name: str = "hybrid"):
        self.name = name
        self.model = model

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
        return self.model.predict_mrt_ms(server, n_clients, buy_fraction=buy_fraction)

    def predict_throughput(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        """Predicted throughput (req/s)."""
        return self.model.predict_throughput(server, n_clients, buy_fraction=buy_fraction)

    def max_clients(self, server: str, rt_goal_ms: float, *, buy_fraction: float = 0.0) -> int:
        """Capacity under an SLA goal (closed form via the historical part)."""
        return self.model.max_clients(server, rt_goal_ms, buy_fraction=buy_fraction)

    def clients_at_max(self, server: str) -> float:
        """Max-throughput load, from the LQN-calibrated historical part."""
        return self.model.historical.throughput_model.clients_at_max(server)
