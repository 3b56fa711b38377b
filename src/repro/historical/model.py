"""The assembled HYDRA historical model.

:class:`HistoricalModel` composes relationship 1 (per-server piecewise
response curves), the throughput relationship, relationship 2 (parameter
scaling with max throughput, for *new* architectures) and relationship 3
(buy-mix effect on max throughput) into the full prediction method of
section 4 of the paper:

* calibrated on historical data from **established** servers;
* predicts **new** servers from a single benchmarked max throughput;
* predicts **heterogeneous workloads** by feeding relationship 3's adjusted
  max throughput back through relationship 2's parameter functions;
* answers capacity questions (max clients under an SLA goal) in closed form.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.faults.injector import INJECTOR
from repro.historical.datastore import HistoricalDataPoint, HistoricalDataStore
from repro.historical.loss import LossRateModel
from repro.historical.mix import BuyMixModel
from repro.historical.relationships import (
    LowerEquation,
    PiecewiseResponseModel,
    UpperEquation,
)
from repro.historical.scaling import MaxThroughputScaling, ServerCalibration
from repro.historical.throughput import ThroughputModel
from repro.trace import TRACER
from repro.util.errors import CalibrationError
from repro.util.floats import is_negligible
from repro.util.validation import check_fraction, check_non_negative, check_positive

__all__ = ["HistoricalModel"]


def _sanitise_predicted_lower(
    lower: LowerEquation, upper: UpperEquation, n_at_max: float
) -> LowerEquation:
    """Bound a relationship-2-*predicted* lower equation by physics.

    The lower exponential hands over to the upper linear equation through
    the transition band, so its value at the 66 % anchor cannot exceed the
    upper equation's value at the 110 % anchor.  Extrapolating the fitted
    λ_L power law to a max throughput outside the calibrated range can
    violate this wildly when the calibration data was noisy (few samples
    per point); clamping λ_L to the handover bound keeps the predicted
    curve monotone through the transition, exactly as a HYDRA analyst
    validating a new relationship would.
    """
    from repro.historical.relationships import (
        TRANSITION_LOWER_FRACTION,
        TRANSITION_UPPER_FRACTION,
    )

    n1 = TRANSITION_LOWER_FRACTION * n_at_max
    handover = upper.predict_ms(TRANSITION_UPPER_FRACTION * n_at_max)
    if handover <= 0 or lower.predict_ms(n1) <= handover:
        return lower
    if lower.c_l >= handover:
        return LowerEquation(c_l=lower.c_l, lambda_l=0.0)
    import math

    return LowerEquation(
        c_l=lower.c_l, lambda_l=math.log(handover / lower.c_l) / n1
    )


def _spread_subset(points: list[HistoricalDataPoint], k: int | None) -> list[HistoricalDataPoint]:
    """At most ``k`` points spread evenly across the load range (keeping the
    extremes), emulating the paper's n_ldp/n_udp data-point budgets."""
    if k is None or k >= len(points) or k < 2:
        if k is not None and k < 2 and len(points) >= 2:
            raise CalibrationError("each equation needs at least 2 data points")
        return points
    indices = [round(i * (len(points) - 1) / (k - 1)) for i in range(k)]
    return [points[i] for i in sorted(set(indices))]


@dataclass
class HistoricalModel:
    """The calibrated historical prediction model."""

    throughput_model: ThroughputModel
    server_models: dict[str, PiecewiseResponseModel] = field(default_factory=dict)
    server_calibrations: dict[str, ServerCalibration] = field(default_factory=dict)
    scaling: MaxThroughputScaling | None = None
    mix_model: BuyMixModel | None = None
    # Per-server loss relationships fitted from drop-bearing measurements
    # (finite accept queues shed overload; see repro.historical.loss).
    loss_models: dict[str, LossRateModel] = field(default_factory=dict)
    predictions_made: int = 0
    # Mix-adjusted piecewise models are pure functions of (server, rounded
    # buy fraction); the resource manager probes them thousands of times.
    _mix_cache: dict[tuple[str, float], PiecewiseResponseModel] = field(
        default_factory=dict, repr=False
    )
    # Guards predictions_made and _mix_cache: the prediction service calls
    # one shared model from its worker pool.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # -- calibration -----------------------------------------------------------

    @classmethod
    def calibrate(
        cls,
        store: HistoricalDataStore,
        max_throughputs: dict[str, float],
        *,
        gradient: float | None = None,
        n_ldp: int | None = None,
        n_udp: int | None = None,
        new_servers: tuple[str, ...] = (),
        mix_observations: list[tuple[float, float]] | None = None,
        mix_server: str | None = None,
    ) -> "HistoricalModel":
        """Calibrate from a data store plus benchmarked max throughputs.

        Parameters
        ----------
        store:
            Historical data points; servers present here are *established*.
        max_throughputs:
            Benchmarked typical-workload max throughput per server —
            required for every server, established or new.
        gradient:
            The clients→throughput gradient *m*; fitted from the data when
            omitted.
        n_ldp, n_udp:
            Data-point budgets for the lower/upper equations (the paper
            shows 2 of each already calibrate accurately).
        new_servers:
            Architectures without historical data, predicted via
            relationship 2.
        mix_observations, mix_server:
            ``(buy_fraction, max_throughput)`` pairs on one established
            server, calibrating relationship 3.
        """
        with TRACER.span("historical.calibrate") as span:
            model = cls._calibrate(
                store,
                max_throughputs,
                gradient=gradient,
                n_ldp=n_ldp,
                n_udp=n_udp,
                new_servers=new_servers,
                mix_observations=mix_observations,
                mix_server=mix_server,
            )
            span.set_attribute("servers", len(model.server_models))
            return model

    @classmethod
    def _calibrate(
        cls,
        store: HistoricalDataStore,
        max_throughputs: dict[str, float],
        *,
        gradient: float | None,
        n_ldp: int | None,
        n_udp: int | None,
        new_servers: tuple[str, ...],
        mix_observations: list[tuple[float, float]] | None,
        mix_server: str | None,
    ) -> "HistoricalModel":
        established = [s for s in store.servers() if s in max_throughputs]
        if not established:
            raise CalibrationError("no established servers with data and max throughput")

        points_by_server = {s: store.for_server(s) for s in established}
        if gradient is None:
            throughput_model = ThroughputModel.calibrate(points_by_server, max_throughputs)
        else:
            throughput_model = ThroughputModel(
                gradient=gradient, max_throughput=dict(max_throughputs)
            )
        for server, mx in max_throughputs.items():
            throughput_model.register_server(server, mx)

        model = cls(throughput_model=throughput_model)

        for server in established:
            n_at_max = throughput_model.clients_at_max(server)
            points = points_by_server[server]
            lower_pts = _spread_subset(
                [p for p in points if p.n_clients < n_at_max], n_ldp
            )
            upper_pts = _spread_subset(
                [p for p in points if p.n_clients >= n_at_max], n_udp
            )
            lower = LowerEquation.fit(lower_pts)
            upper = UpperEquation.fit(upper_pts)
            model.server_calibrations[server] = ServerCalibration(
                server=server,
                max_throughput_req_per_s=max_throughputs[server],
                lower=lower,
                upper=upper,
            )
            model.server_models[server] = PiecewiseResponseModel.assemble(
                server, lower, upper, n_at_max
            )

        if len(model.server_calibrations) >= 2:
            model.scaling = MaxThroughputScaling.calibrate(
                list(model.server_calibrations.values())
            )

        for server in new_servers:
            if server not in max_throughputs:
                raise CalibrationError(
                    f"new server {server!r} needs a benchmarked max throughput"
                )
            model.add_new_server(server, max_throughputs[server])

        if mix_observations is not None:
            model.mix_model = BuyMixModel.calibrate(
                mix_server if mix_server is not None else established[0],
                mix_observations,
            )
        return model

    def add_new_server(self, server: str, max_throughput_req_per_s: float) -> None:
        """Model a new architecture from its benchmarked max throughput
        (relationship 2) — the paper's headline capability."""
        check_positive(max_throughput_req_per_s, "max_throughput_req_per_s")
        if self.scaling is None:
            raise CalibrationError(
                "predicting a new server requires relationship 2, which needs "
                ">= 2 established-server calibrations"
            )
        self.throughput_model.register_server(server, max_throughput_req_per_s)
        lower, upper = self.scaling.predict_equations(max_throughput_req_per_s)
        n_at_max = self.throughput_model.clients_at_max(server)
        lower = _sanitise_predicted_lower(lower, upper, n_at_max)
        self.server_models[server] = PiecewiseResponseModel.assemble(
            server, lower, upper, n_at_max
        )

    # -- prediction --------------------------------------------------------------

    def servers(self) -> list[str]:
        """All modelled servers (established and new)."""
        return sorted(self.server_models)

    def predict_mrt_ms(
        self, server: str, n_clients: float, *, buy_fraction: float = 0.0
    ) -> float:
        """Predicted mean response time (ms).

        The typical workload uses the server's calibrated piecewise curve;
        heterogeneous mixes route the relationship-3 adjusted max throughput
        back through relationship 2's parameter functions (the paper's
        figure 4 procedure).
        """
        if INJECTOR.armed:
            INJECTOR.fire("historical.predict")
        check_fraction(buy_fraction, "buy_fraction")
        with self._lock:
            self.predictions_made += 1
        with TRACER.span("historical.predict", op="mrt", server=server):
            if is_negligible(buy_fraction):
                return self._model_for(server).predict_ms(n_clients)
            return self._mix_adjusted_model(server, buy_fraction).predict_ms(n_clients)

    def predict_throughput(
        self, server: str, n_clients: float, *, buy_fraction: float = 0.0
    ) -> float:
        """Predicted throughput (req/s): linear ramp capped at (mix-adjusted)
        max throughput."""
        if INJECTOR.armed:
            INJECTOR.fire("historical.predict")
        check_fraction(buy_fraction, "buy_fraction")
        check_non_negative(n_clients, "n_clients")
        with self._lock:
            self.predictions_made += 1
        with TRACER.span("historical.predict", op="throughput", server=server):
            if is_negligible(buy_fraction):
                return self.throughput_model.predict_throughput(server, n_clients)
            mx = self._mix_max_throughput(server, buy_fraction)
            return float(min(self.throughput_model.gradient * n_clients, mx))

    def max_clients(
        self, server: str, mrt_goal_ms: float, *, buy_fraction: float = 0.0
    ) -> int:
        """Closed-form capacity: most clients meeting an SLA goal."""
        if INJECTOR.armed:
            INJECTOR.fire("historical.predict")
        check_fraction(buy_fraction, "buy_fraction")
        with self._lock:
            self.predictions_made += 1
        with TRACER.span("historical.predict", op="capacity", server=server):
            if is_negligible(buy_fraction):
                return self._model_for(server).max_clients(mrt_goal_ms)
            return self._mix_adjusted_model(server, buy_fraction).max_clients(mrt_goal_ms)

    # -- loss (finite-capacity servers) --------------------------------------------

    def calibrate_loss(
        self, server: str, observations: list[tuple[float, float]]
    ) -> LossRateModel:
        """Fit (or refit) the server's loss relationship from measurements.

        ``observations`` are ``(offered req/s, loss fraction)`` pairs from
        runs against a finite accept queue — simulated overload points or
        recorded traces with a ``dropped`` column (see
        :func:`repro.historical.loss.observations_from_record_sets`).
        Calling again pools the new observations with the stored ones, the
        same refit-with-more-data workflow as the response relationships.
        """
        with self._lock:
            existing = self.loss_models.get(server)
            if existing is None:
                model = LossRateModel.calibrate(server, observations)
            else:
                model = existing.refit(observations)
            self.loss_models[server] = model
        return model

    def predict_loss_rate(self, server: str, offered_req_per_s: float) -> float:
        """Predicted loss fraction at the given offered rate (req/s)."""
        if INJECTOR.armed:
            INJECTOR.fire("historical.predict")
        with self._lock:
            self.predictions_made += 1
        with TRACER.span("historical.predict", op="loss", server=server):
            return self._loss_model_for(server).predict_loss_rate(offered_req_per_s)

    def predict_carried_throughput(
        self, server: str, offered_req_per_s: float
    ) -> float:
        """Predicted carried (accepted) throughput at the given offered rate."""
        if INJECTOR.armed:
            INJECTOR.fire("historical.predict")
        with self._lock:
            self.predictions_made += 1
        with TRACER.span("historical.predict", op="carried", server=server):
            return self._loss_model_for(server).predict_carried_req_per_s(
                offered_req_per_s
            )

    def parameter_table(self) -> list[tuple[str, float, float]]:
        """Rows of (server, c_L, λ_L) — the layout of the paper's table 1."""
        rows = []
        for server in self.servers():
            model = self.server_models[server]
            rows.append((server, model.lower.c_l, model.lower.lambda_l))
        return rows

    # -- internals -----------------------------------------------------------------

    def _model_for(self, server: str) -> PiecewiseResponseModel:
        try:
            return self.server_models[server]
        except KeyError:
            raise CalibrationError(
                f"no model for server {server!r}; calibrate it or add it as a "
                "new server with add_new_server()"
            ) from None

    def _loss_model_for(self, server: str) -> LossRateModel:
        with self._lock:
            try:
                return self.loss_models[server]
            except KeyError:
                raise CalibrationError(
                    f"no loss model for server {server!r}; calibrate one from "
                    "drop-bearing measurements with calibrate_loss()"
                ) from None

    def _mix_max_throughput(self, server: str, buy_fraction: float) -> float:
        if self.mix_model is None:
            raise CalibrationError(
                "heterogeneous-workload predictions require relationship 3 "
                "(pass mix_observations when calibrating)"
            )
        typical_mx = self.throughput_model.max_throughput.get(server)
        if typical_mx is None:
            raise CalibrationError(f"no max throughput registered for {server!r}")
        return self.mix_model.scaled_max_throughput(buy_fraction, typical_mx)

    def _mix_adjusted_model(
        self, server: str, buy_fraction: float
    ) -> PiecewiseResponseModel:
        if self.scaling is None:
            raise CalibrationError(
                "heterogeneous-workload predictions require relationship 2"
            )
        key = (server, round(buy_fraction, 5))
        with self._lock:
            cached = self._mix_cache.get(key)
        if cached is not None:
            TRACER.instant("historical.mix_cache", hit=True, server=server)
            return cached
        # A cache miss refits the mix-adjusted piecewise model — the
        # historical method's only non-trivial prediction-time work, hence
        # its own span (vs the instant a hit gets).
        with TRACER.span("historical.mix_refit", server=server, buy_fraction=buy_fraction):
            mx_b = self._mix_max_throughput(server, buy_fraction)
            lower, upper = self.scaling.predict_equations(mx_b)
            n_at_max = mx_b / self.throughput_model.gradient
            lower = _sanitise_predicted_lower(lower, upper, n_at_max)
            model = PiecewiseResponseModel.assemble(
                f"{server}@buy={buy_fraction:.3f}", lower, upper, n_at_max
            )
        with self._lock:
            if len(self._mix_cache) < 100_000:
                self._mix_cache[key] = model
        return model
