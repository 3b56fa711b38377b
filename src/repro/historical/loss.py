"""Historical loss-rate relationship for finite-capacity servers.

The historical method predicts from measured data, and a finite-capacity
server's measured data contains *drops*: offered requests the server shed
at its accept-queue bound.  The carried throughput of such a server is
pinned at a capacity ``C`` (req/s) — the same max-throughput plateau the
throughput relationship models — so the loss rate seen at offered rate
``x`` follows directly from flow conservation::

    loss(x) = max(0, 1 - C / x)

Calibration therefore reduces to estimating ``C`` from observations of
``(offered_rate, loss_rate)``: every *saturated* observation (one with
measurable loss) yields an estimate ``C ≈ x * (1 - loss)`` — the carried
rate — and unsaturated observations bound ``C`` from below by their
offered rate.  :class:`LossRateModel` fits ``C`` as the mean of the
saturated carried rates (clamped to the unsaturated lower bound) and
supports the same refit-with-more-data workflow as the other historical
relationships.

Observations come either from direct measurements (the overload
experiment's simulated runs) or from recorded traces that carry a
``dropped`` column (:func:`observations_from_record_sets`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.util.errors import CalibrationError
from repro.util.validation import check_positive, require

__all__ = ["LossRateModel", "observations_from_record_sets"]

# An observation with loss below this is treated as unsaturated: a handful
# of drops in a long trace estimates carried capacity far too noisily to
# anchor C (x*(1-eps) ~ x says only "C is below x, barely").
SATURATION_LOSS_THRESHOLD = 0.01


def _check_observations(
    observations: Sequence[tuple[float, float]],
) -> tuple[tuple[float, float], ...]:
    """Validate (offered req/s, loss fraction) pairs."""
    cleaned = []
    for offered, loss in observations:
        check_positive(offered, "offered_req_per_s")
        require(0.0 <= loss < 1.0, f"loss rate {loss!r} must be in [0, 1)")
        cleaned.append((float(offered), float(loss)))
    return tuple(cleaned)


@dataclass(frozen=True)
class LossRateModel:
    """Fitted loss relationship of one server: ``loss(x) = max(0, 1 - C/x)``.

    ``carried_capacity_req_per_s`` is the fitted ``C``;
    ``observations`` keeps the calibration data so :meth:`refit` can pool
    old and new measurements exactly like the online recalibration flow.
    """

    server: str
    carried_capacity_req_per_s: float
    observations: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        check_positive(self.carried_capacity_req_per_s, "carried_capacity_req_per_s")

    @classmethod
    def calibrate(
        cls, server: str, observations: Sequence[tuple[float, float]]
    ) -> "LossRateModel":
        """Fit ``C`` from ``(offered_req_per_s, loss_rate)`` observations.

        At least one observation must be saturated (loss above the 1 %
        noise threshold) — without loss the data only lower-bounds the
        capacity and the model would extrapolate pure guesswork.
        """
        cleaned = _check_observations(observations)
        saturated = [
            offered * (1.0 - loss)
            for offered, loss in cleaned
            if loss >= SATURATION_LOSS_THRESHOLD
        ]
        if not saturated:
            raise CalibrationError(
                f"no saturated observations for {server!r}: calibrating a loss "
                "model needs at least one measurement with visible loss"
            )
        capacity = sum(saturated) / len(saturated)
        # A loss-free observation at offered rate x proves C >= x (up to the
        # noise threshold); never fit a capacity the data contradicts.
        for offered, loss in cleaned:
            if loss < SATURATION_LOSS_THRESHOLD:
                capacity = max(capacity, offered * (1.0 - loss))
        return cls(
            server=server,
            carried_capacity_req_per_s=capacity,
            observations=cleaned,
        )

    def refit(self, observations: Sequence[tuple[float, float]]) -> "LossRateModel":
        """A new model calibrated on this model's data plus ``observations``."""
        return self.calibrate(self.server, self.observations + _check_observations(observations))

    def predict_loss_rate(self, offered_req_per_s: float) -> float:
        """Predicted loss fraction at the given offered rate."""
        check_positive(offered_req_per_s, "offered_req_per_s")
        excess = 1.0 - self.carried_capacity_req_per_s / offered_req_per_s
        return excess if excess > 0.0 else 0.0

    def predict_carried_req_per_s(self, offered_req_per_s: float) -> float:
        """Predicted carried (accepted) throughput at the given offered rate."""
        check_positive(offered_req_per_s, "offered_req_per_s")
        return min(offered_req_per_s, self.carried_capacity_req_per_s)


def observations_from_record_sets(
    record_sets: Iterable[object],
) -> list[tuple[float, float]]:
    """``(offered rate, loss rate)`` pairs from recorded traces with drops.

    Accepts any objects exposing ``arrival_rate_req_per_s()`` and a
    ``loss_rate`` property — i.e. :class:`repro.workload.records.RecordSet`
    built from traces whose CSV carries the ``dropped`` column.  Duck-typed
    so the historical package does not depend on the workload package.
    """
    observations = []
    for record_set in record_sets:
        observations.append(
            (float(record_set.arrival_rate_req_per_s()), float(record_set.loss_rate))
        )
    require(bool(observations), "no record sets to derive loss observations from")
    return observations
