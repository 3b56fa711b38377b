"""The HYDRA historical performance-prediction method.

The historical method (section 4 of the paper) predicts by extrapolating
from previously gathered performance data via a small set of fitted
relationships:

* **relationship 1** (:mod:`repro.historical.relationships`): number of
  typical-workload clients → mean response time, as a *lower* exponential
  equation before max throughput, an *upper* linear equation after it, and a
  *transition* exponential phasing between the two over 66 %–110 % of the
  max-throughput load;
* **throughput relationship** (:mod:`repro.historical.throughput`): clients →
  throughput is linear with gradient *m* (0.14 for a 7 s think time) up to
  the server's max throughput;
* **relationship 2** (:mod:`repro.historical.scaling`): how relationship 1's
  parameters scale with a server's max throughput, enabling predictions for
  *new* architectures from a single benchmarked number;
* **relationship 3** (:mod:`repro.historical.mix`): percentage of buy
  requests → max throughput (linear), extrapolated to new servers by a
  throughput ratio (equation 5);
* **loss relationship** (:mod:`repro.historical.loss`): offered rate →
  loss fraction for finite-capacity servers, fitted from drop-bearing
  measurements (the carried-capacity flow balance ``loss = 1 - C/x``).

:class:`repro.historical.model.HistoricalModel` composes these into the full
method; :mod:`repro.historical.datastore` manages the historical data points
(with the paper's ``n_s`` samples-per-point and ``n_ldp``/``n_udp``
points-per-equation knobs).
"""

from repro.historical.datastore import HistoricalDataPoint, HistoricalDataStore
from repro.historical.fitting import (
    FitResult,
    fit_exponential,
    fit_linear,
    fit_linear_through_origin,
    fit_power,
)
from repro.historical.relationships import (
    LowerEquation,
    PiecewiseResponseModel,
    TransitionRelationship,
    UpperEquation,
)
from repro.historical.loss import LossRateModel, observations_from_record_sets
from repro.historical.scaling import MaxThroughputScaling, ServerCalibration
from repro.historical.mix import BuyMixModel
from repro.historical.throughput import ThroughputModel
from repro.historical.model import HistoricalModel
from repro.historical.online import OnlineCalibrationSession, RecordedPoint
from repro.historical.transient import TransientModel, bucketed_response_curve

__all__ = [
    "HistoricalDataPoint",
    "HistoricalDataStore",
    "FitResult",
    "fit_exponential",
    "fit_linear",
    "fit_linear_through_origin",
    "fit_power",
    "LowerEquation",
    "UpperEquation",
    "TransitionRelationship",
    "PiecewiseResponseModel",
    "LossRateModel",
    "observations_from_record_sets",
    "MaxThroughputScaling",
    "ServerCalibration",
    "BuyMixModel",
    "ThroughputModel",
    "HistoricalModel",
    "OnlineCalibrationSession",
    "RecordedPoint",
    "TransientModel",
    "bucketed_response_curve",
]
