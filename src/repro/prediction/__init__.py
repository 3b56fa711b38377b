"""Cross-method prediction API and accuracy metric.

* :mod:`repro.prediction.interface` — a single :class:`Predictor` protocol
  implemented by all three methods (historical, layered queuing, hybrid);
* :mod:`repro.prediction.accuracy` — the paper's accuracy metric and its
  region-based aggregation (the overall accuracy is "the mean of the lower
  equation accuracy and the upper equation accuracy").
"""

from repro.prediction.interface import (
    HistoricalPredictor,
    HybridPredictor,
    LqnPredictor,
    Predictor,
)
from repro.prediction.accuracy import (
    AccuracyReport,
    accuracy,
    mean_accuracy,
    paper_overall_accuracy,
    region_of,
)

__all__ = [
    "Predictor",
    "HistoricalPredictor",
    "LqnPredictor",
    "HybridPredictor",
    "accuracy",
    "mean_accuracy",
    "paper_overall_accuracy",
    "region_of",
    "AccuracyReport",
]
