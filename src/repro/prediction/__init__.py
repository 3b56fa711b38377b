"""Cross-method prediction API and evaluation.

* :mod:`repro.prediction.interface` — a single :class:`Predictor` protocol
  implemented by all three methods (historical, layered queuing, hybrid);
* :mod:`repro.prediction.accuracy` — the paper's accuracy metric and its
  region-based aggregation (the overall accuracy is "the mean of the lower
  equation accuracy and the upper equation accuracy");
* :mod:`repro.prediction.comparison` — the section-8 evaluation: systems
  modellable, metrics predictable, ease of creation, recalibration
  overheads and prediction delay, produced as structured data.
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
from repro.prediction.comparison import MethodProfile, METHOD_PROFILES, evaluation_matrix
from repro.prediction.validation import CalibrationDiagnostics, diagnose_historical_model

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
    "MethodProfile",
    "METHOD_PROFILES",
    "evaluation_matrix",
    "CalibrationDiagnostics",
    "diagnose_historical_model",
]
