"""Maximum-likelihood distribution fitters over duration samples.

Each fitter maps a sample array to a :class:`~repro.workload.dists.DistributionSpec`
and wraps it in a :class:`DistributionFit` carrying the log-likelihood
and the full :class:`~repro.workload.diagnostics.GoodnessOfFit`
battery.  :func:`fit_all` runs every parametric family and ranks the
candidates by AIC (likelihood penalized by parameter count) so callers
get a defensible model-selection order, and :func:`best_fit` returns the
winner; :func:`discriminate_tail` answers the single question the
think-time literature cares most about — exponential or heavy-tailed?

All fitters are closed-form (exponential, lognormal, Pareto MLE) or
deterministic moment-matching (H2), so fitting is reproducible with no
iteration-order sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require
from repro.workload.diagnostics import (
    ExponentialityVerdict,
    GoodnessOfFit,
    diagnose,
    exponentiality,
)
from repro.workload.dists import (
    DistributionSpec,
    empirical_spec,
    exponential_spec,
    hyperexponential_spec,
    lognormal_spec,
    pareto_spec,
)

__all__ = [
    "DistributionFit",
    "fit_exponential",
    "fit_lognormal",
    "fit_pareto",
    "fit_hyperexponential",
    "fit_empirical",
    "fit_all",
    "best_fit",
    "discriminate_tail",
]

#: Number of free parameters per family, for the AIC penalty.
_N_PARAMS = {
    "exponential": 1,
    "lognormal": 2,
    "pareto": 2,
    "hyperexponential": 3,
}


@dataclass(frozen=True)
class DistributionFit:
    """One fitted family: the spec, its likelihood, and its verdict."""

    spec: DistributionSpec
    log_likelihood: float
    n_samples: int
    gof: GoodnessOfFit

    @property
    def aic(self) -> float:
        """Akaike information criterion (lower is better)."""
        k = _N_PARAMS.get(self.spec.kind, 0)
        return 2.0 * k - 2.0 * self.log_likelihood

    def to_dict(self) -> dict:
        """A JSON-serializable view (spec + likelihood + diagnostics)."""
        return {
            "spec": self.spec.to_dict(),
            "log_likelihood": self.log_likelihood,
            "n_samples": self.n_samples,
            "aic": self.aic,
            "gof": self.gof.to_dict(),
        }


def _positive(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    samples = samples[samples > 0.0]
    require(samples.size >= 2, "fitting needs at least two positive samples")
    return samples


def _finish(samples: np.ndarray, spec: DistributionSpec, loglik: float) -> DistributionFit:
    return DistributionFit(
        spec=spec,
        log_likelihood=float(loglik),
        n_samples=samples.size,
        gof=diagnose(samples, spec),
    )


def fit_exponential(samples: np.ndarray) -> DistributionFit:
    """MLE exponential: rate = 1/mean."""
    samples = _positive(samples)
    mean = float(np.mean(samples))
    spec = exponential_spec(mean)
    lam = 1.0 / mean
    loglik = samples.size * np.log(lam) - lam * np.sum(samples)
    return _finish(samples, spec, loglik)


def fit_lognormal(samples: np.ndarray) -> DistributionFit:
    """MLE lognormal: moments of log-samples."""
    samples = _positive(samples)
    logs = np.log(samples)
    mu = float(np.mean(logs))
    sigma = float(np.std(logs))
    sigma = max(sigma, 1e-9)  # degenerate (constant) samples
    spec = lognormal_spec(mu, sigma)
    loglik = -np.sum(
        np.log(samples * sigma * np.sqrt(2.0 * np.pi)) + (logs - mu) ** 2 / (2.0 * sigma**2)
    )
    return _finish(samples, spec, loglik)


def fit_pareto(samples: np.ndarray) -> DistributionFit:
    """MLE Pareto: scale = min(samples), shape from mean log-excess."""
    samples = _positive(samples)
    xm = float(np.min(samples))
    log_excess = np.log(samples / xm)
    mean_excess = float(np.mean(log_excess))
    alpha = 1.0 / mean_excess if mean_excess > 0.0 else 1e6
    spec = pareto_spec(xm, alpha)
    loglik = samples.size * (np.log(alpha) + alpha * np.log(xm)) - (
        alpha + 1.0
    ) * np.sum(np.log(samples))
    return _finish(samples, spec, loglik)


def fit_hyperexponential(samples: np.ndarray) -> DistributionFit:
    """Balanced-means H2 matched to the sample mean and CV².

    With CV² <= 1 an H2 cannot be matched; the fit degrades to the
    exponential limit (p=0.5, equal rates) so the family is always
    rankable.  The balanced-means construction (p/lam1 == (1-p)/lam2)
    pins the third degree of freedom the two moments leave open, which
    is the standard closed-form used in phase-type workload modelling.
    """
    samples = _positive(samples)
    mean = float(np.mean(samples))
    cv2 = float(np.var(samples) / mean**2)
    if cv2 <= 1.0 + 1e-9:
        p = 0.5
        lam1 = lam2 = 1.0 / mean
    else:
        p = 0.5 * (1.0 + np.sqrt((cv2 - 1.0) / (cv2 + 1.0)))
        lam1 = 2.0 * p / mean
        lam2 = 2.0 * (1.0 - p) / mean
    spec = hyperexponential_spec(float(p), 1.0 / lam1, 1.0 / lam2)
    density = p * lam1 * np.exp(-lam1 * samples) + (1.0 - p) * lam2 * np.exp(
        -lam2 * samples
    )
    loglik = np.sum(np.log(np.maximum(density, 1e-300)))
    return _finish(samples, spec, loglik)


def fit_empirical(samples: np.ndarray) -> DistributionFit:
    """The empirical quantile-grid model (the non-parametric fallback).

    Its "likelihood" is not comparable to the parametric families', so
    it is reported as NaN and :func:`fit_all` ranks it last among
    "good" fits rather than by AIC.
    """
    samples = _positive(samples)
    spec = empirical_spec(samples)
    return DistributionFit(
        spec=spec,
        log_likelihood=float("nan"),
        n_samples=samples.size,
        gof=diagnose(samples, spec),
    )


def fit_all(samples: np.ndarray) -> list[DistributionFit]:
    """Fit every parametric family and rank by AIC (empirical last)."""
    parametric = [
        fit_exponential(samples),
        fit_lognormal(samples),
        fit_pareto(samples),
        fit_hyperexponential(samples),
    ]
    parametric.sort(key=lambda fit: fit.aic)
    return parametric + [fit_empirical(samples)]


def best_fit(samples: np.ndarray) -> DistributionFit:
    """The AIC-best parametric family whose KS verdict is not "poor".

    Falls back to the empirical model when every parametric family is
    rejected — a trace is always representable, just not always
    compressible to two or three parameters.
    """
    ranked = fit_all(samples)
    for fit in ranked[:-1]:
        if fit.gof.verdict != "poor":
            return fit
    return ranked[-1]


def discriminate_tail(samples: np.ndarray) -> tuple[str, ExponentialityVerdict]:
    """Classify a sample as ``"exponential"`` or ``"heavy-tailed"``.

    The CV²+KS screen decides exponentiality; a non-exponential sample
    is called heavy-tailed when CV² exceeds the band's upper edge (the
    capacity-planning-relevant direction), otherwise ``"other"`` —
    sub-exponential regularity, bimodality, and the like.
    """
    verdict = exponentiality(samples)
    if verdict.is_exponential:
        return "exponential", verdict
    if verdict.cv2 > verdict.cv2_band[1]:
        return "heavy-tailed", verdict
    return "other", verdict
