"""Goodness-of-fit and exponentiality diagnostics for fitted distributions.

Every fit the pipeline produces carries a quantified verdict, never a
bare parameter vector — the lesson of the virtualized-server workload
characterization literature is that *assumed* exponentials are the
number-one source of capacity-planning error, so the diagnostics make
the assumption testable:

* **Kolmogorov–Smirnov** — ``D = sup |F_n(x) - F(x)|`` with the
  asymptotic (Stephens-corrected) p-value, the primary ranking statistic;
* **Anderson–Darling** — ``A²``, tail-weighted, which is what separates
  a lognormal body from a Pareto tail when the KS bodies agree;
* **CV² test** — the squared coefficient of variation with a confidence
  band around 1: the cheap first-line exponentiality screen;
* **Q-Q summary** — decile quantile pairs and their maximum relative
  deviation, the human-auditable residual of the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require
from repro.workload.dists import DistributionSpec

__all__ = [
    "GoodnessOfFit",
    "ExponentialityVerdict",
    "ks_statistic",
    "ks_p_value",
    "ad_statistic",
    "empirical_cv2",
    "qq_deviation",
    "diagnose",
    "exponentiality",
]

#: Verdict thresholds on the KS p-value: above GOOD the fit is accepted,
#: between the two it is usable-with-care, below MARGINAL it is rejected.
GOOD_P = 0.10
MARGINAL_P = 0.01

#: Half-width of the CV² acceptance band around 1 for the exponentiality
#: screen, scaled by the standard error of CV² under exponentiality
#: (which is ~2/sqrt(n) to first order).
_CV2_BAND_SIGMAS = 3.0


def ks_statistic(samples: np.ndarray, spec: DistributionSpec) -> float:
    """The two-sided KS distance between ``samples`` and ``spec``."""
    samples = np.sort(np.asarray(samples, dtype=float))
    require(samples.size > 0, "KS needs at least one sample")
    n = samples.size
    cdf = np.asarray(spec.cdf(samples))
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def ks_p_value(d: float, n: int) -> float:
    """Asymptotic two-sided KS p-value with Stephens' small-n correction."""
    if n <= 0 or d <= 0.0:
        return 1.0
    effective = (np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n)) * d
    # Kolmogorov tail series; 100 terms is far past float convergence.
    k = np.arange(1, 101)
    total = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * effective) ** 2))
    return float(min(1.0, max(0.0, total)))


def ad_statistic(samples: np.ndarray, spec: DistributionSpec) -> float:
    """The Anderson–Darling ``A²`` statistic against ``spec``."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    require(n > 0, "AD needs at least one sample")
    cdf = np.clip(np.asarray(spec.cdf(samples)), 1e-12, 1.0 - 1e-12)
    i = np.arange(1, n + 1)
    weights = (2.0 * i - 1.0) * (np.log(cdf) + np.log1p(-cdf[::-1]))
    return float(-n - np.sum(weights) / n)


def empirical_cv2(samples: np.ndarray) -> float:
    """The squared coefficient of variation of ``samples``."""
    samples = np.asarray(samples, dtype=float)
    require(samples.size > 1, "CV² needs at least two samples")
    mean = float(np.mean(samples))
    if mean == 0.0:
        return 0.0
    return float(np.var(samples) / mean**2)


def qq_deviation(samples: np.ndarray, spec: DistributionSpec) -> tuple[list, float]:
    """Decile Q-Q pairs ``[empirical, fitted]`` and their max relative gap.

    The extreme deciles (10%..90%) are used rather than the tails so the
    summary reflects the body of the fit; the AD statistic already
    patrols the tails.
    """
    samples = np.asarray(samples, dtype=float)
    deciles = np.arange(0.1, 0.91, 0.1)
    empirical = np.quantile(samples, deciles)
    fitted = np.asarray(spec.quantile(deciles))
    scale = np.maximum(np.abs(fitted), 1e-12)
    max_rel = float(np.max(np.abs(empirical - fitted) / scale))
    pairs = [[float(e), float(f)] for e, f in zip(empirical, fitted)]
    return pairs, max_rel


@dataclass(frozen=True)
class GoodnessOfFit:
    """The quantified verdict attached to every fit."""

    ks_stat: float
    ks_p: float
    ad_stat: float
    cv2: float
    qq_max_rel_dev: float
    qq_deciles: tuple[tuple[float, float], ...]
    verdict: str  # "good" | "marginal" | "poor"

    def to_dict(self) -> dict:
        """A JSON-serializable view."""
        return {
            "ks_stat": self.ks_stat,
            "ks_p": self.ks_p,
            "ad_stat": self.ad_stat,
            "cv2": self.cv2,
            "qq_max_rel_dev": self.qq_max_rel_dev,
            "qq_deciles": [list(pair) for pair in self.qq_deciles],
            "verdict": self.verdict,
        }


def diagnose(samples: np.ndarray, spec: DistributionSpec) -> GoodnessOfFit:
    """Run the full diagnostic battery of ``samples`` against ``spec``."""
    samples = np.asarray(samples, dtype=float)
    d = ks_statistic(samples, spec)
    p = ks_p_value(d, samples.size)
    pairs, max_rel = qq_deviation(samples, spec)
    verdict = "good" if p >= GOOD_P else ("marginal" if p >= MARGINAL_P else "poor")
    return GoodnessOfFit(
        ks_stat=d,
        ks_p=p,
        ad_stat=ad_statistic(samples, spec),
        cv2=empirical_cv2(samples),
        qq_max_rel_dev=max_rel,
        qq_deciles=tuple((e, f) for e, f in pairs),
        verdict=verdict,
    )


@dataclass(frozen=True)
class ExponentialityVerdict:
    """Is this sample consistent with an exponential distribution?"""

    cv2: float
    cv2_band: tuple[float, float]
    ks_p_vs_exponential: float
    is_exponential: bool
    reason: str

    def to_dict(self) -> dict:
        """A JSON-serializable view."""
        return {
            "cv2": self.cv2,
            "cv2_band": list(self.cv2_band),
            "ks_p_vs_exponential": self.ks_p_vs_exponential,
            "is_exponential": self.is_exponential,
            "reason": self.reason,
        }


def exponentiality(samples: np.ndarray) -> ExponentialityVerdict:
    """The two-stage exponentiality screen: CV² band, then KS confirmation.

    CV² far from 1 rejects immediately (heavy tails push it above,
    Erlang-like regularity below); a CV² inside the band still has to
    survive a KS test against the moment-matched exponential, which
    catches e.g. shifted or bimodal samples whose CV² happens to be ~1.
    """
    from repro.workload.dists import exponential_spec

    samples = np.asarray(samples, dtype=float)
    cv2 = empirical_cv2(samples)
    half_width = _CV2_BAND_SIGMAS * 2.0 / np.sqrt(samples.size)
    band = (1.0 - half_width, 1.0 + half_width)
    mean = float(np.mean(samples))
    if mean <= 0.0:
        return ExponentialityVerdict(cv2, band, 0.0, False, "non-positive mean")
    spec = exponential_spec(mean)
    p = ks_p_value(ks_statistic(samples, spec), samples.size)
    if not band[0] <= cv2 <= band[1]:
        side = "heavy-tailed (CV² above band)" if cv2 > band[1] else "sub-exponential (CV² below band)"
        return ExponentialityVerdict(cv2, band, p, False, side)
    if p < MARGINAL_P:
        return ExponentialityVerdict(
            cv2, band, p, False, "CV² in band but KS rejects the exponential shape"
        )
    return ExponentialityVerdict(cv2, band, p, True, "CV² in band and KS accepts")
