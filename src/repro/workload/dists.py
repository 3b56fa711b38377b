"""Parametric distribution specs: the unit fitting emits and scenarios consume.

A :class:`DistributionSpec` is a *named, serializable* distribution —
kind plus parameter mapping — with the full analytic surface the rest of
the pipeline needs: ``mean_ms``/``cv2`` for moment checks, ``cdf`` for
goodness-of-fit statistics, ``quantile`` for Q-Q summaries and inverse-
transform sampling, and ``sample`` for generation.  Supported kinds:

* ``exponential`` — rate ``lam`` (per ms); the paper's assumed think time;
* ``lognormal`` — ``mu``/``sigma`` of the underlying normal (log-ms);
* ``pareto`` — classic Pareto(``xm``, ``alpha``), the heavy-tail model;
* ``hyperexponential`` — two-branch H2 (``p``, ``lam1``, ``lam2``) for
  CV² > 1 workloads that are not power-law;
* ``empirical`` — a stored quantile grid, sampled by inverse transform.

Sampling takes an explicit :class:`numpy.random.Generator` — the
REPRO-DIST001 lint rule enforces that no spec samples from ambient
entropy, which is what keeps fitted-scenario generation deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.util.validation import check_fraction, check_positive, require

__all__ = [
    "KINDS",
    "DistributionSpec",
    "exponential_spec",
    "lognormal_spec",
    "pareto_spec",
    "hyperexponential_spec",
    "empirical_spec",
]

KINDS = ("exponential", "lognormal", "pareto", "hyperexponential", "empirical")

#: Quantile grid (inclusive endpoints handled by clipping) stored for
#: empirical specs: percentiles 0..100.
_EMPIRICAL_GRID = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class DistributionSpec:
    """One serializable distribution over positive durations (ms)."""

    kind: str
    params: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        require(self.kind in KINDS, f"kind must be one of {KINDS}, got {self.kind!r}")
        self._validate()

    # -- construction / serialization ----------------------------------------

    @classmethod
    def make(cls, kind: str, params: Mapping[str, float]) -> "DistributionSpec":
        """Build a spec from a parameter mapping (order-normalized)."""
        return cls(kind=kind, params=tuple(sorted((k, float(v)) for k, v in params.items())))

    def param_dict(self) -> dict[str, float]:
        """The parameters as a plain dict."""
        return dict(self.params)

    def to_dict(self) -> dict:
        """A JSON-serializable view."""
        return {"kind": self.kind, "params": self.param_dict()}

    def _validate(self) -> None:
        p = self.param_dict()
        if self.kind == "exponential":
            check_positive(p.get("lam", -1.0), "lam")
        elif self.kind == "lognormal":
            require("mu" in p, "lognormal needs mu")
            check_positive(p.get("sigma", -1.0), "sigma")
        elif self.kind == "pareto":
            check_positive(p.get("xm", -1.0), "xm")
            check_positive(p.get("alpha", -1.0), "alpha")
        elif self.kind == "hyperexponential":
            check_fraction(p.get("p", -1.0), "p")
            check_positive(p.get("lam1", -1.0), "lam1")
            check_positive(p.get("lam2", -1.0), "lam2")
        else:  # empirical
            quantiles = self._empirical_quantiles()
            require(quantiles.size == _EMPIRICAL_GRID.size, "empirical grid size drift")
            require(bool(np.all(np.diff(quantiles) >= 0.0)), "quantiles must ascend")

    def _empirical_quantiles(self) -> np.ndarray:
        return np.array([v for _, v in self.params])

    # -- analytic surface -----------------------------------------------------

    @property
    def mean_ms(self) -> float:
        """The distribution mean (ms); ``inf`` for Pareto with alpha <= 1."""
        p = self.param_dict()
        if self.kind == "exponential":
            return 1.0 / p["lam"]
        if self.kind == "lognormal":
            return float(np.exp(p["mu"] + 0.5 * p["sigma"] ** 2))
        if self.kind == "pareto":
            if p["alpha"] <= 1.0:
                return float("inf")
            return p["alpha"] * p["xm"] / (p["alpha"] - 1.0)
        if self.kind == "hyperexponential":
            return p["p"] / p["lam1"] + (1.0 - p["p"]) / p["lam2"]
        return float(np.trapezoid(self._empirical_quantiles(), _EMPIRICAL_GRID))

    @property
    def cv2(self) -> float:
        """Squared coefficient of variation (1.0 for exponential)."""
        p = self.param_dict()
        if self.kind == "exponential":
            return 1.0
        if self.kind == "lognormal":
            return float(np.exp(p["sigma"] ** 2) - 1.0)
        if self.kind == "pareto":
            alpha = p["alpha"]
            if alpha <= 2.0:
                return float("inf")
            return 1.0 / (alpha * (alpha - 2.0))
        if self.kind == "hyperexponential":
            mean = self.mean_ms
            second = 2.0 * (
                p["p"] / p["lam1"] ** 2 + (1.0 - p["p"]) / p["lam2"] ** 2
            )
            return second / mean**2 - 1.0
        quantiles = self._empirical_quantiles()
        mean = float(np.trapezoid(quantiles, _EMPIRICAL_GRID))
        second = float(np.trapezoid(quantiles**2, _EMPIRICAL_GRID))
        return second / mean**2 - 1.0 if mean > 0 else 0.0

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        """The cumulative distribution function evaluated at ``x`` (ms)."""
        x = np.asarray(x, dtype=float)
        p = self.param_dict()
        if self.kind == "exponential":
            return 1.0 - np.exp(-p["lam"] * np.maximum(x, 0.0))
        if self.kind == "lognormal":
            out = np.zeros_like(x)
            positive = x > 0.0
            z = (np.log(x[positive]) - p["mu"]) / (p["sigma"] * np.sqrt(2.0))
            from scipy.special import erf

            out[positive] = 0.5 * (1.0 + erf(z))
            return out
        if self.kind == "pareto":
            out = np.zeros_like(x)
            above = x >= p["xm"]
            out[above] = 1.0 - (p["xm"] / x[above]) ** p["alpha"]
            return out
        if self.kind == "hyperexponential":
            x_pos = np.maximum(x, 0.0)
            return 1.0 - (
                p["p"] * np.exp(-p["lam1"] * x_pos)
                + (1.0 - p["p"]) * np.exp(-p["lam2"] * x_pos)
            )
        quantiles = self._empirical_quantiles()
        return np.interp(x, quantiles, _EMPIRICAL_GRID, left=0.0, right=1.0)

    def quantile(self, q: np.ndarray | float) -> np.ndarray:
        """The inverse CDF at probability ``q`` (vectorized)."""
        q = np.clip(np.asarray(q, dtype=float), 1e-12, 1.0 - 1e-12)
        p = self.param_dict()
        if self.kind == "exponential":
            return -np.log1p(-q) / p["lam"]
        if self.kind == "lognormal":
            from scipy.special import erfinv

            return np.exp(p["mu"] + p["sigma"] * np.sqrt(2.0) * erfinv(2.0 * q - 1.0))
        if self.kind == "pareto":
            return p["xm"] / (1.0 - q) ** (1.0 / p["alpha"])
        if self.kind == "hyperexponential":
            return self._h2_quantile(q, p)
        return np.interp(q, _EMPIRICAL_GRID, self._empirical_quantiles())

    def _h2_quantile(self, q: np.ndarray, p: dict[str, float]) -> np.ndarray:
        """Bisection inverse of the H2 CDF (no closed form)."""
        lo = np.zeros_like(q)
        # The slower branch bounds the quantile from above.
        hi = np.full_like(q, -np.log1p(-np.max(q)) / min(p["lam1"], p["lam2"]) + 1.0)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < q
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` samples (ms) from the named stream ``rng``."""
        if self.kind == "exponential":
            return rng.exponential(1.0 / self.param_dict()["lam"], size=n)
        if self.kind == "lognormal":
            p = self.param_dict()
            return np.exp(rng.normal(p["mu"], p["sigma"], size=n))
        if self.kind == "hyperexponential":
            p = self.param_dict()
            branch = rng.random(n) < p["p"]
            fast = rng.exponential(1.0 / p["lam1"], size=n)
            slow = rng.exponential(1.0 / p["lam2"], size=n)
            return np.where(branch, fast, slow)
        # Pareto and empirical sample by inverse transform, which keeps
        # them on the same single-uniform-per-sample stream budget.
        return np.asarray(self.quantile(rng.random(n)))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.6g}" for k, v in self.params[:4])
        if len(self.params) > 4:
            inner += ", ..."
        return f"DistributionSpec({self.kind}: {inner})"


def exponential_spec(mean_ms: float) -> DistributionSpec:
    """An exponential spec with the given mean (ms)."""
    check_positive(mean_ms, "mean_ms")
    return DistributionSpec.make("exponential", {"lam": 1.0 / mean_ms})


def lognormal_spec(mu: float, sigma: float) -> DistributionSpec:
    """A lognormal spec with log-space parameters ``mu``/``sigma``."""
    return DistributionSpec.make("lognormal", {"mu": mu, "sigma": sigma})


def pareto_spec(xm_ms: float, alpha: float) -> DistributionSpec:
    """A Pareto(``xm``, ``alpha``) spec (scale in ms)."""
    return DistributionSpec.make("pareto", {"xm": xm_ms, "alpha": alpha})


def hyperexponential_spec(p: float, mean1_ms: float, mean2_ms: float) -> DistributionSpec:
    """A two-branch H2 spec: branch ``p`` has mean ``mean1_ms``."""
    check_positive(mean1_ms, "mean1_ms")
    check_positive(mean2_ms, "mean2_ms")
    return DistributionSpec.make(
        "hyperexponential", {"p": p, "lam1": 1.0 / mean1_ms, "lam2": 1.0 / mean2_ms}
    )


def empirical_spec(samples: np.ndarray) -> DistributionSpec:
    """An empirical spec storing the 0..100 percentile grid of ``samples``."""
    samples = np.asarray(samples, dtype=float)
    require(samples.size >= 2, "empirical spec needs at least two samples")
    quantiles = np.quantile(samples, _EMPIRICAL_GRID)
    return DistributionSpec(
        kind="empirical",
        params=tuple((f"q{i:03d}", float(v)) for i, v in enumerate(quantiles)),
    )
