"""Relationship 1: number of typical-workload clients → mean response time.

The paper approximates this relationship with separate equations before and
after max throughput (equations 1 and 2):

* lower (before max throughput):  ``mrt = c_L · exp(λ_L · n)``
* upper (after max throughput):   ``mrt = λ_U · n + c_U``

plus a *transition* exponential relationship "for phasing from the lower to
the upper equation" between 66 % and 110 % of the max-throughput load, which
the paper found effective in its experimental setup.

Each equation is invertible, which is how the historical method answers the
capacity question ("the maximum number of clients an SLA-constrained server
can support … by rewriting equations 1 and 2 in terms of the mean response
time", section 8.2) without searching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.historical.datastore import HistoricalDataPoint
from repro.historical.fitting import fit_exponential, fit_linear
from repro.util.errors import CalibrationError
from repro.util.floats import is_negligible
from repro.util.validation import check_non_negative, check_positive, require

__all__ = [
    "LowerEquation",
    "UpperEquation",
    "TransitionRelationship",
    "PiecewiseResponseModel",
    "TRANSITION_LOWER_FRACTION",
    "TRANSITION_UPPER_FRACTION",
]

# The paper phases between the equations between 66% and 110% of the
# max-throughput load.
TRANSITION_LOWER_FRACTION = 0.66
TRANSITION_UPPER_FRACTION = 1.10


@dataclass(frozen=True, slots=True)
class LowerEquation:
    """``mrt = c_L · exp(λ_L · n)`` — equation 1 of the paper."""

    c_l: float
    lambda_l: float

    def __post_init__(self) -> None:
        check_positive(self.c_l, "c_l")

    def predict_ms(self, n_clients: float) -> float:
        """Mean response time at ``n_clients`` (ms).

        Wildly mis-calibrated exponents (possible when fitting from very few
        noisy samples) saturate to infinity instead of raising, so accuracy
        evaluation can still score the bad calibration.
        """
        try:
            return self.c_l * math.exp(self.lambda_l * n_clients)
        except OverflowError:
            return math.inf

    def invert(self, mrt_ms: float) -> float:
        """Client count at which the equation reaches ``mrt_ms``."""
        check_positive(mrt_ms, "mrt_ms")
        if is_negligible(self.lambda_l):
            return math.inf if mrt_ms >= self.c_l else 0.0
        return math.log(mrt_ms / self.c_l) / self.lambda_l

    @classmethod
    def fit(cls, points: list[HistoricalDataPoint]) -> "LowerEquation":
        """Least-squares calibration from data points below max throughput."""
        if len(points) < 2:
            raise CalibrationError(
                f"lower equation needs >= 2 data points, got {len(points)}"
            )
        result = fit_exponential(
            [p.n_clients for p in points], [p.mean_response_ms for p in points]
        )
        c, lam = result.params
        return cls(c_l=c, lambda_l=lam)


@dataclass(frozen=True, slots=True)
class UpperEquation:
    """``mrt = λ_U · n + c_U`` — equation 2 of the paper."""

    lambda_u: float
    c_u: float

    def predict_ms(self, n_clients: float) -> float:
        """Mean response time at ``n_clients`` (ms)."""
        return self.lambda_u * n_clients + self.c_u

    def invert(self, mrt_ms: float) -> float:
        """Client count at which the equation reaches ``mrt_ms``."""
        if is_negligible(self.lambda_u):
            return math.inf if mrt_ms >= self.c_u else 0.0
        return (mrt_ms - self.c_u) / self.lambda_u

    @classmethod
    def fit(cls, points: list[HistoricalDataPoint]) -> "UpperEquation":
        """Least-squares calibration from data points after max throughput."""
        if len(points) < 2:
            raise CalibrationError(
                f"upper equation needs >= 2 data points, got {len(points)}"
            )
        result = fit_linear(
            [p.n_clients for p in points], [p.mean_response_ms for p in points]
        )
        slope, intercept = result.params
        return cls(lambda_u=slope, c_u=intercept)


@dataclass(frozen=True, slots=True)
class TransitionRelationship:
    """Exponential phase-in between the lower and upper equations.

    Anchored so it agrees with the lower equation at the 66 % load point and
    with the upper equation at the 110 % load point: ``mrt = a · exp(b·n)``
    through those two anchors.
    """

    a: float
    b: float
    n_start: float
    n_end: float

    def predict_ms(self, n_clients: float) -> float:
        """Mean response time within the transition region (ms)."""
        try:
            return self.a * math.exp(self.b * n_clients)
        except OverflowError:
            return math.inf

    def invert(self, mrt_ms: float) -> float:
        """Client count at which the transition reaches ``mrt_ms``."""
        check_positive(mrt_ms, "mrt_ms")
        if is_negligible(self.b):
            return math.inf if mrt_ms >= self.a else 0.0
        return math.log(mrt_ms / self.a) / self.b

    @classmethod
    def through(
        cls, n1: float, mrt1: float, n2: float, mrt2: float
    ) -> "TransitionRelationship":
        """The exponential through two anchor points."""
        require(n2 > n1, "transition anchors must have n2 > n1")
        check_positive(mrt1, "mrt1")
        check_positive(mrt2, "mrt2")
        b = math.log(mrt2 / mrt1) / (n2 - n1)
        a = mrt1 / math.exp(b * n1)
        return cls(a=a, b=b, n_start=n1, n_end=n2)


@dataclass(frozen=True)
class PiecewiseResponseModel:
    """Relationship 1 assembled: lower + transition + upper, for one server.

    ``n_at_max`` is the number of clients at the max-throughput load (from
    the throughput relationship).  Predictions use the lower equation below
    66 % of that load, the upper equation above 110 %, and the transition
    exponential in between.
    """

    server: str
    lower: LowerEquation
    upper: UpperEquation
    n_at_max: float
    transition: TransitionRelationship

    @classmethod
    def assemble(
        cls,
        server: str,
        lower: LowerEquation,
        upper: UpperEquation,
        n_at_max: float,
    ) -> "PiecewiseResponseModel":
        """Build the piecewise model, deriving the transition anchors."""
        check_positive(n_at_max, "n_at_max")
        n1 = TRANSITION_LOWER_FRACTION * n_at_max
        n2 = TRANSITION_UPPER_FRACTION * n_at_max
        mrt1 = lower.predict_ms(n1)
        mrt2 = upper.predict_ms(n2)
        if mrt2 <= 0 or mrt2 <= mrt1:
            # Degenerate calibration (can happen with very noisy or LQN-
            # generated points under a loose convergence criterion): fall
            # back to a flat transition ending at the upper equation.
            mrt2 = max(mrt1 * 1.0001, 1e-9)
        transition = TransitionRelationship.through(n1, mrt1, n2, mrt2)
        return cls(
            server=server, lower=lower, upper=upper, n_at_max=n_at_max, transition=transition
        )

    def predict_ms(self, n_clients: float) -> float:
        """Predicted mean response time at ``n_clients`` (ms)."""
        check_non_negative(n_clients, "n_clients")
        if n_clients <= self.transition.n_start:
            return self.lower.predict_ms(n_clients)
        if n_clients >= self.transition.n_end:
            return self.upper.predict_ms(n_clients)
        return self.transition.predict_ms(n_clients)

    def max_clients(self, mrt_goal_ms: float) -> int:
        """Largest client count whose predicted response time meets a goal.

        Closed-form inversion region by region — the historical method's
        advantage over the layered method's search (section 8.2).
        """
        check_positive(mrt_goal_ms, "mrt_goal_ms")
        if self.predict_ms(0.0) > mrt_goal_ms:
            return 0
        # Walk the regions from the top so the outermost crossing wins.
        n = self.upper.invert(mrt_goal_ms)
        if n >= self.transition.n_end:
            return int(n)
        n = self.transition.invert(mrt_goal_ms)
        if self.transition.n_start <= n <= self.transition.n_end:
            return int(n)
        n = self.lower.invert(mrt_goal_ms)
        return int(max(0.0, min(n, self.transition.n_start)))
