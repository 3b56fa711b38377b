"""The validation battery: does a fitted model regenerate its source trace?

Characterization is only trustworthy if the loop closes: ingest a trace,
fit its think-time distribution and request mix, *regenerate* a trace
from the fitted model, and compare the regenerated statistics against
the source within declared tolerances.  :func:`validate_roundtrip` runs
exactly that loop and returns a :class:`ValidationReport` whose checks
cover the three statistic families the prediction methods consume:

* **arrival rate** — overall mean req/s of regenerated vs source;
* **think-time moments** — mean and CV² of the extracted think times;
* **request mix** — per-request-type fractions (absolute tolerance).

Every check records both values and its tolerance, so a failing report
is a diagnosis, not a boolean.  Regeneration is seeded through
:func:`~repro.util.rng.spawn_rng` streams; the same source trace, seed
and tolerances always produce the identical report (the ``workloads``
experiment publishes it as a byte-reproducible JSON artefact).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_non_negative_int, check_positive
from repro.workload.fitting import DistributionFit, best_fit, discriminate_tail
from repro.workload.modulators import MixSchedule
from repro.workload.records import RecordSet
from repro.workload.scenario import ScenarioSpec, generate_records

__all__ = [
    "Tolerances",
    "CheckResult",
    "ValidationReport",
    "fit_scenario_from_records",
    "validate_roundtrip",
]


@dataclass(frozen=True)
class Tolerances:
    """Declared acceptance tolerances for the round-trip comparison.

    Rates and moments compare relatively; mix fractions compare
    absolutely (a 1 % class should not fail on a 30 % relative wobble
    that is 0.3 points of mix).  The defaults absorb finite-trace
    sampling noise at the canonical scenario's size while still
    catching a wrong fitted family or a dropped modulator.
    """

    arrival_rate_rel: float = 0.15
    think_mean_rel: float = 0.15
    think_cv2_rel: float = 0.40
    mix_fraction_abs: float = 0.06

    def __post_init__(self) -> None:
        check_positive(self.arrival_rate_rel, "arrival_rate_rel")
        check_positive(self.think_mean_rel, "think_mean_rel")
        check_positive(self.think_cv2_rel, "think_cv2_rel")
        check_positive(self.mix_fraction_abs, "mix_fraction_abs")

    def to_dict(self) -> dict:
        """A JSON-serializable view."""
        return {
            "arrival_rate_rel": self.arrival_rate_rel,
            "think_mean_rel": self.think_mean_rel,
            "think_cv2_rel": self.think_cv2_rel,
            "mix_fraction_abs": self.mix_fraction_abs,
        }


@dataclass(frozen=True)
class CheckResult:
    """One statistic compared between source and regenerated trace."""

    name: str
    source: float
    regenerated: float
    tolerance: float
    relative: bool
    passed: bool

    def to_dict(self) -> dict:
        """A JSON-serializable view."""
        return {
            "name": self.name,
            "source": self.source,
            "regenerated": self.regenerated,
            "tolerance": self.tolerance,
            "relative": self.relative,
            "passed": self.passed,
        }


def _check(name: str, source: float, regen: float, tol: float, *, relative: bool) -> CheckResult:
    if relative:
        scale = max(abs(source), 1e-12)
        passed = abs(regen - source) / scale <= tol
    else:
        passed = abs(regen - source) <= tol
    return CheckResult(
        name=name,
        source=float(source),
        regenerated=float(regen),
        tolerance=tol,
        relative=relative,
        passed=bool(passed),
    )


@dataclass(frozen=True)
class ValidationReport:
    """The battery's outcome: fitted model, verdicts, per-check results."""

    scenario: ScenarioSpec
    think_fit: DistributionFit
    tail_class: str
    checks: tuple[CheckResult, ...]
    passed: bool

    def to_dict(self) -> dict:
        """A JSON-serializable view (the experiment artefact's core)."""
        return {
            "scenario": self.scenario.to_dict(),
            "think_fit": self.think_fit.to_dict(),
            "tail_class": self.tail_class,
            "checks": [check.to_dict() for check in self.checks],
            "passed": self.passed,
        }


def fit_scenario_from_records(
    source: RecordSet, *, name: str = "fitted"
) -> tuple[ScenarioSpec, DistributionFit, str]:
    """Characterize a record set as a stationary fitted scenario.

    The think-time distribution is the AIC-best acceptable family
    (empirical fallback), the mix is the observed buy fraction held
    constant, and the population is the observed client count — the
    stationary model whose regeneration the battery then scores.  The
    tail classification rides along so callers can report it.
    """
    thinks = source.think_times_ms()
    check_positive(float(thinks.size), "think-time samples")
    fit = best_fit(thinks)
    tail_class, _ = discriminate_tail(thinks)
    buy_fraction = source.type_fractions().get("buy", 0.0)
    spec = ScenarioSpec(
        name=name,
        n_clients=source.n_clients,
        duration_s=max(source.duration_ms / 1000.0, 1e-3),
        think_time=fit.spec,
        modulators=(),
        mix=MixSchedule.constant(buy_fraction),
    )
    return spec, fit, tail_class


def validate_roundtrip(
    source: RecordSet,
    *,
    seed: int,
    tolerances: Tolerances | None = None,
    scenario_name: str = "fitted",
) -> ValidationReport:
    """Fit ``source``, regenerate under ``seed``, compare within tolerances."""
    check_non_negative_int(seed, "seed")
    tolerances = tolerances if tolerances is not None else Tolerances()
    spec, fit, tail_class = fit_scenario_from_records(source, name=scenario_name)
    regenerated = generate_records(spec, seed=seed)

    source_stats = source.statistics()
    regen_stats = regenerated.statistics()

    checks = [
        _check(
            "arrival_rate_req_per_s",
            source_stats.arrival_rate_req_per_s,
            regen_stats.arrival_rate_req_per_s,
            tolerances.arrival_rate_rel,
            relative=True,
        ),
        _check(
            "think_mean_ms",
            source_stats.think_mean_ms,
            regen_stats.think_mean_ms,
            tolerances.think_mean_rel,
            relative=True,
        ),
        _check(
            "think_cv2",
            source_stats.think_cv2,
            regen_stats.think_cv2,
            tolerances.think_cv2_rel,
            relative=True,
        ),
    ]
    all_types = sorted(set(source_stats.type_fractions) | set(regen_stats.type_fractions))
    for type_name in all_types:
        checks.append(
            _check(
                f"mix_fraction:{type_name}",
                source_stats.type_fractions.get(type_name, 0.0),
                regen_stats.type_fractions.get(type_name, 0.0),
                tolerances.mix_fraction_abs,
                relative=False,
            )
        )
    return ValidationReport(
        scenario=spec,
        think_fit=fit,
        tail_class=tail_class,
        checks=tuple(checks),
        passed=all(check.passed for check in checks),
    )
