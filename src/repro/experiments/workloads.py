"""The workloads experiment: the characterization loop as one artefact.

The paper fixes its workload at exp(7 s) think times and a constant buy
knob; this experiment asks whether a trace's think times fit that
assumption.  It runs the characterisation modules of
:mod:`repro.workload` end to end on a workload the paper could not
express — lognormal think times under a diurnal swing, a mid-run flash
crowd and a drifting buy mix — and publishes every stage as one
reproducible payload:

1. **compile** the canonical :class:`~repro.workload.scenario.ScenarioSpec`
   to a single deterministic arrival trace;
2. **characterize** it — distribution fits ranked by AIC with KS/AD/CV²
   diagnostics, plus the exponentiality screen (which must *reject* the
   exponential here: the scenario exists to break that assumption);
3. **validate** the round trip — refit the trace, regenerate from the
   fitted model, and compare arrival rate, think-time moments and mix
   within declared tolerances.

Everything is seeded, so two runs produce byte-identical JSON; the CI
``workloads`` job diffs them and the golden test pins the fast-mode
payload.

Run directly for the CI-facing JSON report::

    python -m repro.experiments.workloads --fast --json report.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.experiments.scenario import SEED, ExperimentResult
from repro.util.tables import format_kv, format_table
from repro.workload.fitting import discriminate_tail, fit_all
from repro.workload.scenario import canonical_spec, generate_records
from repro.workload.validation import validate_roundtrip

__all__ = ["run", "main"]


def _finite(value):
    """Replace non-finite floats with None, recursively (JSON/golden-safe)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def run(fast: bool = False) -> ExperimentResult:
    """Run the characterization loop: compile, characterise, validate."""
    spec = canonical_spec(fast=fast)
    records = generate_records(spec, seed=SEED)
    stats = records.statistics()

    thinks = records.think_times_ms()
    fits = fit_all(thinks)
    tail_class, expo = discriminate_tail(thinks)
    validation = validate_roundtrip(records, seed=SEED + 1)

    data = _finite(
        {
            "seed": SEED,
            "scenario": spec.to_dict(),
            "n_entries": len(records),
            "source_statistics": stats.to_dict(),
            "exponentiality": expo.to_dict(),
            "tail_class": tail_class,
            "fits": [fit.to_dict() for fit in fits],
            "validation": validation.to_dict(),
        }
    )

    fits_table = format_table(
        ["family", "AIC", "KS D", "KS p", "AD A²", "CV²", "verdict"],
        [
            (
                fit.spec.kind,
                "n/a" if fit.spec.kind == "empirical" else f"{fit.aic:.1f}",
                f"{fit.gof.ks_stat:.4f}",
                f"{fit.gof.ks_p:.4f}",
                f"{fit.gof.ad_stat:.2f}",
                f"{fit.gof.cv2:.3f}",
                fit.gof.verdict,
            )
            for fit in fits
        ],
        title="Think-time distribution fits (AIC-ranked)",
    )
    validation_table = format_table(
        ["statistic", "source", "regenerated", "tolerance", "result"],
        [
            (
                check.name,
                f"{check.source:.4f}",
                f"{check.regenerated:.4f}",
                f"{check.tolerance:.3f}{' rel' if check.relative else ' abs'}",
                "pass" if check.passed else "FAIL",
            )
            for check in validation.checks
        ],
        title="Round-trip validation (fit -> regenerate -> compare)",
    )
    summary = format_kv(
        {
            "scenario": spec.name,
            "compiled requests": len(records),
            "clients / duration (s)": f"{spec.n_clients} / {spec.duration_s:.0f}",
            "think CV²": f"{stats.think_cv2:.3f}",
            "exponential think times?": f"{expo.is_exponential} ({expo.reason})",
            "tail classification": tail_class,
            "round-trip validation": "PASSED" if validation.passed else "FAILED",
        },
        title="Workload characterization loop",
    )

    return ExperimentResult(
        experiment_id="workloads",
        title="Workloads: trace-driven characterization, fit, validate",
        rendered=summary + "\n\n" + fits_table + "\n\n" + validation_table,
        data=data,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the workloads experiment, optionally dump JSON.

    ``--json PATH`` writes the payload as canonically sorted JSON; the CI
    ``workloads`` job runs this twice and diffs the files to prove the
    whole loop — generation, fitting, validation — is deterministic.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.workloads",
        description="Run the workload-characterization experiment.",
    )
    parser.add_argument("--fast", action="store_true", help="fast, coarser profile")
    parser.add_argument(
        "--json", metavar="PATH", help="write the payload as sorted JSON"
    )
    args = parser.parse_args(argv)
    result = run(fast=args.fast)
    print(result.rendered)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.data, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"payload written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
