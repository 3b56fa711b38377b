"""Command-line entry point: regenerate any table or figure of the paper.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner table1 fig2
    python -m repro.experiments.runner all --fast

``--fast`` uses shorter simulations and coarser sweeps (the benchmark-suite
profile); omit it for the EXPERIMENTS.md-quality numbers.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.trace import TRACER, JsonlSink
from repro.util.clock import SYSTEM_CLOCK

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

EXPERIMENTS: dict[str, str] = {
    "table1": "repro.experiments.table1",
    "table2": "repro.experiments.table2",
    "fig2": "repro.experiments.fig2",
    "fig3": "repro.experiments.fig3",
    "fig4": "repro.experiments.fig4",
    "fig5": "repro.experiments.fig5",
    "fig6": "repro.experiments.fig6",
    "fig7": "repro.experiments.fig7",
    "fig8": "repro.experiments.fig8",
    "fig7_cost": "repro.experiments.fig7_cost",
    "accuracy": "repro.experiments.accuracy_summary",
    "percentiles": "repro.experiments.percentiles",
    "caching": "repro.experiments.caching",
    "delay": "repro.experiments.delay",
    "recalibration": "repro.experiments.recalibration",
    "serving": "repro.experiments.serving",
    "tracing": "repro.experiments.tracing",
    "chaos": "repro.experiments.chaos",
    "workloads": "repro.experiments.workloads",
    "overload": "repro.experiments.overload",
}


def run_experiment(experiment_id: str, *, fast: bool = False):
    """Run one experiment by id and return its :class:`ExperimentResult`."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    module = importlib.import_module(EXPERIMENTS[experiment_id])
    with TRACER.span("experiment", id=experiment_id, fast=fast):
        return module.run(fast=fast)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (also installed as ``repro-experiments``)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (or 'all'); see --list",
    )
    parser.add_argument("--fast", action="store_true", help="fast, coarser profile")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL trace of the run (summarize/export with "
        "'python -m repro.trace')",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for experiment_id, module in EXPERIMENTS.items():
            print(f"{experiment_id:15s} {module}")
        return 0

    if args.trace:
        TRACER.enable(JsonlSink(args.trace))
    try:
        ids = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
        for experiment_id in ids:
            start = SYSTEM_CLOCK.perf_s()
            result = run_experiment(experiment_id, fast=args.fast)
            elapsed = SYSTEM_CLOCK.perf_s() - start
            print("=" * 78)
            print(f"{result.title}   [{experiment_id}, {elapsed:.1f}s]")
            print("=" * 78)
            print(result.rendered)
            print()
    finally:
        if args.trace:
            TRACER.disable()
            print(f"trace written to {args.trace}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
