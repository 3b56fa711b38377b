"""The ``python -m repro.analysis project`` whole-program gate.

Usage::

    python -m repro.analysis project src
    python -m repro.analysis project src --pass deadlock
    python -m repro.analysis project src --write-baseline
    python -m repro.analysis project src --no-baseline

Exit codes match the per-file CLI: ``0`` clean (or baseline written),
``1`` new findings, ``2`` usage error.

Baseline auto-discovery: when ``--baseline`` is not given and
``--no-baseline`` is not set, the gate looks for
``.analysis-project-baseline.json`` at the project root (nearest
ancestor of the first analyzed path carrying ``pyproject.toml``).  That
makes the bare acceptance command — ``python -m repro.analysis project
src`` — honor the committed baseline exactly like CI does, with no flag
to forget.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.engine import find_project_root
from repro.analysis.reporters import render_text
from repro.analysis.project.passes import (
    PROJECT_PASSES,
    ProjectAnalyzer,
    ProjectConfig,
)
from repro.util.errors import ValidationError

__all__ = ["project_main", "build_project_parser", "DEFAULT_BASELINE_NAME"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

DEFAULT_BASELINE_NAME = ".analysis-project-baseline.json"


def build_project_parser() -> argparse.ArgumentParser:
    """The ``project`` subcommand's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis project",
        description=(
            "Whole-program concurrency & determinism analysis: lock-order "
            "cycles (REPRO-DEADLOCK001), blocking-under-lock "
            "(REPRO-BLOCK001), entropy-to-artifact taint (REPRO-ENTROPY001)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="analysis roots to parse as one program (default: src)",
    )
    parser.add_argument(
        "--pass",
        dest="passes",
        action="append",
        default=None,
        choices=PROJECT_PASSES,
        metavar="NAME",
        help=f"run only this pass (repeatable); one of {', '.join(PROJECT_PASSES)}",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "JSON baseline of accepted findings; defaults to "
            f"{DEFAULT_BASELINE_NAME} at the project root when present"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline, including the auto-discovered default",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    return parser


def _default_baseline(paths: Sequence[str]) -> str | None:
    """The committed project baseline, if the project root carries one."""
    for raw in paths:
        root = find_project_root(Path(raw).resolve())
        if root is not None:
            candidate = root / DEFAULT_BASELINE_NAME
            if candidate.is_file():
                return str(candidate)
            return None
    return None


def project_main(argv: Sequence[str] | None = None) -> int:
    """Run the whole-program analysis CLI; returns the process exit code."""
    parser = build_project_parser()
    args = parser.parse_args(argv)

    config = ProjectConfig(passes=tuple(args.passes) if args.passes else PROJECT_PASSES)

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline and not args.write_baseline:
        baseline_path = _default_baseline(args.paths)
    if args.no_baseline and args.baseline is not None:
        parser.error("--no-baseline conflicts with --baseline FILE")

    try:
        findings = ProjectAnalyzer(config).analyze_paths(args.paths)

        if args.write_baseline:
            target = args.baseline
            if target is None:
                for raw in args.paths:
                    root = find_project_root(Path(raw).resolve())
                    if root is not None:
                        target = str(root / DEFAULT_BASELINE_NAME)
                        break
            if target is None:
                parser.error("--write-baseline: no project root found; pass --baseline FILE")
            count = write_baseline(findings, target)
            print(f"baseline written to {target}: {count} finding(s) accepted")
            return EXIT_CLEAN

        suppressed = 0
        if baseline_path is not None:
            findings, suppressed = apply_baseline(findings, load_baseline(baseline_path))
    except ValidationError as error:
        parser.exit(EXIT_USAGE, f"error: {error}\n")

    print(render_text(findings, suppressed=suppressed))
    return EXIT_FINDINGS if findings else EXIT_CLEAN
