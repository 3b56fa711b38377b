"""The ``python -m repro.analysis`` command-line gate.

Usage::

    python -m repro.analysis src tests --baseline .analysis-baseline.json
    python -m repro.analysis src --rule lock-discipline
    python -m repro.analysis src tests --baseline b.json --write-baseline
    python -m repro.analysis --list-rules
    python -m repro.analysis project src      # whole-program passes

The ``project`` subcommand dispatches to
:mod:`repro.analysis.project.cli` — the interprocedural deadlock /
blocking-under-lock / entropy-taint gate — with its own flags.

Exit codes (what CI keys on):

* ``0`` — clean: no findings beyond the baseline (or baseline written).
* ``1`` — new findings: the gate fails.
* ``2`` — usage error: unknown rule, missing path, unreadable baseline.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.engine import AnalysisEngine
from repro.analysis.reporters import render_text
from repro.analysis.rules.base import all_rules, resolve_rules
from repro.util.errors import ValidationError

__all__ = ["main", "build_parser"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for ``--help`` documentation tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Custom AST lint for the repro codebase (see repro.analysis).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME_OR_ID",
        help="run only this rule (repeatable); accepts names or REPRO-* ids",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="JSON baseline of accepted findings; only findings beyond it fail",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the analysis CLI; returns the process exit code."""
    import sys

    argv_list = list(sys.argv[1:] if argv is None else argv)
    if argv_list and argv_list[0] == "project":
        from repro.analysis.project.cli import project_main

        return project_main(argv_list[1:])

    parser = build_parser()
    args = parser.parse_args(argv_list)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name:<22} {rule.description}")
        return EXIT_CLEAN

    try:
        rules = resolve_rules(args.rule) if args.rule else None
        engine = AnalysisEngine(rules)
        findings = engine.analyze_paths(args.paths)

        if args.write_baseline:
            if args.baseline is None:
                parser.error("--write-baseline requires --baseline FILE")
            count = write_baseline(findings, args.baseline)
            print(f"baseline written to {args.baseline}: {count} finding(s) accepted")
            return EXIT_CLEAN

        suppressed = 0
        if args.baseline is not None:
            findings, suppressed = apply_baseline(findings, load_baseline(args.baseline))
    except ValidationError as error:
        parser.exit(EXIT_USAGE, f"error: {error}\n")

    print(render_text(findings, suppressed=suppressed))
    return EXIT_FINDINGS if findings else EXIT_CLEAN
