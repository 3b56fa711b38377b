"""Compare saved runs metric by metric, and summarise their spread.

    python3 -m bench compare BASE.json HEAD.json
    python3 -m bench spread RUNS.json

Both read files written by ``python3 -m bench --out FILE`` (a
``{"runs": [...]}`` object; traced runs are ignored).  ``compare`` prints
one verdict per (metric, workload) under the bounds of ``BENCHMARK.json``
and exits 1 if any is ``worse``.  It refuses (exit 2) to compare a
workload whose two sides were run at different seeds or lengths.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench.harness import BENCHMARK
from bench.stats import spread

CALIBRATION = Path(__file__).resolve().parent / "calibration.json"

#: Fewer runs than this on the base side: take the spread from calibration.
MIN_RUNS_FOR_SPREAD = 5


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced, correct runs of a results file, grouped by workload."""
    grouped: dict[str, list[dict]] = {}
    for run in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        if not run["trace"] and run["correct"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _conditions(runs: list[dict]) -> tuple[list, list]:
    """The sorted seeds and run lengths of a workload's runs."""
    return sorted({run["seed"] for run in runs}), sorted({run["seconds"] for run in runs})


def mismatches(base: dict[str, list[dict]], head: dict[str, list[dict]]) -> list[str]:
    """Workloads whose two sides ran at different seeds or run lengths.

    Run length changes the window statistics and the testbed's number of
    passes, and the seed changes the inputs, so such runs do not compare.
    """
    problems = []
    for workload in sorted(set(base) & set(head)):
        base_on, head_on = _conditions(base[workload]), _conditions(head[workload])
        if base_on != head_on:
            problems.append(f"{workload}: base ran at seeds {base_on[0]} for {base_on[1]} s, "
                            f"head at seeds {head_on[0]} for {head_on[1]} s")
    return problems


def verdict(base: list[float], head: list[float], *, better: str, bound: float,
            spread_share: float) -> tuple[str, float]:
    """The verdict on one metric and its relative change (positive = better).

    Beyond ``bound`` the change is better or worse; within it, unchanged.
    When the run-to-run spread exceeds the bound the medians cannot be
    told apart, so the verdict is unresolved unless every head run beats
    every base run.
    """
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    change = sign * (statistics.median(head) - base_median) / base_median
    if spread_share > bound:
        beats_all = all(sign * h > sign * b for h in head for b in base)
        return ("better" if beats_all else "unresolved"), change
    if change > bound:
        return "better", change
    if change < -bound:
        return "worse", change
    return "unchanged", change


def _failure_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(base: dict[str, list[dict]], head: dict[str, list[dict]],
            benchmark: dict, calibration: dict) -> list[dict]:
    """One row per (metric, workload) present on both sides, plus failures.

    Raises ``ValueError`` if a workload's sides ran at different seeds or
    lengths.
    """
    refused = mismatches(base, head)
    if refused:
        raise ValueError("; ".join(refused))
    rows = []
    for workload in sorted(set(base) & set(head)):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base_values = [r["metrics"][name]["value"] for r in base[workload]]
            head_values = [r["metrics"][name]["value"] for r in head[workload]]
            if len(base_values) >= MIN_RUNS_FOR_SPREAD:
                spread_share = spread(base_values)
            else:
                spread_share = calibration.get("spreads", {}).get(workload, {}).get(name, 0.0)
            result, change = verdict(base_values, head_values, better=metric["better"],
                                     bound=metric["bound"], spread_share=spread_share)
            rows.append({
                "metric": name, "workload": workload,
                "base": statistics.median(base_values), "head": statistics.median(head_values),
                "change": change, "spread": spread_share, "bound": metric["bound"],
                "verdict": result,
            })
        base_failed, head_failed = _failure_share(base[workload]), _failure_share(head[workload])
        rows.append({
            "metric": "failure_share", "workload": workload, "base": base_failed,
            "head": head_failed, "change": base_failed - head_failed, "spread": 0.0,
            "bound": 0.0,
            "verdict": ("worse" if head_failed > base_failed
                        else "better" if head_failed < base_failed else "unchanged"),
        })
    return rows


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Median and quartile spread of every end-to-end metric, per workload."""
    out = {}
    for workload, group in sorted(runs.items()):
        out[workload] = {}
        for name in group[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in group]
            out[workload][name] = {
                "median": statistics.median(values), "spread": spread(values), "runs": len(values),
            }
    return out


def main(argv: list[str]) -> int:
    """``compare BASE HEAD`` or ``spread RUNS``."""
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    compare_parser = commands.add_parser("compare", help="verdict per (metric, workload)")
    compare_parser.add_argument("base", type=Path)
    compare_parser.add_argument("head", type=Path)
    spread_parser = commands.add_parser("spread", help="median and quartile spread")
    spread_parser.add_argument("runs", type=Path)
    args = parser.parse_args(argv)

    if args.command == "spread":
        print(json.dumps(summarize(load_runs(args.runs)), indent=1))
        return 0
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    calibration = (
        json.loads(CALIBRATION.read_text(encoding="utf-8")) if CALIBRATION.exists() else {}
    )
    try:
        rows = compare(load_runs(args.base), load_runs(args.head), benchmark, calibration)
    except ValueError as error:
        print(f"bench compare: {error}", file=sys.stderr)
        return 2
    if not rows:
        print("bench compare: no workload has correct untraced runs on both sides",
              file=sys.stderr)
        return 2
    print(f"{'metric':<16} {'workload':<18} {'base':>12} {'head':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['metric']:<16} {row['workload']:<18} {row['base']:>12.6g} "
              f"{row['head']:>12.6g} {row['change']:>+8.2%} {row['spread']:>7.2%} "
              f"{row['bound']:>6.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
