"""Command line: run workloads, or compare and summarise saved runs.

    python3 -m bench [--workload W] [--seed S] [--trace [0|1]] [--out FILE]
    python3 -m bench compare BASE.json HEAD.json
    python3 -m bench spread RUNS.json

With ``--workload`` the workload runs in this process and the last line
of standard output is its JSON result; without it every workload runs in
a fresh child process, one after another.  A failed output check exits
non-zero and prints no result.

Every run measures for ``run_seconds`` of ``BENCHMARK.json``, so runs of
two commits always have the same length.  ``--seconds N`` is accepted
only as a cross-check by callers that pass it and must equal that value.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench import harness, spec

CHILD_TIMEOUT_S = 600


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, help="run only this workload")
    parser.add_argument("--seed", type=int, default=2004, help="generates every input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal run_seconds of BENCHMARK.json (a cross-check)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: per-layer metrics from a traced replay instead")
    parser.add_argument("--out", type=Path, help="append the result records to this JSON file")
    return parser.parse_args(argv)


def _print_result(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']:g}  trace {record['trace']}")
    detail = record["detail"]
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"timing samples {detail['samples']}  "
          f"latency {detail['latency_tail_is']} {detail['latency_tail_ms']:.6g} ms (not gated)")
    if record["report"]:
        print(record["report"])


def run_one(args: argparse.Namespace) -> int:
    """Run ``args.workload`` here; print its report and its JSON result."""
    harness.use_checkout_source()
    record = harness.run_workload(args.workload, args.seed, harness.run_seconds(),
                                  bool(args.trace))
    if not record["correct"]:
        for problem in record["problems"]:
            print(f"bench: check failed: {problem}", file=sys.stderr)
        return 1
    if args.out is not None:
        harness.append_runs(args.out, [record])
    _print_result(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own child process, one after another."""
    results, status = {}, 0
    for workload in spec.WORKLOADS:
        command = [sys.executable, "-m", "bench", "--workload", workload, "--seed",
                   str(args.seed), "--trace", str(args.trace)]
        if args.out is not None:
            command += ["--out", str(args.out.resolve())]
        child = subprocess.run(command, cwd=harness.ROOT, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            status = 1
            continue
        results[workload] = json.loads(child.stdout.splitlines()[-1])
    print(json.dumps(results))
    return status


def main(argv: list[str]) -> int:
    """Dispatch to ``compare``/``spread`` or run workloads."""
    if argv and argv[0] in ("compare", "spread"):
        from bench import compare

        return compare.main(argv)
    args = _parse(argv)
    if args.seconds is not None and args.seconds != harness.run_seconds():
        print(f"bench: --seconds {args.seconds:g} differs from run_seconds "
              f"{harness.run_seconds():g} of BENCHMARK.json", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
