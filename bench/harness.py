"""Run one workload in this process and turn its outcome into a result.

The set-up clock starts after the inputs are generated and before
``repro`` is first imported, and stops at the first timed request.
Set-up is repeated in fresh processes (:mod:`bench.probe`) and the median
is reported, so work moved into set-up shows.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Set-ups per untraced run: this process's own plus fresh-process probes.
SETUP_RUNS = 3
PROBE_TIMEOUT_S = 120


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: the program's source is missing: {SRC / 'repro'}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def declared_metrics() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def run_seconds() -> float:
    """How long every run measures: ``run_seconds`` of ``BENCHMARK.json``."""
    return float(declared_metrics()["run_seconds"])


def make_inputs(workload: str, seed: int, servers: tuple = spec.SERVERS):
    """The workload's seeded inputs (no ``repro`` needed)."""
    if workload == "testbed":
        return spec.testbed_points(seed, servers)
    return spec.serving_stream(workload, seed)


def setup(workload: str, inputs):
    """Everything between child start and the first timed request."""
    if workload == "testbed":
        from bench import testbed

        return testbed.setup(inputs)
    from bench import serving

    return serving.setup(workload)


def teardown(workload: str, state) -> None:
    """Release what :func:`setup` started (the service's worker pool)."""
    if workload != "testbed":
        state.shutdown()


def _check_imported_source() -> None:
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"bench: imported repro from {repro.__file__}, not from {SRC}")


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh process."""
    completed = subprocess.run(
        [sys.executable, "-m", "bench.probe", workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(completed.stdout.split()[-1])


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    servers: tuple = spec.SERVERS,
    setup_runs: int = SETUP_RUNS,
) -> dict:
    """Set up, measure and check one workload; returns the full result record.

    ``seconds`` and ``servers`` (the testbed's points) are shortened only
    by the self-test; the command line always measures ``run_seconds()``.
    ``correct`` is False when an output check failed, and ``problems``
    says why.
    """
    inputs = make_inputs(workload, seed, servers)
    start = time.perf_counter()
    state = setup(workload, inputs)
    setup_s = [time.perf_counter() - start]
    _check_imported_source()
    if workload == "testbed":
        from bench import testbed

        outcome = testbed.run(state, seconds, trace, OUT_DIR)
    else:
        from bench import serving

        outcome = serving.run(workload, state, inputs, seconds, seed, trace, OUT_DIR)

    declared = declared_metrics()
    if trace:
        metrics = {
            m["name"]: {"value": outcome["layers"].get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared["per_layer"]
        }
    else:
        setup_s += [probe_setup(workload, seed) for _ in range(setup_runs - 1)]
        outcome["metrics"]["setup_s"] = (statistics.median(setup_s), "s")
        outcome["detail"]["setup_samples_s"] = setup_s
        metrics = {
            m["name"]: {"value": outcome["metrics"][m["name"]][0], "unit": m["unit"]}
            for m in declared["end_to_end"]
        }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
        "problems": outcome["problems"],
        "report": outcome.get("report", ""),
        "detail": outcome["detail"],
    }


def append_runs(path: Path, records: list[dict]) -> None:
    """Add result records to a ``{"runs": [...]}`` file, creating it if needed."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"runs": []}
    data["runs"].extend(records)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
