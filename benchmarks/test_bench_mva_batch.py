"""Benchmark: batched MVA sweep solving vs the serial per-point path.

The PR gate for the vectorized Bard–Schweitzer core: on each of the
three experiment-shaped sweeps below, one ``LqnSolver.solve_sweep`` call
must be **>= 10x** faster than the serial path it replaced.  The serial
baseline is honest about what the pre-batching experiments actually did:

* **fig2** — the evaluation grid (3 architectures x 9 evaluation
  fractions).  The serial path solved every model *twice* — once for
  ``predict_mrt_ms`` and once for ``predict_throughput`` — so its
  baseline is 54 solves for 27 points.
* **fig6** — the resource-management load sweep's per-server prediction
  grid: every server of the section-9.1 pool (8 AppServS + 4 AppServF +
  4 AppServVF) predicted at 17 load levels, one solve per point — the
  allocator predicts each *managed server*, not each architecture.
* **table1** — the full table-1 pipeline grid: the evaluation points
  (double-solved, as in fig2) plus the hybrid start-up calibration
  points (single-solved), 39 models and 66 serial solves.

Ratios are min-of-``REPS`` wall-clock on both sides, with serial and
sweep repetitions *interleaved* so a transient slowdown on the machine
cannot poison one side's whole sample (deflaked: the minimum of a few
repetitions is far more stable than a single run).  They are measured
inside the test so the gate also holds under ``--benchmark-disable``
in CI.  Accuracy rides along: sweeps must be bit-identical to serial
solves.

Run as a script to (re)generate the committed artifact::

    PYTHONPATH=src python benchmarks/test_bench_mva_batch.py --bench BENCH_mva.json
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from repro.experiments.scenario import (
    EVALUATION_FRACTIONS,
    LOWER_CALIBRATION_FRACTIONS,
    SOLVER_OPTIONS,
    UPPER_CALIBRATION_FRACTIONS,
)
from repro.historical.throughput import gradient_from_think_time
from repro.hybrid.model import lqn_max_throughput
from repro.lqn.builder import (
    RequestTypeParameters,
    TradeModelParameters,
    build_trade_model,
)
from repro.lqn.solver import LqnSolver
from repro.servers.catalogue import ALL_APP_SERVERS
from repro.workload.trade import typical_workload

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_mva.json"

GATE_SPEEDUP = 10.0
REPS = 5

# Fixed calibration (the section-5 values the solver tests use) so the
# sweeps here are self-contained — no simulated-testbed warm-up needed.
PARAMS = TradeModelParameters(
    request_types={
        "browse": RequestTypeParameters(
            name="browse",
            app_demand_ms=5.376,
            db_calls=1.14,
            db_cpu_per_call_ms=0.8294,
            db_disk_per_call_ms=1.2,
        ),
        "buy": RequestTypeParameters(
            name="buy",
            app_demand_ms=10.455,
            db_calls=2.0,
            db_cpu_per_call_ms=1.613,
            db_disk_per_call_ms=1.5,
        ),
    }
)

# fig6's load axis spans idle to ~1.7x the max-throughput load, like the
# section-9 sweep's 17 load levels.
FIG6_FRACTIONS = tuple(i / 10 for i in range(1, 18))


def _n_at_max() -> dict[str, float]:
    """Max-throughput load per architecture, from the bottleneck law."""
    gradient = gradient_from_think_time(7000.0)
    out: dict[str, float] = {}
    for arch in ALL_APP_SERVERS:
        probe = build_trade_model(arch, typical_workload(100), PARAMS)
        out[arch.name] = lqn_max_throughput(probe) / gradient
    return out


def _grid(fraction_weights: list[tuple[float, int]]):
    """Build (model, serial_solves) pairs over architectures x fractions."""
    n_at_max = _n_at_max()
    models, weights = [], []
    for arch in ALL_APP_SERVERS:
        for frac, weight in fraction_weights:
            n = max(1, int(round(frac * n_at_max[arch.name])))
            models.append(build_trade_model(arch, typical_workload(n), PARAMS))
            weights.append(weight)
    return models, weights


def _fig6_grid():
    """One model per (managed server, load level) of the section-9 pool."""
    from repro.experiments.scenario import rm_server_pool

    n_at_max = _n_at_max()
    arch_by_name = {arch.name: arch for arch in ALL_APP_SERVERS}
    models, weights = [], []
    for server in rm_server_pool():
        arch = arch_by_name[server.architecture]
        for frac in FIG6_FRACTIONS:
            n = max(1, int(round(frac * n_at_max[arch.name])))
            models.append(build_trade_model(arch, typical_workload(n), PARAMS))
            weights.append(1)
    return models, weights


def _shapes() -> dict[str, tuple[list, list[int]]]:
    evaluation = [(frac, 2) for frac in EVALUATION_FRACTIONS]
    calibration = [
        (frac, 1)
        for frac in (*LOWER_CALIBRATION_FRACTIONS, *UPPER_CALIBRATION_FRACTIONS)
    ]
    return {
        "fig2": _grid(evaluation),
        "fig6": _fig6_grid(),
        "table1": _grid(evaluation + calibration),
    }


def _measure(models: list, weights: list[int]) -> dict[str, float]:
    """Min-of-REPS wall time for the serial loop and the batched sweep.

    Serial and sweep repetitions are interleaved: the sweep side is so
    much faster that a back-to-back block of its repetitions fits inside
    a single transient stall, which would poison every sample on that
    side at once.
    """
    serial_s = sweep_s = float("inf")
    for _ in range(REPS):
        solver = LqnSolver(SOLVER_OPTIONS)
        start = time.perf_counter()
        for model, weight in zip(models, weights):
            for _ in range(weight):
                solver.solve(model)
        serial_s = min(serial_s, time.perf_counter() - start)

        solver = LqnSolver(SOLVER_OPTIONS)
        start = time.perf_counter()
        solver.solve_sweep(models)
        sweep_s = min(sweep_s, time.perf_counter() - start)
    return {
        "points": len(models),
        "serial_solves": sum(weights),
        "serial_s": serial_s,
        "sweep_s": sweep_s,
        "speedup": serial_s / sweep_s,
    }


def run_shapes() -> dict[str, dict[str, float]]:
    """Measure every gated sweep shape (the BENCH_mva.json payload)."""
    return {name: _measure(models, weights) for name, (models, weights) in _shapes().items()}


@pytest.fixture(scope="module")
def shapes():
    return _shapes()


@pytest.fixture(scope="module")
def measured(shapes):
    return {name: _measure(models, weights) for name, (models, weights) in shapes.items()}


def test_bench_mva_batch_speedup_gate(measured, emit):
    """Every experiment-shaped sweep must clear the 10x gate."""
    rows = "\n".join(
        f"  {name:>6}: {m['points']:>2} points / {m['serial_solves']:>2} serial solves  "
        f"serial {m['serial_s'] * 1e3:7.1f} ms   sweep {m['sweep_s'] * 1e3:6.1f} ms   "
        f"{m['speedup']:5.1f}x"
        for name, m in measured.items()
    )
    emit("bench_mva_batch", "Batched MVA sweep vs serial per-point solving:\n" + rows)
    for name, m in measured.items():
        assert m["speedup"] >= GATE_SPEEDUP, (
            f"{name}: {m['speedup']:.1f}x < {GATE_SPEEDUP}x gate"
        )


def test_bench_mva_batch_cold_sweep_is_bit_identical(shapes):
    """Sweeps reproduce serial solves bit-for-bit."""
    models, _ = shapes["fig2"]
    solver = LqnSolver(SOLVER_OPTIONS)
    serial = [solver.solve(model) for model in models]
    swept = solver.solve_sweep(models)
    for a, b in zip(serial, swept):
        assert a.mean_response_ms() == b.mean_response_ms()
        assert a.total_throughput_req_per_s() == b.total_throughput_req_per_s()
        assert a.iterations == b.iterations


#: The finite-capacity solve path's allowed tax on capacity-free sweeps:
#: solve_batch_with_loss on an unbounded input must stay within 5% of the
#: raw core (it detects "no capacity stations", calls the core once, and
#: attaches zero loss arrays — nothing else).
LOSS_OVERHEAD_GATE = 1.05
LOSS_REPS = 9


def _unbounded_mixed_batch():
    """A capacity-free sweep shaped like the overload experiment's grid."""
    from repro.lqn.loss import solve_batch_with_loss  # noqa: F401 (import check)
    from repro.lqn.mva import MvaBatchInput, MvaInput, Station

    points = []
    for index in range(64):
        points.append(
            MvaInput(
                stations=[Station("app", servers=2), Station("db"), Station("disk")],
                class_names=["browse", "buy"],
                populations=[10 + index, 5 + index // 2],
                think_times_ms=[7000.0, 7000.0],
                demands=np.array([[5.4, 1.9, 1.4], [10.5, 3.2, 3.0]]),
                open_class_names=["open_browse"],
                open_rates_per_ms=[0.02 + 0.0005 * index],
                open_demands=np.array([[5.4, 1.9, 1.4]]),
            )
        )
    return MvaBatchInput.from_points(points)


def test_bench_loss_path_overhead_on_unbounded_sweeps():
    """Finite-capacity wrapper: < 5% overhead and bitwise-equal results
    when no station carries a capacity bound (min-of-REPS, interleaved)."""
    from repro.lqn.loss import solve_batch_with_loss
    from repro.lqn.mva import solve_batch

    batch = _unbounded_mixed_batch()
    plain_s = wrapped_s = float("inf")
    for _ in range(LOSS_REPS):
        start = time.perf_counter()
        plain = solve_batch(batch)
        plain_s = min(plain_s, time.perf_counter() - start)

        start = time.perf_counter()
        wrapped = solve_batch_with_loss(batch)
        wrapped_s = min(wrapped_s, time.perf_counter() - start)

    assert (wrapped.throughput_per_ms == plain.throughput_per_ms).all()
    assert (wrapped.queue_lengths == plain.queue_lengths).all()
    assert wrapped.open_response_ms == plain.open_response_ms
    assert not wrapped.loss_probability.any()
    assert wrapped_s <= plain_s * LOSS_OVERHEAD_GATE, (
        f"loss path adds {(wrapped_s / plain_s - 1) * 100:.2f}% "
        f"(> {(LOSS_OVERHEAD_GATE - 1) * 100:.0f}% gate) on unbounded sweeps"
    )


def test_bench_mva_batch_sweep_wall_cost(benchmark, shapes):
    """pytest-benchmark timing of the largest gated sweep (table1 shape)."""
    models, _ = shapes["table1"]
    solver = LqnSolver(SOLVER_OPTIONS)
    solutions = benchmark(lambda: solver.solve_sweep(models))
    assert len(solutions) == len(models)


def test_committed_bench_mva_artifact_is_valid():
    """BENCH_mva.json: every published shape documents a >= 10x speedup."""
    data = json.loads(BENCH_PATH.read_text())
    assert data["mode"] == "wall-clock"
    assert data["gate_speedup"] == GATE_SPEEDUP
    assert set(data["shapes"]) == {"fig2", "fig6", "table1"}
    for name, m in data["shapes"].items():
        assert m["speedup"] >= GATE_SPEEDUP, name
        assert m["serial_solves"] >= m["points"] > 0
        assert m["serial_s"] > m["sweep_s"] > 0
        assert m["speedup"] == pytest.approx(m["serial_s"] / m["sweep_s"], rel=1e-6)


def main() -> None:
    """Regenerate the committed BENCH_mva.json artifact."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--bench", default=str(BENCH_PATH), help="output path")
    args = parser.parse_args()
    shapes = {}
    for name, m in run_shapes().items():
        serial_s = round(m["serial_s"], 6)
        sweep_s = round(m["sweep_s"], 6)
        shapes[name] = {
            "points": m["points"],
            "serial_solves": m["serial_solves"],
            "serial_s": serial_s,
            "sweep_s": sweep_s,
            "speedup": round(serial_s / sweep_s, 6),
        }
    payload = {
        "mode": "wall-clock",
        "gate_speedup": GATE_SPEEDUP,
        "reps": REPS,
        "solver": {"convergence_criterion_ms": SOLVER_OPTIONS.convergence_criterion_ms},
        "shapes": shapes,
    }
    pathlib.Path(args.bench).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()
