"""Wall-clock gates: every timing check in the repository that holds a bound.

Each gate compares minima of repeated measurements taken in one process:
OS noise only ever inflates a timing, so the minimum is the stable in-run
baseline.  The gates are marked ``wallclock`` and deselected from the
default run (``addopts`` in ``pyproject.toml``), because a shared machine
can fail them without any change to the code.  CI runs them as separate
steps::

    python -m pytest tests/test_wallclock_gates.py -m wallclock -q -s

* disabled tracing and disarmed fault injection each cost < 2% of an
  LQN solve;
* the full distribution-fitting ladder sustains > 100k samples/s;
* one batched sweep is >= 10x a serial loop of solves, on three
  experiment-shaped grids;
* the finite-capacity solve path adds < 5% on sweeps with no capacity
  bound.

The one unmarked test checks the committed ``BENCH_mva.json``, which this
module regenerates when run as a script::

    PYTHONPATH=src python tests/test_wallclock_gates.py --bench BENCH_mva.json
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
from repro.faults import INJECTOR
from repro.historical.throughput import gradient_from_think_time
from repro.hybrid.model import lqn_max_throughput
from repro.lqn.builder import (
    RequestTypeParameters,
    TradeModelParameters,
    build_trade_model,
)
from repro.lqn.loss import solve_batch_with_loss
from repro.lqn.mva import MvaBatchInput, MvaInput, Station, solve_batch
from repro.lqn.solver import LqnSolver, PreparedNetwork, SolverOptions
from repro.servers.catalogue import ALL_APP_SERVERS, APP_SERV_S
from repro.trace import TRACER
from repro.util.rng import spawn_rng
from repro.workload.trade import typical_workload
from repro.workload.fitting import fit_all

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_mva.json"

# Fixed calibration (the section-5 values the solver tests use), so no
# gate needs the simulated testbed.
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

# ---------------------------------------------------------------------------
# Disabled instrumentation: tracing and fault injection, < 2% of a solve.

#: The overhead gates' solve: browse-only, so the network has no buy entries.
BROWSE_PARAMS = TradeModelParameters(request_types={"browse": PARAMS.request_types["browse"]})

#: A deliberate over-count of the disabled tracer touch points one solve
#: passes through (span context managers + enabled-flag guards).
CALLSITES_PER_SOLVE = 16

#: A deliberate over-count of the disarmed guards one solve-backed serving
#: request passes through: lqn.solve (1), cache get trip+filter (2),
#: admission (1), pool (1), historical datastore/predict fallback sites
#: (3), doubled for margin.
SITES_PER_SOLVE = 16


def _min_solve_s(repeats: int = 30) -> float:
    """Fastest of ``repeats`` solves of the AppServS 400-client model."""
    model = build_trade_model(APP_SERV_S, typical_workload(400), BROWSE_PARAMS)
    solver = LqnSolver(SolverOptions(convergence_criterion_ms=0.5))
    solver.solve(model)  # warm lazy setup out of the timing
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        solver.solve(model)
        best = min(best, time.perf_counter() - start)
    return best


def _assert_overhead_below_2_percent(what: str, sites: int, op_s: float) -> None:
    min_solve_s = _min_solve_s()
    overhead_fraction = (sites * op_s) / min_solve_s
    print(
        f"\nmin solve: {min_solve_s * 1e3:.3f} ms, {what}: {op_s * 1e9:.0f} ns, "
        f"implied overhead ({sites} sites): {overhead_fraction * 100:.4f}%"
    )
    assert overhead_fraction < 0.02, (
        f"{what} costs {overhead_fraction * 100:.3f}% of a solve (budget: 2%)"
    )


@pytest.mark.wallclock
def test_disabled_tracing_costs_under_2_percent_of_a_solve():
    assert not TRACER.enabled
    span = TRACER.span
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(50_000):
            with span("bench"):
                pass
        best = min(best, (time.perf_counter() - start) / 50_000)
    _assert_overhead_below_2_percent("disabled span", CALLSITES_PER_SOLVE, best)


@pytest.mark.wallclock
def test_disarmed_faults_cost_under_2_percent_of_a_solve():
    assert not INJECTOR.armed
    injector = INJECTOR
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(50_000):
            if injector.armed:  # pragma: no cover - disarmed by assertion
                injector.fire("bench")
        best = min(best, (time.perf_counter() - start) / 50_000)
    _assert_overhead_below_2_percent("disarmed guard", SITES_PER_SOLVE, best)


# ---------------------------------------------------------------------------
# Workload characterisation: the full fitting ladder, > 100k samples/s.

#: Floor on fitted samples per second for the full candidate ladder.
MIN_SAMPLES_PER_S = 100_000.0


@pytest.mark.wallclock
def test_fit_all_sustains_100k_samples_per_s():
    # A representative heavy-ish think-time sample (lognormal ms).
    samples = np.exp(spawn_rng(2004, "bench:workloads").normal(8.3, 0.9, 5_000))
    fit_all(samples)  # warm numpy/scipy lazy setup out of the timing
    best_s = float("inf")
    for _ in range(10):
        start = time.perf_counter()
        fit_all(samples)
        best_s = min(best_s, time.perf_counter() - start)
    samples_per_s = len(samples) / best_s
    print(
        f"\nfit_all over {len(samples)} samples: best {best_s * 1e3:.2f} ms "
        f"({samples_per_s / 1e3:.0f}k samples/s)"
    )
    assert samples_per_s > MIN_SAMPLES_PER_S, (
        f"fit_all sustains only {samples_per_s / 1e3:.0f}k samples/s "
        f"(floor: {MIN_SAMPLES_PER_S / 1e3:.0f}k)"
    )


# ---------------------------------------------------------------------------
# Batched sweeps: >= 10x a serial loop of solves.
#
# The serial baseline is what the experiments did before batching:
# * fig2: 3 architectures x 9 evaluation fractions, every model solved
#   twice (once for the response time, once for the throughput): 54 solves
#   for 27 points;
# * fig6: every server of the section-9.1 pool (8 AppServS + 4 AppServF +
#   4 AppServVF) at 17 load levels, one solve per point;
# * table1: fig2's points plus the hybrid start-up calibration points
#   (solved once): 39 models, 66 serial solves.

GATE_SPEEDUP = 10.0
REPS = 5

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
    """Build (model, serial_solves, (architecture, clients)) triples over
    architectures x fractions."""
    n_at_max = _n_at_max()
    models, weights, loads = [], [], []
    for arch in ALL_APP_SERVERS:
        for frac, weight in fraction_weights:
            n = max(1, int(round(frac * n_at_max[arch.name])))
            models.append(build_trade_model(arch, typical_workload(n), PARAMS))
            weights.append(weight)
            loads.append((arch.name, n))
    return models, weights, loads


def _fig6_grid():
    """One model per (managed server, load level) of the section-9 pool."""
    from repro.experiments.scenario import rm_server_pool

    n_at_max = _n_at_max()
    arch_by_name = {arch.name: arch for arch in ALL_APP_SERVERS}
    models, weights, loads = [], [], []
    for server in rm_server_pool():
        arch = arch_by_name[server.architecture]
        for frac in FIG6_FRACTIONS:
            n = max(1, int(round(frac * n_at_max[arch.name])))
            models.append(build_trade_model(arch, typical_workload(n), PARAMS))
            weights.append(1)
            loads.append((arch.name, n))
    return models, weights, loads


def _shapes() -> dict[str, tuple[list, list[int], list[tuple[str, int]]]]:
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


def _measure(
    models: list, weights: list[int], loads: list[tuple[str, int]]
) -> dict[str, float]:
    """Min-of-REPS wall time for the serial loop and the batched sweep.

    The sweep side prepares one network per architecture inside its timed
    region, then solves every point in one batch, as the hybrid
    calibration grid does.  Serial and sweep repetitions are interleaved:
    the sweep side is so much faster that a back-to-back block of its
    repetitions fits inside a single transient stall, which would poison
    every sample on that side at once.
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
        networks: dict[str, PreparedNetwork] = {}
        points = []
        for model, (arch, n) in zip(models, loads):
            network = networks.get(arch)
            if network is None:
                network = networks[arch] = solver.prepare(model)
            points.append((network, (n,), ()))
        solver.solve_networks(points)
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
    return {name: _measure(*shape) for name, shape in _shapes().items()}


@pytest.mark.wallclock
def test_sweeps_are_10x_faster_than_serial_solves():
    measured = run_shapes()
    print("\nBatched MVA sweep vs serial per-point solving:")
    for name, m in measured.items():
        print(
            f"  {name:>6}: {m['points']:>3} points / {m['serial_solves']:>3} serial solves  "
            f"serial {m['serial_s'] * 1e3:7.1f} ms   sweep {m['sweep_s'] * 1e3:6.1f} ms   "
            f"{m['speedup']:5.1f}x"
        )
    for name, m in measured.items():
        assert m["speedup"] >= GATE_SPEEDUP, (
            f"{name}: {m['speedup']:.1f}x < {GATE_SPEEDUP}x gate"
        )


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


# ---------------------------------------------------------------------------
# The finite-capacity solve path on capacity-free sweeps: < 5%.

#: solve_batch_with_loss on an unbounded input must stay within 5% of the
#: raw core (it detects "no capacity stations", calls the core once, and
#: attaches zero loss arrays — nothing else).
LOSS_OVERHEAD_GATE = 1.05
#: Min of LOSS_REPS samples per side, each timing LOSS_CALLS back-to-back
#: ~0.5 ms calls.  Nine one-call samples read up to +7% on untouched code;
#: many short samples give the minimum more chances at a quiet moment.
LOSS_REPS = 151
LOSS_CALLS = 2


def _unbounded_mixed_batch() -> MvaBatchInput:
    """A capacity-free sweep shaped like the overload experiment's grid."""
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


@pytest.mark.wallclock
def test_loss_path_costs_under_5_percent_on_unbounded_sweeps():
    """Min-of-LOSS_REPS, interleaved, the side that goes first alternating;
    the results must also be bitwise equal."""
    batch = _unbounded_mixed_batch()
    plain = solve_batch(batch)
    wrapped = solve_batch_with_loss(batch)

    def per_call_s(solve) -> float:
        start = time.perf_counter()
        for _ in range(LOSS_CALLS):
            solve(batch)
        return (time.perf_counter() - start) / LOSS_CALLS

    plain_s = wrapped_s = float("inf")
    for rep in range(LOSS_REPS):
        if rep % 2:
            wrapped_s = min(wrapped_s, per_call_s(solve_batch_with_loss))
            plain_s = min(plain_s, per_call_s(solve_batch))
        else:
            plain_s = min(plain_s, per_call_s(solve_batch))
            wrapped_s = min(wrapped_s, per_call_s(solve_batch_with_loss))

    print(
        f"\nplain {plain_s * 1e3:.3f} ms, with loss path {wrapped_s * 1e3:.3f} ms "
        f"({(wrapped_s / plain_s - 1) * 100:+.2f}%)"
    )
    assert (wrapped.throughput_per_ms == plain.throughput_per_ms).all()
    assert (wrapped.queue_lengths == plain.queue_lengths).all()
    assert wrapped.open_response_ms == plain.open_response_ms
    assert not wrapped.loss_probability.any()
    assert wrapped_s <= plain_s * LOSS_OVERHEAD_GATE, (
        f"loss path adds {(wrapped_s / plain_s - 1) * 100:.2f}% "
        f"(> {(LOSS_OVERHEAD_GATE - 1) * 100:.0f}% gate) on unbounded sweeps"
    )


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
