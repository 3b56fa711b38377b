"""Properties of the batched Bard–Schweitzer core and batched sweeps.

The load-bearing claim of the batch solver is *freeze-on-converge
bit-exactness*: every arithmetic step is elementwise over the batch axis
(or reduces over the class/station axes only), so a point iterates
through exactly the same floating-point trajectory whether it is solved
alone or alongside any set of batch neighbours — and a converged point's
frozen outputs are the same bits a solo solve returns.  These tests pin
that claim down at both layers:

* ``solve_batch`` vs per-point ``solve_bard_schweitzer`` (which *is* a
  batch of one) — hypothesis-generated multiclass networks, exact
  equality;
* ``LqnSolver.solve_networks`` vs a loop of ``LqnSolver.solve`` on real
  trade models — exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lqn.builder import (
    RequestTypeParameters,
    TradeModelParameters,
    build_trade_model,
)
from repro.lqn.mva import (
    MvaBatchInput,
    MvaInput,
    Station,
    StationKind,
    solve_batch,
    solve_bard_schweitzer,
)
from repro.lqn.solver import LqnSolver, SolverOptions
from repro.servers.catalogue import APP_SERV_F, APP_SERV_S, APP_SERV_VF
from repro.util.errors import ConvergenceError, ValidationError
from repro.workload.trade import typical_workload

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


def _point(stations, populations, thinks, demands, hidden=None) -> MvaInput:
    return MvaInput(
        stations=stations,
        class_names=[f"c{i}" for i in range(len(populations))],
        populations=populations,
        think_times_ms=thinks,
        demands=np.asarray(demands, dtype=float),
        hidden_demands=None if hidden is None else np.asarray(hidden, dtype=float),
    )


def _assert_same_solution(a, b) -> None:
    """Bitwise equality between two MvaSolution objects."""
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.throughput_per_ms, b.throughput_per_ms)
    np.testing.assert_array_equal(a.cycle_response_ms, b.cycle_response_ms)
    np.testing.assert_array_equal(a.queue_lengths, b.queue_lengths)
    np.testing.assert_array_equal(a.residence_ms, b.residence_ms)
    np.testing.assert_array_equal(a.utilisation, b.utilisation)
    assert a.open_response_ms == b.open_response_ms


# ---------------------------------------------------------------------------
# Hypothesis strategies: small multiclass networks sharing one structure.


@st.composite
def batched_networks(draw):
    K = draw(st.integers(1, 3))
    C = draw(st.integers(1, 2))
    B = draw(st.integers(2, 4))
    stations = []
    for k in range(K):
        kind = draw(st.sampled_from([StationKind.QUEUE, StationKind.DELAY]))
        waiting_only = kind is StationKind.QUEUE and draw(st.booleans())
        servers = draw(st.integers(1, 4)) if kind is StationKind.QUEUE else 1
        stations.append(
            Station(f"s{k}", kind=kind, servers=servers, waiting_only=waiting_only)
        )
    finite = st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False)
    points = []
    for _ in range(B):
        populations = draw(st.lists(st.integers(0, 30), min_size=C, max_size=C))
        thinks = draw(
            st.lists(
                st.floats(1.0, 100.0, allow_nan=False, allow_infinity=False),
                min_size=C,
                max_size=C,
            )
        )
        demands = [[draw(finite) for _ in range(K)] for _ in range(C)]
        hidden = None
        if draw(st.booleans()):
            hidden = [
                [draw(st.floats(0.0, 0.5, allow_nan=False)) for _ in range(K)]
                for _ in range(C)
            ]
        points.append(_point(stations, populations, thinks, demands, hidden))
    return points


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(points=batched_networks())
def test_batched_solve_is_bitwise_identical_to_serial(points):
    """Each batch point's frozen output equals its solo solve, bit for bit."""
    serial = []
    error = None
    for point in points:
        try:
            serial.append(solve_bard_schweitzer(point))
        except ValidationError as exc:  # hidden-demand overload, no steady state
            error = exc
            break
    if error is not None:
        with pytest.raises(ValidationError):
            solve_batch(MvaBatchInput.from_points(points))
        return
    batched = solve_batch(MvaBatchInput.from_points(points))
    assert batched.batch_size == len(points)
    for b, solo in enumerate(serial):
        _assert_same_solution(batched.solution(b), solo)


def test_batch_of_one_is_the_single_point_path():
    """``solve_bard_schweitzer`` is literally a batch of one."""
    point = _point(
        [Station("cpu", servers=2), Station("disk"), Station("think", kind=StationKind.DELAY)],
        populations=[5, 3],
        thinks=[40.0, 10.0],
        demands=[[4.0, 2.0, 7.0], [1.0, 6.0, 0.0]],
    )
    single = solve_bard_schweitzer(point)
    batch = solve_batch(MvaBatchInput.from_points([point]))
    _assert_same_solution(batch.solution(0), single)


def test_single_point_hook_stream_matches_batch_hook():
    """The 2-arg hook adapter relays the batch kernel's instants 1:1."""
    point = _point([Station("cpu")], [8], [25.0], [[5.0]])
    single_events: list[tuple[int, float]] = []
    batch_events: list[tuple[int, float, int]] = []
    solve_bard_schweitzer(
        point, iteration_hook=lambda i, delta: single_events.append((i, delta))
    )
    solve_batch(
        MvaBatchInput.from_points([point]),
        iteration_hook=lambda i, delta, n: batch_events.append((i, delta, n)),
    )
    assert [(i, d) for i, d, _ in batch_events] == single_events
    assert all(n == 1 for _, _, n in batch_events)


def test_trivial_and_active_points_coexist():
    """Zero-population points freeze immediately without touching others."""
    stations = [Station("cpu")]
    busy = _point(stations, [6], [30.0], [[5.0]])
    idle = _point(stations, [0], [30.0], [[5.0]])
    batched = solve_batch(MvaBatchInput.from_points([idle, busy, idle]))
    _assert_same_solution(batched.solution(1), solve_bard_schweitzer(busy))
    assert batched.solution(0).throughput_per_ms[0] == 0.0
    assert batched.iterations[0] == 0


def test_from_points_rejects_mismatched_structure():
    a = _point([Station("cpu")], [2], [10.0], [[1.0]])
    b = _point([Station("cpu", servers=2)], [2], [10.0], [[1.0]])
    with pytest.raises(ValidationError, match="point 1"):
        MvaBatchInput.from_points([a, b])


def test_subset_preserves_rows():
    points = [
        _point([Station("cpu")], [n], [10.0], [[2.0]]) for n in (1, 5, 9)
    ]
    batch = MvaBatchInput.from_points(points)
    sub = batch.subset(np.array([2, 0]))
    assert sub.batch_size == 2
    np.testing.assert_array_equal(sub.populations, [[9], [1]])
    _assert_same_solution(solve_batch(sub).solution(0), solve_bard_schweitzer(points[2]))


def test_batch_convergence_error_counts_stragglers():
    points = [
        _point([Station("cpu")], [20], [5.0], [[8.0]]),
        _point([Station("cpu")], [0], [5.0], [[8.0]]),  # trivial: never iterates
    ]
    with pytest.raises(ConvergenceError, match="1 of 2"):
        solve_batch(MvaBatchInput.from_points(points), max_iterations=1)


@pytest.mark.parametrize(
    "tol, message",
    [((), "ladder"), ((1e-2, 1e-1), "loosen"), ((1e-1, 0.0), "tol"), (float("nan"), "tol")],
)
def test_tolerance_ladder_is_validated(tol, message):
    batch = MvaBatchInput.from_points([_point([Station("cpu")], [2], [10.0], [[1.0]])])
    with pytest.raises(ValidationError, match=message):
        solve_batch(batch, tol=tol)


# ---------------------------------------------------------------------------
# Solver-level sweeps over real trade models.


@pytest.fixture(scope="module")
def solver():
    return LqnSolver(SolverOptions(convergence_criterion_ms=0.5))


@pytest.fixture(scope="module")
def sweep_models():
    # Several points per structure group, spanning three architectures
    # (three groups).
    models = []
    for arch in (APP_SERV_S, APP_SERV_F, APP_SERV_VF):
        for n in (30, 120, 480, 700, 950, 1200):
            models.append(build_trade_model(arch, typical_workload(n), PARAMS))
    return models


def _sweep(solver, models):
    """Solve ``models`` as one sweep, one network prepared per model."""
    networks = [solver.prepare(model) for model in models]
    return solver.solve_networks(
        [(network, *network.load_of(model)) for network, model in zip(networks, models)]
    )


def test_cold_sweep_is_bitwise_identical_to_solve_loop(solver, sweep_models):
    serial = [solver.solve(model) for model in sweep_models]
    swept = _sweep(solver, sweep_models)
    assert len(swept) == len(serial)
    for a, b in zip(serial, swept):
        assert a.response_ms == b.response_ms
        assert a.throughput_req_per_s == b.throughput_req_per_s
        assert a.processor_utilisation == b.processor_utilisation
        assert a.residence_ms == b.residence_ms
        assert a.task_concurrency == b.task_concurrency
        assert a.iterations == b.iterations
        assert a.final_residual_ms == b.final_residual_ms
        assert a.converged and b.converged


def test_sweep_returns_solutions_in_input_order(solver, sweep_models):
    # Grouping by structure happens inside the sweep; results must come
    # back aligned with the request, interleaved architectures and all.
    shuffled = sweep_models[::2] + sweep_models[1::2]
    swept = _sweep(solver, shuffled)
    for model, solution in zip(shuffled, swept):
        reference = {t.name for t in model.reference_tasks()}
        assert set(solution.response_ms) == reference
        expected = solver.solve(model)
        assert solution.response_ms == expected.response_ms
