"""The undamped fixed point converges, and stops within the criterion of it.

The Bard–Schweitzer step is undamped: each step's update is the next
iterate.  Damping (the step moved the iterate only half-way until it was
dropped) changes the trajectory, not the fixed point, so what this module
checks is where the solver *stops*:

* every solve of the fig2, fig6 and overload experiments (table1 fits
  the historical method only), every
  point of a 432-point operating grid and every hypothesis network the
  damped step solved, converges, and each class's response is within the
  convergence criterion of the fixed point itself (a ``queue_tol=1e-12``
  solve run to the floor of the tolerance ladder);
* the benchmark's 312 capacity cells keep the answers the damped step
  gave (pinned below);
* on single-class networks the error against exact MVA does not grow.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import rm_common
from repro.lqn.builder import RequestTypeParameters, TradeModelParameters
from repro.lqn.mva import (
    MvaBatchInput,
    MvaInput,
    Station,
    StationKind,
    solve_batch,
    solve_exact_single_class,
)
from repro.lqn.solver import LqnSolver, SolverOptions
from repro.prediction.interface import LqnPredictor
from repro.servers.catalogue import APP_SERV_F, APP_SERV_S, APP_SERV_VF
from repro.util.errors import ConvergenceError, ValidationError
from tests.test_lqn_ladder import networks
from tests.test_mva_step_reference import reference_solve_batch

#: The fixed point itself: a criterion no rung pair meets, down to 1e-12.
TIGHT = SolverOptions(queue_tol=1e-12, convergence_criterion_ms=1e-9)
#: The layered solver's default ladder: 10^-1 ... 10^-6.
LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

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
ARCHITECTURES = {arch.name: arch for arch in (APP_SERV_S, APP_SERV_F, APP_SERV_VF)}


def _distance_ms(solution, fixed_point) -> float:
    """Largest per-class response-time gap between two MVA solutions."""
    return float(
        np.max(np.abs(solution.cycle_response_ms - fixed_point.cycle_response_ms), initial=0.0)
    )


# ---------------------------------------------------------------------------
# The experiments' own solves.


@pytest.fixture
def recorded(monkeypatch):
    """Every batch the layered solver iterates, with its options and result."""
    batches: list[tuple] = []
    iterate = LqnSolver._iterate_batch

    def recording(self, batch):
        result = iterate(self, batch)
        batches.append((self.options, batch, result))
        return result

    monkeypatch.setattr(LqnSolver, "_iterate_batch", recording)
    return batches


def test_experiment_solves_stop_within_the_criterion(recorded, monkeypatch):
    # fig6 keeps its calibrated set-up for the process: start it afresh.
    monkeypatch.setattr(rm_common, "_SETUP_CACHE", {})
    points = {}
    for experiment in ("fig2", "fig6", "table1", "overload"):
        before = len(recorded)
        importlib.import_module(f"repro.experiments.{experiment}").run(fast=True)
        points[experiment] = sum(batch.batch_size for _, batch, _ in recorded[before:])
    # table1 fits the historical method only.
    assert points["fig2"] and points["fig6"] and points["overload"] and not points["table1"]
    batches = list(recorded)
    monkeypatch.undo()  # the tight solves below are not recorded
    assert any(
        station.capacity is not None for _, batch, _ in batches for station in batch.stations
    ), "the overload experiment's finite-capacity solves"
    for options, batch, solved in batches:
        tight = LqnSolver(TIGHT)._iterate_batch(batch)
        for (solution, _), (fixed_point, _) in zip(solved, tight):
            assert _distance_ms(solution, fixed_point) < options.convergence_criterion_ms


# ---------------------------------------------------------------------------
# An operating grid and the capacity cells, through the predictor.

GRID = [
    (server, n, buy)
    for server in ARCHITECTURES
    for n in range(50, 2401, 50)
    for buy in (0.0, 0.1, 0.25)
]


def test_operating_grid_stops_within_the_criterion():
    solved = LqnPredictor(PARAMS, ARCHITECTURES).solve_points(GRID)
    tight = LqnPredictor(PARAMS, ARCHITECTURES, solver_options=TIGHT).solve_points(GRID)
    criterion = SolverOptions().convergence_criterion_ms
    for point, got, fixed_point in zip(GRID, solved, tight):
        for name, response in got.response_ms.items():
            assert abs(response - fixed_point.response_ms[name]) < criterion, (point, name)
        assert abs(got.mean_response_ms() - fixed_point.mean_response_ms()) < criterion
    # The undamped step takes about half the damped step's 73 per point.
    assert np.mean([s.iterations for s in solved]) < 40


#: ``max_clients`` on every (server, goal) for buy k/100, k = 0 … 25, as
#: the damped step answered them.
DAMPED_CAPACITY = {
    ("AppServS", 300.0): [604, 598, 592, 587, 582, 576, 571, 566, 561, 556, 551, 546, 542, 537, 532, 528, 523, 519, 514, 510, 506, 502, 498, 494, 490, 486],
    ("AppServS", 500.0): [630, 625, 620, 614, 609, 603, 598, 592, 587, 583, 577, 572, 568, 563, 558, 554, 549, 544, 541, 536, 532, 527, 523, 519, 515, 511],
    ("AppServS", 800.0): [662, 655, 650, 645, 639, 633, 628, 623, 618, 613, 608, 603, 598, 593, 588, 583, 578, 574, 569, 565, 561, 556, 552, 548, 543, 539],
    ("AppServS", 1200.0): [699, 693, 687, 682, 676, 670, 665, 660, 655, 649, 644, 639, 634, 628, 624, 619, 614, 609, 604, 600, 595, 591, 586, 582, 577, 573],
    ("AppServF", 300.0): [1334, 1322, 1310, 1298, 1286, 1274, 1263, 1252, 1242, 1230, 1220, 1210, 1199, 1189, 1179, 1169, 1159, 1150, 1141, 1132, 1122, 1114, 1105, 1096, 1088, 1079],
    ("AppServF", 500.0): [1380, 1368, 1356, 1344, 1333, 1321, 1309, 1298, 1287, 1276, 1265, 1255, 1245, 1234, 1224, 1215, 1204, 1195, 1186, 1176, 1167, 1158, 1148, 1140, 1131, 1122],
    ("AppServF", 800.0): [1442, 1429, 1417, 1405, 1393, 1381, 1370, 1358, 1347, 1336, 1325, 1314, 1304, 1293, 1282, 1272, 1262, 1252, 1242, 1233, 1223, 1214, 1205, 1196, 1186, 1178],
    ("AppServF", 1200.0): [1519, 1506, 1494, 1482, 1469, 1458, 1446, 1434, 1422, 1411, 1400, 1389, 1378, 1367, 1356, 1346, 1335, 1325, 1315, 1305, 1295, 1285, 1275, 1266, 1256, 1247],
    ("AppServVF", 300.0): [2312, 2291, 2270, 2249, 2230, 2210, 2191, 2172, 2153, 2134, 2116, 2098, 2080, 2063, 2046, 2030, 2013, 1997, 1980, 1965, 1949, 1933, 1918, 1903, 1889, 1874],
    ("AppServVF", 500.0): [2385, 2364, 2343, 2323, 2303, 2283, 2263, 2244, 2225, 2206, 2188, 2169, 2152, 2134, 2117, 2100, 2083, 2066, 2050, 2034, 2017, 2002, 1986, 1971, 1956, 1941],
    ("AppServVF", 800.0): [2487, 2465, 2444, 2423, 2403, 2383, 2363, 2344, 2324, 2305, 2286, 2268, 2249, 2231, 2213, 2196, 2178, 2161, 2145, 2128, 2112, 2095, 2079, 2063, 2047, 2033],
    ("AppServVF", 1200.0): [2618, 2596, 2574, 2553, 2533, 2512, 2492, 2472, 2452, 2432, 2413, 2394, 2375, 2357, 2338, 2320, 2302, 2284, 2267, 2249, 2232, 2216, 2198, 2182, 2166, 2149],
}


def test_capacity_cells_keep_the_damped_answers():
    predictor = LqnPredictor(PARAMS, ARCHITECTURES)
    for (server, goal), answers in DAMPED_CAPACITY.items():
        got = [predictor.max_clients(server, goal, buy_fraction=k / 100) for k in range(26)]
        assert got == answers, (server, goal)


# ---------------------------------------------------------------------------
# Hypothesis networks: the undamped step converges where the damped one did.


def _ladder(solve, batch, criterion_ms, **kwargs):
    try:
        return solve(
            batch, tol=LADDER, criterion_ms=criterion_ms, max_iterations=200_000, **kwargs
        )
    except (ConvergenceError, ValidationError) as exc:
        return exc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point=networks(), criterion_ms=st.sampled_from([20.0, 1.0]))
def test_random_networks_converge_as_the_damped_step_did(point, criterion_ms):
    """At the paper's 20 ms and the solver's 1 ms criterion.

    The ladder's stopping rule bounds how far the responses moved between
    two rungs, not how far they are from the fixed point.  At a 0.1 ms
    criterion that gap shows: hypothesis finds networks where either step
    stops further out (undamped 0.12 ms on a 3-client class behind a
    12 ms station with open load; damped 0.16 ms on a random draw).
    """
    batch = MvaBatchInput.from_points([point])
    undamped = _ladder(solve_batch, batch, criterion_ms)
    damped = _ladder(reference_solve_batch, batch, criterion_ms, damping=0.5)
    if isinstance(damped, Exception):
        # Hidden load past a station's capacity has no steady state at
        # any damping.
        assert type(undamped) is type(damped)
        return
    assert not isinstance(undamped, Exception), undamped
    fixed_point = solve_batch(batch, tol=1e-12, max_iterations=1_000_000)
    assert _distance_ms(undamped, fixed_point) < criterion_ms


# ---------------------------------------------------------------------------
# Exact MVA: the approximation error does not grow.

SINGLE_CLASS = {
    # The flattened trade network on AppServF: app CPU, database CPU and
    # disk per browse request, and a network delay.
    "trade": (
        [Station("app"), Station("db"), Station("disk"), Station("net", kind=StationKind.DELAY)],
        [5.376 / 1.5, 0.8294 * 1.14, 1.2 * 1.14, 3.0],
        7000.0,
        range(1, 1500, 25),
    ),
    "multi-server": ([Station("cpu", servers=4), Station("disk")], [20.0, 3.0], 1000.0,
                     range(1, 400, 7)),
    "balanced": ([Station("a"), Station("b"), Station("c")], [4.0, 4.0, 3.5], 500.0,
                 range(1, 300, 5)),
}


@pytest.mark.parametrize("name", sorted(SINGLE_CLASS))
def test_error_against_exact_mva_does_not_grow(name):
    stations, demands, think_ms, populations = SINGLE_CLASS[name]
    batch = MvaBatchInput.from_points(
        [
            MvaInput(
                stations=stations,
                class_names=["c"],
                populations=[n],
                think_times_ms=[think_ms],
                demands=np.array([demands]),
            )
            for n in populations
        ]
    )
    exact = np.array(
        [
            solve_exact_single_class(stations, demands, n, think_ms).cycle_response_ms[0]
            for n in populations
        ]
    )
    undamped = np.abs(_ladder(solve_batch, batch, 1.0).cycle_response_ms[:, 0] - exact)
    damped = np.abs(
        _ladder(reference_solve_batch, batch, 1.0, damping=0.5).cycle_response_ms[:, 0] - exact
    )
    assert undamped.mean() <= damped.mean()
    assert undamped.max() <= damped.max()
    # Point by point the two stop at different iterates, both within the
    # criterion of the same fixed point.
    assert (undamped <= damped + 1.0).all()
