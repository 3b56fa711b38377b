"""An independent reference for the layered method's capacity search.

:func:`reference_max_clients` below is ``LqnPredictor.max_clients`` as it
stood before the search was batched into rounds of sweeps: the serial
doubling-then-bisection loop, one :meth:`LqnSolver.solve` per probe,
verbatim apart from taking the predictor as an argument.  The round-based
search must return what it returns on every response curve, monotone or
not, raise the same :class:`~repro.util.errors.ValidationError` at the
search bound, and solve every probe the serial path visits.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lqn.builder import RequestTypeParameters, TradeModelParameters, build_trade_model
from repro.lqn.solver import LqnSolver
from repro.prediction.interface import LqnPredictor
from repro.servers.catalogue import APP_SERV_F, APP_SERV_S, APP_SERV_VF
from repro.util.errors import ValidationError
from repro.util.rng import spawn_rng
from repro.util.validation import check_positive
from repro.workload.trade import mixed_workload

_CAPACITY_SEARCH_BOUND = 1 << 20

# ---------------------------------------------------------------------------
# The serial search, verbatim (only the signature changed).


def reference_max_clients(
    self: LqnPredictor, server: str, rt_goal_ms: float, *, buy_fraction: float = 0.0
) -> int:
    check_positive(rt_goal_ms, "rt_goal_ms")
    arch = self._arch(server)

    def build(n: int):
        return build_trade_model(
            arch, mixed_workload(n, buy_fraction), self.parameters
        )

    # The goal is on the workload-mean response across classes;
    # exponential expansion then binary search, one solve per probe.
    def meets(n: int) -> bool:
        return self.solver.solve(build(n)).mean_response_ms() <= rt_goal_ms

    if not meets(1):
        return 0
    lo, hi = 1, 2
    while meets(hi):
        if hi >= _CAPACITY_SEARCH_BOUND:
            raise ValidationError(
                f"rt_goal_ms={rt_goal_ms!r} is still met on {server!r} at the "
                f"capacity search bound of {_CAPACITY_SEARCH_BOUND:,} clients"
            )
        lo, hi = hi, hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if meets(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Harness.

# The section-5 calibration the wall-clock benchmark serves.
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

# The benchmark's capacity cells: 3 servers x 4 goals x buy k/100, k in [0, 25].
CELLS = [
    (server, goal, k / 100)
    for server in ARCHITECTURES
    for goal in (300.0, 500.0, 800.0, 1200.0)
    for k in range(26)
]


def _population(model) -> int:
    return sum(task.multiplicity for task in model.reference_tasks())


class RecordingSolver:
    """Delegates to ``inner`` and records the population of every model solved."""

    def __init__(self, inner):
        self.inner = inner
        self.solved: list[int] = []

    def solve(self, model):
        self.solved.append(_population(model))
        return self.inner.solve(model)

    def solve_sweep(self, models):
        self.solved.extend(_population(model) for model in models)
        return self.inner.solve_sweep(models)


class _Answer:
    def __init__(self, response_ms: float):
        self._response_ms = response_ms

    def mean_response_ms(self) -> float:
        return self._response_ms


class CurveSolver:
    """A stub solver answering each model with ``curve(client count)``."""

    def __init__(self, curve):
        self.curve = curve

    def solve(self, model):
        return _Answer(self.curve(_population(model)))

    def solve_sweep(self, models):
        return [self.solve(model) for model in models]


def _outcome(search, *args, **kwargs):
    """The search's answer, or the message of the ValidationError it raised."""
    try:
        return search(*args, **kwargs)
    except ValidationError as exc:
        return ("ValidationError", str(exc))


def _compare(predictor: LqnPredictor, inner, server: str, goal: float, buy: float):
    """Run both searches on one query; returns (new, reference, new probes, serial probes)."""
    predictor.solver = RecordingSolver(inner)
    new = _outcome(predictor.max_clients, server, goal, buy_fraction=buy)
    batched = predictor.solver.solved
    predictor.solver = RecordingSolver(inner)
    reference = _outcome(reference_max_clients, predictor, server, goal, buy_fraction=buy)
    serial = predictor.solver.solved
    return new, reference, batched, serial


@pytest.fixture(scope="module")
def predictor() -> LqnPredictor:
    return LqnPredictor(PARAMS, ARCHITECTURES)


# ---------------------------------------------------------------------------
# The real solver.


SAMPLE = [CELLS[i] for i in spawn_rng(2004, "capacity-cells").choice(len(CELLS), 24, replace=False)]


@pytest.mark.parametrize("cell", SAMPLE, ids=str)
def test_bench_cells_match_the_serial_search(predictor, cell):
    server, goal, buy = cell
    new, reference, batched, serial = _compare(predictor, LqnSolver(), server, goal, buy)
    assert new == reference
    assert 0 < new < _CAPACITY_SEARCH_BOUND
    assert set(serial) <= set(batched)
    assert len(batched) == len(set(batched))  # no point is solved twice


@pytest.mark.parametrize("goal", [0.001, 1.0, 5.0])
def test_unreachable_goals_give_zero(predictor, goal):
    for server in ARCHITECTURES:
        new, reference, batched, serial = _compare(predictor, LqnSolver(), server, goal, 0.1)
        assert new == reference == 0
        assert serial == [1] and 1 in batched


def test_goal_met_at_the_bound_raises_the_same_error(predictor):
    new, reference, batched, serial = _compare(
        predictor, LqnSolver(), APP_SERV_VF.name, 1e8, 0.0
    )
    assert reference[0] == "ValidationError" and "1,048,576" in reference[1]
    assert new == reference
    assert set(serial) <= set(batched)
    assert max(batched) == _CAPACITY_SEARCH_BOUND


# ---------------------------------------------------------------------------
# Stub solvers: arbitrary, non-monotone response curves.


@st.composite
def curves(draw):
    """A knee-shaped response curve with periodic jitter and arbitrary spikes.

    Jitter and spikes make it non-monotone at every scale the search
    probes: neighbouring counts can invert, and a single count anywhere
    in the doubling range can answer anything.
    """
    floor = draw(st.floats(1.0, 100.0))
    knee = draw(st.integers(1, 5000))
    slope = draw(st.floats(1e-3, 50.0))
    jitter = draw(st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=17))
    counts = st.one_of(st.integers(1, 8192), st.sampled_from([1 << k for k in range(14)]))
    spikes = draw(st.dictionaries(counts, st.floats(0.0, 5000.0), max_size=12))

    def curve(n: int) -> float:
        if n in spikes:
            return spikes[n]
        return floor + slope * max(0, n - knee) + jitter[n % len(jitter)]

    return curve


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(curve=curves(), goal=st.floats(0.5, 20_000.0), buy=st.sampled_from([0.0, 0.25]))
def test_stub_curves_match_the_serial_search(predictor, curve, goal, buy):
    new, reference, batched, serial = _compare(
        predictor, CurveSolver(curve), APP_SERV_S.name, goal, buy
    )
    assert new == reference
    assert set(serial) <= set(batched)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    slope=st.floats(1e-5, 1e-3),
    goal=st.floats(1.0, 1e4),
    noise=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5),
)
def test_stub_curves_near_the_bound(predictor, slope, goal, noise):
    """Shallow curves whose crossing lies in a later doubling round, or nowhere."""

    def curve(n: int) -> float:
        return slope * n + noise[n % len(noise)]

    new, reference, batched, serial = _compare(
        predictor, CurveSolver(curve), APP_SERV_F.name, goal, 0.0
    )
    assert new == reference
    assert set(serial) <= set(batched)
