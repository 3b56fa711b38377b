"""Tests for the MVA cores: exact recursion vs closed forms, and the
Bard-Schweitzer approximation vs the exact recursion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lqn.mva import (
    MvaBatchInput,
    MvaInput,
    Station,
    StationKind,
    solve_bard_schweitzer,
    solve_exact_single_class,
)
from repro.lqn.model import Call, Entry, LqnModel, Processor, Scheduling, Task
from repro.lqn.solver import LqnSolver
from repro.util.errors import ValidationError


def machine_repairman_throughput(n: int, z: float, d: float) -> float:
    """Exact closed-form throughput of the M/M/1 machine-repairman model
    (n customers, think z, single exponential server with demand d),
    computed from the birth-death stationary distribution."""
    # p(k) proportional to (n!/(n-k)!) * (d/z)^k for k customers at server.
    weights = []
    for k in range(n + 1):
        w = 1.0
        for i in range(k):
            w *= (n - i) * d / z
        weights.append(w)
    total = sum(weights)
    p = [w / total for w in weights]
    utilisation = 1.0 - p[0]
    return utilisation / d


class TestExactMva:
    def test_single_customer_no_queueing(self):
        solution = solve_exact_single_class(
            [Station("cpu")], [10.0], population=1, think_time_ms=90.0
        )
        assert solution.cycle_response_ms[0] == pytest.approx(10.0)
        assert solution.throughput_per_ms[0] == pytest.approx(1.0 / 100.0)

    def test_matches_machine_repairman_closed_form(self):
        n, z, d = 8, 50.0, 10.0
        solution = solve_exact_single_class(
            [Station("cpu")], [d], population=n, think_time_ms=z
        )
        expected = machine_repairman_throughput(n, z, d)
        assert solution.throughput_per_ms[0] == pytest.approx(expected, rel=1e-9)

    def test_delay_station_adds_no_queueing(self):
        solution = solve_exact_single_class(
            [Station("net", kind=StationKind.DELAY)], [10.0], population=50, think_time_ms=0.0
        )
        assert solution.cycle_response_ms[0] == pytest.approx(10.0)

    def test_asymptotic_throughput_bounded_by_bottleneck(self):
        solution = solve_exact_single_class(
            [Station("cpu")], [10.0], population=500, think_time_ms=100.0
        )
        assert solution.throughput_per_ms[0] == pytest.approx(0.1, rel=1e-3)
        assert solution.utilisation[0] <= 1.0 + 1e-9

    def test_multiserver_faster_than_single(self):
        single = solve_exact_single_class(
            [Station("cpu")], [10.0], population=20, think_time_ms=50.0
        )
        multi = solve_exact_single_class(
            [Station("cpu", servers=4)], [10.0], population=20, think_time_ms=50.0
        )
        assert multi.cycle_response_ms[0] < single.cycle_response_ms[0]

    def test_multiserver_low_load_equals_demand(self):
        solution = solve_exact_single_class(
            [Station("cpu", servers=4)], [10.0], population=1, think_time_ms=1000.0
        )
        assert solution.cycle_response_ms[0] == pytest.approx(10.0)

    def test_multiserver_saturation_scales_with_servers(self):
        solution = solve_exact_single_class(
            [Station("cpu", servers=4)], [10.0], population=2000, think_time_ms=100.0
        )
        # capacity = m/D = 0.4 per ms
        assert solution.throughput_per_ms[0] == pytest.approx(0.4, rel=0.01)

    def test_zero_population(self):
        solution = solve_exact_single_class(
            [Station("cpu")], [10.0], population=0, think_time_ms=10.0
        )
        assert solution.throughput_per_ms[0] == 0.0

    def test_rejects_surrogate_stations(self):
        with pytest.raises(ValidationError):
            solve_exact_single_class(
                [Station("s", waiting_only=True)], [1.0], population=1
            )


def single_class_input(demands, population, think, stations=None) -> MvaInput:
    stations = stations or [Station(f"s{i}") for i in range(len(demands))]
    return MvaInput(
        stations=stations,
        class_names=["c"],
        populations=[population],
        think_times_ms=[think],
        demands=np.array([demands], dtype=float),
    )


class TestBardSchweitzer:
    @pytest.mark.parametrize("population", [1, 4, 16, 64, 256])
    def test_close_to_exact_single_class(self, population):
        demands = [10.0, 3.0]
        think = 70.0
        exact = solve_exact_single_class(
            [Station("a"), Station("b")], demands, population, think
        )
        approx = solve_bard_schweitzer(single_class_input(demands, population, think))
        assert approx.throughput_per_ms[0] == pytest.approx(
            exact.throughput_per_ms[0], rel=0.05
        )
        assert approx.cycle_response_ms[0] == pytest.approx(
            exact.cycle_response_ms[0], rel=0.15
        )

    def test_littles_law_holds(self):
        inp = single_class_input([10.0, 3.0], 50, 100.0)
        solution = solve_bard_schweitzer(inp)
        x = solution.throughput_per_ms[0]
        # N = X * (R + Z)
        assert x * (solution.cycle_response_ms[0] + 100.0) == pytest.approx(50, rel=1e-6)

    def test_utilisation_never_exceeds_one(self):
        inp = single_class_input([10.0], 10_000, 10.0)
        solution = solve_bard_schweitzer(inp)
        assert solution.utilisation[0] <= 1.0 + 1e-6

    def test_multiclass_throughput_split(self):
        inp = MvaInput(
            stations=[Station("cpu")],
            class_names=["a", "b"],
            populations=[50, 100],
            think_times_ms=[1000.0, 1000.0],
            demands=np.array([[2.0], [2.0]]),
        )
        solution = solve_bard_schweitzer(inp)
        # Identical per-client behaviour: class throughput proportional to
        # population.
        ratio = solution.throughput_per_ms[1] / solution.throughput_per_ms[0]
        assert ratio == pytest.approx(2.0, rel=0.02)

    def test_heavier_class_sees_longer_response(self):
        inp = MvaInput(
            stations=[Station("cpu")],
            class_names=["light", "heavy"],
            populations=[50, 50],
            think_times_ms=[1000.0, 1000.0],
            demands=np.array([[2.0], [8.0]]),
        )
        solution = solve_bard_schweitzer(inp)
        assert solution.cycle_response_ms[1] > solution.cycle_response_ms[0]

    def test_zero_population_class_ignored(self):
        inp = MvaInput(
            stations=[Station("cpu")],
            class_names=["a", "b"],
            populations=[50, 0],
            think_times_ms=[100.0, 100.0],
            demands=np.array([[5.0], [5.0]]),
        )
        solution = solve_bard_schweitzer(inp)
        assert solution.throughput_per_ms[1] == 0.0
        assert solution.throughput_per_ms[0] > 0.0

    def test_empty_network(self):
        inp = MvaInput(
            stations=[Station("cpu")],
            class_names=["a"],
            populations=[0],
            think_times_ms=[100.0],
            demands=np.array([[5.0]]),
        )
        solution = solve_bard_schweitzer(inp)
        assert solution.throughput_per_ms[0] == 0.0

    def test_hidden_demand_loads_station_but_not_response(self):
        base = single_class_input([10.0], 50, 500.0)
        loaded = MvaInput(
            stations=[Station("cpu"), Station("other")],
            class_names=["c"],
            populations=[50],
            think_times_ms=[500.0],
            demands=np.array([[10.0, 0.0]]),
            hidden_demands=np.array([[0.0, 5.0]]),
        )
        base_solution = solve_bard_schweitzer(base)
        loaded_solution = solve_bard_schweitzer(loaded)
        # Hidden work occupies the other station...
        assert loaded_solution.utilisation[1] > 0.0
        # ...but does not lengthen the response path directly: residence at
        # the hidden station is not counted.
        assert loaded_solution.residence_ms[0, 1] == 0.0

    def test_waiting_only_station_uncongested_adds_nothing(self):
        with_pool = MvaInput(
            stations=[Station("cpu"), Station("pool", servers=50, waiting_only=True)],
            class_names=["c"],
            populations=[30],
            think_times_ms=[1000.0],
            demands=np.array([[5.0, 12.0]]),
        )
        without = single_class_input([5.0], 30, 1000.0)
        a = solve_bard_schweitzer(with_pool)
        b = solve_bard_schweitzer(without)
        assert a.cycle_response_ms[0] == pytest.approx(b.cycle_response_ms[0], rel=0.02)

    def test_waiting_only_station_congested_adds_waiting(self):
        """A single-thread software resource serialises its holders."""
        inp = MvaInput(
            stations=[Station("cpu"), Station("lock", servers=1, waiting_only=True)],
            class_names=["c"],
            populations=[20],
            think_times_ms=[100.0],
            demands=np.array([[2.0, 10.0]]),
        )
        solution = solve_bard_schweitzer(inp)
        # With 20 clients contending for a 10ms critical section, waiting
        # dominates: response far exceeds the raw 2ms CPU demand.
        assert solution.cycle_response_ms[0] > 50.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            MvaInput(
                stations=[Station("cpu")],
                class_names=["a"],
                populations=[1],
                think_times_ms=[0.0],
                demands=np.zeros((2, 1)),
            )

    def test_negative_demand_rejected(self):
        with pytest.raises(ValidationError):
            MvaInput(
                stations=[Station("cpu")],
                class_names=["a"],
                populations=[1],
                think_times_ms=[0.0],
                demands=np.array([[-1.0]]),
            )

    @settings(max_examples=30, deadline=None)
    @given(
        population=st.integers(min_value=1, max_value=300),
        think=st.floats(min_value=0.0, max_value=10_000.0),
        demand=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_throughput_bounded_by_bottleneck_and_population(self, population, think, demand):
        inp = single_class_input([demand], population, think)
        solution = solve_bard_schweitzer(inp)
        x = solution.throughput_per_ms[0]
        assert x <= 1.0 / demand + 1e-9
        if think > 0:
            assert x <= population / think + 1e-9
        assert x >= 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        n1=st.integers(min_value=1, max_value=100),
        n2=st.integers(min_value=1, max_value=100),
    )
    def test_response_monotone_in_population(self, n1, n2):
        if n1 > n2:
            n1, n2 = n2, n1
        r1 = solve_bard_schweitzer(single_class_input([5.0], n1, 100.0)).cycle_response_ms[0]
        r2 = solve_bard_schweitzer(single_class_input([5.0], n2, 100.0)).cycle_response_ms[0]
        assert r2 >= r1 - 1e-6


# ---------------------------------------------------------------------------
# Non-finite input is rejected up front.  Before these checks a NaN or inf
# demand ran the fixed point to its 100,000-step limit and raised
# ConvergenceError, and an inf think time silently returned X = 0.

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _mixed_kwargs(**override):
    """A one-class, one-open-class network on two stations; ``override``
    replaces any field."""
    kwargs = dict(
        stations=[Station("cpu"), Station("disk")],
        class_names=["c"],
        populations=[4],
        think_times_ms=[10.0],
        demands=np.array([[2.0, 1.0]]),
        hidden_demands=np.array([[0.5, 0.0]]),
        open_class_names=["o"],
        open_rates_per_ms=[0.01],
        open_demands=np.array([[1.0, 1.0]]),
    )
    kwargs.update(override)
    return kwargs


class TestInstantCycleRejected:
    """A class with clients, no think time and no demand has X = N/0."""

    def test_point_input(self):
        with pytest.raises(ValidationError, match="zero think time and zero demand"):
            MvaInput(**_mixed_kwargs(think_times_ms=[0.0], demands=np.zeros((1, 2))))

    def test_batch_input(self):
        with pytest.raises(ValidationError, match="'c' has clients"):
            MvaBatchInput(
                stations=[Station("cpu")],
                class_names=["c"],
                populations=np.array([[4.0], [4.0]]),
                think_times_ms=np.array([[10.0], [0.0]]),
                demands=np.array([[[1.0]], [[0.0]]]),
            )

    def test_no_clients_or_some_time_is_accepted(self):
        MvaInput(**_mixed_kwargs(populations=[0], think_times_ms=[0.0], demands=np.zeros((1, 2))))
        MvaInput(**_mixed_kwargs(think_times_ms=[5.0], demands=np.zeros((1, 2))))
        MvaInput(**_mixed_kwargs(think_times_ms=[0.0]))

    def test_layered_solve_fails_at_once(self):
        """Before the check this model spun through all 200,000 iterations
        and raised ConvergenceError; now building its network refuses it."""
        model = LqnModel()
        model.add_processor(Processor(name="cl", scheduling=Scheduling.DELAY))
        model.add_processor(Processor(name="cpu"))
        model.add_task(Task(name="server", processor="cpu", entries=(Entry("serve", 0.0),)))
        model.add_task(
            Task(
                name="clients",
                processor="cl",
                entries=(Entry("cycle", 0.0, calls=(Call("serve", 1.0),)),),
                is_reference=True,
                multiplicity=5,
            )
        )
        with pytest.raises(ValidationError, match="'clients' has clients"):
            LqnSolver().solve(model)


class TestNonFiniteInputRejected:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_population(self, bad):
        with pytest.raises(ValidationError, match="populations"):
            MvaInput(**_mixed_kwargs(populations=[bad]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_think_time(self, bad):
        with pytest.raises(ValidationError, match="think times"):
            MvaInput(**_mixed_kwargs(think_times_ms=[bad]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_demand(self, bad):
        with pytest.raises(ValidationError, match="demands"):
            MvaInput(**_mixed_kwargs(demands=np.array([[2.0, bad]])))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_hidden_demand(self, bad):
        with pytest.raises(ValidationError, match="hidden demands"):
            MvaInput(**_mixed_kwargs(hidden_demands=np.array([[bad, 0.0]])))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_open_rate(self, bad):
        with pytest.raises(ValidationError, match="open arrival rates"):
            MvaInput(**_mixed_kwargs(open_rates_per_ms=[bad]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_open_demand(self, bad):
        with pytest.raises(ValidationError, match="open demands"):
            MvaInput(**_mixed_kwargs(open_demands=np.array([[1.0, bad]])))

    @pytest.mark.parametrize(
        "field, message",
        [
            ("populations", "populations"),
            ("think_times_ms", "think times"),
            ("demands", "demands"),
            ("hidden_demands", "hidden demands"),
            ("open_rates_per_ms", "open arrival rates"),
            ("open_demands", "open demands"),
        ],
    )
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_batch_input_field(self, field, message, bad):
        """The stacked (B, ...) arrays of a directly built batch are checked too."""
        arrays = {
            "populations": np.array([[4.0]]),
            "think_times_ms": np.array([[10.0]]),
            "demands": np.array([[[2.0, 1.0]]]),
            "hidden_demands": np.array([[[0.5, 0.0]]]),
            "open_rates_per_ms": np.array([[0.01]]),
            "open_demands": np.array([[[1.0, 1.0]]]),
        }
        structure = dict(
            stations=[Station("cpu"), Station("disk")], class_names=["c"], open_class_names=["o"]
        )
        MvaBatchInput(**structure, **arrays)  # the finite batch is valid
        arrays[field].flat[0] = bad
        with pytest.raises(ValidationError, match=message):
            MvaBatchInput(**structure, **arrays)

    def test_negative_values_still_rejected(self):
        with pytest.raises(ValidationError, match="populations"):
            MvaInput(**_mixed_kwargs(populations=[-1]))
        with pytest.raises(ValidationError, match="open demands"):
            MvaInput(**_mixed_kwargs(open_demands=np.array([[-1.0, 1.0]])))

    def test_nan_demand_fails_fast_in_the_single_network_api(self):
        with pytest.raises(ValidationError, match="demands"):
            solve_bard_schweitzer(single_class_input([1.0, float("nan")], 3, 10.0))
