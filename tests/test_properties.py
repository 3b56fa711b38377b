"""Cross-cutting property-based tests on core invariants.

These complement the per-module suites with randomized checks of the laws
the whole reproduction rests on: queueing conservation in the solver,
allocation-algorithm safety, historical-model monotonicity, and the
simulator's closed-workload identities.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.historical.relationships import (
    LowerEquation,
    PiecewiseResponseModel,
    UpperEquation,
)
from repro.lqn.mva import MvaInput, Station, StationKind, solve_bard_schweitzer
from repro.resource_manager.allocation import ManagedServer, allocate
from repro.resource_manager.sla import ClassWorkload
from repro.util.rng import spawn_rng


# ---------------------------------------------------------------------------
# MVA conservation laws under random closed networks
# ---------------------------------------------------------------------------

network_strategy = st.tuples(
    st.integers(min_value=1, max_value=4),  # stations
    st.integers(min_value=1, max_value=3),  # classes
    st.integers(min_value=0, max_value=200),  # base population
    st.floats(min_value=10.0, max_value=10_000.0),  # think time
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(network_strategy, st.integers(min_value=0, max_value=2**31))
def test_mva_conservation_laws(config, seed):
    n_stations, n_classes, base_pop, think = config
    rng = spawn_rng(seed, "test-properties")
    demands = rng.uniform(0.1, 20.0, size=(n_classes, n_stations))
    populations = [int(base_pop * rng.uniform(0.2, 1.0)) for _ in range(n_classes)]
    inp = MvaInput(
        stations=[Station(f"s{i}") for i in range(n_stations)],
        class_names=[f"c{i}" for i in range(n_classes)],
        populations=populations,
        think_times_ms=[think] * n_classes,
        demands=demands,
    )
    solution = solve_bard_schweitzer(inp)

    for c in range(n_classes):
        x = solution.throughput_per_ms[c]
        r = solution.cycle_response_ms[c]
        n = populations[c]
        if n == 0:
            assert x == 0.0
            continue
        # Little's law over the whole loop: N = X * (R + Z).
        assert x * (r + think) == pytest.approx(n, rel=1e-6)
        # Throughput bounded by the class bottleneck and by N/Z.
        bottleneck = 1.0 / demands[c].max()
        assert x <= bottleneck + 1e-9
        assert x <= n / think + 1e-9
        # Response at least the total demand.
        assert r >= demands[c].sum() - 1e-9
    # Utilisations valid.
    assert (solution.utilisation <= 1.0 + 1e-6).all()
    assert (solution.utilisation >= -1e-12).all()
    # Queue lengths conserve the population.
    total_queue = solution.queue_lengths.sum()
    total_thinking = sum(
        solution.throughput_per_ms[c] * think for c in range(n_classes)
    )
    assert total_queue + total_thinking == pytest.approx(sum(populations), rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=20.0),
    st.floats(min_value=0.001, max_value=0.04),
    st.integers(min_value=1, max_value=100),
)
def test_mixed_network_open_response_at_least_demand(demand, rate, population):
    if rate * demand >= 0.95:  # keep comfortably stable
        rate = 0.9 / demand
    inp = MvaInput(
        stations=[Station("cpu")],
        class_names=["c"],
        populations=[population],
        think_times_ms=[1000.0],
        demands=np.array([[5.0]]),
        open_class_names=["o"],
        open_rates_per_ms=[rate],
        open_demands=np.array([[demand]]),
    )
    solution = solve_bard_schweitzer(inp)
    assert solution.open_response_ms["o"] >= demand - 1e-9


# ---------------------------------------------------------------------------
# Allocation-algorithm safety under random pools and workloads
# ---------------------------------------------------------------------------


class _CapacityPredictor:
    """Step predictor with per-architecture capacities."""

    def __init__(self, capacities):
        self.capacities = capacities
        self.name = "cap"

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        return 1.0 if n_clients <= self.capacities[server] else 1e12

    def predict_throughput(self, server, n_clients, *, buy_fraction=0.0):
        return min(n_clients, self.capacities[server]) * 0.14

    def max_clients(self, server, rt_goal_ms, *, buy_fraction=0.0):
        return self.capacities[server]


pool_strategy = st.lists(
    st.integers(min_value=10, max_value=500), min_size=1, max_size=6
)
classes_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=800),
        st.floats(min_value=50.0, max_value=1000.0),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(pool_strategy, classes_strategy, st.floats(min_value=0.0, max_value=2.0))
def test_allocation_invariants(capacities, class_specs, slack):
    servers = [
        ManagedServer(name=f"s{i}", architecture=f"s{i}", max_throughput_req_per_s=c * 0.14)
        for i, c in enumerate(capacities)
    ]
    caps = {f"s{i}": c for i, c in enumerate(capacities)}
    classes = [
        ClassWorkload(name=f"c{i}", n_clients=n, rt_goal_ms=goal)
        for i, (n, goal) in enumerate(class_specs)
    ]
    allocation = allocate(classes, servers, _CapacityPredictor(caps), slack=slack)

    # 1. No server exceeds its predicted capacity.
    for server_name, alloc in allocation.per_server.items():
        assert sum(alloc.values()) <= caps[server_name]
    # 2. Every inflated client is either placed or reported unallocated.
    inflated_total = sum(int(round(c.n_clients * slack)) for c in classes)
    assert allocation.total_allocated() + allocation.total_unallocated() == inflated_total
    # 3. Nothing is negative.
    assert all(
        count >= 0 for alloc in allocation.per_server.values() for count in alloc.values()
    )
    # 4. Priority safety: if a tighter-goal class lost clients, every
    #    laxer-goal class must have been unable to free capacity — weaker
    #    check: the laxest class is the first to be starved entirely when
    #    demand exceeds the pool.
    if allocation.total_unallocated() > 0 and len(classes) > 1:
        ordered = sorted(classes, key=lambda c: c.rt_goal_ms)
        tightest = ordered[0]
        if allocation.unallocated.get(tightest.name, 0) > 0:
            # If even the tightest class is starved, the pool must be full.
            pool_capacity = sum(caps.values())
            assert allocation.total_allocated() >= min(pool_capacity, inflated_total) - len(
                classes
            ) * 1  # rounding slop


# ---------------------------------------------------------------------------
# Historical piecewise model invariants under random calibrations
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=200.0),  # c_L
    st.floats(min_value=1e-5, max_value=3e-3),  # lambda_L
    st.floats(min_value=0.5, max_value=20.0),  # lambda_U
    st.floats(min_value=100.0, max_value=4000.0),  # n_at_max
)
def test_piecewise_model_monotone_and_invertible(c_l, lam_l, lam_u, n_at_max):
    lower = LowerEquation(c_l=c_l, lambda_l=lam_l)
    # Anchor the upper equation so the transition is increasing.
    upper_at_anchor = lower.predict_ms(0.66 * n_at_max) * 3.0
    c_u = upper_at_anchor - lam_u * 1.1 * n_at_max
    model = PiecewiseResponseModel.assemble(
        "s", lower, UpperEquation(lambda_u=lam_u, c_u=c_u), n_at_max
    )
    grid = np.linspace(0.0, 2.5 * n_at_max, 60)
    values = [model.predict_ms(float(n)) for n in grid]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    # max_clients never promises a violating capacity.
    for goal in (values[5] * 1.1, values[30] * 1.05, values[-1] * 0.9):
        capacity = model.max_clients(float(goal))
        if capacity > 0:
            assert model.predict_ms(capacity) <= goal * 1.02
