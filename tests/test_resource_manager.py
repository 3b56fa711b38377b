"""Tests for the resource manager: Algorithm 1, runtime evaluation, slack.

A deterministic analytic fake predictor replaces the real prediction models
so capacities can be hand-computed: a server of capacity C predicts mean
response time ``goal-proportional`` so that exactly ``C`` clients fit any
goal (response jumps above every goal past C).
"""

import pytest

from repro.resource_manager.allocation import Allocation, ManagedServer, allocate
from repro.resource_manager.runtime import evaluate_runtime
from repro.resource_manager.sla import ClassWorkload, class_rt_factor
from repro.resource_manager.slack import SlackAnalysis, sweep_loads
from repro.util.errors import ValidationError


class StepPredictor:
    """Fake predictor: response time is tiny up to a per-architecture client
    capacity, then enormous.  ``scale`` under/over-states capacity to model
    predictive inaccuracy (scale < 1: pessimistic, > 1: optimistic)."""

    def __init__(self, capacities: dict[str, int], scale: float = 1.0, name: str = "fake"):
        self.capacities = capacities
        self.scale = scale
        self.name = name

    def _capacity(self, server: str) -> int:
        return int(self.capacities[server] * self.scale)

    def predict_mrt_ms(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        return 1.0 if n_clients <= self._capacity(server) else 1e9

    def predict_throughput(self, server: str, n_clients: float, *, buy_fraction: float = 0.0) -> float:
        return min(n_clients * 0.14, self._capacity(server) * 0.14)

    def max_clients(self, server: str, rt_goal_ms: float, *, buy_fraction: float = 0.0) -> int:
        return self._capacity(server)


def servers_pool():
    return [
        ManagedServer(name="big", architecture="big", max_throughput_req_per_s=300.0),
        ManagedServer(name="mid", architecture="mid", max_throughput_req_per_s=200.0),
        ManagedServer(name="small", architecture="small", max_throughput_req_per_s=100.0),
    ]


CAPS = {"big": 300, "mid": 200, "small": 100}


def classes_single(n=250, goal=500.0):
    return [ClassWorkload(name="c", n_clients=n, rt_goal_ms=goal)]


class TestClassRtFactor:
    def test_buy_factor_above_one(self):
        assert class_rt_factor(True, 0.1) > 1.0

    def test_browse_factor_below_one_in_mixed_load(self):
        assert class_rt_factor(False, 0.5) < 1.0

    def test_pure_browse_factor_is_one(self):
        assert class_rt_factor(False, 0.0) == pytest.approx(1.0)

    def test_factors_average_to_one(self):
        b = 0.3
        mean = b * class_rt_factor(True, b) + (1 - b) * class_rt_factor(False, b)
        assert mean == pytest.approx(1.0)


class TestAllocation:
    def test_single_class_fits_on_one_server(self):
        allocation = allocate(classes_single(250), servers_pool(), StepPredictor(CAPS))
        assert allocation.total_allocated() == 250
        assert allocation.total_unallocated() == 0

    def test_greedy_picks_biggest_first_when_insufficient(self):
        # 550 clients: big(300) then mid(200) then small(50 of 100).
        allocation = allocate(classes_single(550), servers_pool(), StepPredictor(CAPS))
        assert allocation.per_server["big"]["c"] == 300
        assert allocation.per_server["mid"]["c"] == 200
        assert allocation.per_server["small"]["c"] == 50

    def test_last_server_rule_smallest_sufficient(self):
        # 80 clients fit on every server; the smallest sufficient one wins.
        allocation = allocate(classes_single(80), servers_pool(), StepPredictor(CAPS))
        assert allocation.per_server == {"small": {"c": 80}}

    def test_priority_order_tightest_goal_first(self):
        classes = [
            ClassWorkload(name="lax", n_clients=550, rt_goal_ms=600.0),
            ClassWorkload(name="tight", n_clients=300, rt_goal_ms=150.0),
        ]
        allocation = allocate(classes, servers_pool(), StepPredictor(CAPS))
        # Tight class processed first: fully allocated; lax class overflows.
        tight_total = sum(
            alloc.get("tight", 0) for alloc in allocation.per_server.values()
        )
        assert tight_total == 300
        assert allocation.unallocated.get("lax", 0) == 250

    def test_overflow_rejected_when_pool_exhausted(self):
        allocation = allocate(classes_single(1000), servers_pool(), StepPredictor(CAPS))
        assert allocation.total_allocated() == 600
        assert allocation.unallocated["c"] == 400

    def test_slack_inflates_allocation(self):
        allocation = allocate(
            classes_single(200), servers_pool(), StepPredictor(CAPS), slack=1.5
        )
        assert allocation.total_allocated() == 300

    def test_slack_zero_allocates_nothing(self):
        allocation = allocate(
            classes_single(200), servers_pool(), StepPredictor(CAPS), slack=0.0
        )
        assert allocation.total_allocated() == 0

    def test_zero_client_class_skipped(self):
        allocation = allocate(classes_single(0), servers_pool(), StepPredictor(CAPS))
        assert allocation.total_allocated() == 0
        assert allocation.total_unallocated() == 0

    def test_predictions_counted(self):
        allocation = allocate(classes_single(250), servers_pool(), StepPredictor(CAPS))
        assert allocation.predictions_made > 0

    def test_duplicate_class_names_rejected(self):
        classes = [
            ClassWorkload(name="c", n_clients=10, rt_goal_ms=100.0),
            ClassWorkload(name="c", n_clients=10, rt_goal_ms=200.0),
        ]
        with pytest.raises(ValidationError):
            allocate(classes, servers_pool(), StepPredictor(CAPS))

    def test_no_servers_rejected(self):
        with pytest.raises(ValidationError):
            allocate(classes_single(10), [], StepPredictor(CAPS))

    def test_helpers(self):
        allocation = allocate(classes_single(550), servers_pool(), StepPredictor(CAPS))
        assert allocation.servers_used() == ["big", "mid", "small"]
        assert allocation.clients_on("big") == 300


class TestRuntime:
    def test_accurate_predictions_no_failures(self):
        classes = classes_single(250)
        servers = servers_pool()
        predictor = StepPredictor(CAPS)
        allocation = allocate(classes, servers, predictor)
        outcome = evaluate_runtime(
            allocation, classes, servers, StepPredictor(CAPS), rejection_threshold=0.0
        )
        assert outcome.sla_failure_pct == 0.0
        assert outcome.rejected_clients == 0

    def test_optimistic_predictor_causes_failures(self):
        """The allocator believes capacity is 1.3x reality and the pool is
        full, so the runtime must reject the overflow."""
        classes = classes_single(780)  # = 600 * 1.3: optimistic full pool
        servers = servers_pool()
        optimistic = StepPredictor(CAPS, scale=1.3)
        allocation = allocate(classes, servers, optimistic)
        assert allocation.total_unallocated() == 0  # allocator thinks it fits
        outcome = evaluate_runtime(
            allocation, classes, servers, StepPredictor(CAPS), rejection_threshold=0.0
        )
        assert outcome.rejected_clients == pytest.approx(180, abs=5)

    def test_runtime_optimisation_reabsorbs_overflow(self):
        """A pessimistic allocator leaves headroom; real clients rejected
        from one server fill it."""
        classes = classes_single(250)
        servers = servers_pool()
        pessimistic = StepPredictor(CAPS, scale=0.5)  # thinks big holds 150
        allocation = allocate(classes, servers, pessimistic)
        # Plan spreads 250 across servers; ground truth says any single
        # server layout works, so no client is lost.
        outcome = evaluate_runtime(
            allocation, classes, servers, StepPredictor(CAPS), rejection_threshold=0.0
        )
        assert outcome.sla_failure_pct == 0.0

    def test_unallocated_clients_count_as_failures(self):
        classes = classes_single(700)
        servers = servers_pool()
        allocation = allocate(classes, servers, StepPredictor(CAPS))
        outcome = evaluate_runtime(
            allocation, classes, servers, StepPredictor(CAPS), rejection_threshold=0.0
        )
        assert outcome.rejected_clients == 100
        assert outcome.sla_failure_pct == pytest.approx(100 * 100 / 700)

    def test_server_usage_pct(self):
        classes = classes_single(80)
        servers = servers_pool()
        allocation = allocate(classes, servers, StepPredictor(CAPS))
        outcome = evaluate_runtime(allocation, classes, servers, StepPredictor(CAPS))
        # Only 'small' used: 100 of 600 total processing power.
        assert outcome.server_usage_pct == pytest.approx(100 * 100 / 600)

    def test_slack_scales_real_clients_back(self):
        classes = classes_single(200)
        servers = servers_pool()
        allocation = allocate(classes, servers, StepPredictor(CAPS), slack=1.5)
        outcome = evaluate_runtime(
            allocation, classes, servers, StepPredictor(CAPS), rejection_threshold=0.0
        )
        # 300 planned slots but only the 200 real clients arrive; all fit.
        placed_total = sum(sum(b.values()) for b in outcome.placed.values())
        assert placed_total == 200
        assert outcome.sla_failure_pct == 0.0


class TestSlackSweep:
    def test_sweep_produces_point_per_load(self):
        servers = servers_pool()
        result = sweep_loads(
            [100, 300, 700],
            1.0,
            workload_for=classes_single,
            servers=servers,
            predictor=StepPredictor(CAPS),
            ground_truth=StepPredictor(CAPS),
        )
        assert result.loads() == [100, 300, 700]
        assert len(result.sla_failure_series()) == 3

    def test_failures_grow_with_load_beyond_pool(self):
        servers = servers_pool()
        result = sweep_loads(
            [300, 900],
            1.0,
            workload_for=classes_single,
            servers=servers,
            predictor=StepPredictor(CAPS),
            ground_truth=StepPredictor(CAPS),
        )
        failures = result.sla_failure_series()
        assert failures[0] == 0.0
        assert failures[1] > 0.0

    def test_analysis_finds_zero_failure_slack(self):
        servers = servers_pool()
        analysis = SlackAnalysis.run(
            [0.5, 1.0],
            [100, 400],
            workload_for=classes_single,
            servers=servers,
            predictor=StepPredictor(CAPS),
            ground_truth=StepPredictor(CAPS),
        )
        assert analysis.min_zero_failure_slack == 1.0
        rows = analysis.tradeoff_series()
        assert rows[0][0] == 1.0  # sorted by decreasing slack
        # At the zero-failure slack the saving is zero by definition.
        assert rows[0][2] == pytest.approx(0.0)

    def test_usage_saving_grows_as_slack_drops(self):
        servers = servers_pool()
        analysis = SlackAnalysis.run(
            [0.4, 0.7, 1.0],
            [150, 450],
            workload_for=classes_single,
            servers=servers,
            predictor=StepPredictor(CAPS),
            ground_truth=StepPredictor(CAPS),
        )
        rows = analysis.tradeoff_series()
        savings = [r[2] for r in rows]
        assert savings == sorted(savings)
