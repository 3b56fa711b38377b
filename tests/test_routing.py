"""Tests for the workload-manager routing policies, including a simulator
cross-check that prediction-enhanced routing beats the naive baseline."""

import pytest

from repro.resource_manager.allocation import ManagedServer
from repro.resource_manager.routing import (
    route_equal_response_times,
    route_proportional_to_capacity,
    route_round_robin,
)
from repro.util.errors import ValidationError


class LinearPredictor:
    """mrt = base + n / capacity-ish: monotone, architecture-dependent."""

    def __init__(self, params):
        self.params = params  # arch -> (base_ms, per_client_ms)
        self.name = "linear"

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        base, slope = self.params[server]
        return base + slope * n_clients

    def predict_throughput(self, server, n_clients, *, buy_fraction=0.0):
        return n_clients * 0.14

    def max_clients(self, server, rt_goal_ms, *, buy_fraction=0.0):
        base, slope = self.params[server]
        return max(0, int((rt_goal_ms - base) / slope))


def pool():
    return [
        ManagedServer(name="fast", architecture="fast", max_throughput_req_per_s=320.0),
        ManagedServer(name="slow", architecture="slow", max_throughput_req_per_s=86.0),
    ]


PARAMS = {"fast": (8.0, 0.05), "slow": (20.0, 0.20)}


class TestProportional:
    def test_split_follows_capacity(self):
        decision = route_proportional_to_capacity(406, pool(), LinearPredictor(PARAMS))
        assert decision.per_server["fast"] == pytest.approx(320, abs=2)
        assert decision.per_server["slow"] == pytest.approx(86, abs=2)
        assert decision.total == 406

    def test_zero_clients(self):
        decision = route_proportional_to_capacity(0, pool(), LinearPredictor(PARAMS))
        assert decision.total == 0
        assert decision.worst_predicted_mrt_ms() == 0.0

    def test_needs_servers(self):
        with pytest.raises(ValidationError):
            route_proportional_to_capacity(10, [], LinearPredictor(PARAMS))


class TestRoundRobin:
    def test_even_split(self):
        decision = route_round_robin(100, pool(), LinearPredictor(PARAMS))
        assert decision.per_server == {"fast": 50, "slow": 50}

    def test_remainder_distributed(self):
        decision = route_round_robin(101, pool(), LinearPredictor(PARAMS))
        assert decision.total == 101
        assert sorted(decision.per_server.values()) == [50, 51]


class TestEqualResponseTimes:
    def test_balances_predictions(self):
        predictor = LinearPredictor(PARAMS)
        decision = route_equal_response_times(400, pool(), predictor)
        predictions = [v for s, v in decision.predicted_mrt_ms.items() if decision.per_server[s] > 0]
        assert max(predictions) - min(predictions) < 5.0

    def test_beats_round_robin_on_worst_case(self):
        predictor = LinearPredictor(PARAMS)
        balanced = route_equal_response_times(400, pool(), predictor)
        naive = route_round_robin(400, pool(), predictor)
        assert balanced.worst_predicted_mrt_ms() < naive.worst_predicted_mrt_ms()

    def test_conserves_clients(self):
        decision = route_equal_response_times(397, pool(), LinearPredictor(PARAMS))
        assert decision.total == 397
        assert all(v >= 0 for v in decision.per_server.values())


class TestAgainstSimulator:
    @pytest.mark.slow
    def test_predicted_routing_beats_round_robin_in_simulation(self):
        """Route a real workload across AppServS+AppServVF both ways and
        measure: the prediction-balanced split should give a lower measured
        mean response time than the naive even split."""
        from repro.experiments import ground_truth as gt
        from repro.prediction.interface import HybridPredictor
        from repro.servers.catalogue import APP_SERV_S, APP_SERV_VF
        from repro.simulation.system import SimulatedDeployment, SimulationConfig
        from repro.workload.trade import browse_class

        parameters = gt.lqn_calibration(fast=True).to_model_parameters()
        predictor = HybridPredictor.from_parameters(
            parameters, [APP_SERV_S, APP_SERV_VF]
        )
        servers = [
            ManagedServer(name="S", architecture="AppServS", max_throughput_req_per_s=86.0),
            ManagedServer(name="VF", architecture="AppServVF", max_throughput_req_per_s=320.0),
        ]
        total = 2400  # enough to saturate S under an even split
        archs = {"S": APP_SERV_S, "VF": APP_SERV_VF}

        def simulate(split):
            sc = browse_class()
            deployment = SimulatedDeployment(
                placements={
                    name: (archs[name], {sc: count}) for name, count in split.items()
                },
                config=SimulationConfig(duration_s=30.0, warmup_s=8.0, seed=19),
            )
            return deployment.run().mean_response_ms

        smart = route_equal_response_times(total, servers, predictor)
        naive = route_round_robin(total, servers, predictor)
        assert simulate(smart.per_server) < 0.5 * simulate(naive.per_server)
