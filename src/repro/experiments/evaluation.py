"""Shared evaluation machinery: predicted-vs-measured curves per method.

Several experiments view the same underlying comparison — predictions from
the three calibrated methods against measured (simulated-testbed) curves on
all three architectures.  This module collects that data once (memoised via
the ground-truth layer) and exposes it to ``table1``, ``fig2`` and the
accuracy summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import ground_truth as gt
from repro.experiments.scenario import EVALUATION_FRACTIONS, build_predictors
from repro.prediction.accuracy import AccuracyReport, accuracy
from repro.prediction.interface import HistoricalPredictor, HybridPredictor, LqnPredictor
from repro.servers.catalogue import ALL_APP_SERVERS, ESTABLISHED_SERVERS, NEW_SERVERS

__all__ = ["MethodEvaluation", "evaluate_all_methods"]

METHODS = ("historical", "layered_queuing", "hybrid")


@dataclass
class MethodEvaluation:
    """Predicted-vs-measured data for the whole scenario."""

    historical: HistoricalPredictor
    lqn: LqnPredictor
    hybrid: HybridPredictor
    # server -> {"clients": [...], "measured": [...], "<method>": [...],
    #            "measured_tput": [...], "<method>_tput": [...]}
    curves: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    # (method, server) -> mean-response-time accuracy report
    mrt_reports: dict[tuple[str, str], AccuracyReport] = field(default_factory=dict)
    # (method, server) -> list of per-point throughput accuracies
    tput_accuracies: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    n_at_max: dict[str, float] = field(default_factory=dict)

    def _servers(self, established: bool) -> tuple:
        return ESTABLISHED_SERVERS if established else NEW_SERVERS

    def mrt_accuracy(self, method: str, *, established: bool) -> float:
        """The paper's overall MRT accuracy over a server group."""
        servers = self._servers(established)
        values = [
            self.mrt_reports[(method, arch.name)].overall_accuracy for arch in servers
        ]
        return sum(values) / len(values)

    def throughput_accuracy(self, method: str, *, established: bool) -> float:
        """Mean throughput accuracy over a server group."""
        servers = self._servers(established)
        values: list[float] = []
        for arch in servers:
            values.extend(self.tput_accuracies[(method, arch.name)])
        return sum(values) / len(values)


def evaluate_all_methods(*, fast: bool = False) -> MethodEvaluation:
    """Calibrate all three methods and compare them against measurements."""
    historical, lqn, hybrid, _ = build_predictors(fast=fast)
    evaluation = MethodEvaluation(historical=historical, lqn=lqn, hybrid=hybrid)
    predictors = {
        "historical": historical,
        "layered_queuing": lqn,
        "hybrid": hybrid,
    }

    fractions = EVALUATION_FRACTIONS[::2] if fast else EVALUATION_FRACTIONS

    # The layered method is sweep-shaped: every (server, load) point of the
    # whole evaluation grid goes into ONE batched solve, and each solution
    # answers both the response-time and the throughput query (the serial
    # path used to solve the same model twice); every prediction stays
    # bit-identical to a per-point ``predict_mrt_ms`` call.
    grid: list[tuple[str, int]] = []
    for arch in ALL_APP_SERVERS:
        n_at_max = historical.model.throughput_model.clients_at_max(arch.name)
        evaluation.n_at_max[arch.name] = n_at_max
        for frac in fractions:
            grid.append((arch.name, max(1, int(round(frac * n_at_max)))))
    lqn_solutions = dict(
        zip(
            grid,
            lqn.solve_points([(server, n, 0.0) for server, n in grid]),
        )
    )

    for arch in ALL_APP_SERVERS:
        server = arch.name
        n_at_max = evaluation.n_at_max[server]
        curve: dict[str, list[float]] = {
            "clients": [],
            "measured": [],
            "measured_tput": [],
        }
        for method in METHODS:
            curve[method] = []
            curve[f"{method}_tput"] = []
            evaluation.mrt_reports[(method, server)] = AccuracyReport(
                method=method, server=server
            )
            evaluation.tput_accuracies[(method, server)] = []

        for frac in fractions:
            n = max(1, int(round(frac * n_at_max)))
            measured = gt.measured_point(server, n, fast=fast)
            curve["clients"].append(float(n))
            curve["measured"].append(measured.mean_response_ms)
            curve["measured_tput"].append(measured.throughput_req_per_s)
            for method, predictor in predictors.items():
                if predictor is lqn:
                    solution = lqn_solutions[(server, n)]
                    predicted_mrt = solution.mean_response_ms()
                    predicted_tput = solution.total_throughput_req_per_s()
                else:
                    predicted_mrt = predictor.predict_mrt_ms(server, n)
                    predicted_tput = predictor.predict_throughput(server, n)
                curve[method].append(predicted_mrt)
                curve[f"{method}_tput"].append(predicted_tput)
                evaluation.mrt_reports[(method, server)].add(
                    n, n_at_max, predicted_mrt, measured.mean_response_ms
                )
                evaluation.tput_accuracies[(method, server)].append(
                    accuracy(predicted_tput, measured.throughput_req_per_s)
                )
        evaluation.curves[server] = curve
    return evaluation
