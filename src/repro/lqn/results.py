"""Solution object returned by the layered queuing solver.

Mirrors what LQNS reports and what the paper's sections 5 and 8 use:
response times, throughputs and utilisation information per service class at
each processor — plus solver metadata (iterations, wall-clock solve time)
that the prediction-delay evaluation of section 8.5 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LqnSolution"]


@dataclass
class LqnSolution:
    """Steady-state predictions for one layered queuing model."""

    # class name -> predicted mean response time per request (ms)
    response_ms: dict[str, float]
    # class name -> predicted throughput (requests/second)
    throughput_req_per_s: dict[str, float]
    # processor name -> per-server utilisation
    processor_utilisation: dict[str, float]
    # (class name, processor name) -> per-cycle residence time (ms)
    residence_ms: dict[tuple[str, str], float]
    # task name -> mean concurrency (threads busy)
    task_concurrency: dict[str, float] = field(default_factory=dict)
    # Fixed-point steps executed: one trajectory climbs the whole tolerance
    # ladder, so this is the step the solve stopped at (summed over the
    # restarted rungs on the finite-capacity path).
    iterations: int = 0
    solve_time_s: float = 0.0
    converged: bool = True
    final_residual_ms: float = 0.0
    # class name -> end-to-end loss probability (0.0 everywhere unless the
    # model has finite-capacity processors; closed classes never shed).
    loss_probability: dict[str, float] = field(default_factory=dict)
    # processor name -> station-level blocked fraction (M/M/c/K P_K).
    station_loss_probability: dict[str, float] = field(default_factory=dict)

    def total_loss_rate_req_per_s(self) -> float:
        """Total shed traffic across classes (requests/second).

        ``throughput_req_per_s`` holds *carried* throughput, so each
        class's offered rate is carried/(1 − loss).
        """
        total = 0.0
        for name, loss in self.loss_probability.items():
            if loss > 0.0:
                carried = self.throughput_req_per_s.get(name, 0.0)
                total += carried * loss / (1.0 - loss)
        return total

    @property
    def class_names(self) -> list[str]:
        """Service classes in the solution."""
        return sorted(self.response_ms)

    def mean_response_ms(self) -> float:
        """Throughput-weighted mean response time across classes (ms).

        This is the workload-level metric the paper's figures plot when the
        workload is heterogeneous.
        """
        total_tput = sum(self.throughput_req_per_s.values())
        if total_tput <= 0:
            return float("nan")
        return (
            sum(
                self.response_ms[c] * self.throughput_req_per_s[c]
                for c in self.response_ms
            )
            / total_tput
        )

    def total_throughput_req_per_s(self) -> float:
        """Total predicted request throughput across classes (req/s)."""
        return sum(self.throughput_req_per_s.values())
