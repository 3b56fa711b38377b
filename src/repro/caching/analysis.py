"""The layered queuing method versus caching: circularity and its closure.

Section 7.2 argues the layered queuing model cannot express session caching
when requests are not independent, because the mean number of database calls
is a *parameter* that depends on the model's own *outputs*:

    db calls per class  ←  cache-miss probability
                        ←  bytes replaced during a client's think cycle
                        ←  arrival-rate distributions of all classes
                        ←  the model's solution (throughputs)

:func:`demonstrate_lqn_circularity` materialises that chain and shows the
one-shot solve is inconsistent: plugging the solution's arrival rates into
the miss model yields different miss rates than the ones assumed.

:func:`solve_lqn_with_cache` then implements the extension the paper calls
non-trivial: an *outer* fixed point that alternates the layered solve with
the analytic LRU model of :mod:`repro.caching.lru_model` until the assumed
and implied miss rates agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.caching.lru_model import CachePopulation, miss_rates
from repro.lqn.builder import TradeModelParameters, build_trade_model
from repro.lqn.results import LqnSolution
from repro.lqn.solver import LqnSolver, SolverOptions
from repro.servers.architecture import ServerArchitecture
from repro.util.errors import ConvergenceError
from repro.util.validation import check_positive, check_positive_int
from repro.workload.service_class import ServiceClass

__all__ = [
    "CacheFixedPointResult",
    "CircularityReport",
    "demonstrate_lqn_circularity",
    "solve_lqn_with_cache",
]


@dataclass
class CircularityReport:
    """Evidence that a one-shot layered solve is self-inconsistent."""

    dependency_chain: list[str]
    assumed_miss_rates: dict[str, float]
    implied_miss_rates: dict[str, float]

    @property
    def inconsistency(self) -> float:
        """Largest |assumed − implied| miss-rate gap across classes."""
        return max(
            abs(self.assumed_miss_rates[c] - self.implied_miss_rates[c])
            for c in self.assumed_miss_rates
        )


@dataclass
class CacheFixedPointResult:
    """Joint solution of the layered model and the LRU miss model."""

    solution: LqnSolution
    miss_rates: dict[str, float]
    outer_iterations: int
    lqn_solves: int
    history: list[dict[str, float]] = field(default_factory=list)


def _populations_from_solution(
    solution: LqnSolution,
    workload: dict[ServiceClass, int],
) -> list[CachePopulation]:
    populations = []
    for service_class, n_clients in workload.items():
        if n_clients <= 0:
            continue
        throughput = solution.throughput_req_per_s[service_class.name]
        per_client = throughput / n_clients / 1000.0  # req per ms per client
        populations.append(
            CachePopulation(
                name=service_class.name,
                n_clients=n_clients,
                session_bytes=service_class.mean_session_bytes,
                per_client_rate_per_ms=per_client,
            )
        )
    return populations


def demonstrate_lqn_circularity(
    arch: ServerArchitecture,
    workload: dict[ServiceClass, int],
    params: TradeModelParameters,
    cache_bytes: int,
    *,
    assumed_miss_rate: float = 0.0,
    solver_options: SolverOptions | None = None,
) -> CircularityReport:
    """Solve once with assumed miss rates and show they disagree with the
    miss rates the solution itself implies — section 7.2's argument made
    executable."""
    check_positive_int(cache_bytes, "cache_bytes")
    solver = LqnSolver(solver_options)
    assumed = {sc.name: assumed_miss_rate for sc, n in workload.items() if n > 0}
    model = build_trade_model(
        arch, workload, params, session_read_calls=dict(assumed)
    )
    solution = solver.solve(model)
    implied = miss_rates(_populations_from_solution(solution, workload), cache_bytes)
    return CircularityReport(
        dependency_chain=[
            "db calls per class (model parameter)",
            "cache-miss probability per class",
            "bytes replaced during each client's inter-request time T_c",
            "arrival-rate distributions of all service classes",
            "model solution (throughputs) - a model OUTPUT",
        ],
        assumed_miss_rates=assumed,
        implied_miss_rates=implied,
    )


def solve_lqn_with_cache(
    arch: ServerArchitecture,
    workload: dict[ServiceClass, int],
    params: TradeModelParameters,
    cache_bytes: int,
    *,
    solver_options: SolverOptions | None = None,
    tol: float = 1e-4,
    max_outer_iterations: int = 200,
) -> CacheFixedPointResult:
    """Close the circular dependency with an outer fixed point.

    Alternates (1) a layered solve with the current miss-rate guesses as
    extra session-read database calls and (2) the Che LRU model fed with the
    solve's per-client request rates, taking the implied miss rates as the
    next guesses, until the guesses are self-consistent.
    """
    check_positive_int(cache_bytes, "cache_bytes")
    check_positive(tol, "tol")
    solver = LqnSolver(solver_options)
    guesses = {sc.name: 0.0 for sc, n in workload.items() if n > 0}
    history: list[dict[str, float]] = []
    solution: LqnSolution | None = None
    for iteration in range(1, max_outer_iterations + 1):
        model = build_trade_model(
            arch, workload, params, session_read_calls=dict(guesses)
        )
        solution = solver.solve(model)
        implied = miss_rates(
            _populations_from_solution(solution, workload), cache_bytes
        )
        history.append(dict(implied))
        delta = max(abs(implied[c] - guesses[c]) for c in guesses)
        guesses = {c: implied[c] for c in guesses}
        if delta < tol:
            return CacheFixedPointResult(
                solution=solution,
                miss_rates=guesses,
                outer_iterations=iteration,
                lqn_solves=solver.solve_count,
                history=history,
            )
    raise ConvergenceError(
        "cache-aware layered fixed point did not converge",
        iterations=max_outer_iterations,
        residual=delta,
    )
