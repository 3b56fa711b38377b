"""The canonical case-study scenario shared by all experiments.

Centralises the constants of sections 3 and 9 of the paper (servers, seeds,
data-point placement, SLA goals, server pool) plus helpers that build the
calibrated models the experiments compare.  Experiment modules should take
every tunable from here so the whole reproduction is driven by one
parameterisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.historical.datastore import HistoricalDataStore
from repro.historical.model import HistoricalModel
from repro.lqn.calibration import LqnCalibration
from repro.lqn.solver import SolverOptions
from repro.prediction.interface import (
    HistoricalPredictor,
    HybridPredictor,
    LqnPredictor,
)
from repro.resource_manager.allocation import ManagedServer
from repro.resource_manager.sla import ClassWorkload
from repro.servers.catalogue import (
    ALL_APP_SERVERS,
    APP_SERV_F,
    APP_SERV_S,
    APP_SERV_VF,
    ESTABLISHED_SERVERS,
)
from repro.simulation.system import SimulationConfig

__all__ = [
    "ExperimentResult",
    "SEED",
    "MEASUREMENT_CONFIG",
    "FAST_CONFIG",
    "LOWER_CALIBRATION_FRACTIONS",
    "UPPER_CALIBRATION_FRACTIONS",
    "EVALUATION_FRACTIONS",
    "SOLVER_OPTIONS",
    "PAPER_SOLVER_OPTIONS",
    "DATA_POINT_SAMPLES",
    "rm_server_pool",
    "rm_workload_for",
    "build_historical_model",
    "build_predictors",
]

# Master experiment seed (the paper's publication year).
SEED = 2004

# Simulated "testbed measurement" runs: the paper warms up for 1 minute and
# records at least 100 samples per measured point; our simulated system
# stabilises faster, so a 15 s warm-up inside a 75 s run gives thousands of
# samples per point at the loads of interest.
MEASUREMENT_CONFIG = SimulationConfig(duration_s=75.0, warmup_s=15.0, seed=SEED)
# The fast profile (``--fast``), which the tests and goldens use.
FAST_CONFIG = SimulationConfig(duration_s=30.0, warmup_s=8.0, seed=SEED)

# Historical calibration data points, as fractions of the max-throughput
# load: the lower pair brackets the paper's 66 % anchor, the upper pair its
# 110 % anchor.
LOWER_CALIBRATION_FRACTIONS = (0.35, 0.66)
UPPER_CALIBRATION_FRACTIONS = (1.15, 1.6)

# Loads (fractions of the max-throughput load) at which predictions are
# evaluated against measurements (figure 2 / the accuracy summary).
EVALUATION_FRACTIONS = (0.2, 0.35, 0.5, 0.66, 0.9, 1.1, 1.25, 1.5, 1.7)

# Samples per historical data point in the *canonical* calibration: None =
# every sample the measurement run collected (the paper's workload manager
# records at least 100 per measured point and the recalibration experiment
# separately studies how far the budget can shrink; the headline calibration
# should not add avoidable sub-sampling noise, because relationship 2's
# power-law extrapolation to the new server amplifies it).
DATA_POINT_SAMPLES = None

# Default layered solver settings for the reproduction (tight criterion);
# PAPER_SOLVER_OPTIONS mirrors the paper's 20 ms criterion where the
# experiments study its effects (figure 3, the delay comparison).
SOLVER_OPTIONS = SolverOptions(convergence_criterion_ms=1.0)
PAPER_SOLVER_OPTIONS = SolverOptions(convergence_criterion_ms=20.0)


@dataclass
class ExperimentResult:
    """What every experiment driver returns."""

    experiment_id: str
    title: str
    rendered: str  # the printable tables/series (what the paper reports)
    data: dict[str, Any] = field(default_factory=dict)

    def print(self) -> None:  # pragma: no cover - console convenience
        """Write the rendered tables/series to stdout."""
        print(self.rendered)


# -- section 9 resource-management scenario -----------------------------------


def rm_server_pool() -> list[ManagedServer]:
    """The 16-server pool: 8 new AppServS + 4 AppServF + 4 AppServVF."""
    from repro.servers.catalogue import PAPER_MAX_THROUGHPUTS

    pool: list[ManagedServer] = []
    for i in range(8):
        pool.append(
            ManagedServer(
                name=f"S{i}",
                architecture=APP_SERV_S.name,
                max_throughput_req_per_s=PAPER_MAX_THROUGHPUTS["AppServS"],
            )
        )
    for i in range(4):
        pool.append(
            ManagedServer(
                name=f"F{i}",
                architecture=APP_SERV_F.name,
                max_throughput_req_per_s=PAPER_MAX_THROUGHPUTS["AppServF"],
            )
        )
    for i in range(4):
        pool.append(
            ManagedServer(
                name=f"VF{i}",
                architecture=APP_SERV_VF.name,
                max_throughput_req_per_s=PAPER_MAX_THROUGHPUTS["AppServVF"],
            )
        )
    return pool


def rm_workload_for(total_clients: int) -> list[ClassWorkload]:
    """Section 9.1's workload: 10 % buy (150 ms), 45 % high-priority browse
    (300 ms), 45 % low-priority browse (600 ms)."""
    n_buy = round(total_clients * 0.10)
    n_hi = round(total_clients * 0.45)
    n_lo = total_clients - n_buy - n_hi
    return [
        ClassWorkload(name="buy", n_clients=n_buy, rt_goal_ms=150.0, is_buy=True),
        ClassWorkload(name="browse_hi", n_clients=n_hi, rt_goal_ms=300.0),
        ClassWorkload(name="browse_lo", n_clients=n_lo, rt_goal_ms=600.0),
    ]


# -- model construction ---------------------------------------------------------


def build_historical_model(
    *,
    fast: bool = False,
    n_samples: int | None = DATA_POINT_SAMPLES,
    n_ldp: int | None = None,
    n_udp: int | None = None,
    with_mix: bool = True,
) -> HistoricalModel:
    """Calibrate the historical model exactly as sections 4.1-4.3 describe.

    Historical data is collected (from the simulated testbed, via the
    memoised ground-truth layer) on the established servers only; the new
    AppServS is added through relationship 2 from its benchmarked max
    throughput.  Relationship 3 is calibrated from LQN-generated max
    throughputs at 0 %/25 % buy requests on AppServF, as in section 4.3.
    """
    from repro.experiments import ground_truth as gt

    store = HistoricalDataStore()
    max_throughputs = {
        arch.name: gt.benchmarked_max_throughput(arch.name, fast=fast)
        for arch in ALL_APP_SERVERS
    }
    for arch in ESTABLISHED_SERVERS:
        n_at_max = max_throughputs[arch.name] / 0.1425  # provisional gradient
        for frac in (*LOWER_CALIBRATION_FRACTIONS, *UPPER_CALIBRATION_FRACTIONS):
            n = max(1, int(round(frac * n_at_max)))
            result = gt.measured_point(arch.name, n, fast=fast)
            store.add_from_simulation(
                arch.name, n, result, n_samples=n_samples, seed=SEED
            )

    mix_observations = None
    if with_mix:
        mix_observations = gt.lqn_mix_observations(fast=fast)

    return HistoricalModel.calibrate(
        store,
        max_throughputs,
        n_ldp=n_ldp,
        n_udp=n_udp,
        new_servers=(APP_SERV_S.name,),
        mix_observations=mix_observations,
        mix_server=APP_SERV_F.name,
    )


def build_predictors(
    *, fast: bool = False
) -> tuple[HistoricalPredictor, LqnPredictor, HybridPredictor, LqnCalibration]:
    """All three predictors calibrated on the canonical scenario."""
    from repro.experiments import ground_truth as gt

    calibration = gt.lqn_calibration(fast=fast)
    parameters = calibration.to_model_parameters()
    historical = HistoricalPredictor(build_historical_model(fast=fast))
    lqn = LqnPredictor(
        parameters,
        {arch.name: arch for arch in ALL_APP_SERVERS},
        solver_options=SOLVER_OPTIONS,
    )
    hybrid = HybridPredictor.from_parameters(
        parameters,
        list(ALL_APP_SERVERS),
        solver_options=SOLVER_OPTIONS,
    )
    return historical, lqn, hybrid, calibration
