"""Layered queuing network (LQN) modelling and solving.

This package replaces the LQNS tool used in the paper with a from-scratch
implementation of the same modelling approach (Woodside et al.'s stochastic
rendezvous networks):

* :mod:`repro.lqn.model` — processors, tasks, entries and synchronous /
  asynchronous calls, with structural validation;
* :mod:`repro.lqn.mva` — exact and Bard–Schweitzer approximate Mean Value
  Analysis cores for closed multiclass queueing networks;
* :mod:`repro.lqn.loss` — finite-capacity (M/M/1/K, M/M/c/K) closed forms
  and the effective-arrival-rate fixed point composing them with the
  batched MVA core, giving loss probability as a first-class output;
* :mod:`repro.lqn.solver` — the layered fixed-point solver: hardware
  contention is solved by approximate MVA while software (task-concurrency)
  contention is folded in through surrogate stations, iterating until
  response times change by less than a convergence criterion (the paper uses
  20 ms, and discusses the accuracy/speed trade-off of that choice);
* :mod:`repro.lqn.builder` — constructs the paper's two-tier Trade model
  from a server architecture and workload;
* :mod:`repro.lqn.calibration` — per-request-type processing-time
  calibration from throughput and CPU-utilisation measurements on one
  established server (section 5 of the paper).
"""

from repro.lqn.model import (
    Call,
    CallKind,
    Entry,
    LqnModel,
    Processor,
    Scheduling,
    Task,
)
from repro.lqn.loss import (
    LossQuantities,
    effective_throughput,
    mm1k_loss_probability,
    mmck_loss_probability,
    mmck_loss_quantities,
    mmck_mean_in_system,
    mmck_state_probabilities,
    solve_batch_with_loss,
)
from repro.lqn.mva import (
    MvaBatchInput,
    MvaBatchSolution,
    MvaInput,
    MvaSolution,
    Station,
    StationKind,
    solve_batch,
    solve_bard_schweitzer,
    solve_exact_single_class,
)
from repro.lqn.results import LqnSolution
from repro.lqn.solver import LqnSolver, SolverOptions
from repro.lqn.builder import build_trade_model, TradeModelParameters
from repro.lqn.calibration import (
    CalibratedRequestType,
    LqnCalibration,
    calibrate_from_simulator,
)

__all__ = [
    "Call",
    "CallKind",
    "Entry",
    "LqnModel",
    "Processor",
    "Scheduling",
    "Task",
    "MvaBatchInput",
    "MvaBatchSolution",
    "MvaInput",
    "MvaSolution",
    "Station",
    "StationKind",
    "solve_batch",
    "solve_bard_schweitzer",
    "solve_exact_single_class",
    "LossQuantities",
    "mmck_state_probabilities",
    "mmck_loss_quantities",
    "mm1k_loss_probability",
    "mmck_loss_probability",
    "mmck_mean_in_system",
    "effective_throughput",
    "solve_batch_with_loss",
    "LqnSolution",
    "LqnSolver",
    "SolverOptions",
    "build_trade_model",
    "TradeModelParameters",
    "CalibratedRequestType",
    "LqnCalibration",
    "calibrate_from_simulator",
]
