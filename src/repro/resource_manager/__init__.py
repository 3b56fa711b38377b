"""Prediction-enhanced resource management (section 9 of the paper).

The resource-management algorithm (Algorithm 1) determines which application
servers should process a workload that is to be transferred to the service
provider and divides the workload across them:

* service classes are processed in order of increasing SLA response-time
  goal, so lower-priority classes are rejected first under shortage;
* server selection is greedy — the server predicted to take the most clients
  of the current class — except for a class's *last* server, where the
  smallest sufficient server is chosen;
* a **slack** multiplier inflates each class's client count before
  allocation, compensating for predictive inaccuracy at the cost of extra
  server usage.

Runtime behaviour (rejection of clients when response times approach SLA
goals, plus the paper's "runtime optimisations" that let rejected clients use
capacity the algorithm left free) is evaluated against a *ground-truth*
response-time model, and the slack analysis trades off the two cost metrics:
% SLA failures and % server usage.
"""

from repro.resource_manager.cost import ProviderCostModel, cost_curve, optimal_slack
from repro.resource_manager.sla import ClassWorkload, class_rt_factor
from repro.resource_manager.allocation import (
    Allocation,
    ManagedServer,
    allocate,
)
from repro.resource_manager.runtime import RuntimeOutcome, evaluate_runtime
from repro.resource_manager.slack import (
    LoadPointMetrics,
    SlackAnalysis,
    SlackSweepResult,
    sweep_loads,
)

__all__ = [
    "ProviderCostModel",
    "cost_curve",
    "optimal_slack",
    "ClassWorkload",
    "class_rt_factor",
    "Allocation",
    "ManagedServer",
    "allocate",
    "RuntimeOutcome",
    "evaluate_runtime",
    "LoadPointMetrics",
    "SlackAnalysis",
    "SlackSweepResult",
    "sweep_loads",
]
