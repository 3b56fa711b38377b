"""Synthesized IBM *Trade* benchmark workload.

The paper drives its testbed with the IBM WebSphere Performance Benchmark
Sample "Trade" — a stock-trading application whose clients are divided into
service classes:

* **browse** clients call a mix of read-mostly operations (quote, home,
  portfolio, …) with probabilities representative of real clients;
* **buy** clients run a scripted session: *register new user and login*, ten
  sequential *buy* requests, then *logoff* (mean portfolio size 5.5).

Since the Trade binary itself is proprietary, this package recreates the
workload synthetically: operations with per-request CPU demands at the
application and database tiers, chosen so that the class-level aggregate
demands reproduce the paper's measured per-request-type behaviour (table 2)
and the published per-server max throughputs (86/186/320 req/s).

The package also holds the trace characterisation that tests the paper's
exp(7 s) think-time assumption, imported by module path rather than
re-exported here: :mod:`~repro.workload.records` (trace rows to a
:class:`~repro.workload.records.RecordSet`), :mod:`~repro.workload.dists`
(:class:`~repro.workload.dists.DistributionSpec`, the one distribution
type), :mod:`~repro.workload.fitting` and :mod:`~repro.workload.diagnostics`
(AIC-ranked fits and the exponentiality screen),
:mod:`~repro.workload.modulators` and :mod:`~repro.workload.scenario`
(declarative scenarios compiled to arrival traces) and
:mod:`~repro.workload.validation` (fit, regenerate, compare).
"""

from repro.workload.operations import Operation, TRADE_OPERATIONS, operation
from repro.workload.service_class import (
    OperationMix,
    ScriptedSession,
    ServiceClass,
)
from repro.workload.generators import (
    TraceEntry,
    TraceReplaySource,
    generate_trace,
    load_trace_csv,
    save_trace_csv,
)
from repro.workload.trade import (
    BROWSE_CLASS,
    BUY_CLASS,
    browse_class,
    buy_class,
    mixed_workload,
    typical_workload,
)

__all__ = [
    "Operation",
    "TRADE_OPERATIONS",
    "operation",
    "OperationMix",
    "ScriptedSession",
    "ServiceClass",
    "BROWSE_CLASS",
    "BUY_CLASS",
    "browse_class",
    "buy_class",
    "mixed_workload",
    "typical_workload",
    "TraceEntry",
    "TraceReplaySource",
    "generate_trace",
    "save_trace_csv",
    "load_trace_csv",
]
