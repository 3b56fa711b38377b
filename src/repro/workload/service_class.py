"""Service classes: workload units with an SLA response-time goal.

A *service class* (section 3.1 of the paper) groups clients that behave the
same way and share an SLA response-time requirement.  Each client of a class
is a closed-loop request generator: it sends a request, waits for the
response, thinks for an exponentially distributed time, and repeats.

Two behaviours are supported, matching the paper's case study:

* :class:`OperationMix` — the next operation is drawn at random from a
  probability mix (the *browse* class);
* :class:`ScriptedSession` — operations follow a fixed script, optionally
  with a repeated middle section (the *buy* class: register+login, ten buys,
  logoff).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.util.units import s_to_ms
from repro.util.validation import (
    check_non_empty,
    check_positive,
    check_probabilities_sum_to_one,
    require,
)
from repro.workload.operations import Operation

__all__ = ["OperationMix", "ScriptedSession", "ServiceClass"]


@dataclass(frozen=True)
class OperationMix:
    """Random selection of the next operation with fixed probabilities.

    The draw is NumPy's own: ``Generator.choice(n, p=p)`` for a single
    index normalises ``cumsum(p)`` by its last entry, consumes one
    ``random()`` double ``u`` and returns the first index whose CDF entry
    exceeds ``u``.  :meth:`next_operation` does exactly that against a CDF
    computed once here, so it returns the same index and leaves the
    generator in the same state, without re-validating ``p`` per request.
    """

    operations: tuple[Operation, ...]
    probabilities: tuple[float, ...]
    _cdf: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_non_empty(self.operations, "operations")
        require(
            len(self.operations) == len(self.probabilities),
            "operations and probabilities must have equal length",
        )
        check_probabilities_sum_to_one(self.probabilities, "probabilities")
        cdf = np.cumsum(np.asarray(self.probabilities, dtype=np.float64))
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", tuple(cdf.tolist()))

    def next_operation(self, rng: np.random.Generator, _position: int) -> Operation:
        """Draw the next operation (position in session is ignored)."""
        return self.operations[bisect_right(self._cdf, rng.random())]

    def mean_app_demand_ms(self) -> float:
        """Probability-weighted mean application-server demand (ms)."""
        return float(
            sum(p * op.app_demand_ms for p, op in zip(self.probabilities, self.operations))
        )

    def mean_db_calls(self) -> float:
        """Probability-weighted mean database calls per request."""
        return float(
            sum(p * op.db_calls for p, op in zip(self.probabilities, self.operations))
        )

    def mean_db_cpu_per_call_ms(self) -> float:
        """Call-weighted mean database CPU per database call (ms)."""
        calls = self.mean_db_calls()
        if calls == 0:
            return 0.0
        total = sum(
            p * op.db_calls * op.db_cpu_per_call_ms
            for p, op in zip(self.probabilities, self.operations)
        )
        return float(total / calls)

    def mean_db_disk_per_call_ms(self) -> float:
        """Call-weighted mean database disk time per database call (ms)."""
        calls = self.mean_db_calls()
        if calls == 0:
            return 0.0
        total = sum(
            p * op.db_calls * op.db_disk_per_call_ms
            for p, op in zip(self.probabilities, self.operations)
        )
        return float(total / calls)


@dataclass(frozen=True)
class ScriptedSession:
    """Deterministic session script: prologue, repeated body, epilogue.

    The paper's buy class is ``ScriptedSession(prologue=[register_login],
    body=[buy], body_repeats=10, epilogue=[logoff])``.
    """

    prologue: tuple[Operation, ...]
    body: tuple[Operation, ...]
    body_repeats: int
    epilogue: tuple[Operation, ...]

    def __post_init__(self) -> None:
        require(self.body_repeats >= 0, "body_repeats must be >= 0")
        require(
            len(self.prologue) + len(self.body) * self.body_repeats + len(self.epilogue)
            > 0,
            "session script must contain at least one operation",
        )

    @property
    def session_length(self) -> int:
        """Total requests per session."""
        return (
            len(self.prologue) + len(self.body) * self.body_repeats + len(self.epilogue)
        )

    def operation_at(self, position: int) -> Operation:
        """The operation at 0-based ``position`` within the session."""
        pos = position % self.session_length
        if pos < len(self.prologue):
            return self.prologue[pos]
        pos -= len(self.prologue)
        body_total = len(self.body) * self.body_repeats
        if pos < body_total:
            return self.body[pos % len(self.body)]
        pos -= body_total
        return self.epilogue[pos]

    def next_operation(self, rng: np.random.Generator, position: int) -> Operation:
        """Scripted selection ignores the RNG."""
        return self.operation_at(position)

    def _all_ops(self) -> list[Operation]:
        ops: list[Operation] = list(self.prologue)
        ops.extend(list(self.body) * self.body_repeats)
        ops.extend(self.epilogue)
        return ops

    def mean_app_demand_ms(self) -> float:
        """Mean application-server demand per request over one session (ms)."""
        ops = self._all_ops()
        return float(sum(op.app_demand_ms for op in ops) / len(ops))

    def mean_db_calls(self) -> float:
        """Mean database calls per request over one session."""
        ops = self._all_ops()
        return float(sum(op.db_calls for op in ops) / len(ops))

    def mean_db_cpu_per_call_ms(self) -> float:
        """Call-weighted mean database CPU per call over one session (ms)."""
        ops = self._all_ops()
        calls = sum(op.db_calls for op in ops)
        if calls == 0:
            return 0.0
        return float(sum(op.db_calls * op.db_cpu_per_call_ms for op in ops) / calls)

    def mean_db_disk_per_call_ms(self) -> float:
        """Call-weighted mean database disk time per call over one session."""
        ops = self._all_ops()
        calls = sum(op.db_calls for op in ops)
        if calls == 0:
            return 0.0
        return float(sum(op.db_calls * op.db_disk_per_call_ms for op in ops) / calls)


@dataclass(frozen=True)
class ServiceClass:
    """A named client population with a behaviour and an SLA goal.

    Parameters
    ----------
    name:
        Unique class name, e.g. ``"browse"``.
    behaviour:
        An :class:`OperationMix` or :class:`ScriptedSession`.
    think_time_ms:
        Mean of the exponential client think time.  The paper uses 7 s for
        all classes, "as recommended by IBM as being representative of Trade
        clients".
    rt_goal_ms:
        SLA mean-response-time goal; ``None`` when the class has no SLA.
    mean_session_bytes:
        Mean per-client session size, used by the caching study (§7.2).
    priority:
        Thread-queue priority at the application server (lower = more
        urgent; default 0 for every class = plain FIFO).  Supports the
        "priority queuing disciplines" variation of section 8.1.
    """

    name: str
    behaviour: OperationMix | ScriptedSession
    think_time_ms: float = s_to_ms(7.0)
    rt_goal_ms: float | None = None
    mean_session_bytes: int = 4096
    priority: int = 0

    def __post_init__(self) -> None:
        check_positive(self.think_time_ms, "think_time_ms")
        if self.rt_goal_ms is not None:
            check_positive(self.rt_goal_ms, "rt_goal_ms")

    def with_goal(self, rt_goal_ms: float, *, name: str | None = None) -> "ServiceClass":
        """A copy of this class with an SLA goal (and optionally a new name)."""
        return ServiceClass(
            name=name if name is not None else self.name,
            behaviour=self.behaviour,
            think_time_ms=self.think_time_ms,
            rt_goal_ms=rt_goal_ms,
            mean_session_bytes=self.mean_session_bytes,
            priority=self.priority,
        )

    # Aggregate demand helpers delegate to the behaviour; the prediction
    # methods calibrate against these class-level means.

    def mean_app_demand_ms(self) -> float:
        """Mean application-server CPU demand per request (reference speed)."""
        return self.behaviour.mean_app_demand_ms()

    def mean_db_calls(self) -> float:
        """Mean database requests per application-server request."""
        return self.behaviour.mean_db_calls()

    def mean_db_cpu_per_call_ms(self) -> float:
        """Mean database CPU demand per database request (ms)."""
        return self.behaviour.mean_db_cpu_per_call_ms()

    def mean_db_disk_per_call_ms(self) -> float:
        """Mean database disk demand per database request (ms)."""
        return self.behaviour.mean_db_disk_per_call_ms()

    def request_type_fractions(self) -> dict[str, float]:
        """Fraction of this class's requests per request type.

        The layered queuing model calibrates parameters per *request type*
        (section 5); a class's client entry calls the per-type application
        entries with these fractions as mean call counts.
        """
        fractions: dict[str, float] = {}
        if isinstance(self.behaviour, OperationMix):
            for p, op in zip(self.behaviour.probabilities, self.behaviour.operations):
                fractions[op.request_type] = fractions.get(op.request_type, 0.0) + p
        else:
            ops = self.behaviour._all_ops()
            for op in ops:
                fractions[op.request_type] = (
                    fractions.get(op.request_type, 0.0) + 1.0 / len(ops)
                )
        return fractions

    def mean_total_demand_ms(self) -> float:
        """Total mean demand per request across all resources (ms),
        at reference speed — a lower bound on the no-contention response
        time."""
        return (
            self.mean_app_demand_ms()
            + self.mean_db_calls()
            * (self.mean_db_cpu_per_call_ms() + self.mean_db_disk_per_call_ms())
        )
