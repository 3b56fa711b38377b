"""Declarative workload scenarios and the trace generator that compiles them.

A :class:`ScenarioSpec` is the single source of truth for one workload:
a client population, a think-time distribution (fitted or parametric),
time-varying load modulators, and a request-mix schedule.  Compiling a
spec (:func:`generate_entries` / :func:`generate_records`) produces one
deterministic arrival trace — the same
:class:`~repro.workload.generators.TraceEntry` rows the simulator's
:class:`~repro.workload.generators.TraceReplaySource` replays.

The generator models each client as a closed loop of *sessions*: at each
session start the client becomes a buy client with the schedule's
current buy probability (running the paper's scripted 12-request buy
session) or a browse client (drawing 12 operations from the browse
mix); every request is followed by a think-time sample divided by the
composed modulator factor at that instant, which is how diurnal curves
and flash crowds raise the offered rate without touching the fitted
distribution.  All entropy flows through per-client
:func:`~repro.util.rng.spawn_rng` streams (common random numbers: adding
a client never perturbs the others' timelines).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import spawn_rng
from repro.util.validation import check_positive, check_positive_int, require
from repro.workload.dists import DistributionSpec, lognormal_spec
from repro.workload.generators import TraceEntry
from repro.workload.modulators import (
    DiurnalCurve,
    FlashCrowd,
    MixSchedule,
    Modulator,
    compose_factor,
)
from repro.workload.records import RecordSet, records_from_trace_entries
from repro.workload.trade import BROWSE_CLASS, BUY_CLASS, BUY_SESSION_LENGTH

__all__ = [
    "ScenarioSpec",
    "generate_entries",
    "generate_records",
    "canonical_spec",
]

#: Floor on the composed modulator factor: a clipped-to-zero trough
#: stretches think times rather than dividing by zero.
_MIN_FACTOR = 1e-6


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative workload scenario (seed-free).

    The seed lives at the *generation* call, not in the spec — one spec
    can produce many independent replications, and the validation
    battery relies on regenerating a spec under a fresh stream.
    """

    name: str
    n_clients: int
    duration_s: float
    think_time: DistributionSpec
    modulators: tuple[Modulator, ...] = ()
    mix: MixSchedule = field(default_factory=lambda: MixSchedule.constant(0.0))

    def __post_init__(self) -> None:
        require(bool(self.name), "scenario name must be non-empty")
        check_positive_int(self.n_clients, "n_clients")
        check_positive(self.duration_s, "duration_s")

    def factor(self, t_s: float) -> float:
        """The composed load multiplier at scenario time ``t_s``."""
        return max(_MIN_FACTOR, compose_factor(self.modulators, t_s))

    def to_dict(self) -> dict:
        """A JSON-serializable view of the whole scenario."""
        return {
            "name": self.name,
            "n_clients": self.n_clients,
            "duration_s": self.duration_s,
            "think_time": self.think_time.to_dict(),
            "modulators": [m.to_dict() for m in self.modulators],
            "mix": self.mix.to_dict(),
        }


def _stagger_window_ms(spec: ScenarioSpec) -> float:
    """The start-stagger window: one typical think time, bounded by the run.

    The median stands in for the mean so heavy-tail specs (infinite-mean
    Pareto) still stagger sensibly.
    """
    typical = float(np.asarray(spec.think_time.quantile(0.5)))
    return min(max(typical, 1.0), spec.duration_s * 1000.0)


def generate_entries(spec: ScenarioSpec, *, seed: int) -> list[TraceEntry]:
    """Compile ``spec`` to a deterministic arrival trace.

    Each client runs closed-loop sessions (buy script or browse mix as
    decided per session by the mix schedule) with modulated think times;
    the merged, time-sorted entries are the compiled artefact.
    """
    end_ms = spec.duration_s * 1000.0
    entries: list[TraceEntry] = []
    browse_behaviour = BROWSE_CLASS.behaviour
    buy_behaviour = BUY_CLASS.behaviour
    for index in range(spec.n_clients):
        rng = spawn_rng(seed, f"workloads:{spec.name}:client:{index}")
        client_id = f"{spec.name}:{index}"
        t_ms = float(rng.uniform(0.0, _stagger_window_ms(spec)))
        while t_ms < end_ms:
            is_buy = bool(rng.random() < spec.mix.buy_fraction(t_ms / 1000.0))
            behaviour = buy_behaviour if is_buy else browse_behaviour
            for position in range(BUY_SESSION_LENGTH):
                if t_ms >= end_ms:
                    break
                op = behaviour.next_operation(rng, position)
                entries.append(
                    TraceEntry(arrival_ms=t_ms, operation=op.name, client_id=client_id)
                )
                think_ms = float(spec.think_time.sample(rng, 1)[0])
                t_ms += max(think_ms, 1e-9) / spec.factor(t_ms / 1000.0)
    entries.sort(key=lambda e: e.arrival_ms)
    return entries


def generate_records(spec: ScenarioSpec, *, seed: int) -> RecordSet:
    """Compile ``spec`` and ingest the result as a record set."""
    return records_from_trace_entries(generate_entries(spec, seed=seed))


def canonical_spec(*, fast: bool = False) -> ScenarioSpec:
    """The reference scenario the ``workloads`` experiment characterises.

    A diurnal swing with a mid-run flash crowd over heavy-ish lognormal
    think times (CV² ≈ 1.7 — decidedly non-exponential) and a buy share
    climbing from 5 % to 25 %: every axis the paper's fixed exp(7 s)
    workload lacks, in one spec.
    """
    duration_s = 300.0 if fast else 600.0
    # Lognormal with a 7 s mean (matching the paper's scale) and sigma=1:
    # mu = ln(7000) - sigma^2/2.
    think = lognormal_spec(float(np.log(7000.0) - 0.5), 1.0)
    return ScenarioSpec(
        name="canonical",
        n_clients=60 if fast else 120,
        duration_s=duration_s,
        think_time=think,
        modulators=(
            DiurnalCurve(period_s=duration_s, amplitude=0.4),
            FlashCrowd(at_s=0.6 * duration_s, magnitude=1.5, decay_s=duration_s / 12.0),
        ),
        mix=MixSchedule(points=((0.0, 0.05), (duration_s, 0.25))),
    )
