"""Mean Value Analysis cores for closed multiclass queueing networks.

Three entry points:

* :func:`solve_exact_single_class` — Reiser/Lavenberg exact MVA for a single
  closed class, including load-dependent multi-server stations.  Used for
  validating the approximate core and in unit tests against closed-form
  results (machine-repairman, M/M/1-with-think-time).
* :func:`solve_batch` — **the** multiclass Bard–Schweitzer approximate MVA
  fixed point, vectorised over a whole *sweep* of networks at once: a batch
  axis ``B`` sits in front of the usual class/station axes (``Q: (B, C, K)``)
  so populations × request mixes × architectures iterate together.  Each
  batch point carries its own convergence state — converged points freeze
  (their iterates stop being updated, bit-for-bit) while stragglers keep
  iterating — and a point can climb a whole tolerance ladder along one
  trajectory (the layered solver's LQNS-style stopping rule).
* :func:`solve_bard_schweitzer` — the single-network API, now literally a
  batch of one: it stacks its input into a :class:`MvaBatchInput` of size 1
  and unpacks :func:`solve_batch`'s first point, so there is exactly one
  fixed-point implementation in the repository.

Multi-server stations use a scaled-queue approximation
(``R = D + (D/m)·A``), and *surrogate software stations* can be marked
``waiting_only`` so only their queueing delay — not their (already counted
elsewhere) service — contributes to cycle response times.

Demands are expressed **per cycle** of each class (visit ratio × mean service
time, in ms).  A class may additionally place *hidden* demand on a station:
work that loads the station (asynchronous calls, second-phase service) but is
not on the caller's response-time path.

Implementation follows the HPC-python guides: every fixed-point step is one
set of NumPy array operations over ``(B, C, K)``; per-point Python overhead
is paid once per *sweep*, not once per network.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.util.errors import ConvergenceError, ValidationError
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
    require,
)

__all__ = [
    "StationKind",
    "Station",
    "MvaInput",
    "MvaSolution",
    "MvaBatchInput",
    "MvaBatchSolution",
    "ladder_verdict",
    "solve_batch",
    "solve_bard_schweitzer",
    "solve_exact_single_class",
]


def _require_finite_non_negative(values: np.ndarray, what: str) -> None:
    """Raise :class:`ValidationError` unless every value is finite and >= 0.

    One pass per bound and no temporaries: the minimum is NaN or negative,
    or the maximum is NaN or infinite, exactly when some value is out of
    range.
    """
    if values.size and not (
        np.minimum.reduce(values, None) >= 0.0 and np.maximum.reduce(values, None) < np.inf
    ):
        raise ValidationError(f"{what} must be finite and >= 0")


def _require_finite_non_negative_values(values: Sequence[float], what: str) -> None:
    """The per-value form of :func:`_require_finite_non_negative`, for lists."""
    for value in values:
        if not 0.0 <= value < math.inf:
            raise ValidationError(f"{what} must be finite and >= 0")


def _require_cycle_time(
    populations: np.ndarray, think_times_ms: np.ndarray, demands: np.ndarray,
    class_names: Sequence[str],
) -> None:
    """Raise :class:`ValidationError` for a closed class whose cycle takes no time.

    A class with clients, zero think time and zero demand at every station
    has throughput N/0: the fixed point has no finite iterate, so it would
    spin to its iteration limit.  ``demands`` carries the station axis last.
    """
    instant = (populations > 0.0) & (think_times_ms <= 0.0) & ~demands.any(axis=-1)
    if instant.any():
        name = class_names[int(instant.nonzero()[-1][0])]
        raise ValidationError(
            f"closed class {name!r} has clients but zero think time and zero "
            "demand: its throughput N/0 is unbounded"
        )


class StationKind(enum.Enum):
    """Queueing behaviour of one MVA station."""

    QUEUE = "queue"  # single queueing resource (PS or FCFS — MVA treats alike)
    DELAY = "delay"  # infinite server


@dataclass(frozen=True, slots=True)
class Station:
    """One service centre in the closed network.

    ``capacity`` — when given — bounds the total number of customers the
    station can hold (servers plus waiting room, the ``K`` of M/M/c/K):
    offered open traffic beyond it is *lost*, not queued.  The plain
    :func:`solve_batch` core ignores the bound; the finite-capacity solve
    path (:func:`repro.lqn.loss.solve_batch_with_loss`) composes the
    closed-form loss terms around it.
    """

    name: str
    kind: StationKind = StationKind.QUEUE
    servers: int = 1
    waiting_only: bool = False
    capacity: int | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.servers, "servers")
        if self.kind is StationKind.DELAY and self.waiting_only:
            raise ValidationError("a DELAY station has no waiting to count")
        if self.capacity is not None:
            check_positive_int(self.capacity, "capacity")
            if self.kind is StationKind.DELAY:
                raise ValidationError("a DELAY station has no queue to bound")
            require(
                self.capacity >= self.servers,
                "capacity must be >= servers (K >= c)",
            )


@dataclass
class MvaInput:
    """A closed multiclass network, optionally mixed with open classes.

    ``demands[c][k]`` is class ``c``'s visible per-cycle demand at station
    ``k`` (ms); ``hidden_demands`` likewise for load that is off the response
    path.  ``populations[c]`` may be zero (the class is simply absent).

    Open classes (section 8.1 of the paper: "some or all clients sending
    requests at a constant rate") are described by an arrival rate and a
    per-request demand vector; they are solved with the standard
    mixed-network reduction — open traffic inflates the closed classes'
    effective demands by ``1/(1−ρ_open)`` at each queueing station, and open
    response times then see the closed queue lengths.
    """

    stations: list[Station]
    class_names: list[str]
    populations: list[int]
    think_times_ms: list[float]
    demands: np.ndarray  # shape (C, K)
    hidden_demands: np.ndarray | None = None
    open_class_names: list[str] | None = None
    open_rates_per_ms: list[float] | None = None
    open_demands: np.ndarray | None = None  # shape (O, K)

    def __post_init__(self) -> None:
        require(len(self.class_names) == len(self.populations), "class/population mismatch")
        require(len(self.class_names) == len(self.think_times_ms), "class/think mismatch")
        self.demands = np.asarray(self.demands, dtype=float)
        if self.demands.shape != (len(self.class_names), len(self.stations)):
            raise ValidationError(
                f"demands must be (C={len(self.class_names)}, K={len(self.stations)}), "
                f"got {self.demands.shape}"
            )
        if self.hidden_demands is None:
            self.hidden_demands = np.zeros_like(self.demands)
        else:
            self.hidden_demands = np.asarray(self.hidden_demands, dtype=float)
            require(
                self.hidden_demands.shape == self.demands.shape,
                "hidden_demands shape mismatch",
            )
        _require_finite_non_negative(self.demands, "demands")
        _require_finite_non_negative(self.hidden_demands, "hidden demands")
        _require_finite_non_negative_values(self.populations, "populations")
        _require_finite_non_negative_values(self.think_times_ms, "think times")
        _require_cycle_time(
            np.asarray(self.populations, dtype=float),
            np.asarray(self.think_times_ms, dtype=float),
            self.demands,
            self.class_names,
        )

        if self.open_class_names is None:
            self.open_class_names = []
        if self.open_rates_per_ms is None:
            self.open_rates_per_ms = []
        require(
            len(self.open_class_names) == len(self.open_rates_per_ms),
            "open class/rate mismatch",
        )
        O = len(self.open_class_names)
        if self.open_demands is None:
            self.open_demands = np.zeros((O, len(self.stations)))
        else:
            self.open_demands = np.asarray(self.open_demands, dtype=float)
        if self.open_demands.shape != (O, len(self.stations)):
            raise ValidationError(
                f"open_demands must be (O={O}, K={len(self.stations)}), "
                f"got {self.open_demands.shape}"
            )
        _require_finite_non_negative(self.open_demands, "open demands")
        _require_finite_non_negative_values(self.open_rates_per_ms, "open arrival rates")

    def open_utilisation_per_station(self) -> np.ndarray:
        """ρ_open per station (per server), from the open classes alone."""
        rates = np.asarray(self.open_rates_per_ms, dtype=float)
        servers = np.array([s.servers for s in self.stations], dtype=float)
        if rates.size == 0:
            return np.zeros(len(self.stations))
        return (rates[:, None] * self.open_demands).sum(axis=0) / servers

    def structure_signature(self) -> tuple:
        """A hashable key identifying the network *shape* of this input.

        Two inputs with equal signatures describe the same stations,
        closed classes and open classes (possibly with different demands,
        populations or rates) and may therefore be stacked into one
        :class:`MvaBatchInput`.
        """
        return (
            tuple(
                (s.name, s.kind, s.servers, s.waiting_only, s.capacity)
                for s in self.stations
            ),
            tuple(self.class_names),
            tuple(self.open_class_names or ()),
        )


@dataclass
class MvaSolution:
    """Per-class and per-station steady-state estimates."""

    class_names: list[str]
    station_names: list[str]
    throughput_per_ms: np.ndarray  # (C,) cycles per ms
    cycle_response_ms: np.ndarray  # (C,) response time per cycle (excl. think)
    queue_lengths: np.ndarray  # (C, K) mean customers (incl. in service)
    residence_ms: np.ndarray  # (C, K) counted residence time per cycle
    utilisation: np.ndarray  # (K,) per-server utilisation (DELAY: mean jobs)
    iterations: int = 0
    # Open-class estimates (mixed networks), keyed by open class name.
    open_response_ms: dict = field(default_factory=dict)
    # Finite-capacity (loss) estimates — zero / empty on the unbounded path.
    loss_probability: np.ndarray | None = None  # (K,) blocked fraction per station
    capacity_mean_in_system: np.ndarray | None = None  # (K,) closed-form L
    open_loss: dict = field(default_factory=dict)  # end-to-end loss per open class

    def throughput_per_s(self, class_name: str) -> float:
        """Class throughput in cycles (requests) per second."""
        return float(self.throughput_per_ms[self.class_names.index(class_name)] * 1000.0)

    def response_ms(self, class_name: str) -> float:
        """Class response time per cycle, excluding think time (ms)."""
        return float(self.cycle_response_ms[self.class_names.index(class_name)])

    def station_utilisation(self, station_name: str) -> float:
        """Per-server utilisation of one station."""
        return float(self.utilisation[self.station_names.index(station_name)])


@dataclass
class MvaBatchInput:
    """A *sweep* of closed multiclass networks sharing one structure.

    All ``B`` points share the same stations, closed-class names and
    open-class names; populations, think times, demands and open rates
    carry a leading batch axis.  Build one from per-point
    :class:`MvaInput` objects with :meth:`from_points` (the common
    path), or construct the stacked arrays directly.
    """

    stations: list[Station]
    class_names: list[str]
    populations: np.ndarray  # (B, C)
    think_times_ms: np.ndarray  # (B, C)
    demands: np.ndarray  # (B, C, K)
    hidden_demands: np.ndarray | None = None  # (B, C, K)
    open_class_names: list[str] | None = None
    open_rates_per_ms: np.ndarray | None = None  # (B, O)
    open_demands: np.ndarray | None = None  # (B, O, K)

    def __post_init__(self) -> None:
        C = len(self.class_names)
        K = len(self.stations)
        self.populations = np.asarray(self.populations, dtype=float)
        require(
            self.populations.ndim == 2 and self.populations.shape[1] == C,
            f"populations must be (B, C={C}), got {self.populations.shape}",
        )
        B = self.populations.shape[0]
        self.think_times_ms = np.asarray(self.think_times_ms, dtype=float)
        require(
            self.think_times_ms.shape == (B, C),
            f"think_times_ms must be (B={B}, C={C}), got {self.think_times_ms.shape}",
        )
        self.demands = np.asarray(self.demands, dtype=float)
        require(
            self.demands.shape == (B, C, K),
            f"demands must be (B={B}, C={C}, K={K}), got {self.demands.shape}",
        )
        if self.hidden_demands is None:
            self.hidden_demands = np.zeros_like(self.demands)
        else:
            self.hidden_demands = np.asarray(self.hidden_demands, dtype=float)
            require(
                self.hidden_demands.shape == self.demands.shape,
                "hidden_demands shape mismatch",
            )
        _require_finite_non_negative(self.demands, "demands")
        _require_finite_non_negative(self.hidden_demands, "hidden demands")
        _require_finite_non_negative(self.populations, "populations")
        _require_finite_non_negative(self.think_times_ms, "think times")
        _require_cycle_time(
            self.populations, self.think_times_ms, self.demands, self.class_names
        )

        if self.open_class_names is None:
            self.open_class_names = []
        O = len(self.open_class_names)
        if self.open_rates_per_ms is None:
            self.open_rates_per_ms = np.zeros((B, O))
        else:
            self.open_rates_per_ms = np.asarray(self.open_rates_per_ms, dtype=float)
        require(
            self.open_rates_per_ms.shape == (B, O),
            f"open_rates_per_ms must be (B={B}, O={O}), "
            f"got {self.open_rates_per_ms.shape}",
        )
        if self.open_demands is None:
            self.open_demands = np.zeros((B, O, K))
        else:
            self.open_demands = np.asarray(self.open_demands, dtype=float)
        require(
            self.open_demands.shape == (B, O, K),
            f"open_demands must be (B={B}, O={O}, K={K}), got {self.open_demands.shape}",
        )
        _require_finite_non_negative(self.open_demands, "open demands")
        _require_finite_non_negative(self.open_rates_per_ms, "open arrival rates")

    @property
    def batch_size(self) -> int:
        """Number of sweep points in the batch."""
        return int(self.populations.shape[0])

    @classmethod
    def from_points(cls, points: Sequence[MvaInput]) -> "MvaBatchInput":
        """Stack per-point inputs (identical structure required) into a batch.

        Each point was validated when it was constructed and equal
        structure signatures give every point the same array shapes, so
        the stacked arrays are not validated again.
        """
        require(len(points) > 0, "need at least one point to batch")
        first = points[0]
        if len(points) > 1:
            signature = first.structure_signature()
            for b, point in enumerate(points[1:], start=1):
                if point.structure_signature() != signature:
                    raise ValidationError(
                        f"batch point {b} has a different network structure than "
                        "point 0; group points by MvaInput.structure_signature() "
                        "before stacking"
                    )
        return cls._stacked(points)

    @classmethod
    def _stacked(cls, points: Sequence[MvaInput]) -> "MvaBatchInput":
        """:meth:`from_points` for points already grouped by structure signature."""
        first = points[0]
        batch = object.__new__(cls)
        batch.stations = list(first.stations)
        batch.class_names = list(first.class_names)
        batch.populations = np.array([p.populations for p in points], dtype=float)
        batch.think_times_ms = np.array([p.think_times_ms for p in points], dtype=float)
        batch.demands = np.array([p.demands for p in points])
        batch.hidden_demands = np.array([p.hidden_demands for p in points])
        batch.open_class_names = list(first.open_class_names or ())
        batch.open_rates_per_ms = np.array(
            [p.open_rates_per_ms for p in points], dtype=float
        ).reshape(len(points), len(batch.open_class_names))
        batch.open_demands = np.array([p.open_demands for p in points])
        return batch

    def subset(self, indices: Sequence[int] | np.ndarray) -> "MvaBatchInput":
        """A new batch holding only the given points (structure shared).

        Re-validation is skipped — every array is a row-subset of this
        already-validated batch, and the finite-capacity ladder subsets
        once per stage.
        """
        idx = np.asarray(indices, dtype=int)
        clone = object.__new__(MvaBatchInput)
        clone.stations = self.stations
        clone.class_names = self.class_names
        clone.populations = self.populations[idx]
        clone.think_times_ms = self.think_times_ms[idx]
        clone.demands = self.demands[idx]
        clone.hidden_demands = self.hidden_demands[idx]
        clone.open_class_names = self.open_class_names
        clone.open_rates_per_ms = self.open_rates_per_ms[idx]
        clone.open_demands = self.open_demands[idx]
        return clone

    def open_utilisation_per_station(self) -> np.ndarray:
        """ρ_open per point and station (per server), shape ``(B, K)``."""
        servers = np.array([s.servers for s in self.stations], dtype=float)
        if self.open_rates_per_ms.size == 0:
            return np.zeros((self.batch_size, len(self.stations)))
        return (self.open_rates_per_ms[:, :, None] * self.open_demands).sum(
            axis=1
        ) / servers


@dataclass
class MvaBatchSolution:
    """Steady-state estimates for every point of one solved sweep."""

    class_names: list[str]
    station_names: list[str]
    throughput_per_ms: np.ndarray  # (B, C)
    cycle_response_ms: np.ndarray  # (B, C)
    queue_lengths: np.ndarray  # (B, C, K)
    residence_ms: np.ndarray  # (B, C, K)
    utilisation: np.ndarray  # (B, K)
    iterations: np.ndarray  # (B,) fixed-point steps until each point froze
    final_residual_ms: np.ndarray  # (B,) response-time residual at the stop
    open_response_ms: list[dict] = field(default_factory=list)  # one dict per point
    # Finite-capacity (loss) estimates, filled by the loss solve path
    # (None / empty when plain solve_batch produced the solution).
    loss_probability: np.ndarray | None = None  # (B, K) blocked fraction
    capacity_mean_in_system: np.ndarray | None = None  # (B, K) closed-form L
    open_loss: list[dict] = field(default_factory=list)  # one dict per point

    @property
    def batch_size(self) -> int:
        """Number of sweep points in the solution."""
        return int(self.throughput_per_ms.shape[0])

    def solution(self, b: int) -> MvaSolution:
        """Extract point ``b`` as a single-network :class:`MvaSolution`."""
        return MvaSolution(
            class_names=list(self.class_names),
            station_names=list(self.station_names),
            throughput_per_ms=self.throughput_per_ms[b].copy(),
            cycle_response_ms=self.cycle_response_ms[b].copy(),
            queue_lengths=self.queue_lengths[b].copy(),
            residence_ms=self.residence_ms[b].copy(),
            utilisation=self.utilisation[b].copy(),
            iterations=int(self.iterations[b]),
            open_response_ms=dict(self.open_response_ms[b]),
            loss_probability=(
                self.loss_probability[b].copy()
                if self.loss_probability is not None
                else None
            ),
            capacity_mean_in_system=(
                self.capacity_mean_in_system[b].copy()
                if self.capacity_mean_in_system is not None
                else None
            ),
            open_loss=dict(self.open_loss[b]) if self.open_loss else {},
        )


def ladder_verdict(
    rung: np.ndarray,
    last: int,
    response: np.ndarray,
    prev_response: np.ndarray,
    criterion_ms: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decide which points stop where they cross a tolerance-ladder rung.

    ``rung`` holds each point's rung index, ``response``/``prev_response``
    its ``(b, C)`` cycle response times at this rung and the previous one.
    A point stops once its response times moved less than ``criterion_ms``
    since the previous rung (never at rung 0, which has none), or at the
    floor rung ``last`` regardless.  Returns ``(stop, reported, residual)``:
    ``reported`` is the residual where the criterion held and 0.0 where the
    floor alone stopped the point; ``residual`` is the raw per-point value.
    """
    residual = np.maximum.reduce(np.abs(response - prev_response), axis=1, initial=0.0)
    met = (rung > 0) & (residual < criterion_ms)
    return met | (rung == last), np.where(met, residual, 0.0), residual


def solve_batch(
    inp: MvaBatchInput,
    *,
    tol: float | Sequence[float] = 1e-10,
    criterion_ms: float = 0.0,
    max_iterations: int = 100_000,
    damping: float = 0.5,
    iteration_hook: Callable[[int, float, int], None] | None = None,
    stage_hook: Callable[[int, float, int, float | None, int], None] | None = None,
) -> MvaBatchSolution:
    """Solve a whole sweep of closed multiclass networks in one fixed point.

    This is the repository's only Bard–Schweitzer implementation: the
    fixed point iterates per-class queue lengths ``Q: (B, C, K)`` with
    ``damping`` (new = damping·update + (1−damping)·old) from the default
    iterate until each point's largest queue-length change is below
    ``tol``.  Points converge independently: once a point stops, its
    iterate is **frozen** — never touched again — so a point's trajectory
    (and its returned arrays, bit for bit) is identical to solving it
    alone, while stragglers keep iterating.  When points stop, the
    working set is compacted so late stragglers don't pay for the whole
    batch.

    ``tol`` may also be a *tolerance ladder*: a non-increasing sequence
    of rungs whose last entry is the floor.  Each point climbs it along
    its one trajectory.  When its residual first drops below its current
    rung, the point snapshots that step's cycle response times and
    applies :func:`ladder_verdict` with ``criterion_ms``; if it does not
    stop, it moves to the next rung and re-tests the *same* step.  Every
    step before the crossing had a residual at or above the looser rung,
    so a solve restarted from the default iterate at the tighter rung
    would stop at exactly the step this one reaches: the ladder returns
    what a restart per rung returns, at the cost of the last rung alone.
    A one-rung ladder (a plain float) is the classic single-tolerance
    solve.  ``final_residual_ms`` reports each point's verdict residual.

    One step is about twenty NumPy calls, each writing into a scratch
    array allocated once per solve (DESIGN.md, "The fixed-point step").

    ``iteration_hook(iteration, delta, n_active)`` — when given — is
    called after every fixed-point step with the largest residual among
    the points that were still active and the count of such points;
    ``stage_hook(stage, stage_tol, iteration, residual_ms, n_active)`` is
    called once per rung crossed (``stage`` counts from 1; ``residual_ms``
    is the largest verdict residual among the crossing points, ``None`` at
    the first rung).  The layered solver uses both to stream trace events.
    Leave them ``None`` on hot paths: the ``None`` checks are the only cost
    then.
    """
    ladder = [check_positive(rung, "tol") for rung in np.atleast_1d(tol)]
    require(
        len(ladder) > 0 and all(b <= a for a, b in zip(ladder, ladder[1:])),
        "tol must be one tolerance or a non-empty ladder that does not loosen",
    )
    rungs = np.array(ladder)
    check_non_negative(criterion_ms, "criterion_ms")
    check_positive_int(max_iterations, "max_iterations")
    require(0.0 < damping <= 1.0, "damping must be in (0, 1]")
    last_rung = rungs.size - 1

    B = inp.batch_size
    C = len(inp.class_names)
    K = len(inp.stations)
    N = inp.populations  # (B, C)
    Z = inp.think_times_ms  # (B, C)

    servers = np.array([s.servers for s in inp.stations], dtype=float)  # (K,)
    is_delay = np.array([s.kind is StationKind.DELAY for s in inp.stations])
    waiting_only = np.array([s.waiting_only for s in inp.stations])
    station_names = [s.name for s in inp.stations]

    # Mixed-network reduction: open traffic permanently occupies rho_open of
    # each queueing station, so closed customers effectively see slower
    # servers (demand inflated by 1/(1-rho_open)).  Purely closed networks
    # (the common case) skip the reduction entirely; the inflation would be
    # exactly 1.0.
    if inp.open_class_names:
        rho_open = inp.open_utilisation_per_station()  # (B, K)
        queue_saturated = (~is_delay)[None, :] & (rho_open >= 1.0)
        if queue_saturated.any():
            bad = sorted(
                {station_names[k] for k in np.flatnonzero(queue_saturated.any(axis=0))}
            )
            points = [int(b) for b in np.flatnonzero(queue_saturated.any(axis=1))]
            raise ValidationError(
                f"open arrival load saturates station(s) {bad}: the mixed network "
                f"is unstable (batch point(s) {points})"
                if B > 1
                else f"open arrival load saturates station(s) {bad}: the mixed "
                "network is unstable"
            )
        inflation = np.where(is_delay[None, :], 1.0, 1.0 / (1.0 - rho_open))  # (B, K)
        D = inp.demands * inflation[:, None, :]  # (B, C, K)
        H = inp.hidden_demands * inflation[:, None, :]  # (B, C, K)
        open_work = rho_open * servers  # (B, K): total open work per station
    else:
        rho_open = None
        D = inp.demands
        H = inp.hidden_demands
        open_work = 0.0

    def open_responses(q_closed: np.ndarray) -> list[dict]:
        """Open-class response times per point, given closed queues (B, C, K)."""
        per_point: list[dict] = [{} for _ in range(B)]
        if not inp.open_class_names:
            return per_point
        q_closed_total = q_closed.sum(axis=1)
        for o, name in enumerate(inp.open_class_names):
            demand = inp.open_demands[:, o, :]  # (B, K)
            r = np.where(
                is_delay[None, :],
                demand,
                demand
                * (1.0 + q_closed_total / servers)
                / np.maximum(1.0 - rho_open, 1e-12),
            )
            totals = r.sum(axis=1)
            for b in range(B):
                per_point[b][name] = float(totals[b])
        return per_point

    active_classes = N > 0  # (B, C)
    # Points with no active closed class (or no stations at all) are closed
    # form: zero closed flows, open work only.  They never enter the loop.
    trivial = (~active_classes.any(axis=1)) | (K == 0)  # (B,)

    # Frozen (output) state, filled in as points stop.
    Q_out = np.zeros((B, C, K))
    X_out = np.zeros((B, C))
    R_total_out = np.zeros((B, C))
    R_vis_out = np.zeros((B, C, K))
    iterations_out = np.zeros(B, dtype=int)
    residual_out = np.zeros(B)

    live = np.flatnonzero(~trivial)  # original indices of points still iterating
    if live.size:
        # Working copies restricted to the live points; compacted as points
        # freeze.  All arithmetic below is elementwise or reduces over the
        # class/station axes, so a point's values never depend on its batch
        # neighbours — freezing and compaction are bit-exact.
        n = N[live]
        z = Z[live]
        d = D[live]
        h = H[live]
        act = active_classes[live]
        safe_n = np.where(act, n, 1.0)
        # Default iterate: spread each class's population over visited stations.
        visits = ((d + h) > 0).astype(float)
        visit_counts = np.maximum(visits.sum(axis=2, keepdims=True), 1.0)
        Q = np.where(act[:, :, None], n[:, :, None] / visit_counts * visits, 0.0)
        # Per-point ladder state: current rung, its tolerance, and the
        # response times snapshotted at the previous rung.
        rung = np.zeros(live.size, dtype=int)
        rung_tol = np.full(live.size, rungs[0])
        prev_response = np.zeros((live.size, C))

        not_delay_row = (~is_delay)[None, :]
        counted_off = np.where(waiting_only[None, None, :], d, 0.0)
        # Hidden demand is rare (async calls / second phases): when a batch
        # has none, skip its arrays entirely.  Bitwise safe — ``R_hid`` would
        # be exactly zero and ``x + 0.0 == x`` for the non-negative residence
        # values here.
        has_hidden = bool(h.any())
        # A DELAY station is an infinite server.  Giving it ``+inf`` servers
        # lets one expression serve both kinds bit for bit: for a finite
        # A >= 0, A/inf == 0.0, so the queue factor 1 + A/m is exactly 1.0
        # and d * 1.0 == d, the DELAY residence.
        servers_row = np.where(is_delay, np.inf, servers)
        undamped = 1.0 - damping
        # max(A, 0) only bites when a population is below one customer:
        # otherwise Q_total >= Q_c >= Q_c/N_c holds in floating point (sums
        # and quotients of non-negative values round monotonically), so A
        # is already >= 0 — or NaN, which the max would pass through.
        clamp = bool((safe_n < 1.0).any())
        # Full-shape operands (same-shape ufunc calls skip NumPy's
        # broadcasting set-up), (b, C, 1) views and scratch arrays: derived
        # here and again only when the working set is compacted.
        n_full = np.empty(Q.shape)
        n_full[...] = safe_n[:, :, None]
        servers_full = np.empty(Q.shape)
        servers_full[...] = servers_row
        n3, z3, idle3 = safe_n[:, :, None], z[:, :, None], ~act[:, :, None]
        # An idle class's throughput is forced to 0.0; with every class
        # populated that select has nothing to do.
        some_idle = not act.all()
        # Scratch arrays, written before they are read in every step;
        # compaction keeps a prefix of each.
        q_total = np.empty((live.size, 1, K))
        A, R_vis, scratch, update = (np.empty(Q.shape) for _ in range(4))
        R_total, X = np.empty((live.size, C, 1)), np.empty((live.size, C, 1))

        # Local names for the loop's NumPy functions: at these array sizes a
        # module-attribute lookup per call is a measurable share of a step.
        # For the same reason the reductions take ``out`` and ``keepdims``
        # positionally.
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        add_reduce, max_reduce = np.add.reduce, np.maximum.reduce
        absolute, count_nonzero = np.abs, np.count_nonzero

        errstate = np.errstate(divide="ignore", invalid="ignore")
        errstate.__enter__()
        try:
            iterations = 0
            for iterations in range(1, max_iterations + 1):
                # Arrival theorem approximation: a class-c customer arriving
                # sees the network without one of its own class (scaled by
                # (Nc-1)/Nc).
                add_reduce(Q, 1, None, q_total, True)
                divide(Q, n_full, out=A)
                subtract(q_total, A, out=A)
                if clamp:
                    np.maximum(A, 0.0, out=A)

                # Queue factor 1 + A/m, in place.
                divide(A, servers_full, out=A)
                add(A, 1.0, out=A)
                multiply(d, A, out=R_vis)

                subtract(R_vis, counted_off, out=scratch)
                add_reduce(scratch, 2, None, R_total, True)

                add(z3, R_total, out=X)
                divide(n3, X, out=X)
                if some_idle:
                    np.copyto(X, 0.0, where=idle3)

                if has_hidden:
                    R_hid = h * A
                    # A closed class's *visible* load is self-throttling, but
                    # its hidden (asynchronous / second-phase) work is not: if
                    # it alone exceeds a station's capacity there is no steady
                    # state — fail loudly instead of diverging.
                    hidden_util = add_reduce(X * h, axis=1) / servers
                    overloaded = not_delay_row & (hidden_util > 1.0 + 1e-9)
                    if overloaded.any():
                        bad = sorted(
                            {
                                station_names[k]
                                for k in np.flatnonzero(overloaded.any(axis=0))
                            }
                        )
                        raise ValidationError(
                            f"asynchronous/second-phase load exceeds capacity "
                            f"at station(s) {bad}: the model has no steady state"
                        )
                    add(R_vis, R_hid, out=scratch)
                    multiply(X, scratch, out=update)
                else:
                    multiply(X, R_vis, out=update)
                # Damped update, then the step's largest queue-length change.
                multiply(update, damping, out=update)
                multiply(Q, undamped, out=scratch)
                add(update, scratch, out=update)
                subtract(update, Q, out=scratch)
                absolute(scratch, out=scratch)
                deltas = max_reduce(scratch, (1, 2))  # (b,)
                Q, update = update, Q

                crossed = deltas < rung_tol
                if iteration_hook is not None:
                    iteration_hook(iterations, float(deltas.max()), int(live.size))
                if not count_nonzero(crossed):
                    continue
                # Rung crossings: the only per-step Python work.  A point
                # that does not stop climbs a rung and re-tests this step.
                stopped: list[np.ndarray] = []
                pending = crossed.nonzero()[0]
                while pending.size:
                    at = rung[pending]
                    response = R_total.take(pending, axis=0)[:, :, 0]
                    stop, reported, residual = ladder_verdict(
                        at, last_rung, response, prev_response.take(pending, axis=0),
                        criterion_ms,
                    )
                    if stage_hook is not None:
                        for r in np.unique(at):
                            stage_hook(
                                int(r) + 1,
                                float(rungs[r]),
                                iterations,
                                float(residual[at == r].max()) if r else None,
                                int(live.size),
                            )
                    n_stop = count_nonzero(stop)
                    if n_stop:
                        done = pending[stop]
                        residual_out[live[done]] = reported[stop]
                        stopped.append(done)
                        if n_stop == pending.size:
                            break
                        climbs = ~stop
                        pending, at, response = pending[climbs], at[climbs], response[climbs]
                    at += 1
                    rung[pending] = at
                    prev_response[pending] = response
                    climb_tol = rungs[at]
                    rung_tol[pending] = climb_tol
                    pending = pending[deltas[pending] < climb_tol]
                if not stopped:
                    continue
                frozen = stopped[0] if len(stopped) == 1 else np.concatenate(stopped)
                done = live[frozen]
                Q_out[done] = Q.take(frozen, axis=0)
                X_out[done] = X.take(frozen, axis=0)[:, :, 0]
                R_total_out[done] = R_total.take(frozen, axis=0)[:, :, 0]
                R_vis_out[done] = R_vis.take(frozen, axis=0)
                iterations_out[done] = iterations
                if frozen.size == live.size:
                    break
                # Compact the working set: frozen points must leave it
                # (their iterates stop here — that is what makes a point's
                # trajectory bit-identical to a solo solve), and the
                # stragglers stop paying batch-width cost for them.
                keep = np.ones(live.size, dtype=bool)
                keep[frozen] = False
                kept = keep.nonzero()[0]
                live, m = live[kept], kept.size
                Q, d = Q.take(kept, axis=0), d.take(kept, axis=0)
                counted_off = counted_off.take(kept, axis=0)
                if has_hidden:
                    h = h.take(kept, axis=0)
                n_full, n3, z3 = (a.take(kept, axis=0) for a in (n_full, n3, z3))
                if some_idle:
                    idle3 = idle3.take(kept, axis=0)
                    some_idle = bool(idle3.any())
                rung, rung_tol = rung[kept], rung_tol[kept]
                prev_response = prev_response.take(kept, axis=0)
                # Every row of servers_full is the same, and the scratch
                # arrays' contents are dead: a prefix of each will do.
                servers_full, q_total, A, R_vis = (
                    servers_full[:m], q_total[:m], A[:m], R_vis[:m]
                )
                scratch, update, R_total, X = scratch[:m], update[:m], R_total[:m], X[:m]
            else:
                raise ConvergenceError(
                    "Bard-Schweitzer AMVA did not converge "
                    f"({live.size} of {B} point(s) still above tol)",
                    iterations=max_iterations,
                    residual=float(deltas.max()),
                )
        finally:
            errstate.__exit__(None, None, None)

    # Utilisation from the *actual* work (un-inflated demands) plus the open
    # classes' offered load.
    closed_work = (X_out[:, :, None] * (inp.demands + inp.hidden_demands)).sum(axis=1)
    total_work = closed_work + open_work
    if K:
        util = np.where(is_delay[None, :], total_work, total_work / servers)
    else:
        util = np.zeros((B, 0))

    return MvaBatchSolution(
        class_names=list(inp.class_names),
        station_names=station_names,
        throughput_per_ms=X_out,
        cycle_response_ms=R_total_out,
        queue_lengths=Q_out,
        residence_ms=R_vis_out,
        utilisation=util,
        iterations=iterations_out,
        final_residual_ms=residual_out,
        open_response_ms=open_responses(Q_out),
    )


def solve_bard_schweitzer(
    inp: MvaInput,
    *,
    tol: float = 1e-10,
    max_iterations: int = 100_000,
    damping: float = 0.5,
    iteration_hook: Callable[[int, float], None] | None = None,
) -> MvaSolution:
    """Solve one closed multiclass network by Bard–Schweitzer AMVA.

    A batch of one: the input is stacked into a :class:`MvaBatchInput`
    and handed to :func:`solve_batch`, whose per-point freezing makes
    this bit-for-bit the dedicated single-network solver it replaced.

    ``iteration_hook(iteration, delta)`` — when given — is called after
    every fixed-point step with the queue-length residual; the layered
    solver uses it to stream convergence-progress trace events.  Leave it
    ``None`` on hot paths: the ``None`` check is the only cost then.
    """
    hook: Callable[[int, float, int], None] | None = None
    if iteration_hook is not None:
        single_hook = iteration_hook

        def hook(iteration: int, delta: float, _n_active: int) -> None:
            """Adapt the batch hook signature to the single-point one."""
            single_hook(iteration, delta)

    batch = solve_batch(
        MvaBatchInput.from_points([inp]),
        tol=tol,
        max_iterations=max_iterations,
        damping=damping,
        iteration_hook=hook,
    )
    return batch.solution(0)


@dataclass
class _ExactStation:
    demand_ms: float
    kind: StationKind = StationKind.QUEUE
    servers: int = 1
    # marginal queue-length probabilities p(j | n), updated along the recursion
    p: list[float] = field(default_factory=lambda: [1.0])


def solve_exact_single_class(
    stations: list[Station],
    demands_ms: list[float],
    population: int,
    think_time_ms: float = 0.0,
) -> MvaSolution:
    """Exact MVA for one closed class (load-dependent multi-servers included).

    Used as the ground truth for validating :func:`solve_bard_schweitzer` in
    the test suite and the solver-ablation benchmark.
    """
    require(len(stations) == len(demands_ms), "stations/demands length mismatch")
    require(population >= 0, "population must be >= 0")
    require(think_time_ms >= 0, "think time must be >= 0")
    require(not any(s.waiting_only for s in stations), "exact MVA has no surrogate stations")

    exact = [
        _ExactStation(demand_ms=float(d), kind=s.kind, servers=s.servers)
        for s, d in zip(stations, demands_ms)
    ]
    K = len(exact)

    Q = np.zeros(K)
    X = 0.0
    R = np.zeros(K)
    for n in range(1, population + 1):
        for k, st in enumerate(exact):
            if st.kind is StationKind.DELAY:
                R[k] = st.demand_ms
            elif st.servers == 1:
                R[k] = st.demand_ms * (1.0 + Q[k])
            else:
                m = st.servers
                # Reiser's exact multiserver residence using marginal
                # probabilities from the (n-1)-customer network.
                idle_weight = sum(
                    (m - 1 - j) * (st.p[j] if j < len(st.p) else 0.0)
                    for j in range(0, m - 1)
                )
                R[k] = (st.demand_ms / m) * (1.0 + Q[k] + idle_weight)
        total_r = float(R.sum())
        X = n / (think_time_ms + total_r) if (think_time_ms + total_r) > 0 else 0.0
        Q = X * R
        for k, st in enumerate(exact):
            if st.kind is StationKind.QUEUE and st.servers > 1:
                m = st.servers
                new_p = [0.0] * (n + 1)
                for j in range(1, n + 1):
                    prev = st.p[j - 1] if j - 1 < len(st.p) else 0.0
                    new_p[j] = (X * st.demand_ms / min(j, m)) * prev
                new_p[0] = max(0.0, 1.0 - sum(new_p[1:]))
                st.p = new_p

    util = np.array(
        [
            X * st.demand_ms / (st.servers if st.kind is StationKind.QUEUE else 1.0)
            for st in exact
        ]
    )
    return MvaSolution(
        class_names=["class0"],
        station_names=[s.name for s in stations],
        throughput_per_ms=np.array([X]),
        cycle_response_ms=np.array([float(R.sum()) if population > 0 else 0.0]),
        queue_lengths=Q[None, :].copy(),
        residence_ms=R[None, :].copy(),
        utilisation=util,
        iterations=population,
    )
