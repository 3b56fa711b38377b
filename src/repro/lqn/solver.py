"""The layered queuing solver.

Solution strategy (an SRVN-style approximation in the spirit of LQNS):

1. **Flatten the call DAG.**  For every reference task (service class) the
   solver walks the synchronous call graph and accumulates per-entry visit
   ratios per client cycle.  Crossing an *asynchronous* call boundary — or a
   second service phase — moves the downstream work onto the class's
   *hidden* demand: it loads the stations but is off the response path.
2. **Hardware contention.**  Every processor becomes a station of a closed
   multiclass network (PS and FIFO both queue; DELAY processors are
   infinite servers) with the flattened per-cycle demands, solved by
   Bard–Schweitzer approximate MVA (:mod:`repro.lqn.mva`).
3. **Software contention.**  Every non-reference task contributes a
   *surrogate multi-server station* with one server per thread of its
   multiplicity and ``waiting_only=True``: only queueing for a thread — not
   the (already-counted) work done while holding it — adds to response
   times.  The surrogate's per-visit service time is the task's
   no-contention holding time (its entries' raw demand plus downstream raw
   demands along synchronous calls), which keeps thread-pool queueing
   negligible while the pool is ample and growing once offered concurrency
   approaches the pool size — without double-counting processor queueing.

The iteration stops when both queue lengths and per-class response times are
stable; ``SolverOptions.convergence_criterion_ms`` plays the role of the
LQNS convergence criterion the paper sets to 20 ms, trading accuracy for
solve time (section 4.2 notes predictions for nearby client counts can
invert under a loose criterion — this solver reproduces that behaviour).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.faults.injector import INJECTOR
from repro.lqn.loss import solve_batch_with_loss
from repro.lqn.model import CallKind, LqnModel, Scheduling, Task
from repro.lqn.mva import (
    MvaBatchInput,
    MvaInput,
    Station,
    StationKind,
    ladder_verdict,
    solve_batch,
)
from repro.lqn.results import LqnSolution
from repro.trace import TRACER
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import ModelError, ValidationError
from repro.util.validation import check_positive, check_positive_int

__all__ = [
    "SolverOptions",
    "LqnSolver",
    "PreparedNetwork",
    "NetworkPoint",
    "MVA_ITERATION_SAMPLE",
]

#: Every k-th MVA fixed-point iteration gets an instant event when tracing.
MVA_ITERATION_SAMPLE = 25


def _iteration_instant(iteration: int, delta: float, n_active: int) -> None:
    """A sampled per-iteration instant carrying the convergence delta.

    ``delta`` is the largest queue-length residual among the batch points
    still iterating; ``active`` counts them (1 for a single-point solve).
    """
    if iteration == 1 or iteration % MVA_ITERATION_SAMPLE == 0:
        TRACER.instant("lqn.mva.iteration", iteration=iteration, delta=delta, active=n_active)


def _stage_instant(
    stage: int, stage_tol: float, iterations: int, residual_ms: float | None, active: int
) -> None:
    """One ``lqn.solve.stage`` instant per tolerance-ladder rung crossed."""
    TRACER.instant(
        "lqn.solve.stage",
        stage=stage,
        stage_tol=stage_tol,
        iterations=iterations,
        residual_ms=residual_ms,
        active=active,
    )


def _tolerance_ladder(queue_tol: float) -> list[float]:
    """The queue-length tolerance rungs ``10^-1, 10^-2, …`` ending at ``queue_tol``."""
    rungs = [max(queue_tol, 10.0 ** -1)]
    while rungs[-1] > queue_tol:
        rungs.append(max(queue_tol, 10.0 ** -(len(rungs) + 1)))
    return rungs


@dataclass(frozen=True)
class SolverOptions:
    """Numerical controls for the layered solver.

    ``convergence_criterion_ms`` is the paper's LQNS convergence criterion:
    iteration stops once successive per-class response-time estimates differ
    by less than this (and queue lengths by less than ``queue_tol``).
    Tightening it increases solve time — the trade-off section 4.2 discusses.
    """

    convergence_criterion_ms: float = 1.0
    queue_tol: float = 1e-6
    max_iterations: int = 200_000

    def __post_init__(self) -> None:
        check_positive(self.convergence_criterion_ms, "convergence_criterion_ms")
        check_positive(self.queue_tol, "queue_tol")
        check_positive_int(self.max_iterations, "max_iterations")


@dataclass(frozen=True, eq=False)
class PreparedNetwork:
    """A layered model's MVA network with the load left out.

    Everything the fixed point needs that does not change with the number
    of clients: the stations, the closed classes' think times and per-cycle
    demands, the open classes' per-request demands, and the station
    indices that map a solution back onto processors and tasks.  A *point*
    supplies the rest: one population per closed class and one arrival
    rate (req/s) per open class, in this network's class order.

    Built by :meth:`LqnSolver.prepare`.  The arrays are read-only and
    nothing else can change, so one instance serves every point of its
    structure, from any thread.
    """

    stations: tuple[Station, ...]
    class_names: tuple[str, ...]  # closed classes, in model order
    think_times_ms: tuple[float, ...]
    demands: np.ndarray  # (C, K), visible per-cycle demand
    hidden_demands: np.ndarray  # (C, K)
    open_class_names: tuple[str, ...]
    open_demands: np.ndarray  # (O, K), per request
    # (name, queue capacity) of every processor: station k is processor k.
    processors: tuple[tuple[str, int | None], ...]
    # (task name, station index) of every thread-pool surrogate.
    task_stations: tuple[tuple[str, int], ...]
    # Networks with equal signatures stack into one MvaBatchInput.
    signature: tuple
    # The signature as one string, for grouping: a str caches its hash, so
    # a solve does not re-hash the nested tuple every time it groups.
    signature_key: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "signature_key", repr(self.signature))

    @staticmethod
    def load_of(model: LqnModel) -> tuple[list[int], list[float]]:
        """``model``'s closed populations and open arrival rates (req/s).

        In reference-task order, which is the class order of the network
        :meth:`LqnSolver.prepare` builds from ``model``.
        """
        populations: list[int] = []
        rates: list[float] = []
        for task in model.tasks.values():
            if task.is_open_reference:
                rates.append(task.open_arrival_rate_per_s)
            elif task.is_reference:
                populations.append(task.multiplicity)
        return populations, rates


#: One point of a sweep: a prepared network, its closed populations and
#: its open arrival rates (req/s).
NetworkPoint = tuple[PreparedNetwork, Sequence[float], Sequence[float]]


def _stack(points: Sequence[NetworkPoint]) -> MvaBatchInput:
    """Stack points of one network signature into a batch.

    Each network was validated when it was prepared, so only the load is
    checked here: one population per closed class and one rate per open
    class, every value finite and >= 0.
    """
    first = points[0][0]
    C, O = len(first.class_names), len(first.open_class_names)
    for network, populations, rates in points:
        if len(populations) != len(network.class_names) or len(rates) != len(
            network.open_class_names
        ):
            raise ValidationError(
                "a point needs one population per closed class and one "
                "arrival rate per open class"
            )
    B = len(points)
    populations = np.array([p for _, p, _ in points], dtype=float).reshape(B, C)
    # Per ms, as the MVA input takes them.
    rates = np.array(
        [[rate / 1000.0 for rate in r] for _, _, r in points], dtype=float
    ).reshape(B, O)
    for values, what in ((populations, "populations"), (rates, "open arrival rates")):
        if values.size and not (
            np.minimum.reduce(values, None) >= 0.0
            and np.maximum.reduce(values, None) < np.inf
        ):
            raise ValidationError(f"{what} must be finite and >= 0")
    batch = object.__new__(MvaBatchInput)
    batch.stations = list(first.stations)
    batch.class_names = list(first.class_names)
    batch.populations = populations
    batch.think_times_ms = np.array(
        [n.think_times_ms for n, _, _ in points], dtype=float
    ).reshape(B, C)
    batch.demands = np.array([n.demands for n, _, _ in points])
    batch.hidden_demands = np.array([n.hidden_demands for n, _, _ in points])
    batch.open_class_names = list(first.open_class_names)
    batch.open_rates_per_ms = rates
    batch.open_demands = np.array([n.open_demands for n, _, _ in points])
    return batch


class LqnSolver:
    """Solves :class:`~repro.lqn.model.LqnModel` instances."""

    def __init__(self, options: SolverOptions | None = None, *, clock: Clock = SYSTEM_CLOCK):
        self.options = options if options is not None else SolverOptions()
        self.solve_count = 0  # predictions evaluated, for delay accounting
        self._clock = clock
        # One solver is shared across prediction-service worker threads.
        self._lock = threading.Lock()

    # -- public API -----------------------------------------------------------

    def solve(self, model: LqnModel) -> LqnSolution:
        """Solve ``model`` and return steady-state predictions.

        The one-shot convenience for a structure solved once: prepares
        ``model`` inside the solve's span and timing, then solves it as
        :meth:`solve_network` does.
        """
        return self._solve([model])[0]

    def solve_network(
        self,
        network: PreparedNetwork,
        populations: Sequence[float],
        open_rates_per_s: Sequence[float] = (),
    ) -> LqnSolution:
        """Solve one point of a prepared network.

        Bit-identical to :meth:`solve` on a model that prepares to
        ``network`` with this load, without building or preparing one.
        """
        return self._solve([(network, populations, open_rates_per_s)])[0]

    def solve_networks(self, points: Sequence[NetworkPoint]) -> list[LqnSolution]:
        """Solve a sweep of ``(network, populations, open rates)`` points.

        Points whose networks share a signature (same stations and class
        names: e.g. one architecture swept over populations and request
        mixes) are stacked into one :class:`MvaBatchInput` and iterated
        together by :func:`repro.lqn.mva.solve_batch`; converged points
        freeze while stragglers keep iterating.  Results come back in
        input order, each bit-identical to :meth:`solve_network` on that
        point.

        Faults and accounting match the serial path: one
        ``lqn.solve`` fault-injection firing and one ``solve_count``
        increment per point.  ``solve_time_s`` on each returned solution is
        the sweep's wall time divided evenly across its points.
        """
        points = list(points)
        return self._solve(points, sweep=True) if points else []

    def _solve(
        self, points: list[NetworkPoint | LqnModel], *, sweep: bool = False
    ) -> list[LqnSolution]:
        """The one solve body behind every public entry.

        Fires the ``lqn.solve`` fault once per point, stacks the points
        by network signature, iterates each stack, counts and packages.
        A one-point solve traces as ``lqn.solve``, a sweep as
        ``lqn.sweep``.  A bare model (from :meth:`solve`) is prepared
        inside the span, so its preparation is timed and traced with it.
        """
        if INJECTOR.armed:
            for _ in points:
                INJECTOR.fire("lqn.solve")
        start = self._clock.perf_s()
        with TRACER.span("lqn.sweep" if sweep else "lqn.solve") as span:
            if isinstance(points[0], LqnModel):
                model = points[0]
                network = self.prepare(model)
                points = [(network, *network.load_of(model))]
            groups: dict[str, list[int]] = {}
            for i, (network, _, _) in enumerate(points):
                groups.setdefault(network.signature_key, []).append(i)

            results: list[tuple | None] = [None] * len(points)
            for indices in groups.values():
                with TRACER.span("lqn.iterate") as group_span:
                    if sweep:
                        group_span.set_attribute("points", len(indices))
                    solved = self._iterate_batch(_stack([points[i] for i in indices]))
                for i, result in zip(indices, solved):
                    results[i] = result

            elapsed = self._clock.perf_s() - start
            with self._lock:
                self.solve_count += len(points)
            if sweep:
                span.set_attribute("models", len(points))
                span.set_attribute("groups", len(groups))
            else:
                network = points[0][0]
                span.set_attribute(
                    "classes", len(network.class_names) + len(network.open_class_names)
                )
                span.set_attribute("stations", len(network.stations))
                span.set_attribute("iterations", results[0][0].iterations)
            per_point_s = elapsed / len(points)
            return [
                self._package(network, rates, results[i], per_point_s)
                for i, (network, _, rates) in enumerate(points)
            ]

    # -- preparation ----------------------------------------------------------

    def prepare(self, model: LqnModel) -> PreparedNetwork:
        """Validate ``model`` and build its network, load left out.

        The one builder behind every solve: :meth:`solve` prepares its
        model here, and callers that solve one structure at many loads
        prepare it once and call :meth:`solve_network` /
        :meth:`solve_networks`.
        """
        model.validate()
        classes = model.reference_tasks()
        if not classes:
            raise ModelError("model has no reference tasks")

        with TRACER.span("lqn.flatten"):
            vis, hid = self._flatten(model, classes)
        with TRACER.span("lqn.build_network"):
            return self._build_network(model, classes, vis, hid)

    # -- flattening -----------------------------------------------------------

    def _flatten(
        self, model: LqnModel, classes: list[Task]
    ) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], float]]:
        """Per-class visible/hidden visit ratios for every entry.

        Returns two maps ``(class_name, entry_name) -> visits per cycle``.
        """
        vis: dict[tuple[str, str], float] = {}
        hid: dict[tuple[str, str], float] = {}

        def walk(class_name: str, entry_name: str, visits: float, hidden: bool) -> None:
            bucket = hid if hidden else vis
            key = (class_name, entry_name)
            bucket[key] = bucket.get(key, 0.0) + visits
            entry = model.entry(entry_name)
            for call in entry.calls:
                child_hidden = hidden or call.kind is CallKind.ASYNCHRONOUS
                walk(class_name, call.target_entry, visits * call.mean_calls, child_hidden)

        for ref in classes:
            for ref_entry in ref.entries:
                # The reference entry's own demand is the client's local work
                # (usually zero); its calls define one request cycle.
                for call in ref_entry.calls:
                    hidden = call.kind is CallKind.ASYNCHRONOUS
                    walk(ref.name, call.target_entry, call.mean_calls, hidden)
        return vis, hid

    # -- network construction ---------------------------------------------------

    def _holding_time_ms(
        self, model: LqnModel, entry_name: str, memo: dict[str, float]
    ) -> float:
        """No-contention holding time of one entry invocation (ms):
        raw scaled demand plus downstream synchronous holding times.

        Asynchronous and forwarding calls do not extend the holding time:
        the thread is released (forwarded work continues on the *client's*
        response path but on the *callee's* thread, not the caller's).
        ``memo`` keeps each entry's value for the rest of one network
        build, so a callee shared by several callers is walked once.
        """
        total = memo.get(entry_name)
        if total is None:
            owner = model.entry_owner(entry_name)
            assert owner is not None
            entry = model.entry(entry_name)
            total = entry.demand_ms / model.processors[owner.processor].speed
            for call in entry.calls:
                if call.kind is CallKind.SYNCHRONOUS:
                    total += call.mean_calls * self._holding_time_ms(
                        model, call.target_entry, memo
                    )
            memo[entry_name] = total
        return total

    def _build_network(
        self,
        model: LqnModel,
        classes: list[Task],
        vis: dict[tuple[str, str], float],
        hid: dict[tuple[str, str], float],
    ) -> PreparedNetwork:
        closed = [t for t in classes if not t.is_open_reference]
        opened = [t for t in classes if t.is_open_reference]
        class_names = [t.name for t in closed]
        populations = [t.multiplicity for t in closed]
        think_times = [t.think_time_ms for t in closed]

        stations: list[Station] = []
        proc_index: dict[str, int] = {}
        for proc in model.processors.values():
            if proc.scheduling is Scheduling.DELAY:
                kind = StationKind.DELAY
            else:
                kind = StationKind.QUEUE
            proc_index[proc.name] = len(stations)
            stations.append(
                Station(
                    name=f"proc:{proc.name}",
                    kind=kind,
                    servers=proc.multiplicity,
                    capacity=proc.queue_capacity,
                )
            )

        task_station_index: dict[str, int] = {}
        server_tasks = model.server_tasks()
        for task in server_tasks:
            task_station_index[task.name] = len(stations)
            stations.append(
                Station(
                    name=f"task:{task.name}",
                    kind=StationKind.QUEUE,
                    servers=task.multiplicity,
                    waiting_only=True,
                )
            )

        C, K = len(class_names), len(stations)
        # Accumulate in Python floats: the same IEEE operations, in the
        # same order, as element-wise updates of NumPy arrays, without a
        # NumPy scalar round trip per term.
        demands = [[0.0] * K for _ in range(C)]
        hidden = [[0.0] * K for _ in range(C)]
        # (station, entry) for every entry, in task order, with its
        # processor's speed.
        processor_terms = [
            (proc_index[task.processor], entry, model.processors[task.processor].speed)
            for task in model.tasks.values()
            for entry in task.entries
        ]
        memo: dict[str, float] = {}
        surrogate_terms = [
            (
                task_station_index[task.name],
                entry.name,
                self._holding_time_ms(model, entry.name, memo)
                + entry.phase2_demand_ms / model.processors[task.processor].speed,
            )
            for task in server_tasks
            for entry in task.entries
        ]

        for c, cname in enumerate(class_names):
            row, hidden_row = demands[c], hidden[c]
            # An entry the class never visits adds exactly 0.0: skip it.
            for k, entry, speed in processor_terms:
                v = vis.get((cname, entry.name), 0.0)
                h = hid.get((cname, entry.name), 0.0)
                if v or h:
                    row[k] += v * entry.demand_ms / speed
                    hidden_row[k] += h * entry.demand_ms / speed
                    # Second-phase work loads the processor off the response path.
                    hidden_row[k] += (v + h) * entry.phase2_demand_ms / speed

            for k, name, holding in surrogate_terms:
                v = vis.get((cname, name), 0.0)
                h = hid.get((cname, name), 0.0)
                if v or h:
                    row[k] += v * holding
                    hidden_row[k] += h * holding

        # Open workload sources load the processor stations per request;
        # thread-pool (surrogate) waiting is not modelled for open traffic.
        open_names = [t.name for t in opened]
        open_rates = [t.open_arrival_rate_per_s / 1000.0 for t in opened]
        open_demands = [[0.0] * K for _ in opened]
        for o, task in enumerate(opened):
            row = open_demands[o]
            for k, entry, speed in processor_terms:
                visits = vis.get((task.name, entry.name), 0.0) + hid.get(
                    (task.name, entry.name), 0.0
                )
                row[k] += visits * (entry.demand_ms + entry.phase2_demand_ms) / speed

        # Validated once here, with the preparing model's load; points of
        # this network then supply only their load (see _stack).
        inp = MvaInput(
            stations=stations,
            class_names=class_names,
            populations=populations,
            think_times_ms=think_times,
            demands=np.array(demands).reshape(C, K),
            hidden_demands=np.array(hidden).reshape(C, K),
            open_class_names=open_names,
            open_rates_per_ms=open_rates,
            open_demands=np.array(open_demands).reshape(len(opened), K),
        )
        for array in (inp.demands, inp.hidden_demands, inp.open_demands):
            array.flags.writeable = False
        return PreparedNetwork(
            stations=tuple(stations),
            class_names=tuple(class_names),
            think_times_ms=tuple(think_times),
            demands=inp.demands,
            hidden_demands=inp.hidden_demands,
            open_class_names=tuple(open_names),
            open_demands=inp.open_demands,
            processors=tuple(
                (name, proc.queue_capacity) for name, proc in model.processors.items()
            ),
            task_stations=tuple(task_station_index.items()),
            signature=inp.structure_signature(),
        )

    # -- iteration ---------------------------------------------------------------

    def _iterate_batch(self, batch: MvaBatchInput) -> list[tuple]:
        """Run the tolerance ladder over a whole batch at once.

        The AMVA fixed point climbs a ladder of tightening queue-length
        tolerances (``10^-stage`` down to ``queue_tol``), checking the
        response-time criterion at each rung; this reproduces LQNS's
        "iterate until response times move < criterion" behaviour while
        the queue-length tolerance guards the fine-grained fixed point.
        Each point climbs the ladder independently, along one fixed-point
        trajectory inside :func:`repro.lqn.mva.solve_batch`.  Batches with
        a finite-capacity station take :meth:`_iterate_staged` instead.

        Returns one ``(MvaSolution, residual_ms)`` tuple per point, in
        batch order.
        """
        options = self.options
        rungs = _tolerance_ladder(options.queue_tol)
        # Tracing: per-rung instants always (cheap), per-MVA-iteration
        # instants through a sampled hook so tight fixed points (tens of
        # thousands of iterations) don't flood the event log.
        trace_on = TRACER.enabled
        hook = _iteration_instant if trace_on else None
        stage_hook = _stage_instant if trace_on else None
        if any(station.capacity is not None for station in batch.stations):
            return self._iterate_staged(batch, rungs, hook, stage_hook)
        solution = solve_batch(
            batch,
            tol=rungs,
            criterion_ms=options.convergence_criterion_ms,
            max_iterations=options.max_iterations,
            iteration_hook=hook,
            stage_hook=stage_hook,
        )
        return [
            (solution.solution(b), float(solution.final_residual_ms[b]))
            for b in range(batch.batch_size)
        ]

    def _iterate_staged(self, batch: MvaBatchInput, rungs, hook, stage_hook) -> list[tuple]:
        """The tolerance ladder for batches with a finite-capacity station.

        :func:`repro.lqn.loss.solve_batch_with_loss` re-solves the core
        inside its effective-arrival-rate fixed point, so one rung's
        result is not a point on the next rung's trajectory: every rung
        restarts from the default iterate, and a point's ``iterations``
        sum over the rungs it ran.  Points that stop leave the batch, and
        later rungs solve only the survivors.
        """
        options = self.options
        B = batch.batch_size
        results: list[tuple | None] = [None] * B
        live = np.arange(B)
        current = batch
        prev_response = np.zeros((B, len(batch.class_names)))
        stage_iterations = np.zeros(B, dtype=int)
        for stage, stage_tol in enumerate(rungs):
            solution = solve_batch_with_loss(
                current,
                tol=stage_tol,
                max_iterations=options.max_iterations,
                iteration_hook=hook,
            )
            stage_iterations[live] += solution.iterations
            response = solution.cycle_response_ms  # (b, C)
            stop, reported, residual = ladder_verdict(
                np.full(live.size, stage),
                len(rungs) - 1,
                response,
                prev_response,
                options.convergence_criterion_ms,
            )
            if stage_hook is not None:
                stage_hook(
                    stage + 1,
                    stage_tol,
                    int(solution.iterations.max()),
                    float(residual.max()) if stage else None,
                    int(live.size),
                )
            for j in np.flatnonzero(stop):
                point = solution.solution(j)
                point.iterations = int(stage_iterations[live[j]])
                results[live[j]] = (point, float(reported[j]))
            keep = ~stop
            live = live[keep]
            if live.size == 0:
                break
            current = current.subset(np.flatnonzero(keep))
            prev_response = response[keep]
        return results

    # -- packaging ----------------------------------------------------------------

    def _package(
        self,
        network: PreparedNetwork,
        open_rates_per_s: Sequence[float],
        solution_and_residual,
        elapsed_s: float,
    ) -> LqnSolution:
        solution, residual = solution_and_residual
        processors = network.processors
        response: dict[str, float] = {}
        throughput: dict[str, float] = {}
        residence: dict[tuple[str, str], float] = {}
        cycle_response = solution.cycle_response_ms.tolist()
        cycle_throughput = solution.throughput_per_ms.tolist()
        residence_rows = solution.residence_ms.tolist()
        for c, name in enumerate(network.class_names):
            response[name] = cycle_response[c]
            throughput[name] = cycle_throughput[c] * 1000.0
            row = residence_rows[c]
            for k, (proc_name, _) in enumerate(processors):
                residence[(name, proc_name)] = row[k]
        loss_probability: dict[str, float] = dict.fromkeys(network.class_names, 0.0)
        for name, rate in zip(network.open_class_names, open_rates_per_s):
            response[name] = float(solution.open_response_ms[name])
            # An open class's *carried* throughput: its (stable) arrival
            # rate minus whatever finite-capacity processors shed.  With
            # no capacity bounds the loss is exactly 0.0 and this is the
            # arrival rate bit-for-bit.
            loss = float(solution.open_loss.get(name, 0.0))
            loss_probability[name] = loss
            throughput[name] = rate * (1.0 - loss)

        utilisation = solution.utilisation.tolist()
        processor_util = {
            proc_name: utilisation[k] for k, (proc_name, _) in enumerate(processors)
        }
        task_concurrency = {
            task_name: float(solution.queue_lengths[:, k].sum())
            for task_name, k in network.task_stations
        }
        station_loss = {
            proc_name: (
                float(solution.loss_probability[k])
                if solution.loss_probability is not None
                else 0.0
            )
            for k, (proc_name, capacity) in enumerate(processors)
            if capacity is not None
        }
        return LqnSolution(
            response_ms=response,
            throughput_req_per_s=throughput,
            processor_utilisation=processor_util,
            residence_ms=residence,
            task_concurrency=task_concurrency,
            iterations=solution.iterations,
            solve_time_s=elapsed_s,
            converged=True,
            final_residual_ms=residual,
            loss_probability=loss_probability,
            station_loss_probability=station_loss,
        )
