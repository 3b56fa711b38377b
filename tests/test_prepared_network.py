"""Prepared networks against the per-model build they replaced, bit for bit.

:class:`ReferenceSolver` below is ``LqnSolver.solve`` as it stood before
networks were prepared once per structure: every solve lints and
validates its model, flattens the call graph, builds and validates an
:class:`~repro.lqn.mva.MvaInput` with the model's populations, and
packages the result from the model.  That path is kept here verbatim as
test code (only ``_iterate_batch``, the fixed point both share, is
inherited; ``solve_sweep`` stacks with ``MvaBatchInput.from_points``).
``solve``, ``solve_sweep``, ``solve_network(s)`` and every
``LqnPredictor`` entry point must reproduce it bit for bit: every
:class:`~repro.lqn.results.LqnSolution` field but the wall clock.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.faults.injector import INJECTOR
from repro.lqn.builder import RequestTypeParameters, TradeModelParameters, build_trade_model
from repro.lqn.model import Call, CallKind, Entry, LqnModel, Processor, Scheduling, Task
from repro.lqn.mva import MvaBatchInput, MvaInput, Station, StationKind
from repro.lqn.results import LqnSolution
from repro.lqn.solver import LqnSolver
from repro.prediction.interface import LqnPredictor
from repro.servers.catalogue import APP_SERV_F, APP_SERV_S, APP_SERV_VF
from repro.trace import TRACER, RingBufferSink
from repro.trace.events import END
from repro.util.errors import CalibrationError, ModelError, ValidationError
from repro.workload.trade import browse_class, mixed_workload

# ---------------------------------------------------------------------------
# The per-model solve path, verbatim.


class ReferenceSolver(LqnSolver):
    """``LqnSolver`` with the per-model build + prepare + package path."""

    def solve(self, model: LqnModel) -> LqnSolution:
        """Solve ``model`` and return steady-state predictions.

        A batch of one: the model goes through exactly the same prepare →
        batched-fixed-point → package pipeline as :meth:`solve_sweep`.
        """
        if INJECTOR.armed:
            INJECTOR.fire("lqn.solve")
        start = self._clock.perf_s()
        with TRACER.span("lqn.solve") as span:
            classes, vis, hid, inp, station_names, task_station_index = self._prepare(model)
            with TRACER.span("lqn.iterate"):
                solution = self._iterate(inp)

            elapsed = self._clock.perf_s() - start
            with self._lock:
                self.solve_count += 1
            span.set_attribute("classes", len(classes))
            span.set_attribute("stations", len(station_names))
            span.set_attribute("iterations", solution[0].iterations)
            return self._package(
                model, classes, vis, hid, inp, solution, task_station_index, elapsed
            )

    def solve_sweep(self, models: list[LqnModel]) -> list[LqnSolution]:
        """Solve a whole sweep of models as (a few) NumPy batches.

        Models sharing a network *structure* (same stations and class
        names — e.g. one architecture swept over populations and request
        mixes) are stacked into one :class:`MvaBatchInput` and iterated
        together by :func:`repro.lqn.mva.solve_batch`; converged points
        freeze while stragglers keep iterating.  Results come back in
        input order, each bit-identical to ``solve`` on that model.

        Faults and accounting match the serial path: one
        ``lqn.solve`` fault-injection firing and one ``solve_count``
        increment per model.  ``solve_time_s`` on each returned solution is
        the sweep's wall time divided evenly across its points.
        """
        models = list(models)
        if not models:
            return []
        if INJECTOR.armed:
            for _ in models:
                INJECTOR.fire("lqn.solve")
        start = self._clock.perf_s()
        with TRACER.span("lqn.sweep") as span:
            prepared = [self._prepare(model) for model in models]
            groups: dict[tuple, list[int]] = {}
            for i, (_, _, _, inp, _, _) in enumerate(prepared):
                groups.setdefault(inp.structure_signature(), []).append(i)

            results: list[tuple | None] = [None] * len(models)
            for indices in groups.values():
                with TRACER.span("lqn.iterate") as group_span:
                    group_span.set_attribute("points", len(indices))
                    solved = self._iterate_batch(
                        MvaBatchInput.from_points([prepared[i][3] for i in indices])
                    )
                for i, result in zip(indices, solved):
                    results[i] = result

            elapsed = self._clock.perf_s() - start
            with self._lock:
                self.solve_count += len(models)
            span.set_attribute("models", len(models))
            span.set_attribute("groups", len(groups))
            per_point_s = elapsed / len(models)
            return [
                self._package(
                    models[i], classes, vis, hid, inp, results[i],
                    task_station_index, per_point_s,
                )
                for i, (classes, vis, hid, inp, _, task_station_index)
                in enumerate(prepared)
            ]

    # -- preparation ----------------------------------------------------------

    def _prepare(self, model: LqnModel):
        """Lint/validate ``model`` and build its MVA network."""
        if self.options.lint_models:
            # Lazy import: repro.analysis imports this module's
            # SolverOptions consumers; importing at module scope would
            # cycle.
            from repro.analysis.model_lint import check_model

            with TRACER.span("lqn.lint"):
                check_model(model)
        model.validate()
        classes = model.reference_tasks()
        if not classes:
            raise ModelError("model has no reference tasks")

        with TRACER.span("lqn.flatten"):
            vis, hid = self._flatten(model, classes)
        with TRACER.span("lqn.build_network"):
            inp, station_names, task_station_index = self._build_network(
                model, classes, vis, hid
            )
        return classes, vis, hid, inp, station_names, task_station_index

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
    ) -> tuple[MvaInput, list[str], dict[str, int]]:
        closed = [t for t in classes if not t.is_open_reference]
        opened = [t for t in classes if t.is_open_reference]
        class_names = [t.name for t in closed]
        populations = [t.multiplicity for t in closed]
        think_times = [t.think_time_ms for t in closed]

        stations: list[Station] = []
        station_names: list[str] = []
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
            station_names.append(f"proc:{proc.name}")

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
            station_names.append(f"task:{task.name}")

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
        return inp, station_names, task_station_index

    def _iterate(self, inp: MvaInput):
        """Bard–Schweitzer fixed point with the response-time stopping rule."""
        return self._iterate_batch(MvaBatchInput.from_points([inp]))[0]

    # -- packaging ----------------------------------------------------------------

    def _package(
        self,
        model: LqnModel,
        classes: list[Task],
        vis: dict[tuple[str, str], float],
        hid: dict[tuple[str, str], float],
        inp: MvaInput,
        solution_and_residual,
        task_station_index: dict[str, int],
        elapsed_s: float,
    ) -> LqnSolution:
        solution, residual = solution_and_residual
        # _build_network made one station per processor first, in
        # ``model.processors`` order: station k is the k-th processor.
        processors = list(model.processors.items())
        response: dict[str, float] = {}
        throughput: dict[str, float] = {}
        residence: dict[tuple[str, str], float] = {}
        closed = [t for t in classes if not t.is_open_reference]
        cycle_response = solution.cycle_response_ms.tolist()
        cycle_throughput = solution.throughput_per_ms.tolist()
        residence_rows = solution.residence_ms.tolist()
        for c, task in enumerate(closed):
            response[task.name] = cycle_response[c]
            throughput[task.name] = cycle_throughput[c] * 1000.0
            row = residence_rows[c]
            for k, (proc_name, _) in enumerate(processors):
                residence[(task.name, proc_name)] = row[k]
        loss_probability: dict[str, float] = {t.name: 0.0 for t in closed}
        for task in classes:
            if task.is_open_reference:
                response[task.name] = float(solution.open_response_ms[task.name])
                # An open class's *carried* throughput: its (stable) arrival
                # rate minus whatever finite-capacity processors shed.  With
                # no capacity bounds the loss is exactly 0.0 and this is the
                # arrival rate bit-for-bit.
                loss = float(solution.open_loss.get(task.name, 0.0))
                loss_probability[task.name] = loss
                throughput[task.name] = task.open_arrival_rate_per_s * (1.0 - loss)

        utilisation = solution.utilisation.tolist()
        processor_util = {
            proc_name: utilisation[k] for k, (proc_name, _) in enumerate(processors)
        }
        task_concurrency = {
            task_name: float(solution.queue_lengths[:, k].sum())
            for task_name, k in task_station_index.items()
        }
        station_loss = {
            proc_name: (
                float(solution.loss_probability[k])
                if solution.loss_probability is not None
                else 0.0
            )
            for k, (proc_name, proc) in enumerate(processors)
            if proc.queue_capacity is not None
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


# ---------------------------------------------------------------------------
# Models: closed, mixed, zero-count classes, finite capacity, open.

PARAMS = TradeModelParameters(
    request_types={
        "browse": RequestTypeParameters(
            name="browse",
            app_demand_ms=5.376,
            db_calls=1.14,
            db_cpu_per_call_ms=0.8294,
            db_disk_per_call_ms=1.2,
        ),
        "buy": RequestTypeParameters(
            name="buy",
            app_demand_ms=10.455,
            db_calls=2.0,
            db_cpu_per_call_ms=1.613,
            db_disk_per_call_ms=1.5,
        ),
    }
)
DELAYED = TradeModelParameters(request_types=PARAMS.request_types, network_delay_ms=3.0)
ARCHITECTURES = {arch.name: arch for arch in (APP_SERV_S, APP_SERV_F, APP_SERV_VF)}


def _async_phase2_model(clients: int) -> LqnModel:
    """Hidden demand: an asynchronous call and a second phase."""
    model = LqnModel()
    model.add_processor(Processor(name="clients", scheduling=Scheduling.DELAY))
    model.add_processor(Processor(name="cpu", multiplicity=2))
    model.add_processor(Processor(name="log_disk", scheduling=Scheduling.FIFO))
    model.add_task(
        Task(name="logger", processor="log_disk", entries=(Entry("log", 0.5),), multiplicity=1)
    )
    model.add_task(
        Task(
            name="server",
            processor="cpu",
            entries=(
                Entry(
                    "serve",
                    4.0,
                    calls=(Call("log", 1.0, kind=CallKind.ASYNCHRONOUS),),
                    phase2_demand_ms=1.5,
                ),
            ),
            multiplicity=8,
        )
    )
    model.add_task(
        Task(
            name="users",
            processor="clients",
            entries=(Entry("cycle", 0.0, calls=(Call("serve", 1.0),)),),
            multiplicity=clients,
            is_reference=True,
            think_time_ms=5000.0,
        )
    )
    return model


MODELS = {
    "closed": lambda n: build_trade_model(APP_SERV_F, mixed_workload(n, 0.0), PARAMS),
    "mixed": lambda n: build_trade_model(APP_SERV_S, mixed_workload(n, 0.25), PARAMS),
    "buy-only": lambda n: build_trade_model(APP_SERV_VF, mixed_workload(n, 1.0), PARAMS),
    "network-delay": lambda n: build_trade_model(APP_SERV_F, mixed_workload(n, 0.1), DELAYED),
    "session-reads": lambda n: build_trade_model(
        APP_SERV_S, mixed_workload(n, 0.1), PARAMS, session_read_calls={"browse": 0.3}
    ),
    "finite-capacity": lambda n: build_trade_model(
        APP_SERV_F,
        mixed_workload(n, 0.25),
        PARAMS,
        open_workload={browse_class(name="walk_in"): 40.0 + n / 20},
        app_queue_capacity=60,
    ),
    "open-only": lambda n: build_trade_model(
        APP_SERV_F, {}, PARAMS, open_workload={browse_class(): 20.0 + n / 10}
    ),
    "async-phase2": _async_phase2_model,
}
LOADS = (1, 40, 300, 900, 1500)


def assert_same_solution(got: LqnSolution, want: LqnSolution) -> None:
    """Every field but the wall clock, bitwise (``repr`` keeps dict order too)."""
    for name in LqnSolution.__dataclass_fields__:
        if name != "solve_time_s":
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_solve_matches_the_per_model_path(kind):
    for n in LOADS:
        model = MODELS[kind](n)
        assert_same_solution(LqnSolver().solve(model), ReferenceSolver().solve(model))


class CountingSolver(LqnSolver):
    def __init__(self, options=None):
        super().__init__(options)
        self.prepared = 0

    def prepare(self, model):
        self.prepared += 1
        return super().prepare(model)


def test_sweep_prepares_each_structure_once_and_matches_the_per_model_path():
    kinds = [kind for _ in LOADS for kind in sorted(MODELS)]
    models = [MODELS[kind](n) for n in LOADS for kind in sorted(MODELS)]
    solver = CountingSolver()
    swept = solver.solve_sweep(models)
    # One structure per kind and set of populated classes (one client at a
    # buy fraction below 0.5 has no buy client).  The open models' arrival
    # rates vary with n: a rate is load, not structure.
    structures = {
        (kind, tuple(task.name for task in model.reference_tasks()))
        for kind, model in zip(kinds, models)
    }
    assert solver.prepared == len(structures) == len(MODELS) + 4
    assert solver.solve_count == len(models)
    for got, want in zip(swept, ReferenceSolver().solve_sweep(models)):
        assert_same_solution(got, want)


def test_a_network_prepared_once_solves_every_load():
    for kind, build in MODELS.items():
        solver = LqnSolver()
        # From 40 clients on, every kind populates all of its classes.
        models = [build(n) for n in LOADS[1:]]
        network = solver.prepare(models[-1])
        points = [(network, *network.load_of(model)) for model in models]
        swept = ReferenceSolver().solve_sweep(models)
        for model, point, got, want in zip(models, points, solver.solve_networks(points), swept):
            assert_same_solution(got, want)
            assert_same_solution(solver.solve_network(*point), ReferenceSolver().solve(model))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_a_sweep_equals_a_loop_of_solves(kind):
    # Every kind, finite capacity included: a point's answer does not
    # depend on the points it was swept with.
    solver = LqnSolver()
    models = [MODELS[kind](n) for n in LOADS]
    for model, got in zip(models, solver.solve_sweep(models)):
        assert_same_solution(got, solver.solve(model))
    network = solver.prepare(models[-1])
    points = [(network, *network.load_of(model)) for model in models[1:]]
    for point, got in zip(points, solver.solve_networks(points)):
        assert_same_solution(got, solver.solve_network(*point))


def test_different_structures_in_one_sweep_prepare_separately():
    a = build_trade_model(APP_SERV_F, mixed_workload(100, 0.0), PARAMS)
    b = build_trade_model(APP_SERV_S, mixed_workload(100, 0.0), PARAMS)
    solver = CountingSolver()
    got = solver.solve_sweep([a, b, a])
    assert solver.prepared == 2
    for model, solution in zip([a, b, a], got):
        assert_same_solution(solution, ReferenceSolver().solve(model))
    assert got[0] is not got[2]


@pytest.mark.parametrize(
    "populations, rates",
    [((1, 2), ()), ((-1,), ()), ((math.nan,), ()), ((math.inf,), ()), ((5,), (1.0,))],
)
def test_a_bad_load_is_refused(populations, rates):
    solver = LqnSolver()
    network = solver.prepare(MODELS["closed"](10))
    with pytest.raises(ValidationError):
        solver.solve_network(network, populations, rates)
    with pytest.raises(ValidationError):
        solver.solve_networks([(network, (10,), ()), (network, populations, rates)])


def test_a_bad_open_rate_is_refused():
    solver = LqnSolver()
    network = solver.prepare(MODELS["open-only"](10))
    for rate in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            solver.solve_network(network, (), (rate,))


def test_a_model_without_clients_is_still_refused():
    model = LqnModel()
    with pytest.raises(ModelError):
        LqnSolver().solve_sweep([model])


def test_prepared_networks_are_read_only():
    network = LqnSolver().prepare(MODELS["async-phase2"](10))
    for array in (network.demands, network.hidden_demands, network.open_demands):
        with pytest.raises(ValueError):
            array[...] = 0.0
    with pytest.raises(AttributeError):
        network.stations = ()


# ---------------------------------------------------------------------------
# The predictor: one network per (server, populated classes).


class ReferencePredictor(LqnPredictor):
    """Builds and solves a model per point through :class:`ReferenceSolver`.

    ``max_clients`` is inherited, so the capacity search runs on it too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.solver = ReferenceSolver(self.solver.options)

    def _model(self, server, n_clients, buy_fraction):
        return build_trade_model(
            self._arch(server),
            mixed_workload(self._population(n_clients), buy_fraction),
            self.parameters,
        )

    def solve_points(self, points):
        return [self.solver.solve(self._model(*point)) for point in points]

    def predict_mrt_ms(self, server, n_clients, *, buy_fraction=0.0):
        return self.solver.solve(self._model(server, n_clients, buy_fraction)).mean_response_ms()

    def predict_throughput(self, server, n_clients, *, buy_fraction=0.0):
        return self.solver.solve(
            self._model(server, n_clients, buy_fraction)
        ).total_throughput_req_per_s()


# Buy 0 and buy 1 leave one class unpopulated; one client at buy 0.4
# rounds the buy count to 0, at buy 0.6 the browse count.
POINTS = [
    (server, n, buy)
    for server in ARCHITECTURES
    for n, buy in ((1, 0.0), (1, 0.4), (1, 0.6), (7, 0.5), (250, 0.0), (250, 0.1),
                   (900, 0.25), (1400, 1.0), (2400, 0.13))
]
CELLS = [
    (server, goal, buy)
    for server in ARCHITECTURES
    for goal, buy in ((300.0, 0.0), (500.0, 0.25), (800.0, 1.0), (1200.0, 0.07), (5.0, 0.1))
]


def test_predictor_matches_the_per_model_path():
    predictor = LqnPredictor(PARAMS, ARCHITECTURES)
    reference = ReferencePredictor(PARAMS, ARCHITECTURES)
    for got, want in zip(predictor.solve_points(POINTS), reference.solve_points(POINTS)):
        assert_same_solution(got, want)
    for server, n, buy in POINTS:
        for method in ("predict_mrt_ms", "predict_throughput"):
            got = getattr(predictor, method)(server, n, buy_fraction=buy)
            want = getattr(reference, method)(server, n, buy_fraction=buy)
            assert repr(got) == repr(want), (method, server, n, buy)
    for server, goal, buy in CELLS:
        got = predictor.max_clients(server, goal, buy_fraction=buy)
        assert got == reference.max_clients(server, goal, buy_fraction=buy)


def test_predictor_keeps_one_network_per_server_and_populated_classes():
    predictor = LqnPredictor(PARAMS, ARCHITECTURES)
    for server, n, buy in POINTS:
        predictor.predict_mrt_ms(server, n, buy_fraction=buy)
    for server, goal, buy in CELLS:
        predictor.max_clients(server, goal, buy_fraction=buy)
    assert set(predictor._networks) == {
        (server, classes)
        for server in ARCHITECTURES
        for classes in (("browse",), ("buy",), ("browse", "buy"))
    }
    for (server, classes), network in predictor._networks.items():
        assert network.class_names == classes
    # A known structure is neither built nor prepared again.
    predictor.solver = CountingSolver()
    predictor.predict_throughput(APP_SERV_F.name, 321, buy_fraction=0.2)
    predictor.max_clients(APP_SERV_S.name, 700.0, buy_fraction=0.2)
    assert predictor.solver.prepared == 0


def test_unknown_server_and_bad_counts_raise_as_before():
    predictor = LqnPredictor(PARAMS, ARCHITECTURES)
    with pytest.raises(CalibrationError):
        predictor.predict_mrt_ms("nope", -5)
    with pytest.raises(ValidationError):
        predictor.predict_mrt_ms(APP_SERV_F.name, -5)
    with pytest.raises(ValidationError):
        predictor.predict_mrt_ms(APP_SERV_F.name, 10, buy_fraction=1.5)
    assert not predictor._networks


def test_two_threads_sharing_a_predictor_give_the_serial_answers():
    requests = [("predict_mrt_ms", *point) for point in POINTS] + [
        ("predict_throughput", *point) for point in POINTS
    ] + [("max_clients", *cell) for cell in CELLS[:6]]
    reference = ReferencePredictor(PARAMS, ARCHITECTURES)
    want = {
        request: getattr(reference, request[0])(request[1], request[2], buy_fraction=request[3])
        for request in requests
    }
    shared = LqnPredictor(PARAMS, ARCHITECTURES)  # empty: the threads race to fill it
    start = threading.Barrier(2)
    answers: list[dict] = [{}, {}]
    errors: list[BaseException] = []

    def work(index: int) -> None:
        try:
            start.wait()
            order = requests if index == 0 else requests[::-1]
            for request in order:
                method, server, operand, buy = request
                answers[index][request] = getattr(shared, method)(
                    server, operand, buy_fraction=buy
                )
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    for got in answers:
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}
    assert len(shared._networks) <= 3 * len(ARCHITECTURES)


def test_a_point_query_is_one_traced_solve_without_a_build():
    predictor = LqnPredictor(PARAMS, ARCHITECTURES)
    predictor.predict_mrt_ms(APP_SERV_F.name, 500, buy_fraction=0.1)
    ring = RingBufferSink()
    TRACER.enable(ring)
    try:
        predictor.predict_mrt_ms(APP_SERV_F.name, 600, buy_fraction=0.1)
    finally:
        TRACER.disable()
    names = [e.name for e in ring.events() if e.kind == END]
    assert "lqn.flatten" not in names and "lqn.build_network" not in names
    (solve,) = [e for e in ring.events() if e.kind == END and e.name == "lqn.solve"]
    assert solve.attributes["iterations"] > 0
