"""The one-trajectory tolerance ladder against the restart ladder it replaced.

The layered solver stops the Bard–Schweitzer fixed point LQNS-style: it
climbs queue-length tolerances ``10^-1, 10^-2, …`` down to ``queue_tol``
and stops a point once its response times move less than the convergence
criterion between rungs.  :func:`repro.lqn.mva.solve_batch` climbs that
ladder along one fixed-point trajectory per point.  The reference here is
the ladder as it was first written: one single-tolerance ``solve_batch``
call per rung, each restarted from the default iterate.  Every
:class:`~repro.lqn.results.LqnSolution` field must match it bit for bit —
``iterations`` aside, which counts the steps actually executed: exactly
those of the reference's *last* rung, since every earlier rung's
trajectory is a prefix of it.

Both solvers run from the same tree, so this is what guards the fused
ladder against drift; an output check that compares one build's answers
with a fresh predictor of the same build cannot.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bench import spec
from bench.serving import ARCHITECTURES, METHODS, model_parameters
from repro.lqn.builder import build_trade_model
from repro.lqn.mva import MvaBatchInput, MvaInput, Station, StationKind, solve_batch
from repro.lqn.solver import LqnSolver, SolverOptions
from repro.prediction.interface import LqnPredictor
from repro.util.errors import ConvergenceError, ValidationError
from repro.workload.trade import mixed_workload

CRITERIA_MS = (20.0, 1.0, 0.1)


class RestartLadderSolver(LqnSolver):
    """The layered solver with the restart ladder as its fixed-point stage.

    Records, per solved point, the fixed-point steps of every rung it ran.
    """

    def __init__(self, options: SolverOptions) -> None:
        super().__init__(options)
        self.stage_iterations: list[list[int]] = []

    def _iterate_batch(self, batch: MvaBatchInput) -> list[tuple]:
        return [self._restart_ladder(batch.subset([b])) for b in range(batch.batch_size)]

    def _restart_ladder(self, point: MvaBatchInput) -> tuple:
        options = self.options
        previous = None
        steps: list[int] = []
        for stage in range(1, 64):
            stage_tol = max(options.queue_tol, 10.0 ** (-stage))
            solution = solve_batch(
                point,
                tol=stage_tol,
                max_iterations=options.max_iterations,
            )
            steps.append(int(solution.iterations[0]))
            response = solution.cycle_response_ms[0]
            if response.size == 0:
                break
            residual = None if previous is None else np.max(np.abs(response - previous))
            met = residual is not None and residual < options.convergence_criterion_ms
            if met or stage_tol <= options.queue_tol:
                self.stage_iterations.append(steps)
                result = solution.solution(0)
                result.iterations = sum(steps)
                return result, float(residual) if met else 0.0
            previous = response
        self.stage_iterations.append(steps)
        return solution.solution(0), 0.0


def _ladder(solver: LqnSolver, point: MvaInput) -> tuple:
    """``solver``'s ladder on one network: its ``(MvaSolution, residual)``."""
    return solver._iterate_batch(MvaBatchInput.from_points([point]))[0]


def _assert_same_point(fused, reference, last_rung_steps: int) -> None:
    """Bitwise equality of one ``(MvaSolution, residual)`` ladder result."""
    (a, a_residual), (b, b_residual) = fused, reference
    assert a_residual == b_residual
    for name in (
        "throughput_per_ms", "cycle_response_ms", "queue_lengths", "residence_ms",
        "utilisation",
    ):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert a.open_response_ms == b.open_response_ms
    assert a.iterations == last_rung_steps


def _assert_same_lqn_solution(a, b) -> None:
    """Every LqnSolution field but ``iterations`` and the wall clock, bitwise."""
    for name in (
        "response_ms", "throughput_req_per_s", "processor_utilisation", "residence_ms",
        "task_concurrency", "converged", "final_residual_ms", "loss_probability",
        "station_loss_probability",
    ):
        assert getattr(a, name) == getattr(b, name), name


# ---------------------------------------------------------------------------
# Hypothesis: closed multiclass networks, optionally mixed with open classes.


@st.composite
def networks(draw) -> MvaInput:
    K = draw(st.integers(2, 6))
    C = draw(st.integers(1, 3))
    stations = []
    for k in range(K):
        kind = draw(st.sampled_from([StationKind.QUEUE, StationKind.DELAY]))
        queue = kind is StationKind.QUEUE
        stations.append(
            Station(
                f"s{k}",
                kind=kind,
                servers=draw(st.integers(1, 4)) if queue else 1,
                waiting_only=queue and draw(st.booleans()),
            )
        )
    demand = st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False)
    hidden = None
    if draw(st.booleans()):
        hidden = [[draw(st.floats(0.0, 2.0)) for _ in range(K)] for _ in range(C)]
    open_kwargs = {}
    if draw(st.booleans()):
        open_kwargs = dict(
            open_class_names=["open0"],
            open_rates_per_ms=[draw(st.floats(0.0, 0.2))],
            open_demands=np.array([[draw(st.floats(0.0, 5.0)) for _ in range(K)]]),
        )
    return MvaInput(
        stations=stations,
        class_names=[f"c{c}" for c in range(C)],
        populations=draw(st.lists(st.integers(0, 40), min_size=C, max_size=C)),
        think_times_ms=draw(st.lists(st.floats(1.0, 200.0), min_size=C, max_size=C)),
        demands=np.array([[draw(demand) for _ in range(K)] for _ in range(C)]),
        hidden_demands=None if hidden is None else np.array(hidden),
        **open_kwargs,
    )


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    point=networks(),
    criterion=st.sampled_from(CRITERIA_MS),
    max_iterations=st.sampled_from([200_000, 30]),
    # A short ladder often reaches its floor before the criterion holds.
    queue_tol=st.sampled_from([1e-6, 1e-2]),
)
def test_fused_ladder_matches_restart_ladder(point, criterion, max_iterations, queue_tol):
    options = SolverOptions(
        convergence_criterion_ms=criterion, max_iterations=max_iterations, queue_tol=queue_tol
    )
    reference = RestartLadderSolver(options)
    try:
        expected = _ladder(reference, point)
    except (ConvergenceError, ValidationError) as exc:
        with pytest.raises(type(exc)) as raised:
            _ladder(LqnSolver(options), point)
        assert str(raised.value) == str(exc)
        if isinstance(exc, ConvergenceError):
            assert raised.value.iterations == exc.iterations
            assert raised.value.residual == exc.residual
        return
    (steps,) = reference.stage_iterations
    _assert_same_point(_ladder(LqnSolver(options), point), expected, steps[-1])


def test_max_iterations_and_hidden_overload_raise_as_the_restart_ladder_does():
    """The two failure modes, pinned on networks known to hit each."""
    slow = MvaInput(
        stations=[Station("cpu"), Station("disk")],
        class_names=["c0"],
        populations=[30],
        think_times_ms=[10.0],
        demands=np.array([[8.0, 6.0]]),
    )
    overloaded = MvaInput(
        stations=[Station("cpu"), Station("disk")],
        class_names=["c0"],
        populations=[30],
        think_times_ms=[10.0],
        demands=np.array([[1.0, 1.0]]),
        hidden_demands=np.array([[0.0, 8.0]]),
    )
    for point, error, options in (
        (slow, ConvergenceError, SolverOptions(max_iterations=20)),
        (overloaded, ValidationError, SolverOptions()),
    ):
        with pytest.raises(error) as expected:
            _ladder(RestartLadderSolver(options), point)
        with pytest.raises(error) as raised:
            _ladder(LqnSolver(options), point)
        assert str(raised.value) == str(expected.value)


def test_a_step_below_several_rungs_is_retested_on_each():
    """A restarted rung stops at the first step below it, even the same one.

    Demand-free stations leave the iterate exactly still, so the first
    step is below every rung: the reference stops each rung there, and the
    fused ladder must climb at that step rather than iterate on.
    """
    still = MvaInput(
        stations=[Station("cpu"), Station("disk")],
        class_names=["c0"],
        populations=[5],
        think_times_ms=[10.0],
        demands=np.zeros((1, 2)),
    )
    options = SolverOptions()
    reference = RestartLadderSolver(options)
    expected = _ladder(reference, still)
    assert reference.stage_iterations == [[1, 1]]
    _assert_same_point(_ladder(LqnSolver(options), still), expected, 1)


# ---------------------------------------------------------------------------
# The benchmark's cold serving requests, answered end to end.


def _cold_requests(count: int) -> list[spec.Request]:
    return spec.serving_stream("serve-lqn-cold", 2004, 600)[:count]


@pytest.mark.parametrize("criterion", CRITERIA_MS)
def test_cold_request_models_match_restart_ladder(criterion):
    options = SolverOptions(convergence_criterion_ms=criterion)
    params = model_parameters()
    architectures = {arch.name: arch for arch in ARCHITECTURES}
    models = [
        build_trade_model(
            architectures[server], mixed_workload(int(clients), buy), params
        )
        for kind, server, clients, buy in _cold_requests(60)
        if kind != "capacity"
    ]
    reference = RestartLadderSolver(options)
    expected = [reference.solve(model) for model in models]
    fused = LqnSolver(options)
    for model, want, steps in zip(models, expected, reference.stage_iterations):
        got = fused.solve(model)
        _assert_same_lqn_solution(got, want)
        assert got.iterations == steps[-1]
    # A sweep is the same solves, batched.
    networks = [fused.prepare(model) for model in models]
    points = [(network, *network.load_of(model)) for network, model in zip(networks, models)]
    for got, want in zip(fused.solve_networks(points), expected):
        _assert_same_lqn_solution(got, want)


def test_served_cold_answers_match_restart_ladder():
    """Predictions (capacity searches included) through the predictor API."""
    requests = _cold_requests(400)
    sample = [r for r in requests if r[0] == "capacity"][:3] + requests[:40]
    architectures = {arch.name: arch for arch in ARCHITECTURES}
    fused = LqnPredictor(model_parameters(), architectures)
    reference = LqnPredictor(model_parameters(), architectures)
    reference.solver = RestartLadderSolver(reference.solver.options)
    for kind, server, operand, buy in sample:
        method = METHODS[kind]
        got = getattr(fused, method)(server, operand, buy_fraction=buy)
        want = getattr(reference, method)(server, operand, buy_fraction=buy)
        assert got == want, (kind, server, operand, buy)
