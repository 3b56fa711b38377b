"""An independent bitwise reference for the Bard–Schweitzer fixed-point step.

:func:`reference_solve_batch` below is the batched fixed point exactly as
it stood before the step was rewritten for fewer NumPy calls (``out=``
buffers, hoisted broadcast views, ``+inf`` servers at DELAY stations, a
skipped activity select): the same loop, verbatim, kept here as test
code, damping argument included.  :func:`repro.lqn.mva.solve_batch`, whose
step is undamped, must reproduce it at ``damping=1.0`` bit for bit — every
output array, ``iterations``, the verdict residual, the open-class
responses, every hook call, and on failure the same exception type,
message, iteration count and residual.  At ``damping=1.0`` the reference's
blend ``1.0·update + 0.0·Q`` is ``update`` exactly, since every iterate is
finite and non-negative.

The ladder and batch tests compare ``solve_batch`` with compositions of
itself, so a changed step would pass them; this reference is written
without it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lqn.mva import (
    MvaBatchInput,
    MvaBatchSolution,
    MvaInput,
    Station,
    StationKind,
    solve_batch,
)
from repro.util.errors import ConvergenceError, ValidationError
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
    require,
)

# ---------------------------------------------------------------------------
# The pre-rewrite step loop, verbatim (only the two function names changed).


def reference_ladder_verdict(
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
    residual = np.abs(response - prev_response).max(axis=1, initial=0.0)
    met = (rung > 0) & (residual < criterion_ms)
    return met | (rung == last), np.where(met, residual, 0.0), residual


def reference_solve_batch(
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
    rungs = np.array([check_positive(rung, "tol") for rung in np.atleast_1d(tol)])
    require(
        rungs.size > 0 and bool((np.diff(rungs) <= 0.0).all()),
        "tol must be one tolerance or a non-empty ladder that does not loosen",
    )
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

    def open_responses(q_closed_total: np.ndarray) -> list[dict]:
        """Open-class response times per point, given closed queues (B, K)."""
        per_point: list[dict] = [{} for _ in range(B)]
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

        delay_row = is_delay[None, None, :]
        not_delay_row = (~is_delay)[None, :]
        counted_off = np.where(waiting_only[None, None, :], d, 0.0)
        # Hidden demand is rare (async calls / second phases): when a batch
        # has none, skip its arrays entirely.  Bitwise safe — ``R_hid`` would
        # be exactly zero and ``x + 0.0 == x`` for the non-negative residence
        # values here.
        has_hidden = bool(h.any())

        errstate = np.errstate(divide="ignore", invalid="ignore")
        errstate.__enter__()
        try:
            iterations = 0
            for iterations in range(1, max_iterations + 1):
                Q_total = Q.sum(axis=1)  # (b, K)
                # Arrival theorem approximation: a class-c customer arriving
                # sees the network without one of its own class (scaled by
                # (Nc-1)/Nc).
                A = Q_total[:, None, :] - Q / safe_n[:, :, None]
                A = np.maximum(A, 0.0)

                queue_factor = 1.0 + A / servers
                R_vis = np.where(delay_row, d, d * queue_factor)

                R_counted = R_vis - counted_off
                R_counted_total = R_counted.sum(axis=2)  # (b, C)

                X = np.where(act, n / (z + R_counted_total), 0.0)

                if has_hidden:
                    R_hid = np.where(delay_row, h, h * queue_factor)
                    # A closed class's *visible* load is self-throttling, but
                    # its hidden (asynchronous / second-phase) work is not: if
                    # it alone exceeds a station's capacity there is no steady
                    # state — fail loudly instead of diverging.
                    hidden_util = (X[:, :, None] * h).sum(axis=1) / servers
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
                    Q_update = X[:, :, None] * (R_vis + R_hid)
                else:
                    Q_update = X[:, :, None] * R_vis
                Q_new = damping * Q_update + (1.0 - damping) * Q
                deltas = np.abs(Q_new - Q).max(axis=(1, 2))  # (b,)
                Q = Q_new

                crossed = deltas < rung_tol  # (b,)
                if iteration_hook is not None:
                    iteration_hook(iterations, float(deltas.max()), int(live.size))
                if not crossed.any():
                    continue
                # Rung crossings: the only per-step Python work.  A point
                # that does not stop climbs a rung and re-tests this step.
                frozen_now = np.zeros(live.size, dtype=bool)
                pending = np.flatnonzero(crossed)
                while pending.size:
                    at = rung[pending]
                    response = R_counted_total[pending]
                    stop, reported, residual = reference_ladder_verdict(
                        at, last_rung, response, prev_response[pending], criterion_ms
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
                    frozen_now[pending[stop]] = True
                    residual_out[live[pending[stop]]] = reported[stop]
                    climb = pending[~stop]
                    prev_response[climb] = response[~stop]
                    rung[climb] += 1
                    rung_tol[climb] = rungs[rung[climb]]
                    pending = climb[deltas[climb] < rung_tol[climb]]
                if not frozen_now.any():
                    continue
                done = live[frozen_now]
                Q_out[done] = Q[frozen_now]
                X_out[done] = X[frozen_now]
                R_total_out[done] = R_counted_total[frozen_now]
                R_vis_out[done] = R_vis[frozen_now]
                iterations_out[done] = iterations
                keep = ~frozen_now
                live = live[keep]
                if live.size == 0:
                    break
                # Compact the working set: frozen points must leave it
                # (their iterates stop here — that is what makes a point's
                # trajectory bit-identical to a solo solve), and the
                # stragglers stop paying batch-width cost for them.
                n, z, d, h = n[keep], z[keep], d[keep], h[keep]
                act, safe_n, Q = act[keep], safe_n[keep], Q[keep]
                counted_off = counted_off[keep]
                rung, rung_tol = rung[keep], rung_tol[keep]
                prev_response = prev_response[keep]
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
        open_response_ms=open_responses(Q_out.sum(axis=1)),
    )


# ---------------------------------------------------------------------------
# Comparison helpers.

OUTPUT_ARRAYS = (
    "throughput_per_ms",
    "cycle_response_ms",
    "queue_lengths",
    "residence_ms",
    "utilisation",
    "iterations",
    "final_residual_ms",
)


def _run(solver, batch: MvaBatchInput, **kwargs):
    """Solve, recording every hook call; returns (result or exception, calls)."""
    calls: list[tuple] = []
    try:
        result = solver(
            batch,
            iteration_hook=lambda *args: calls.append(("step", *args)),
            stage_hook=lambda *args: calls.append(("stage", *args)),
            **kwargs,
        )
    except (ConvergenceError, ValidationError) as exc:
        return exc, calls
    return result, calls


def _assert_bitwise_equal(batch: MvaBatchInput, **kwargs) -> None:
    got, got_calls = _run(solve_batch, batch, **kwargs)
    want, want_calls = _run(reference_solve_batch, batch, damping=1.0, **kwargs)
    # repr keeps NaN payload-free and compares floats exactly.
    assert repr(got_calls) == repr(want_calls)
    if isinstance(want, Exception):
        assert type(got) is type(want), got
        assert str(got) == str(want)
        if isinstance(want, ConvergenceError):
            assert got.iterations == want.iterations
            assert repr(got.residual) == repr(want.residual)
        return
    assert not isinstance(got, Exception), got
    for name in OUTPUT_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert repr(got.open_response_ms) == repr(want.open_response_ms)
    assert got.class_names == want.class_names
    assert got.station_names == want.station_names


# ---------------------------------------------------------------------------
# Hypothesis: sweeps of one structure, B up to 8 so points freeze at
# different steps and the working set is compacted.


@st.composite
def sweeps(draw) -> MvaBatchInput:
    # K up to 9: station reductions over more than eight elements take
    # NumPy's unrolled pairwise path, fewer take the plain loop.
    K = draw(st.integers(1, 9))
    C = draw(st.integers(1, 3))
    B = draw(st.integers(1, 8))
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
    # No subnormal demands: n / (z + R) would overflow to inf.
    demand = st.floats(0.01, 20.0) | st.just(0.0)
    with_hidden = draw(st.booleans())
    with_open = draw(st.booleans())
    points = []
    for _ in range(B):
        open_kwargs = {}
        if with_open:
            open_kwargs = dict(
                open_class_names=["open0"],
                open_rates_per_ms=[draw(st.floats(0.0, 0.05))],
                open_demands=np.array([[draw(st.floats(0.0, 5.0)) for _ in range(K)]]),
            )
        # Zero populations leave a class (or a whole point) idle.
        populations = draw(st.lists(st.integers(0, 40), min_size=C, max_size=C))
        thinks = draw(st.lists(st.floats(0.5, 200.0) | st.just(0.0), min_size=C, max_size=C))
        demands = np.array([[draw(demand) for _ in range(K)] for _ in range(C)])
        for c in range(C):
            # A class with clients, no think time and no demand has no
            # finite throughput; MvaInput refuses it, so give it a think time.
            if populations[c] and not thinks[c] and not demands[c].any():
                thinks[c] = draw(st.floats(0.5, 200.0))
        points.append(
            MvaInput(
                stations=stations,
                class_names=[f"c{c}" for c in range(C)],
                populations=populations,
                think_times_ms=thinks,
                demands=demands,
                hidden_demands=(
                    np.array([[draw(demand) / 8.0 for _ in range(K)] for _ in range(C)])
                    if with_hidden
                    else None
                ),
                **open_kwargs,
            )
        )
    try:
        return MvaBatchInput.from_points(points)
    except ValidationError:
        # Open traffic alone saturates a station: both solvers reject it
        # before the loop, which the dedicated test below pins.
        return MvaBatchInput.from_points(points[:1])


LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    batch=sweeps(),
    tol=st.sampled_from([1e-10, 1e-6, 1e-2, LADDER, (1e-1, 1e-2)]),
    criterion_ms=st.sampled_from([0.0, 0.1, 1.0, 20.0]),
    # 3,000 steps is ample for these networks; 30 steps leaves points
    # unconverged, so the failure path is compared too.
    max_iterations=st.sampled_from([3_000, 30]),
)
def test_step_matches_reference_bitwise(batch, tol, criterion_ms, max_iterations):
    _assert_bitwise_equal(
        batch, tol=tol, criterion_ms=criterion_ms, max_iterations=max_iterations
    )


# ---------------------------------------------------------------------------
# Pinned cases, so each branch is covered whatever hypothesis draws.


def _point(stations, populations, thinks, demands, hidden=None, **open_kwargs) -> MvaInput:
    return MvaInput(
        stations=stations,
        class_names=[f"c{i}" for i in range(len(populations))],
        populations=populations,
        think_times_ms=thinks,
        demands=np.asarray(demands, dtype=float),
        hidden_demands=None if hidden is None else np.asarray(hidden, dtype=float),
        **open_kwargs,
    )


MIXED_STATIONS = [
    Station("cpu", servers=2),
    Station("disk"),
    Station("net", kind=StationKind.DELAY),
    Station("pool", servers=3, waiting_only=True),
]


def test_compacting_sweep_with_every_station_kind():
    """Eight points that freeze at different steps, one idle class, one idle point."""
    points = [
        _point(
            MIXED_STATIONS,
            [n, 0 if n % 3 == 0 else n // 2],
            [50.0, 20.0],
            [[4.0, 2.0, 30.0, 6.0], [1.0, 3.0, 10.0, 4.0]],
        )
        for n in (0, 1, 4, 9, 15, 22, 30, 40)
    ]
    for tol in (1e-10, LADDER):
        _assert_bitwise_equal(
            MvaBatchInput.from_points(points), tol=tol, criterion_ms=0.5
        )


def test_hidden_demand_and_open_classes():
    points = [
        _point(
            MIXED_STATIONS,
            [n, 3],
            [100.0, 0.0],
            [[4.0, 2.0, 30.0, 6.0], [1.0, 0.0, 10.0, 4.0]],
            hidden=[[0.5, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.5]],
            open_class_names=["o"],
            open_rates_per_ms=[0.01 * n],
            open_demands=np.array([[3.0, 1.0, 5.0, 0.0]]),
        )
        for n in (2, 10, 25)
    ]
    _assert_bitwise_equal(MvaBatchInput.from_points(points), tol=LADDER, criterion_ms=1.0)


def test_hidden_overload_raises_as_the_reference_does():
    batch = MvaBatchInput.from_points(
        [_point([Station("cpu"), Station("disk")], [30], [10.0], [[1.0, 1.0]], [[0.0, 8.0]])]
    )
    got, _ = _run(solve_batch, batch)
    assert isinstance(got, ValidationError)
    _assert_bitwise_equal(batch)


def test_open_saturation_raises_as_the_reference_does():
    batch = MvaBatchInput.from_points(
        [
            _point(
                [Station("cpu")], [3], [10.0], [[1.0]],
                open_class_names=["o"], open_rates_per_ms=[2.0],
                open_demands=np.array([[1.0]]),
            )
        ]
    )
    _assert_bitwise_equal(batch)


def test_convergence_failure_matches_the_reference():
    batch = MvaBatchInput.from_points(
        [_point([Station("cpu"), Station("disk")], [n], [10.0], [[8.0, 6.0]]) for n in (3, 30)]
    )
    got, _ = _run(solve_batch, batch, max_iterations=20)
    assert isinstance(got, ConvergenceError)
    _assert_bitwise_equal(batch, max_iterations=20)


def test_point_frozen_at_the_last_allowed_step():
    """The error reports the residuals of the step that ran out of budget,
    including those of a point that froze at that very step."""
    fast = _point([Station("cpu"), Station("disk")], [3], [50.0], [[2.0, 1.0]])
    slow = _point([Station("cpu"), Station("disk")], [30], [10.0], [[8.0, 6.0]])
    steps = int(solve_batch(MvaBatchInput.from_points([fast])).iterations[0])
    batch = MvaBatchInput.from_points([fast, slow, fast])
    got, _ = _run(solve_batch, batch, max_iterations=steps)
    assert isinstance(got, ConvergenceError)
    _assert_bitwise_equal(batch, max_iterations=steps)


def test_fractional_populations_keep_the_clamp():
    """Below one customer the arrival queue A can go negative and is clamped."""
    batch = MvaBatchInput(
        stations=MIXED_STATIONS,
        class_names=["c0", "c1"],
        # Point 0 has one populated class holding half a customer, so its
        # arrival queue A = Q - Q/0.5 = -Q is negative and must be clamped.
        populations=np.array([[0.5, 0.0], [2.0, 0.25]]),
        think_times_ms=np.array([[5.0, 10.0], [5.0, 10.0]]),
        demands=np.array([[[4.0, 2.0, 30.0, 6.0], [1.0, 3.0, 10.0, 4.0]]] * 2),
    )
    _assert_bitwise_equal(batch, tol=LADDER, criterion_ms=0.1)
