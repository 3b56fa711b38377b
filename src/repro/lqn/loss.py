"""Finite-capacity (loss) queueing: closed forms and the MVA composition.

Real e-commerce front-ends do not queue unboundedly — beyond a capacity
``K`` they shed load.  The capacity-limited birth-death queues have exact
closed forms (the SNIPPETS formulary's M/M/1/K and M/M/c/K state-probability
recursions), and this module supplies them plus the piece that makes them
usable inside the layered solver:

* :func:`mmck_state_probabilities` — the stationary distribution of an
  M/M/c/K queue, computed in log domain so the same code is stable from
  ``a → 0`` to deep overload and to very large ``K`` (where the loss
  probability underflows to an *exact* 0.0 — the K→∞ degeneration the
  test battery pins bitwise);
* :func:`mmck_loss_quantities` — loss probability, mean number in system
  and carried (effective) load, vectorised over a batch of offered loads;
* scalar conveniences (:func:`mm1k_loss_probability`,
  :func:`mmck_loss_probability`, :func:`mmck_mean_in_system`,
  :func:`effective_throughput`) for oracle tests and experiments;
* :func:`solve_batch_with_loss` — the finite-capacity solve path: an
  **effective-arrival-rate fixed point** around the untouched
  :func:`repro.lqn.mva.solve_batch` core.  Stations with a finite
  ``capacity`` shed the closed-form blocked fraction of their *offered*
  open traffic; downstream stations (in station order) see only the
  carried load, the Bard–Schweitzer core re-solves with the thinned
  demands, and the loop repeats until the per-station loss probabilities
  are stable.  Networks with no capacity bound never enter the loop and
  return the core's result bit-for-bit.

Drop-vs-balk semantics live in the simulator
(:mod:`repro.simulation.resources`); analytically both are the same
blocked-stationary-state probability, which is why one closed form anchors
both code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lqn.mva import MvaBatchInput, MvaBatchSolution, StationKind, solve_batch
from repro.util.errors import ConvergenceError
from repro.util.validation import check_non_negative, check_positive_int, require

__all__ = [
    "LossQuantities",
    "mmck_state_probabilities",
    "mmck_loss_quantities",
    "mm1k_loss_probability",
    "mmck_loss_probability",
    "mmck_mean_in_system",
    "effective_throughput",
    "solve_batch_with_loss",
]

#: Fixed-point tolerance on per-station loss probabilities.
LOSS_TOL = 1e-12

#: Iteration cap for the effective-arrival-rate fixed point.  The loop is
#: a contraction in practice (loss thins traffic, which lowers loss); 200
#: rounds is far beyond anything a sane model needs.
MAX_LOSS_ITERATIONS = 200


def mmck_state_probabilities(
    offered_erlangs: np.ndarray | float, servers: int, capacity: int
) -> np.ndarray:
    """Stationary distribution of an M/M/c/K queue, vectorised over loads.

    ``offered_erlangs`` is ``a = λ·E[S]`` (the *offered* traffic, which may
    exceed the station's ``servers`` — the queue is stable for any load).
    Returns an array of shape ``(..., capacity + 1)`` with
    ``p[..., n] = P(N = n)``.  Computed in log domain (a softmax over the
    birth-death log-weights), so no intermediate overflows for large ``K``
    or deep overload, and for ``a/c < 1`` with very large ``K`` the blocked
    state's probability underflows to an exact 0.0.
    """
    check_positive_int(servers, "servers")
    check_positive_int(capacity, "capacity")
    require(capacity >= servers, "capacity must be >= servers (K >= c)")
    a = np.asarray(offered_erlangs, dtype=float)
    check_non_negative(float(a.min()) if a.size else 0.0, "offered_erlangs")
    n = np.arange(capacity + 1)
    # log(n-th service product): sum of log(min(i, c)) for i = 1..n.
    log_rates = np.concatenate(([0.0], np.log(np.minimum(n[1:], servers)).cumsum()))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = np.where(a > 0.0, np.log(np.where(a > 0.0, a, 1.0)), -np.inf)
        log_w = n * log_a[..., None] - log_rates
    # a == 0: every weight but n=0 is -inf; n=0 must be exactly 0 (empty).
    log_w[..., 0] = 0.0
    peak = log_w.max(axis=-1, keepdims=True)
    w = np.exp(log_w - peak)
    return w / w.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class LossQuantities:
    """Closed-form steady-state quantities of a batch of M/M/c/K queues.

    All arrays share the shape of the offered-load input:
    ``loss_probability`` is the blocked fraction ``P(N = K)``,
    ``mean_in_system`` is ``L = E[N]`` and ``carried_erlangs`` is the
    admitted work ``a·(1 − P_K) = Σ min(n, c)·p_n`` — computed from the
    distribution directly, so it stays strictly below ``c`` even when the
    naive ``a·(1 − P_K)`` product would lose every significant digit in
    deep overload.
    """

    loss_probability: np.ndarray
    mean_in_system: np.ndarray
    carried_erlangs: np.ndarray


def mmck_loss_quantities(
    offered_erlangs: np.ndarray | float, servers: int, capacity: int
) -> LossQuantities:
    """Loss probability, mean number in system and carried load of M/M/c/K."""
    p = mmck_state_probabilities(offered_erlangs, servers, capacity)
    n = np.arange(capacity + 1)
    return LossQuantities(
        loss_probability=p[..., -1],
        mean_in_system=(n * p).sum(axis=-1),
        carried_erlangs=(np.minimum(n, servers) * p).sum(axis=-1),
    )


def mm1k_loss_probability(rho: float, capacity: int) -> float:
    """Loss probability of an M/M/1/K queue at offered utilisation ``rho``."""
    return float(mmck_loss_quantities(rho, 1, capacity).loss_probability)


def mmck_loss_probability(offered_erlangs: float, servers: int, capacity: int) -> float:
    """Loss probability of an M/M/c/K queue at offered load ``a`` Erlangs."""
    return float(mmck_loss_quantities(offered_erlangs, servers, capacity).loss_probability)


def mmck_mean_in_system(offered_erlangs: float, servers: int, capacity: int) -> float:
    """Mean number in system (``L``) of an M/M/c/K queue."""
    return float(mmck_loss_quantities(offered_erlangs, servers, capacity).mean_in_system)


def effective_throughput(offered_rate: float, loss_probability: float) -> float:
    """Carried (admitted) rate of a loss queue: ``λ·(1 − P_loss)``."""
    check_non_negative(offered_rate, "offered_rate")
    return offered_rate * (1.0 - loss_probability)


def _clone_with_open_demands(inp: MvaBatchInput, open_demands: np.ndarray) -> MvaBatchInput:
    """A validation-free shallow clone of ``inp`` with new open demands."""
    clone = object.__new__(MvaBatchInput)
    clone.stations = inp.stations
    clone.class_names = inp.class_names
    clone.populations = inp.populations
    clone.think_times_ms = inp.think_times_ms
    clone.demands = inp.demands
    clone.hidden_demands = inp.hidden_demands
    clone.open_class_names = inp.open_class_names
    clone.open_rates_per_ms = inp.open_rates_per_ms
    clone.open_demands = open_demands
    return clone


def _survival_per_station(
    inp: MvaBatchInput, loss: np.ndarray, cap_indices: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(point, open class, station) survival products through the chain.

    Stations shed in list order (the order the layered builder emits them):
    a class's traffic *offered to* station ``k`` has survived every earlier
    capacity station it visits, and its traffic *carried past* ``k`` has
    additionally survived ``k`` itself.  Returns ``(before, through)``,
    both shaped ``(B, O, K)``.
    """
    B = inp.batch_size
    O = len(inp.open_class_names)
    K = len(inp.stations)
    before = np.ones((B, O, K))
    through = np.ones((B, O, K))
    running = np.ones((B, O))
    visits = inp.open_demands > 0.0
    for k in range(K):
        before[:, :, k] = running
        if k in cap_indices:
            running = running * np.where(visits[:, :, k], (1.0 - loss[:, k])[:, None], 1.0)
        through[:, :, k] = running
    return before, through


def solve_batch_with_loss(
    inp: MvaBatchInput,
    *,
    tol: float = 1e-10,
    max_iterations: int = 100_000,
    iteration_hook=None,
) -> MvaBatchSolution:
    """Solve a sweep with finite-capacity (loss) stations.

    The finite-capacity solve path promised by the loss-aware system
    model: stations whose :class:`~repro.lqn.mva.Station` carries a
    ``capacity`` shed the M/M/c/K blocked fraction of their offered open
    traffic, and the composition with the Bard–Schweitzer core is an
    effective-arrival-rate fixed point —

    1. compute each capacity station's *offered* load in Erlangs (closed
       work from the current throughputs plus upstream-thinned open
       arrivals), and from it the closed-form loss probability;
    2. thin every open class's per-station demand by its survival product
       (so ``ρ_open`` and open response times see only *carried* load);
    3. re-run :func:`~repro.lqn.mva.solve_batch` — freeze-on-converge
       semantics intact, it is called as a black box — and repeat until
       the loss probabilities move less than :data:`LOSS_TOL`.  A point
       whose loss is stable keeps its loss iterate, so later rounds
       re-solve it to the same bits: every point's result is what solving
       it alone returns.

    With no capacity stations (or when every loss probability is exactly
    zero, the K→∞ degeneration) the core is called exactly once on the
    unmodified input and its result is returned **bit-for-bit**, with
    zero loss arrays attached.  Closed classes are never shed — a closed
    population self-throttles — so their ``loss_probability`` is the
    station-level blocked fraction, reported per class as 0.0.
    """
    stations = inp.stations
    B = inp.batch_size
    K = len(stations)
    cap_indices = [k for k, s in enumerate(stations) if s.capacity is not None]
    open_names = list(inp.open_class_names or ())

    def _attach(sol: MvaBatchSolution, loss: np.ndarray, mean_n: np.ndarray,
                class_loss: np.ndarray) -> MvaBatchSolution:
        sol.loss_probability = loss
        sol.capacity_mean_in_system = mean_n
        sol.open_loss = [
            {name: float(class_loss[b, o]) for o, name in enumerate(open_names)}
            for b in range(B)
        ]
        return sol

    def _solve(open_demands: np.ndarray | None) -> MvaBatchSolution:
        target = inp if open_demands is None else _clone_with_open_demands(inp, open_demands)
        return solve_batch(
            target,
            tol=tol,
            max_iterations=max_iterations,
            iteration_hook=iteration_hook,
        )

    if not cap_indices:
        sol = _solve(None)
        sol.loss_probability = np.zeros((B, K))
        sol.capacity_mean_in_system = np.zeros((B, K))
        # The wrapper's whole cost on an unbounded sweep: keep it a small
        # share of a solve (the loss-path overhead gate is 5%).  Every
        # point shares one zero dict, read only: ``solution(b)`` copies it.
        sol.open_loss = [dict.fromkeys(open_names, 0.0)] * B
        return sol

    servers_at = {k: stations[k].servers for k in cap_indices}
    capacity_at = {k: stations[k].capacity for k in cap_indices}
    rates = inp.open_rates_per_ms  # (B, O)
    D_open = inp.open_demands  # (B, O, K)

    def _loss_from(loss: np.ndarray, closed_work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Next loss iterate and closed-form L, from the current survival."""
        before, _ = _survival_per_station(inp, loss, cap_indices)
        new_loss = np.zeros((B, K))
        mean_n = np.zeros((B, K))
        for k in cap_indices:
            offered = closed_work[:, k] + (
                rates * before[:, :, k] * D_open[:, :, k]
            ).sum(axis=1)
            q = mmck_loss_quantities(offered, servers_at[k], capacity_at[k])
            new_loss[:, k] = q.loss_probability
            mean_n[:, k] = q.mean_in_system
        return new_loss, mean_n

    # Seed the fixed point from the open traffic alone (no MVA needed):
    # this keeps the first core solve feasible even when the *offered*
    # open load exceeds a capacity station's servers, which the unbounded
    # core would rightly reject as unstable.
    loss, _ = _loss_from(np.zeros((B, K)), np.zeros((B, K)))

    done = np.zeros(B, dtype=bool)
    for _ in range(MAX_LOSS_ITERATIONS):
        if not loss.any():
            # K→∞ degeneration: nothing sheds, so the thinning factors are
            # all exactly 1.0 — solve the *unmodified* input so the result
            # is bit-identical to the plain unbounded core.
            sol = _solve(None)
        else:
            _, through = _survival_per_station(inp, loss, cap_indices)
            sol = _solve(D_open * through)
        closed_work = (
            sol.throughput_per_ms[:, :, None] * (inp.demands + inp.hidden_demands)
        ).sum(axis=1)
        new_loss, mean_n = _loss_from(loss, closed_work)
        residual = np.abs(new_loss - loss).max(axis=1, initial=0.0)
        done |= residual <= LOSS_TOL
        if done.all():
            loss = new_loss
            break
        # A stable point solves with the same loss iterate from now on,
        # which reproduces this round's solution and loss bit for bit.
        loss = np.where(done[:, None], loss, new_loss)
    else:
        raise ConvergenceError(
            "effective-arrival-rate loss fixed point did not converge",
            iterations=MAX_LOSS_ITERATIONS,
            residual=float(residual.max()),
        )

    before, through = _survival_per_station(inp, loss, cap_indices)
    class_loss = 1.0 - through[:, :, -1] if K else np.zeros((B, len(open_names)))

    lossy = np.flatnonzero(loss.any(axis=1))
    if lossy.size:
        # Open response times at capacity stations come from the closed
        # form (Little on the accepted stream: W/E[S] = L/a_carried); the
        # unbounded 1/(1-rho) inflation is meaningless past the knee.  A
        # point that sheds nothing keeps the core's open response times.
        is_delay = np.array([s.kind is StationKind.DELAY for s in stations])
        servers = np.array([s.servers for s in stations], dtype=float)
        thinned = D_open * through
        rho_eff = (
            (rates[:, :, None] * thinned).sum(axis=1) / servers
            if rates.size
            else np.zeros((B, K))
        )
        q_closed = sol.queue_lengths.sum(axis=1)  # (B, K)
        carried = np.zeros((B, K))
        for k in cap_indices:
            offered = closed_work[:, k] + (
                rates * before[:, :, k] * D_open[:, :, k]
            ).sum(axis=1)
            carried[:, k] = mmck_loss_quantities(
                offered, servers_at[k], capacity_at[k]
            ).carried_erlangs
        mean_n_local = mean_n
        for o, name in enumerate(open_names):
            demand = D_open[:, o, :]  # (B, K)
            r = np.where(
                is_delay[None, :],
                demand,
                demand * (1.0 + q_closed / servers) / np.maximum(1.0 - rho_eff, 1e-12),
            )
            for k in cap_indices:
                with np.errstate(divide="ignore", invalid="ignore"):
                    factor = np.where(
                        carried[:, k] > 0.0,
                        mean_n_local[:, k] / np.where(carried[:, k] > 0.0, carried[:, k], 1.0),
                        1.0,
                    )
                r[:, k] = demand[:, k] * factor
            totals = r.sum(axis=1)
            for b in lossy:
                sol.open_response_ms[b][name] = float(totals[b])

    return _attach(sol, loss, mean_n, class_loss)
