"""Figure 3 — predictive accuracy vs the gap between calibration points.

Section 4.2's supporting experiment: when a workload manager recalibrates
relationship 1 from just two data points, how does accuracy on the *new*
server depend on the number of clients ``x`` between those points?

Exactly as in the paper:

* LQNS (here: our layered solver, under the paper's loose 20 ms convergence
  criterion) generates the data points — and also generates the new-server
  data that predictions are tested against;
* the **lower** equation's points are one fixed at 66 % of the
  max-throughput load and one ``x`` clients below it;
* the **upper** equation's points are one fixed at 110 % and one ``x``
  clients above it;
* ``x`` is scaled per established server so the % of the max-throughput
  load between the points is constant across servers (``x`` is reported as
  the mean across servers);
* relationship 2, calibrated from the two established servers, produces the
  new server's parameters, whose accuracy is evaluated in the matching
  region.

Shape targets: lower-equation accuracy rises roughly linearly with ``x``
(with visible fluctuations); upper-equation accuracy rises and levels off;
very small ``x`` can make the two generated points *invert* (the larger
load predicting a smaller response time) under the 20 ms criterion, making
calibration impossible — the paper's "difficult to obtain results for
values of x below 30".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import ground_truth as gt
from repro.experiments.scenario import ExperimentResult, PAPER_SOLVER_OPTIONS
from repro.historical.datastore import HistoricalDataPoint
from repro.historical.relationships import LowerEquation, UpperEquation
from repro.historical.scaling import MaxThroughputScaling, ServerCalibration
from repro.historical.throughput import gradient_from_think_time
from repro.hybrid.model import network_max_throughput
from repro.lqn.builder import TradeModelParameters, build_trade_model
from repro.lqn.solver import LqnSolver, PreparedNetwork
from repro.prediction.accuracy import mean_accuracy
from repro.servers.catalogue import APP_SERV_S, ESTABLISHED_SERVERS
from repro.util.errors import CalibrationError
from repro.util.tables import format_series
from repro.workload.trade import typical_workload

__all__ = ["run"]

_LOWER_ANCHOR = 0.66
_UPPER_ANCHOR = 1.10
# New-server evaluation loads (fractions of its max-throughput load).
_LOWER_EVAL = (0.25, 0.40, 0.55, 0.66)
_UPPER_EVAL = (1.15, 1.35, 1.60, 1.85)


@dataclass
class _Context:
    solver: LqnSolver
    # Each server's browse-only network, prepared once: every data point
    # of a server is a load on it.
    networks: dict[str, PreparedNetwork]
    n_at_max: dict[str, float]
    gradient: float


def _lqn_point(ctx: _Context, server: str, n: int) -> HistoricalDataPoint:
    """One LQN-generated pseudo-historical data point."""
    solution = ctx.solver.solve_network(ctx.networks[server], (max(1, n),))
    return HistoricalDataPoint(
        server=server,
        n_clients=max(1, n),
        mean_response_ms=solution.mean_response_ms(),
        throughput_req_per_s=solution.total_throughput_req_per_s(),
        n_samples=1,
    )


def _fixed_upper(ctx: _Context, server: str) -> UpperEquation:
    """A reference upper equation (needed to complete relationship 2 when
    sweeping the lower equation)."""
    n_star = ctx.n_at_max[server]
    p1 = _lqn_point(ctx, server, int(1.15 * n_star))
    p2 = _lqn_point(ctx, server, int(1.6 * n_star))
    return UpperEquation.fit([p1, p2])


def _fixed_lower(ctx: _Context, server: str) -> LowerEquation:
    """A reference lower equation (when sweeping the upper equation)."""
    n_star = ctx.n_at_max[server]
    p1 = _lqn_point(ctx, server, int(0.35 * n_star))
    p2 = _lqn_point(ctx, server, int(0.66 * n_star))
    return LowerEquation.fit([p1, p2])


def _sweep_point(
    ctx: _Context, x_mean: float, which: str
) -> float | None:
    """New-server accuracy for one x value; None if calibration inverted."""
    mean_n_star = float(np.mean([ctx.n_at_max[a.name] for a in ESTABLISHED_SERVERS]))
    calibrations = []
    for arch in ESTABLISHED_SERVERS:
        n_star = ctx.n_at_max[arch.name]
        x_scaled = x_mean * n_star / mean_n_star
        if which == "lower":
            n2 = int(_LOWER_ANCHOR * n_star)
            n1 = int(_LOWER_ANCHOR * n_star - x_scaled)
            if n1 < 1 or n1 >= n2:
                return None
            p1, p2 = _lqn_point(ctx, arch.name, n1), _lqn_point(ctx, arch.name, n2)
            if p2.mean_response_ms <= p1.mean_response_ms:
                # The paper's small-x pathology: the point with more clients
                # predicted a smaller response time under the 20 ms
                # convergence criterion.
                return None
            lower = LowerEquation.fit([p1, p2])
            upper = _fixed_upper(ctx, arch.name)
        else:
            n1 = int(_UPPER_ANCHOR * n_star)
            n2 = int(_UPPER_ANCHOR * n_star + x_scaled)
            if n2 <= n1:
                return None
            p1, p2 = _lqn_point(ctx, arch.name, n1), _lqn_point(ctx, arch.name, n2)
            if p2.mean_response_ms <= p1.mean_response_ms:
                return None
            upper = UpperEquation.fit([p1, p2])
            lower = _fixed_lower(ctx, arch.name)
        calibrations.append(
            ServerCalibration(
                server=arch.name,
                max_throughput_req_per_s=ctx.n_at_max[arch.name] * ctx.gradient,
                lower=lower,
                upper=upper,
            )
        )
    try:
        scaling = MaxThroughputScaling.calibrate(calibrations)
        new_mx = ctx.n_at_max[APP_SERV_S.name] * ctx.gradient
        lower_s, upper_s = scaling.predict_equations(new_mx)
    except CalibrationError:
        return None

    n_star_s = ctx.n_at_max[APP_SERV_S.name]
    pairs = []
    fractions = _LOWER_EVAL if which == "lower" else _UPPER_EVAL
    for frac in fractions:
        n = int(frac * n_star_s)
        actual = _lqn_point(ctx, APP_SERV_S.name, n).mean_response_ms
        predicted = (
            lower_s.predict_ms(n) if which == "lower" else upper_s.predict_ms(n)
        )
        pairs.append((predicted, actual))
    return mean_accuracy(pairs)


def _context(parameters: TradeModelParameters) -> _Context:
    """Prepare each server's network once and find its max-throughput load."""
    solver = LqnSolver(PAPER_SOLVER_OPTIONS)  # the paper's 20 ms criterion
    gradient = gradient_from_think_time(7000.0)
    networks: dict[str, PreparedNetwork] = {}
    n_at_max: dict[str, float] = {}
    for arch in (*ESTABLISHED_SERVERS, APP_SERV_S):
        probe = build_trade_model(arch, typical_workload(100), parameters)
        network = networks[arch.name] = solver.prepare(probe)
        n_at_max[arch.name] = (
            network_max_throughput(network, network.load_of(probe)[0]) / gradient
        )
    return _Context(solver=solver, networks=networks, n_at_max=n_at_max, gradient=gradient)


def run(fast: bool = False) -> ExperimentResult:
    """Sweep x and report lower/upper-equation accuracy on the new server."""
    ctx = _context(gt.lqn_calibration(fast=fast).to_model_parameters())

    xs = [15, 30, 60, 120, 240, 420] if fast else [10, 15, 30, 60, 90, 120, 180, 240, 320, 420, 540]
    lower_acc: list[float] = []
    upper_acc: list[float] = []
    failures: list[str] = []
    for x in xs:
        for which, bucket in (("lower", lower_acc), ("upper", upper_acc)):
            value = _sweep_point(ctx, float(x), which)
            if value is None:
                bucket.append(float("nan"))
                failures.append(f"x={x} ({which}): generated points inverted/unusable")
            else:
                bucket.append(value)

    table = format_series(
        "x (mean clients between points)",
        [float(x) for x in xs],
        {
            "lower eq accuracy": lower_acc,
            "upper eq accuracy": upper_acc,
        },
        title=(
            "Figure 3: new-server predictive accuracy vs number of clients "
            "between the two historical data points (LQN-generated, 20 ms criterion)"
        ),
        precision=4,
    )
    notes = (
        "\nUnusable calibrations (the paper's small-x pathology):\n"
        + ("\n".join("  " + f for f in failures) if failures else "  none")
    )

    return ExperimentResult(
        experiment_id="fig3",
        title="Figure 3: accuracy vs calibration-point spacing",
        rendered=table + notes,
        data={"x": xs, "lower": lower_acc, "upper": upper_acc, "failures": failures},
    )
