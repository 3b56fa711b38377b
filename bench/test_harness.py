"""Self-test of the benchmark: ``PYTHONPATH=src python -m pytest bench -q``.

The gate test runs shortened serve-lqn-cold and testbed workloads in this
process, alternating plain runs with runs in which ``LqnSolver.solve``
spins for an extra 20% of its own duration.  ``compare`` must flag
serve-lqn-cold's median latency and throughput worse at a 10% bound and
leave testbed unchanged at the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

import pytest

from bench import compare, harness, spec, stats

harness.use_checkout_source()

from repro import LqnSolver  # noqa: E402  (needs the checkout's source first)

SEED = 2004
COLD_SECONDS = 8.0
# One server's six points, two passes: the testbed's checks, in seconds.
SHORT_TESTBED = ("AppServS",)
# Alternating pairs of plain and slowed runs; the median of three
# survives one run caught in a slow spell of the machine.  With fewer
# than five runs and no calibration, ``compare`` takes the spread as 0
# and judges the medians alone (the spread rule has its own tests).
PAIRS = 3
# The bound at which the slowdown must read worse.  The committed bounds
# (0.25) are set by the machine's drift between separate runs, which
# alternating runs in one process largely cancel.
GATE_BOUND = 0.10


def _benchmark() -> dict:
    return harness.declared_metrics()


def _run(workload: str, *, trace: bool = False) -> dict:
    # One set-up per run: fresh-process probes would set up the full
    # testbed without the slowed solver, a different set-up from this one.
    if workload == "testbed":
        return harness.run_workload(workload, SEED, 0.0, trace, servers=SHORT_TESTBED,
                                    setup_runs=1)
    return harness.run_workload(workload, SEED, COLD_SECONDS, trace, setup_runs=1)


# -- the regression gate -------------------------------------------------------


def _slow_solve(original):
    def solve(self, model):
        start = time.perf_counter()
        solution = original(self, model)
        spin_until = time.perf_counter() + 0.2 * (time.perf_counter() - start)
        while time.perf_counter() < spin_until:
            pass
        return solution

    return solve


def test_compare_catches_a_slower_solver_on_cold_only(monkeypatch):
    """A 20% slower ``LqnSolver.solve`` shows on serve-lqn-cold, not on testbed."""
    workloads = ("serve-lqn-cold", "testbed")
    base = {w: [] for w in workloads}
    head = {w: [] for w in workloads}
    for _ in range(PAIRS):
        for w in workloads:
            base[w].append(_run(w))
        with monkeypatch.context() as patch:
            patch.setattr(LqnSolver, "solve", _slow_solve(LqnSolver.solve))
            for w in workloads:
                head[w].append(_run(w))

    for run in (*sum(base.values(), []), *sum(head.values(), [])):
        assert run["correct"], run["problems"]
    benchmark = _benchmark()
    gate = dict(benchmark, end_to_end=[dict(m, bound=GATE_BOUND) for m in benchmark["end_to_end"]])

    def verdicts(declared: dict, workload: str) -> dict:
        rows = compare.compare(base, head, declared, {})
        return {r["metric"]: (r["verdict"], round(r["change"], 3)) for r in rows
                if r["workload"] == workload and r["metric"] != "setup_s"}

    cold = verdicts(gate, "serve-lqn-cold")
    assert cold["latency_p50_ms"][0] == cold["throughput_rps"][0] == "worse", cold
    testbed = verdicts(benchmark, "testbed")
    assert testbed["latency_p50_ms"][0] == testbed["throughput_rps"][0] == "unchanged", testbed


# -- traced runs ---------------------------------------------------------------


def test_traced_cold_run_attributes_the_whole_request():
    """Layer self times add up to the traced request time (within 5%)."""
    record = _run("serve-lqn-cold", trace=True)
    assert record["correct"], record["problems"]
    layers = {name: m["value"] for name, m in record["metrics"].items()}
    assert set(layers) == {m["name"] for m in _benchmark()["per_layer"]}
    assert layers["trace.layer_coverage"] == pytest.approx(1.0, abs=0.05)
    assert layers["lqn.mva.iterate_share"] > 0.2
    assert layers["lqn.mva.iterations_per_solve"] > 1
    assert layers["sim.engine.self_share"] == 0.0


def test_traced_testbed_run_groups_the_profile_into_layers():
    """Profile layers cover the profiled time; unattributed time stays small."""
    record = _run("testbed", trace=True)
    assert record["correct"], record["problems"]
    layers = {name: m["value"] for name, m in record["metrics"].items()}
    shares = [layers[f"sim.{layer}.self_share"] for layer in
              ("engine", "stations", "samplers", "metrics", "clients", "other")]
    assert sum(shares) == pytest.approx(1.0)
    assert layers["sim.other.self_share"] <= 0.05
    assert layers["sim.samplers.draws_per_request"] > 1
    assert layers["sim.loss.drop_share"] > 0
    assert layers["service.request.self_share"] == 0.0


# -- compare's verdicts --------------------------------------------------------


@pytest.mark.parametrize(
    "base, head, better, spread_share, expected",
    [
        ([100.0], [105.0], "higher", 0.0, "unchanged"),
        ([100.0], [89.0], "higher", 0.0, "worse"),
        ([100.0], [115.0], "higher", 0.0, "better"),
        ([10.0], [11.5], "lower", 0.0, "worse"),
        ([10.0], [8.5], "lower", 0.0, "better"),
        ([10.0, 11.0, 12.0], [13.0, 14.0], "lower", 0.2, "unresolved"),
        ([10.0, 11.0, 12.0], [8.0, 9.0], "lower", 0.2, "better"),
    ],
)
def test_verdicts(base, head, better, spread_share, expected):
    result, _ = compare.verdict(base, head, better=better, bound=0.1, spread_share=spread_share)
    assert result == expected


def _record(workload: str, failed: int, seed: int = SEED, seconds: float = 30.0,
            **values: float) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": 0, "correct": True,
        "attempted": 100, "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()},
    }


def test_compare_rows_use_bounds_and_failure_shares():
    benchmark = {"end_to_end": [
        {"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.1},
    ]}
    base = {"w": [_record("w", 0, throughput_rps=100.0)]}
    head = {"w": [_record("w", 1, throughput_rps=80.0)]}
    rows = {r["metric"]: r for r in compare.compare(base, head, benchmark, {})}
    assert rows["throughput_rps"]["verdict"] == "worse"
    assert rows["throughput_rps"]["change"] == pytest.approx(-0.2)
    assert rows["failure_share"]["verdict"] == "worse"


@pytest.mark.parametrize("changed", [{"seed": SEED + 1}, {"seconds": 20.0}])
def test_compare_refuses_runs_of_other_seeds_or_lengths(changed):
    benchmark = {"end_to_end": [
        {"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.1},
    ]}
    base = {"w": [_record("w", 0, throughput_rps=100.0)]}
    head = {"w": [_record("w", 0, throughput_rps=100.0, **changed)]}
    with pytest.raises(ValueError, match="w: base ran at"):
        compare.compare(base, head, benchmark, {})


# -- order statistics and inputs -------------------------------------------------


def test_tail_reports_p99_only_with_ten_samples_beyond_it():
    assert stats.tail([float(i) for i in range(999)]) == (998.0, "max")
    value, label = stats.tail([float(i) for i in range(1000)])
    assert label == "p99" and value == 989.0  # samples 990..999 lie beyond


def test_nearest_rank_and_spread():
    assert stats.nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert stats.spread([10.0] * 5) == 0.0
    assert stats.spread([9.0, 10.0, 11.0, 10.0]) == pytest.approx(0.15)


def test_streams_are_seeded_on_the_cache_grid_and_mixed_exactly():
    first = spec.serving_stream("serve-lqn-cold", 7, length=5000)
    assert first == spec.serving_stream("serve-lqn-cold", 7, length=5000)
    assert first != spec.serving_stream("serve-lqn-cold", 8, length=5000)
    for kind, server, operand, buy in first:
        assert server in spec.SERVERS and isinstance(operand, int)
        assert round(buy * 100) / 100 == buy and 0.0 <= buy <= 0.25
    kinds = [request[0] for request in first]
    assert kinds.count("capacity") == 100 and kinds.count("throughput") == 1000
    capacity_cells = [request for request in first if request[0] == "capacity"]
    assert len(set(capacity_cells)) == len(capacity_cells)  # none answered from the cache
    clients = [operand for kind, _, operand, _ in first if kind != "capacity"]
    assert min(clients) >= spec.CLIENTS_LOW and max(clients) <= spec.CLIENTS_HIGH
    hot = spec.serving_stream("serve-lqn-hot", 7, length=5000)
    points, capacity = spec.hot_cells()
    assert {r[1:] for r in hot if r[0] == "capacity"} == set(capacity)
    assert {r[1:] for r in hot if r[0] != "capacity"} == set(points)
