"""Bit-identity pins for the simulated testbed.

Every "measured" number in the repository comes from the simulator, so a
change to its hot path must not move one bit of any result.  The pins
are asserted exactly: event counts, ``repr`` of every float, sample
counts, drops and balks, and per-station completions.  They cover each
simulator feature the experiments use: the browse mix, the scripted buy
session, a bounded accept queue, the session cache, a dual-core server,
open arrivals with class priorities, and drop/balk stations driven
directly.

The hot-path rework (tuple event heap, CDF operation draws, identity job
removal, fast-path checks) left every pin unchanged.  The pins were
re-recorded once, when the processor-sharing station moved to a virtual
clock: a finish tag minus the clock rounds differently from a job's own
running subtraction, so floats moved in their last bits while event
counts, samples and drops stayed put (``buy_mix`` did not move at all).
That station is checked against independent oracles in
``tests/test_sim_ps_oracles.py``.

A failure here means the change altered simulation results; regenerate
the pins only for a change that is *meant* to alter them, with
``PYTHONPATH=src python -m tests.test_sim_bit_identity``.
"""

from __future__ import annotations

import dataclasses
import pprint

import numpy as np
import pytest

from repro.servers.catalogue import APP_SERV_F, APP_SERV_S
from repro.simulation.engine import Simulator
from repro.simulation.resources import FifoServer, ProcessorSharingServer
from repro.simulation.system import (
    SimulatedDeployment,
    SimulationConfig,
    simulate_deployment,
)
from repro.util.rng import spawn_rng
from repro.workload.trade import browse_class, mixed_workload, typical_workload

_SHORT = SimulationConfig(duration_s=10.0, warmup_s=2.0, seed=7)


def _result_fingerprint(result) -> dict:
    """Everything a run reports, floats as ``repr`` so equality is bitwise."""
    return {
        "events": result.events_processed,
        "mean_ms": repr(result.mean_response_ms),
        "samples": result.samples,
        "tput": repr(result.throughput_req_per_s),
        "per_class_mean": {k: repr(v) for k, v in sorted(result.per_class_mean_ms.items())},
        "app_cpu_util": {k: repr(v) for k, v in sorted(result.app_cpu_utilisation.items())},
        "db_cpu_util": repr(result.db_cpu_utilisation),
        "db_disk_util": repr(result.db_disk_utilisation),
        "thread_queue": {k: repr(v) for k, v in sorted(result.thread_queue_mean.items())},
        "db_per_app": repr(result.db_requests_per_app_request),
        "cache_miss": repr(result.cache_miss_rate),
        "dropped": result.dropped_requests,
        "class_drops": dict(sorted(result.per_class_drops.items())),
        "server_drops": dict(sorted(result.per_server_drops.items())),
    }


def _typical() -> dict:
    return _result_fingerprint(simulate_deployment(APP_SERV_F, typical_workload(1100), _SHORT))


def _buy_mix() -> dict:
    return _result_fingerprint(
        simulate_deployment(APP_SERV_F, mixed_workload(300, 0.4), _SHORT)
    )


def _bounded() -> dict:
    # 120 clients thinking 0.4 s offer ~300 req/s to a ~100 req/s server:
    # the 60-deep accept queue fills and sheds.
    fast_thinkers = browse_class(think_time_s=0.4)
    config = _SHORT.with_overrides(queue_capacity=60)
    return _result_fingerprint(
        simulate_deployment(APP_SERV_S, {fast_thinkers: 120}, config)
    )


def _session_cache() -> dict:
    config = _SHORT.with_overrides(enable_cache=True, cache_bytes=200_000)
    return _result_fingerprint(
        simulate_deployment(APP_SERV_F, mixed_workload(300, 0.3), config)
    )


def _dual_core() -> dict:
    dual = dataclasses.replace(APP_SERV_S, name="AppServS2", cores=2)
    return _result_fingerprint(simulate_deployment(dual, typical_workload(800), _SHORT))


def _open_priorities() -> dict:
    # ~520 req/s offered to a ~186 req/s server keeps its 50-thread pool
    # full, so the priority order of the waiters decides who is served.
    urgent = browse_class(name="urgent", think_time_s=0.6, priority=0)
    relaxed = browse_class(name="relaxed", think_time_s=0.6, priority=1)
    deployment = SimulatedDeployment(
        placements={APP_SERV_F.name: (APP_SERV_F, {urgent: 150, relaxed: 150})},
        config=_SHORT,
        open_arrivals={APP_SERV_F.name: {urgent: 20.0}},
    )
    return _result_fingerprint(deployment.run())


def _stations() -> dict:
    """A bounded balking PS station feeding a bounded balking FCFS pair."""
    sim = Simulator()
    rng = spawn_rng(5, "bit-identity")
    ps = ProcessorSharingServer(
        sim,
        "ps",
        max_concurrency=3,
        cores=2,
        capacity=6,
        balk_fn=lambda n: 0.1 * n,
        rng=spawn_rng(5, "ps-balk"),
    )
    fifo = FifoServer(
        sim,
        "fifo",
        servers=2,
        capacity=4,
        balk_fn=lambda n: 0.15 * n,
        rng=spawn_rng(5, "fifo-balk"),
    )
    responses: list[float] = []
    arrivals = np.cumsum(rng.exponential(2.0, 4000))
    demands = rng.exponential(3.0, 4000)
    for at, work in zip(arrivals, demands):

        def arrive(work=float(work)):
            start = sim.now
            ps.submit(
                work, lambda: fifo.submit(work * 0.5, lambda: responses.append(sim.now - start))
            )

        sim.schedule_at(float(at), arrive)
    sim.run_until(float(arrivals[-1]) + 1000.0)
    return {
        "events": sim.events_processed,
        "responses": len(responses),
        "response_sum": repr(float(np.sum(responses))),
        **{
            f"{station.name}.{key}": (
                repr(getattr(station.stats, key))
                if isinstance(getattr(station.stats, key), float)
                else getattr(station.stats, key)
            )
            for station in (ps, fifo)
            for key in (
                "arrivals",
                "completions",
                "drops",
                "balks",
                "peak_in_system",
                "busy_time_ms",
                "work_done_ms",
                "area_in_system",
                "area_in_queue",
            )
        },
    }


SCENARIOS = {
    "typical": _typical,
    "buy_mix": _buy_mix,
    "bounded": _bounded,
    "session_cache": _session_cache,
    "dual_core": _dual_core,
    "open_priorities": _open_priorities,
    "stations": _stations,
}

# Recorded on the virtual-clock processor-sharing station.
EXPECTED: dict[str, dict] = {
    "typical": {
        "app_cpu_util": {"AppServF": "0.9998699847856487"},
        "cache_miss": "None",
        "class_drops": {},
        "db_cpu_util": "0.17143381234630622",
        "db_disk_util": "0.2536541706612335",
        "db_per_app": "1.1509686038744156",
        "dropped": 0,
        "events": 13669,
        "mean_ms": "807.9073973673269",
        "per_class_mean": {"browse": "807.9073973673269"},
        "samples": 1497,
        "server_drops": {"AppServF": 0},
        "thread_queue": {"AppServF": "106.52909459301789"},
        "tput": "187.125",
    },
    "buy_mix": {
        "app_cpu_util": {"AppServF": "0.3984593115329472"},
        "cache_miss": "None",
        "class_drops": {},
        "db_cpu_util": "0.12775728707593534",
        "db_disk_util": "0.12855443922580395",
        "db_per_app": "1.6004098360655739",
        "dropped": 0,
        "events": 4779,
        "mean_ms": "24.99910031284933",
        "per_class_mean": {"browse": "19.997977742874994", "buy": "32.079897614892204"},
        "samples": 488,
        "server_drops": {"AppServF": 0},
        "thread_queue": {"AppServF": "0.0"},
        "tput": "61.0",
    },
    "bounded": {
        "app_cpu_util": {"AppServS": "0.9994466079679887"},
        "cache_miss": "None",
        "class_drops": {"browse": 464},
        "db_cpu_util": "0.08218118451560014",
        "db_disk_util": "0.11965125073611373",
        "db_per_app": "1.1129251700680272",
        "dropped": 464,
        "events": 8003,
        "mean_ms": "645.0609752490124",
        "per_class_mean": {"browse": "645.0609752490124"},
        "samples": 735,
        "server_drops": {"AppServS": 464},
        "thread_queue": {"AppServS": "8.68981258095409"},
        "tput": "91.875",
    },
    "session_cache": {
        "app_cpu_util": {"AppServF": "0.41796218963631826"},
        "cache_miss": "0.7978947368421052",
        "class_drops": {},
        "db_cpu_util": "0.13843847250059454",
        "db_disk_util": "0.17215539061761556",
        "db_per_app": "2.3010526315789472",
        "dropped": 0,
        "events": 5417,
        "mean_ms": "28.716127872109865",
        "per_class_mean": {"browse": "24.055123948159448", "buy": "38.71722238442731"},
        "samples": 475,
        "server_drops": {"AppServF": 0},
        "thread_queue": {"AppServF": "0.0"},
        "tput": "59.375",
    },
    "dual_core": {
        "app_cpu_util": {"AppServS2": "0.8430996941308376"},
        "cache_miss": "None",
        "class_drops": {},
        "db_cpu_util": "0.1434506998512806",
        "db_disk_util": "0.2030940980520262",
        "db_per_app": "1.119205298013245",
        "dropped": 0,
        "events": 10473,
        "mean_ms": "87.92221719469602",
        "per_class_mean": {"browse": "87.92221719469602"},
        "samples": 1208,
        "server_drops": {"AppServS2": 0},
        "thread_queue": {"AppServS2": "0.0"},
        "tput": "151.0",
    },
    "open_priorities": {
        "app_cpu_util": {"AppServF": "0.9998888102356618"},
        "cache_miss": "None",
        "class_drops": {},
        "db_cpu_util": "0.18737378344091318",
        "db_disk_util": "0.26563858733067613",
        "db_per_app": "1.1354556803995006",
        "dropped": 0,
        "events": 15010,
        "mean_ms": "718.5666664952939",
        "per_class_mean": {
            "open_urgent": "270.8300051774895",
            "relaxed": "5539.082618123604",
            "urgent": "307.79783461534686",
        },
        "samples": 1602,
        "server_drops": {"AppServF": 0},
        "thread_queue": {"AppServF": "142.87124866016265"},
        "tput": "200.25",
    },
    "stations": {
        "events": 10388,
        "fifo.area_in_queue": "176.57697923688352",
        "fifo.area_in_system": "4801.093647834118",
        "fifo.arrivals": 3347,
        "fifo.balks": 298,
        "fifo.busy_time_ms": "2312.2583342986172",
        "fifo.completions": 3041,
        "fifo.drops": 8,
        "fifo.peak_in_system": 4,
        "fifo.work_done_ms": "4624.5166685972345",
        "ps.area_in_queue": "1213.1244325728112",
        "ps.area_in_system": "13126.06208159569",
        "ps.arrivals": 4000,
        "ps.balks": 615,
        "ps.busy_time_ms": "5013.638420040283",
        "ps.completions": 3347,
        "ps.drops": 38,
        "ps.peak_in_system": 6,
        "ps.work_done_ms": "10027.276840080565",
        "response_sum": "16718.480802315407",
        "responses": 3041,
    },
}


def test_pins_cover_every_scenario():
    assert set(EXPECTED) == set(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_bit_identical(name):
    assert SCENARIOS[name]() == EXPECTED[name]


if __name__ == "__main__":
    pprint.pprint({name: scenario() for name, scenario in SCENARIOS.items()}, width=100)
