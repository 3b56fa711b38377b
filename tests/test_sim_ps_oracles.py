"""Oracles for the virtual-clock processor-sharing station.

None of these compare against earlier output of the station itself:

* a per-job reference written out here, which subtracts each job's share
  of every interval from its own remaining work (egalitarian PS with
  ``cores`` and a FIFO admission limit, by definition), checked on
  hypothesis-generated arrivals and works;
* the M/M/1-PS mean response time E[S]/(1 - rho), and M/D/1-PS at the
  same mean (PS is insensitive to the service distribution), each within
  a batch-means confidence interval;
* a saturated station run for 1e7 ms, whose completion count must equal
  the reference's and which must conserve requests.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulation.engine import Simulator
from repro.simulation.events import EventPriority
from repro.simulation.resources import ProcessorSharingServer
from repro.util.rng import spawn_rng

UNBOUNDED = 10**6


def reference_ps(arrivals, works, *, cores=1, max_concurrency=UNBOUNDED, speed=1.0,
                 until=math.inf):
    """Each job's completion time, or ``None`` if it is not done by ``until``.

    ``arrivals`` must be sorted.  A departure at the instant of an arrival
    goes first, as the simulator's event priorities order them.
    """
    done = [None] * len(arrivals)
    left: dict[int, float] = {}  # in service: job -> work still to do
    queue: deque[int] = deque()
    t, nxt = 0.0, 0
    while nxt < len(arrivals) or left:
        rate = speed * min(len(left), cores) / len(left) if left else 0.0
        t_done = t + min(left.values()) / rate if left else math.inf
        t_arrive = arrivals[nxt] if nxt < len(arrivals) else math.inf
        t_next = min(t_done, t_arrive)
        if t_next > until:
            break
        for job in left:
            left[job] -= (t_next - t) * rate
        t = t_next
        if t_done <= t_arrive:
            for job in [j for j, work in left.items() if work <= 1e-9]:
                del left[job]
                done[job] = t
            while queue and len(left) < max_concurrency:
                job = queue.popleft()
                left[job] = works[job]
        else:
            if len(left) < max_concurrency:
                left[nxt] = works[nxt]
            else:
                queue.append(nxt)
            nxt += 1
    return done


def run_station(arrivals, works, *, cores=1, max_concurrency=UNBOUNDED, speed=1.0,
                until=None):
    """The station under test, fed the same jobs; returns (times, station)."""
    sim = Simulator()
    ps = ProcessorSharingServer(
        sim, "ps", speed=speed, cores=cores, max_concurrency=max_concurrency
    )
    done = [None] * len(arrivals)
    for i, (at, work) in enumerate(zip(arrivals, works)):

        def arrive(i=i, work=work):
            ps.submit(work, lambda: done.__setitem__(i, sim.now))

        sim.schedule_at(at, arrive, priority=EventPriority.ARRIVAL)
    if until is None:
        # Some core always runs at full speed while work is left.
        until = arrivals[-1] + sum(works) / speed + 1.0
    sim.run_until(until)
    return done, ps


@st.composite
def ps_workloads(draw):
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n))
    works = draw(st.lists(st.floats(0.01, 50.0), min_size=n, max_size=n))
    return {
        "arrivals": list(itertools.accumulate(gaps)),
        "works": works,
        "cores": draw(st.integers(1, 4)),
        "max_concurrency": draw(st.integers(1, 8)),
        "speed": draw(st.sampled_from([0.5, 1.0, 2.5])),
    }


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ps_workloads())
def test_completion_times_match_per_job_reference(workload):
    expected = reference_ps(**workload)
    actual, ps = run_station(**workload)
    assert None not in expected and None not in actual
    for i, (a, e) in enumerate(zip(actual, expected)):
        assert math.isclose(a, e, rel_tol=1e-9), (i, a, e)
    assert ps.stats.completions == len(expected)
    assert ps.total_in_system == 0


def _batch_mean_ci(samples: np.ndarray, batches: int = 20) -> tuple[float, float]:
    """Mean and 99.9 % half-width from ``batches`` batch means."""
    means = samples[: len(samples) // batches * batches].reshape(batches, -1).mean(axis=1)
    t_999 = 3.883  # two-sided 99.9 % Student t, 19 degrees of freedom
    return float(means.mean()), t_999 * float(means.std(ddof=1)) / math.sqrt(batches)


@pytest.mark.parametrize("rho", [0.5, 0.8])
@pytest.mark.parametrize("service", ["exponential", "deterministic"])
def test_mean_response_is_service_over_one_minus_rho(rho, service):
    """M/M/1-PS and M/D/1-PS: E[R] = E[S] / (1 - rho) for both."""
    # Response times are more correlated near saturation: more jobs at 0.8.
    jobs, mean_work = (100_000 if rho < 0.7 else 300_000), 1.0
    rng = spawn_rng(11, f"ps-oracle-{service}-{rho}")
    arrivals = np.cumsum(rng.exponential(mean_work / rho, jobs)).tolist()
    works = (
        rng.exponential(mean_work, jobs).tolist()
        if service == "exponential"
        else [mean_work] * jobs
    )
    done, _ = run_station(arrivals, works)
    response = np.array(done) - np.array(arrivals)
    mean, half_width = _batch_mean_ci(response[jobs // 100 :])
    theory = mean_work / (1.0 - rho)
    assert half_width < 0.1 * theory  # the interval is narrow enough to mean something
    assert abs(mean - theory) <= half_width, (mean, half_width, theory)


def test_saturated_station_over_1e7_ms_matches_reference_and_conserves():
    """rho = 1.1 for 1e7 ms behind a 50-job admission limit."""
    horizon, mean_work = 1e7, 500.0
    rng = spawn_rng(12, "ps-oracle-saturated")
    gaps = rng.exponential(mean_work / 1.1, int(1.2 * horizon / mean_work * 1.1))
    arrivals = [a for a in np.cumsum(gaps).tolist() if a <= horizon]
    works = rng.exponential(mean_work, len(arrivals)).tolist()
    expected = reference_ps(arrivals, works, max_concurrency=50, until=horizon)
    actual, ps = run_station(arrivals, works, max_concurrency=50, until=horizon)

    finished = [i for i, t in enumerate(expected) if t is not None]
    assert len(finished) > 15_000
    assert ps.stats.completions == len(finished)
    assert [i for i, t in enumerate(actual) if t is not None] == finished
    for i in finished:
        assert math.isclose(actual[i], expected[i], rel_tol=1e-9), (i, actual[i], expected[i])
    assert ps.total_in_system > 1_000  # genuinely saturated
    assert ps.stats.arrivals == len(arrivals)
    assert ps.stats.arrivals == ps.stats.completions + ps.total_in_system


def test_a_sliver_below_the_clock_resolution_still_finishes():
    """At t = 1e12 ms a float step is ~1.2e-4 ms, so the event time rounds
    short of the job's finish and the remaining sliver cannot be waited
    for: the job must finish instead of rescheduling forever."""
    sim = Simulator()
    ps = ProcessorSharingServer(sim, "ps")
    done = []
    start = 1e12
    sim.schedule_at(start, lambda: ps.submit(1.00005, lambda: done.append(sim.now)))
    sim.run_until(start + 10.0, max_events=10)
    assert len(done) == 1
    assert done[0] == pytest.approx(start + 1.00005, abs=2 * math.ulp(start))
    assert ps.total_in_system == 0
