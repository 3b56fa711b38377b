"""Contracts of the simulator's hot path.

The event loop, the stations and the response-time recorder take fast
paths for the common case (a finite non-negative ``float``); these tests
pin what the fast paths must not change:

* ``OperationMix.next_operation`` draws exactly what
  ``Generator.choice(len(p), p=p)`` draws, and leaves the generator in the
  same state;
* bad inputs still raise :class:`ValidationError`, never ``TypeError``, and
  leave no trace in the simulator;
* the tuple event heap fires in ``(time, priority, seq)`` order and keeps
  cancellation and :meth:`Simulator.pending_events` semantics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import Simulator
from repro.simulation.events import Event, EventPriority
from repro.simulation.metrics import MetricsCollector, ResponseTimeStats
from repro.simulation.resources import FifoServer, ProcessorSharingServer
from repro.util.errors import ValidationError
from repro.util.rng import spawn_rng
from repro.workload.operations import Operation
from repro.workload.service_class import OperationMix


def _mix(probabilities: list[float]) -> OperationMix:
    ops = tuple(
        Operation(f"op{i}", "browse", 1.0, 1.0, 1.0, 1.0)
        for i in range(len(probabilities))
    )
    return OperationMix(operations=ops, probabilities=tuple(probabilities))


# Weights with explicit zeros (leading, inner and trailing), normalised to a
# probability vector the mix accepts.
_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
    min_size=1,
    max_size=12,
).filter(lambda w: sum(w) > 0.0)


class TestCdfDrawEqualsNumpyChoice:
    @settings(max_examples=200, deadline=None)
    @given(weights=_weights, seed=st.integers(0, 2**32 - 1))
    def test_same_indices_and_generator_state(self, weights, seed):
        total = sum(weights)
        p = [w / total for w in weights]
        mix = _mix(p)
        ours = spawn_rng(seed, "mix")
        numpy_ = spawn_rng(seed, "mix")
        for _ in range(40):
            drawn = mix.next_operation(ours, 0)
            assert drawn is mix.operations[int(numpy_.choice(len(p), p=np.asarray(p)))]
        assert ours.bit_generator.state == numpy_.bit_generator.state
        assert ours.random() == numpy_.random()

    def test_zero_probability_operations_are_never_drawn(self):
        mix = _mix([0.0, 0.5, 0.0, 0.5, 0.0])
        rng = spawn_rng(3, "mix")
        drawn = {mix.next_operation(rng, 0).name for _ in range(2000)}
        assert drawn == {"op1", "op3"}

    def test_single_operation(self):
        mix = _mix([1.0])
        rng = spawn_rng(0, "mix")
        assert mix.next_operation(rng, 0) is mix.operations[0]

    def test_cdf_is_not_part_of_equality_or_repr(self):
        a, b = _mix([0.25, 0.75]), _mix([0.25, 0.75])
        assert a == b and hash(a) == hash(b)
        assert "_cdf" not in repr(a)


_BAD = [float("nan"), float("inf"), float("-inf"), -1.0, "1"]


class TestTypedErrorsSurviveFastPaths:
    @pytest.mark.parametrize("bad", _BAD, ids=repr)
    def test_schedule(self, bad):
        sim = Simulator()
        with pytest.raises(ValidationError):
            sim.schedule(bad, lambda: None)
        assert sim.pending_events() == 0

    @pytest.mark.parametrize("bad", _BAD, ids=repr)
    def test_schedule_at(self, bad):
        sim = Simulator()
        with pytest.raises(ValidationError):
            sim.schedule_at(bad, lambda: None)
        assert sim.pending_events() == 0

    @pytest.mark.parametrize("bad", _BAD, ids=repr)
    def test_processor_sharing_submit(self, bad):
        sim = Simulator()
        ps = ProcessorSharingServer(sim, "ps")
        with pytest.raises(ValidationError):
            ps.submit(bad, lambda: None)
        assert ps.stats.arrivals == 0 and ps.total_in_system == 0

    @pytest.mark.parametrize("bad", _BAD, ids=repr)
    def test_fifo_submit(self, bad):
        sim = Simulator()
        fifo = FifoServer(sim, "fifo")
        with pytest.raises(ValidationError):
            fifo.submit(bad, lambda: None)
        assert fifo.stats.arrivals == 0 and fifo.total_in_system == 0

    @pytest.mark.parametrize("bad", _BAD, ids=repr)
    def test_record(self, bad):
        stats = ResponseTimeStats()
        with pytest.raises(ValidationError):
            stats.record(bad)
        assert stats.samples == []

    @pytest.mark.parametrize("bad", _BAD, ids=repr)
    def test_collector_record(self, bad):
        metrics = MetricsCollector()
        metrics.start_measuring(0.0)
        with pytest.raises(ValidationError):
            metrics.record("browse", bad)
        assert metrics.overall.count == 0

    @pytest.mark.parametrize("value", [2, np.float64(2.5), np.int64(3), 0.0])
    def test_other_real_numbers_take_the_full_check_and_pass(self, value):
        sim = Simulator()
        fired = []
        sim.schedule(value, lambda: fired.append(sim.now))
        sim.schedule_at(value, lambda: fired.append(sim.now))
        ps = ProcessorSharingServer(sim, "ps")
        fifo = FifoServer(sim, "fifo")
        assert ps.submit(value, lambda: fired.append("ps"))
        assert fifo.submit(value, lambda: fired.append("fifo"))
        sim.run_until(10.0)
        assert fired.count(float(value)) == 2 and "ps" in fired and "fifo" in fired
        stats = ResponseTimeStats()
        stats.record(value)
        assert stats.samples == [value]


class TestTupleHeap:
    def test_tie_order_is_time_priority_seq(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("control"))
        sim.schedule(5.0, lambda: order.append("departure-1"), priority=EventPriority.DEPARTURE)
        sim.schedule(5.0, lambda: order.append("arrival"), priority=EventPriority.ARRIVAL)
        sim.schedule(5.0, lambda: order.append("departure-2"), priority=EventPriority.DEPARTURE)
        sim.schedule_at(1.0, lambda: order.append("earlier"))
        sim.run_until(10.0)
        assert order == ["earlier", "departure-1", "departure-2", "arrival", "control"]

    def test_event_keeps_its_key_fields(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.5, lambda: None, priority=EventPriority.ARRIVAL)
        assert (event.time, event.priority, event.seq) == (2.5, EventPriority.ARRIVAL, 1)
        assert not event.cancelled

    def test_events_are_never_compared(self):
        # Events define no order: the heap's unique seq settles every tie.
        a = Event(1.0, 0, 0, lambda: None)
        b = Event(1.0, 0, 1, lambda: None)
        with pytest.raises(TypeError):
            _ = a < b
        sim = Simulator()
        fired = []
        for i in range(50):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run_until(2.0)
        assert fired == list(range(50))

    def test_cancel_skips_only_that_event(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(3.0, lambda: fired.append("keep"))
        drop = sim.schedule(3.0, lambda: fired.append("drop"))
        drop.cancel()
        assert drop.cancelled and not keep.cancelled
        assert sim.pending_events() == 1
        sim.run_until(5.0)
        assert fired == ["keep"]
        assert sim.events_processed == 1
        assert sim.pending_events() == 0

    def test_pending_events_counts_across_run(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(t, lambda: None)
        late = sim.schedule(4.0, lambda: None)
        late.cancel()
        assert sim.pending_events() == 4
        sim.run_until(2.0)
        assert sim.pending_events() == 2
