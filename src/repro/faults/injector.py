"""The fault-injection runtime behind the stack's injection points.

Mirrors the :data:`~repro.trace.TRACER` design: one processwide
:data:`INJECTOR` that every injection point consults, disarmed by
default, with a single attribute read (``armed``) as the hot-path
guard — so leaving the injection points threaded through the solver,
the historical layer and the serving stack costs effectively nothing
in production (gated in ``tests/test_wallclock_gates.py``, same
<2 %-of-a-solve budget as the disabled tracer).

The three consultation verbs map onto the
:class:`~repro.faults.plan.FaultKind` families:

* :meth:`FaultInjector.fire` — ERROR and LATENCY specs: delay first,
  then raise (a site that is both slow and failing is the realistic
  worst case);
* :meth:`FaultInjector.trips` — TRIP specs: returns True when the
  site's degradation switch should flip (forced cache expiry, forced
  admission rejection);
* :meth:`FaultInjector.filter` — CORRUPT specs: passes the site's value
  through the scheduled corruption.

Determinism: per-spec call counters and per-spec seeded RNG streams
(``spawn_rng(plan.seed, "fault:" + spec.name)``) live in one
:class:`_ArmedSession` object that is swapped wholesale on arm/disarm,
so a plan armed twice starts from the same state both times.  Injected
latency goes through the session's ``sleep`` callable — pass
``sleep=fake_clock.advance`` alongside a
:class:`~repro.util.clock.FakeClock` and chaos time itself becomes
deterministic.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any, Callable, Iterator

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.trace import TRACER
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import ReproError
from repro.util.rng import spawn_rng

__all__ = ["InjectedFaultError", "FaultInjector", "INJECTOR", "inject"]


class InjectedFaultError(ReproError):
    """The default exception raised by ERROR specs without an ``error`` type."""


class _ArmedSession:
    """All mutable state of one armed plan (counters, RNG streams, epoch)."""

    def __init__(self, plan: FaultPlan, clock: Clock, sleep: Callable[[float], None]):
        self.plan = plan
        self.clock = clock
        self.sleep = sleep
        self.armed_at_s = clock.monotonic_s()
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {spec.name: 0 for spec in plan.specs}
        self._injected: dict[str, int] = {spec.name: 0 for spec in plan.specs}
        self._rngs = {
            spec.name: spawn_rng(plan.seed, f"fault:{spec.name}") for spec in plan.specs
        }

    def decide(self, spec: FaultSpec) -> bool:
        """Advance the spec's call counter and evaluate its trigger."""
        now_s = self.clock.monotonic_s() - self.armed_at_s
        with self._lock:
            self._calls[spec.name] += 1
            n = self._calls[spec.name]
            if spec.call_window is not None:
                first, last = spec.call_window
                if n < first or (last is not None and n > last):
                    return False
            if spec.every_nth is not None and n % spec.every_nth != 0:
                return False
            if spec.on_calls is not None and n not in spec.on_calls:
                return False
            if spec.time_window is not None:
                start_s, end_s = spec.time_window
                if not (start_s <= now_s < end_s):
                    return False
            if spec.probability is not None:
                # Drawn under the lock: the numpy Generator is not
                # thread-safe, and the draw sequence is what makes the
                # trigger replayable.
                if float(self._rngs[spec.name].random()) >= spec.probability:
                    return False
            self._injected[spec.name] += 1
        TRACER.instant(
            "fault.injected", site=spec.site, spec=spec.name, kind=spec.kind.value
        )
        return True

    def counts(self) -> dict[str, int]:
        """Times each spec actually injected, keyed by spec name."""
        with self._lock:
            return dict(self._injected)

    def consultations(self) -> dict[str, int]:
        """Times each spec's trigger was evaluated, keyed by spec name."""
        with self._lock:
            return dict(self._calls)


class FaultInjector:
    """Consulted by every injection point; disarmed (free) by default.

    ``armed`` is a plain attribute deliberately written *outside* any
    lock (the same publication idiom as ``Tracer._enabled``): injection
    points read it on hot paths, and arming/disarming happens on a
    single controlling thread between load phases.
    """

    def __init__(self, *, clock: Clock = SYSTEM_CLOCK):
        self.armed = False
        self._default_clock = clock
        self._session: _ArmedSession | None = None

    # -- arming ---------------------------------------------------------------

    def arm(
        self,
        plan: FaultPlan,
        *,
        clock: Clock | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        """Arm ``plan``: injection points start consulting its specs.

        ``clock`` drives time-window triggers and defaults to the
        injector's construction clock; ``sleep`` implements LATENCY
        specs and defaults to :func:`time.sleep` — pass a
        :meth:`FakeClock.advance <repro.util.clock.FakeClock.advance>`
        bound method to make injected latency advance fake time instead
        of wall time.  Arming replaces any previously armed plan.
        """
        self._session = _ArmedSession(
            plan, clock if clock is not None else self._default_clock,
            sleep if sleep is not None else time.sleep,
        )
        self.armed = True

    def disarm(self) -> dict[str, int]:
        """Disarm; returns ``{spec name: times injected}`` for the report."""
        self.armed = False
        session, self._session = self._session, None
        return session.counts() if session is not None else {}

    @property
    def plan(self) -> FaultPlan | None:
        """The currently armed plan, if any."""
        session = self._session
        return session.plan if session is not None else None

    def injected_counts(self) -> dict[str, int]:
        """Live ``{spec name: times injected}`` of the armed plan (or {})."""
        session = self._session
        return session.counts() if session is not None else {}

    # -- the consultation verbs ------------------------------------------------

    def fire(self, site: str) -> None:
        """Apply ERROR/LATENCY specs at ``site``: delay first, then raise."""
        if not self.armed:
            return
        session = self._session
        if session is None:  # pragma: no cover - disarm race window
            return
        raise_spec: FaultSpec | None = None
        for spec in session.plan.for_site(site):
            if spec.kind is FaultKind.LATENCY and session.decide(spec):
                session.sleep(spec.delay_s)
            elif spec.kind is FaultKind.ERROR:
                # Every ERROR spec's counter advances even once one has
                # been chosen to raise (only the first firing spec wins),
                # mirroring trips(): a spec's every_nth/on_calls schedule
                # never depends on an earlier spec's outcome, keeping
                # multi-spec sites deterministic.
                if session.decide(spec) and raise_spec is None:
                    raise_spec = spec
        if raise_spec is not None:
            raise raise_spec.make_error()

    def trips(self, site: str) -> bool:
        """Whether a TRIP spec fires at ``site`` (forced degradation)."""
        if not self.armed:
            return False
        session = self._session
        if session is None:  # pragma: no cover - disarm race window
            return False
        tripped = False
        for spec in session.plan.for_site(site):
            # Every TRIP spec's counter advances even once one has fired,
            # keeping multi-spec sites deterministic under any outcome.
            if spec.kind is FaultKind.TRIP and session.decide(spec):
                tripped = True
        return tripped

    def filter(self, site: str, value: Any) -> Any:
        """Pass ``value`` through any CORRUPT specs firing at ``site``."""
        if not self.armed:
            return value
        session = self._session
        if session is None:  # pragma: no cover - disarm race window
            return value
        for spec in session.plan.for_site(site):
            if spec.kind is FaultKind.CORRUPT and session.decide(spec):
                assert spec.corrupt is not None  # enforced by FaultSpec
                value = spec.corrupt(value)
        return value


#: The processwide injector every injection point consults.
INJECTOR = FaultInjector()


@contextlib.contextmanager
def inject(
    plan: FaultPlan,
    *,
    injector: FaultInjector | None = None,
    clock: Clock | None = None,
    sleep: Callable[[float], None] | None = None,
) -> Iterator[FaultInjector]:
    """Scoped arming: ``with inject(plan): ...`` disarms on exit.

    The test-suite idiom — guarantees the global injector never leaks an
    armed plan into unrelated tests, whatever the block raises.
    """
    target = injector if injector is not None else INJECTOR
    target.arm(plan, clock=clock, sleep=sleep)
    try:
        yield target
    finally:
        target.disarm()
