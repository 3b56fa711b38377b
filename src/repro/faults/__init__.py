"""repro.faults — deterministic fault injection and chaos testing.

The serving stack promises graceful degradation (cache → admission →
pool → retries → fallback), and the paper's comparative claim assumes
the three prediction methods stay mutually available; this subsystem is
how both promises get *tested* instead of trusted.  It has two halves:

* a declarative :class:`FaultPlan` — a schedule of :class:`FaultSpec`
  entries keyed by **injection site** (a dotted name like
  ``"lqn.solve"`` or ``"service.cache.expire"``) and **trigger**
  (nth call, call window, seeded probability, clock time window);
* the :class:`FaultInjector` — the runtime that injection points
  threaded through the solver, the historical layer, the service cache,
  admission control and the worker pool consult.  Disarmed (the default)
  every consultation is a near-free early return, gated in
  ``tests/test_wallclock_gates.py`` the same way the disabled tracer
  is.

Everything is deterministic under a fixed plan seed: probabilistic
triggers draw from named :func:`repro.util.rng.spawn_rng` sub-streams,
and time windows read an injectable :class:`~repro.util.clock.Clock`,
so a chaos run under :class:`~repro.util.clock.FakeClock` replays
bit-identically (the CI ``chaos`` job proves it by diffing two runs).

Quickstart::

    from repro.faults import FaultKind, FaultPlan, FaultSpec, INJECTOR

    plan = FaultPlan(
        name="solver-brownout",
        specs=(
            FaultSpec(site="lqn.solve", kind=FaultKind.ERROR,
                      probability=0.5, error=ConvergenceError),
        ),
        seed=2004,
    )
    INJECTOR.arm(plan)
    try:
        ...  # drive the service; solves now fail half the time
    finally:
        report = INJECTOR.disarm()   # {spec name: times injected}
"""

from repro.faults.injector import INJECTOR, FaultInjector, InjectedFaultError, inject
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFaultError",
    "INJECTOR",
    "inject",
]
