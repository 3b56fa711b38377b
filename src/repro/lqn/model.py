"""Layered queuing network model definition.

The model follows the stochastic rendezvous network structure used by LQNS
(Woodside et al. 1995), restricted to the features the paper exercises:

* **Processors** execute entries' host demand.  Scheduling is processor
  sharing (time-shared CPUs), FIFO (the database disk) or infinite-server
  (pure delays such as network links).  A processor may have a multiplicity.
* **Tasks** run on a processor and offer **entries**.  A task has a
  multiplicity — its thread pool (50 for the paper's application servers, 20
  for the database).  *Reference tasks* model the closed client populations:
  their multiplicity is the client count and they have a think time.
* **Entries** have a mean host demand (exponentially distributed in the
  solved model, matching the paper) plus an optional *second phase* demand
  that runs after the reply is sent.  Entries make synchronous
  (rendezvous) or asynchronous (send-no-reply) **calls** to other entries
  with a mean number of calls per invocation.

Structural validation catches dangling call targets, call cycles, and
reference tasks that are themselves call targets — the errors a model author
is most likely to make.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.util.errors import ModelError
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
    require,
)

__all__ = ["Scheduling", "CallKind", "Processor", "Task", "Entry", "Call", "LqnModel"]


class Scheduling(enum.Enum):
    """Processor scheduling disciplines supported by the solver."""

    PROCESSOR_SHARING = "ps"
    FIFO = "fifo"
    DELAY = "delay"  # infinite server: no queueing, pure latency


class CallKind(enum.Enum):
    """How an entry invokes another entry.

    * SYNCHRONOUS — rendezvous: the caller blocks until the callee replies.
    * ASYNCHRONOUS — send-no-reply: the caller continues immediately; the
      callee's work is off the caller's response path.
    * FORWARDING — the callee takes over the request and replies directly to
      the *original* client: the forwarded work stays on the client's
      response path, but the forwarding server releases its thread instead
      of blocking for it ("the forwarding of requests onto another queue",
      section 5 of the paper).
    """

    SYNCHRONOUS = "sync"  # rendezvous: caller blocks for the reply
    ASYNCHRONOUS = "async"  # send-no-reply: caller continues immediately
    FORWARDING = "forward"  # callee replies directly to the original client


@dataclass(frozen=True, slots=True)
class Processor:
    """A hardware resource that executes entry host demands.

    ``queue_capacity`` — when given — bounds the total requests the
    processor can hold (in service plus waiting, the ``K`` of M/M/c/K):
    offered *open* traffic beyond it is lost, and the solver reports the
    closed-form loss probability instead of queueing it unboundedly.
    Closed populations self-throttle and are never shed.
    """

    name: str
    scheduling: Scheduling = Scheduling.PROCESSOR_SHARING
    multiplicity: int = 1
    speed: float = 1.0
    queue_capacity: int | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.multiplicity, "multiplicity")
        check_positive(self.speed, "speed")
        if self.queue_capacity is not None:
            check_positive_int(self.queue_capacity, "queue_capacity")
            require(
                self.queue_capacity >= self.multiplicity,
                f"processor {self.name!r} queue_capacity must be >= multiplicity",
            )
            require(
                self.scheduling is not Scheduling.DELAY,
                f"DELAY processor {self.name!r} has no queue to bound",
            )


@dataclass(frozen=True, slots=True)
class Call:
    """A mean number of calls from one entry to another per invocation."""

    target_entry: str
    mean_calls: float
    kind: CallKind = CallKind.SYNCHRONOUS

    def __post_init__(self) -> None:
        check_non_negative(self.mean_calls, "mean_calls")


@dataclass(frozen=True, slots=True)
class Entry:
    """A service offered by a task.

    ``demand_ms`` is the mean host-processor demand per invocation at the
    processor's nominal speed.  ``phase2_demand_ms`` runs after the reply —
    it delays the *server*, not the caller.
    """

    name: str
    demand_ms: float
    calls: tuple[Call, ...] = ()
    phase2_demand_ms: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative(self.demand_ms, "demand_ms")
        check_non_negative(self.phase2_demand_ms, "phase2_demand_ms")
        seen: set[str] = set()
        for call in self.calls:
            if call.target_entry in seen:
                raise ModelError(
                    f"entry {self.name!r} calls {call.target_entry!r} twice; "
                    "merge the mean call counts instead"
                )
            seen.add(call.target_entry)


@dataclass(frozen=True, slots=True)
class Task:
    """A software server (or, if ``is_reference``, a client population).

    A reference task with ``open_arrival_rate_per_s > 0`` models an *open*
    workload source ("clients sending requests at a constant rate", section
    8.1 of the paper) instead of a closed population; its ``multiplicity``
    and ``think_time_ms`` are then ignored by the solver.
    """

    name: str
    processor: str
    entries: tuple[Entry, ...]
    multiplicity: int = 1
    is_reference: bool = False
    think_time_ms: float = 0.0
    open_arrival_rate_per_s: float = 0.0

    def __post_init__(self) -> None:
        check_positive_int(self.multiplicity, "multiplicity")
        check_non_negative(self.think_time_ms, "think_time_ms")
        check_non_negative(self.open_arrival_rate_per_s, "open_arrival_rate_per_s")
        require(len(self.entries) > 0, f"task {self.name!r} must offer at least one entry")
        seen: set[str] = set()
        for entry in self.entries:
            if entry.name in seen:
                # The solver looks entries up by name, so the second one
                # would be solved with the first one's visits.
                raise ModelError(f"task {self.name!r} lists entry {entry.name!r} twice")
            seen.add(entry.name)
        if not self.is_reference:
            require(
                self.think_time_ms <= 0.0,
                f"non-reference task {self.name!r} cannot have a think time",
            )
            require(
                self.open_arrival_rate_per_s <= 0.0,
                f"non-reference task {self.name!r} cannot be an open source",
            )

    @property
    def is_open_reference(self) -> bool:
        """Whether this reference task is an open (arrival-rate) source."""
        return self.is_reference and self.open_arrival_rate_per_s > 0.0


@dataclass
class LqnModel:
    """A complete layered queuing network.

    Build with :meth:`add_processor` / :meth:`add_task`, then call
    :meth:`validate` (done automatically by the solver).

    Entry lookups go through a name index, ``entry name -> (owning task,
    entry)``, that :meth:`add_task` fills as tasks arrive and
    :meth:`validate` rebuilds from ``tasks``, so code that edits ``tasks``
    directly must validate before looking entries up.  The index is
    derived state: equality and ``repr`` ignore it.
    """

    processors: dict[str, Processor] = field(default_factory=dict)
    tasks: dict[str, Task] = field(default_factory=dict)
    _entries: dict[str, tuple[Task, Entry]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the entry index from ``tasks``.

        The first task (in ``tasks`` order) offering a name owns it, which
        is what a scan over ``tasks`` would find.
        """
        index: dict[str, tuple[Task, Entry]] = {}
        for task in self.tasks.values():
            for entry in task.entries:
                index.setdefault(entry.name, (task, entry))
        self._entries = index

    def add_processor(self, processor: Processor) -> Processor:
        """Register a processor (names must be unique)."""
        if processor.name in self.processors:
            raise ModelError(f"duplicate processor {processor.name!r}")
        self.processors[processor.name] = processor
        return processor

    def add_task(self, task: Task) -> Task:
        """Register a task (task and entry names must be unique)."""
        if task.name in self.tasks:
            raise ModelError(f"duplicate task {task.name!r}")
        for entry in task.entries:
            if entry.name in self._entries:
                raise ModelError(f"duplicate entry {entry.name!r}")
        self.tasks[task.name] = task
        for entry in task.entries:
            self._entries.setdefault(entry.name, (task, entry))
        return task

    # -- lookups -------------------------------------------------------------

    def entry_owner(self, entry_name: str) -> Task | None:
        """The task offering ``entry_name``, or None."""
        found = self._entries.get(entry_name)
        return None if found is None else found[0]

    def entry(self, entry_name: str) -> Entry:
        """Look up an entry by name."""
        found = self._entries.get(entry_name)
        if found is None:
            raise ModelError(f"unknown entry {entry_name!r}")
        return found[1]

    def reference_tasks(self) -> list[Task]:
        """The model's client populations."""
        return [t for t in self.tasks.values() if t.is_reference]

    def server_tasks(self) -> list[Task]:
        """All non-reference tasks."""
        return [t for t in self.tasks.values() if not t.is_reference]

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check structural consistency; raises :class:`ModelError`."""
        self._reindex()
        if not self.tasks:
            raise ModelError("model has no tasks")
        if not self.reference_tasks():
            raise ModelError("model has no reference task (client population)")
        for task in self.tasks.values():
            if task.processor not in self.processors:
                raise ModelError(
                    f"task {task.name!r} runs on unknown processor {task.processor!r}"
                )
            for entry in task.entries:
                for call in entry.calls:
                    owner = self.entry_owner(call.target_entry)
                    if owner is None:
                        raise ModelError(
                            f"entry {entry.name!r} calls unknown entry "
                            f"{call.target_entry!r}"
                        )
                    if owner.is_reference:
                        raise ModelError(
                            f"entry {entry.name!r} calls entry "
                            f"{call.target_entry!r} of a reference task"
                        )
                    if owner.name == task.name:
                        raise ModelError(
                            f"entry {entry.name!r} calls its own task {task.name!r}"
                        )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Reject call cycles between tasks (layering requires a DAG)."""
        colour: dict[str, int] = {}  # 0 unvisited / 1 in progress / 2 done
        path: list[str] = []  # the tasks on the current call chain

        def visit(task_name: str) -> None:
            state = colour.get(task_name, 0)
            if state == 1:
                cycle = " -> ".join(path + [task_name])
                raise ModelError(f"call cycle between tasks: {cycle}")
            if state == 2:
                return
            colour[task_name] = 1
            path.append(task_name)
            for entry in self.tasks[task_name].entries:
                for call in entry.calls:
                    owner = self.entry_owner(call.target_entry)
                    assert owner is not None  # validated before
                    visit(owner.name)
            path.pop()
            colour[task_name] = 2

        for name in self.tasks:
            visit(name)

    def task_layers(self) -> list[list[Task]]:
        """Tasks grouped by call depth: layer 0 holds the reference tasks.

        A task's layer is one more than the deepest of its callers; the
        ordering is what makes the layered solution strategy well-defined.
        """
        self.validate()
        depth: dict[str, int] = {t.name: 0 for t in self.reference_tasks()}

        changed = True
        while changed:
            changed = False
            for task in self.tasks.values():
                if task.name not in depth:
                    continue
                for entry in task.entries:
                    for call in entry.calls:
                        owner = self.entry_owner(call.target_entry)
                        assert owner is not None
                        candidate = depth[task.name] + 1
                        if depth.get(owner.name, -1) < candidate:
                            depth[owner.name] = candidate
                            changed = True

        unreachable = set(self.tasks) - set(depth)
        if unreachable:
            raise ModelError(f"tasks unreachable from any reference task: {sorted(unreachable)}")
        max_depth = max(depth.values())
        layers: list[list[Task]] = [[] for _ in range(max_depth + 1)]
        for name, d in depth.items():
            layers[d].append(self.tasks[name])
        for layer in layers:
            layer.sort(key=lambda t: t.name)
        return layers
