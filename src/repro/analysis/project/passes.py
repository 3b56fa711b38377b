"""The three whole-program passes over the call graph and lock model.

* **REPRO-DEADLOCK001** — build the global lock-order graph (lock A
  held while lock B is acquired, directly or through any call chain)
  and report every cycle as a potential deadlock, plus every nested
  re-acquisition of a known non-reentrant lock as a self-deadlock.
* **REPRO-BLOCK001** — report blocking operations (pool submit/join,
  ``Future.result``, ``Condition.wait``, sleeps, file I/O, solver
  calls, fault-injector consultations) executed, or reachable through
  the call graph, while a lock is held.  This mechanizes the invariant
  PR 4 established by hand: fault hooks and slow work live *outside*
  component locks.
* **REPRO-ENTROPY001** — report artifact-writer sinks from which an
  entropy source is reachable, protecting the byte-reproducibility the
  chaos/workloads/golden gates diff on.

Every interprocedural finding carries its witnessing call chain both in
the message and as the structured ``witness`` tuple (which extends the
baseline fingerprint).  All passes run on one shared
:class:`~repro.analysis.project.call_graph.CallGraph`; reachability is
a worklist fixpoint over per-function summaries, so recursion and call
cycles converge instead of recursing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.findings import Finding
from repro.analysis.project.call_graph import (
    CallGraph,
    CallSite,
    ProjectIndex,
    build_call_graph,
    build_index,
)
from repro.analysis.project.taint import TaintScan, scan_taint

__all__ = [
    "ProjectConfig",
    "ProjectAnalyzer",
    "analyze_project",
    "run_deadlock_pass",
    "run_blocking_pass",
    "run_entropy_pass",
    "DEADLOCK_RULE_ID",
    "BLOCK_RULE_ID",
    "ENTROPY_RULE_ID",
    "PROJECT_PASSES",
]

DEADLOCK_RULE_ID = "REPRO-DEADLOCK001"
BLOCK_RULE_ID = "REPRO-BLOCK001"
ENTROPY_RULE_ID = "REPRO-ENTROPY001"
PROJECT_PASSES = ("deadlock", "blocking", "entropy")

#: Attribute names whose call is considered blocking wherever it lands.
BLOCKING_ATTRS = frozenset(
    {
        "submit",
        "join",
        "wait",
        "result",
        "shutdown",
        "sleep",
        "fire",
        "trips",
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "recv",
        "send",
        "connect",
        "getresponse",
    }
)

#: Fully-dotted external callables that block.
BLOCKING_EXTERNALS = frozenset({"time.sleep", "open", "subprocess.run", "os.system"})

#: Dotted prefixes whose ``join`` is a path/string join, not a thread join.
_NONBLOCKING_JOIN_PREFIXES = ("os.path.", "posixpath.", "ntpath.", "str.")


@dataclass(frozen=True)
class ProjectConfig:
    """Tunables of the whole-program analyzer.

    The defaults encode this repo's documented soundness cuts (see
    DESIGN.md "Whole-program analysis"): entropy-neutral seam modules,
    project functions that are blocking by contract, and sink modules
    whose writes are intentionally wall-clock-stamped.
    """

    passes: tuple[str, ...] = PROJECT_PASSES
    #: Modules (prefix match) whose functions neither produce nor relay
    #: entropy: the sanctioned injection seams.
    entropy_neutral_modules: tuple[str, ...] = ("repro.util.clock", "repro.util.rng")
    #: Project functions (qual suffix match) that are blocking by
    #: contract even though their bodies look cheap — solver entry
    #: points whose fixed-point iteration dominates a request.
    blocking_project_suffixes: tuple[str, ...] = (
        "LqnSolver.solve",
        "FaultInjector.fire",
        "FaultInjector.trips",
        "FaultInjector.filter",
    )

    def wants(self, pass_name: str) -> bool:
        """Whether the named pass is enabled."""
        return pass_name in self.passes

    def entropy_neutral(self, module: str) -> bool:
        """Whether ``module`` is a sanctioned entropy seam."""
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.entropy_neutral_modules
        )


# ---------------------------------------------------------------------------
# Summaries and reachability
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _Summaries:
    """Per-function local facts the fixpoint closes over."""

    acquires: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    blocking: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    entropy: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    taints: dict[str, TaintScan] = field(default_factory=dict)


def _closure(
    locals_: dict[str, set[tuple[str, str]]],
    adjacency: dict[str, list[str]],
    *,
    frozen: Iterable[str] = (),
) -> dict[str, set[tuple[str, str]]]:
    """Transitive union of per-function fact sets over the call graph.

    ``frozen`` names functions whose closure is pinned to their local
    set (the entropy-neutral seam: nothing propagates through them).
    Worklist fixpoint — convergent on call cycles.
    """
    closure = {qual: set(facts) for qual, facts in locals_.items()}
    pinned = set(frozen)
    callers: dict[str, list[str]] = {}
    for caller, callees in adjacency.items():
        for callee in callees:
            callers.setdefault(callee, []).append(caller)

    work = list(closure)
    in_work = set(work)
    while work:
        current = work.pop()
        in_work.discard(current)
        if current in pinned:
            continue
        merged = closure.setdefault(current, set())
        before = len(merged)
        for callee in adjacency.get(current, ()):
            if callee in pinned:
                continue
            merged |= closure.get(callee, set())
        if len(merged) != before:
            for caller in callers.get(current, ()):
                if caller not in in_work:
                    in_work.add(caller)
                    work.append(caller)
    return closure


def _chain(
    graph: CallGraph, start: str, owner: str, *, include_deferred: bool
) -> tuple[str, ...]:
    """Witness chain from ``start`` to the fact's owning function."""
    path = graph.shortest_chain(start, owner, include_deferred=include_deferred)
    return tuple(path) if path is not None else (start, "...", owner)


def _render_chain(chain: Sequence[str]) -> str:
    return " -> ".join(chain)


# ---------------------------------------------------------------------------
# Blocking classification
# ---------------------------------------------------------------------------


def _classify_blocking_site(site: CallSite, config: ProjectConfig) -> str | None:
    """A human-readable blocking-op description, or None if benign."""
    for target in site.targets:
        for suffix in config.blocking_project_suffixes:
            if target.endswith(suffix):
                return target
    external = site.external
    if not external:
        return None
    if external in BLOCKING_EXTERNALS:
        return external
    if external.endswith(".sleep"):
        return external
    attr = external.rsplit(".", 1)[-1]
    if attr not in BLOCKING_ATTRS:
        return None
    if site.receiver_const:
        return None  # ", ".join(...) and friends
    if attr == "join" and any(
        external.startswith(prefix) for prefix in _NONBLOCKING_JOIN_PREFIXES
    ):
        return None
    return external


# ---------------------------------------------------------------------------
# The passes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _LockEdge:
    """Evidence that ``held`` was held while ``acquired`` was acquired."""

    held: str
    acquired: str
    chain: tuple[str, ...]
    path: str
    line: int


def _collect_summaries(graph: CallGraph, config: ProjectConfig) -> _Summaries:
    summaries = _Summaries()
    index = graph.index
    for qual, fn in index.functions.items():
        scan = graph.scans[qual]
        summaries.acquires[qual] = {(a.lock, qual) for a in scan.acquisitions}

        blocking: set[tuple[str, str]] = set()
        for site in graph.sites[qual]:
            if site.deferred:
                continue
            desc = _classify_blocking_site(site, config)
            if desc is not None:
                blocking.add((desc, qual))
        summaries.blocking[qual] = blocking

        module = index.modules.get(fn.module)
        imports = module.imports if module is not None else {}
        taint = scan_taint(fn.body, imports)
        summaries.taints[qual] = taint
        if config.entropy_neutral(fn.module):
            summaries.entropy[qual] = set()
        else:
            summaries.entropy[qual] = {(s.desc, qual) for s in taint.sources}
    return summaries


def _lock_edges(
    graph: CallGraph, summaries: _Summaries, acquires_closure: dict[str, set[tuple[str, str]]]
) -> tuple[list[_LockEdge], list[Finding]]:
    """All lock-order edges, plus direct self-deadlock findings."""
    index = graph.index
    edges: dict[tuple[str, str], _LockEdge] = {}
    self_deadlocks: list[Finding] = []

    def add_edge(edge: _LockEdge) -> None:
        edges.setdefault((edge.held, edge.acquired), edge)

    for qual in sorted(index.functions):
        fn = index.functions[qual]
        scan = graph.scans[qual]

        # Intraprocedural nesting.
        for acq in scan.acquisitions:
            for held in acq.held:
                if held == acq.lock:
                    if acq.reentrant is False:
                        self_deadlocks.append(
                            Finding(
                                rule_id=DEADLOCK_RULE_ID,
                                path=fn.path,
                                line=acq.line,
                                message=(
                                    f"non-reentrant lock '{acq.lock}' re-acquired "
                                    f"while already held (guaranteed self-deadlock) "
                                    f"in {qual}"
                                ),
                                symbol=qual,
                                witness=(qual,),
                            )
                        )
                    continue
                add_edge(_LockEdge(held, acq.lock, (qual,), fn.path, acq.line))

        # Interprocedural: calls made while holding.
        for site in graph.sites[qual]:
            if site.deferred or not site.held:
                continue
            for target in site.targets:
                reached = acquires_closure.get(target, set())
                for lock, owner in sorted(reached):
                    chain = (qual,) + _chain(
                        graph, target, owner, include_deferred=False
                    )
                    for held in site.held:
                        if held == lock:
                            reentrant = _lock_reentrancy(index, lock)
                            if reentrant is False and owner != qual:
                                self_deadlocks.append(
                                    Finding(
                                        rule_id=DEADLOCK_RULE_ID,
                                        path=fn.path,
                                        line=site.line,
                                        message=(
                                            f"non-reentrant lock '{lock}' may be "
                                            f"re-acquired while held: call chain "
                                            f"{_render_chain(chain)} reaches a "
                                            f"nested acquisition (self-deadlock)"
                                        ),
                                        symbol=qual,
                                        witness=chain,
                                    )
                                )
                            continue
                        add_edge(_LockEdge(held, lock, chain, fn.path, site.line))
    return list(edges.values()), self_deadlocks


def _lock_reentrancy(index: ProjectIndex, lock_id: str) -> bool | None:
    """Reentrancy of a lock id, if its constructor was seen."""
    owner_qual, _, attr = lock_id.rpartition(".")
    info = index.classes.get(owner_qual)
    if info is not None and attr in info.lock_attrs:
        return info.lock_attrs[attr][1]
    module = index.modules.get(owner_qual)
    if module is not None and attr in module.module_locks:
        return module.module_locks[attr][1]
    return None


def _cycles(edges: list[_LockEdge]) -> list[list[_LockEdge]]:
    """One witnessed cycle per strongly-connected lock-order component."""
    adjacency: dict[str, dict[str, _LockEdge]] = {}
    for edge in edges:
        adjacency.setdefault(edge.held, {})[edge.acquired] = edge

    # Tarjan SCC over the lock graph.
    order: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(node: str) -> None:
        frames: list[tuple[str, Iterable[str]]] = [(node, iter(adjacency.get(node, ())))]
        order[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while frames:
            current, it = frames[-1]
            advanced = False
            for nxt in it:
                if nxt not in order:
                    order[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    frames.append((nxt, iter(adjacency.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[current] = min(low[current], order[nxt])
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                low[parent] = min(low[parent], low[current])
            if low[current] == order[current]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))

    for lock in sorted(adjacency):
        if lock not in order:
            strongconnect(lock)

    cycles: list[list[_LockEdge]] = []
    for component in sccs:
        members = set(component)
        start = component[0]
        # Shortest cycle through `start` within the SCC.
        previous: dict[str, tuple[str, _LockEdge]] = {}
        queue = [start]
        seen = {start}
        closing: _LockEdge | None = None
        while queue and closing is None:
            current = queue.pop(0)
            for nxt, edge in sorted(adjacency.get(current, {}).items()):
                if nxt not in members:
                    continue
                if nxt == start:
                    closing = edge
                    previous[start + "\0done"] = (current, edge)
                    break
                if nxt in seen:
                    continue
                seen.add(nxt)
                previous[nxt] = (current, edge)
                queue.append(nxt)
        if closing is None:  # pragma: no cover - SCC guarantees a cycle
            continue
        cycle_edges = [closing]
        cursor = previous[start + "\0done"][0]
        while cursor != start:
            prev_node, edge = previous[cursor]
            cycle_edges.append(edge)
            cursor = prev_node
        cycles.append(list(reversed(cycle_edges)))
    return cycles


def run_deadlock_pass(
    graph: CallGraph, summaries: _Summaries, config: ProjectConfig
) -> list[Finding]:
    """REPRO-DEADLOCK001: lock-order cycles and self-deadlocks."""
    acquires_closure = _closure(
        summaries.acquires, graph.adjacency(include_deferred=False)
    )
    edges, findings = _lock_edges(graph, summaries, acquires_closure)
    for cycle in _cycles(edges):
        locks = [edge.held for edge in cycle] + [cycle[0].held]
        witness_bits = [
            f"'{edge.held}' held while acquiring '{edge.acquired}' via "
            f"{_render_chain(edge.chain)} ({edge.path}:{edge.line})"
            for edge in cycle
        ]
        anchor = cycle[0]
        merged_witness: tuple[str, ...] = tuple(
            dict.fromkeys(q for edge in cycle for q in edge.chain)
        )
        findings.append(
            Finding(
                rule_id=DEADLOCK_RULE_ID,
                path=anchor.path,
                line=anchor.line,
                message=(
                    "potential deadlock: lock-order cycle "
                    + " -> ".join(f"'{lock}'" for lock in locks)
                    + "; "
                    + "; ".join(witness_bits)
                ),
                symbol=" -> ".join(locks),
                witness=merged_witness,
            )
        )
    return findings


def run_blocking_pass(
    graph: CallGraph, summaries: _Summaries, config: ProjectConfig
) -> list[Finding]:
    """REPRO-BLOCK001: blocking operations reachable under a held lock."""
    blocking_closure = _closure(
        summaries.blocking, graph.adjacency(include_deferred=False)
    )
    findings: list[Finding] = []
    reported: set[tuple[str, str, str, str]] = set()
    for qual in sorted(graph.index.functions):
        fn = graph.index.functions[qual]
        for site in graph.sites[qual]:
            if site.deferred or not site.held:
                continue
            held_text = ", ".join(f"'{lock}'" for lock in site.held)
            direct = _classify_blocking_site(site, config)
            if direct is not None:
                key = (qual, site.held[0], direct, qual)
                if key not in reported:
                    reported.add(key)
                    findings.append(
                        Finding(
                            rule_id=BLOCK_RULE_ID,
                            path=fn.path,
                            line=site.line,
                            message=(
                                f"blocking call '{direct}' while holding "
                                f"{held_text} in {qual}"
                            ),
                            symbol=qual,
                            witness=(qual,),
                        )
                    )
                continue
            for target in site.targets:
                for desc, owner in sorted(blocking_closure.get(target, set())):
                    key = (qual, site.held[0], desc, owner)
                    if key in reported:
                        continue
                    reported.add(key)
                    chain = (qual,) + _chain(
                        graph, target, owner, include_deferred=False
                    )
                    findings.append(
                        Finding(
                            rule_id=BLOCK_RULE_ID,
                            path=fn.path,
                            line=site.line,
                            message=(
                                f"blocking operation '{desc}' reachable while "
                                f"holding {held_text} via call chain "
                                f"{_render_chain(chain)}"
                            ),
                            symbol=qual,
                            witness=chain,
                        )
                    )
    return findings


def run_entropy_pass(
    graph: CallGraph, summaries: _Summaries, config: ProjectConfig
) -> list[Finding]:
    """REPRO-ENTROPY001: entropy reachable from artifact-writer sinks."""
    neutral = [
        qual
        for qual, fn in graph.index.functions.items()
        if config.entropy_neutral(fn.module)
    ]
    entropy_closure = _closure(
        summaries.entropy, graph.adjacency(include_deferred=True), frozen=neutral
    )
    findings: list[Finding] = []
    for qual in sorted(graph.index.functions):
        fn = graph.index.functions[qual]
        taint = summaries.taints[qual]
        if not taint.sinks or config.entropy_neutral(fn.module):
            continue
        reached = entropy_closure.get(qual, set())
        if not reached:
            continue
        desc, owner = min(reached)
        chain = _chain(graph, qual, owner, include_deferred=True)
        for sink in taint.sinks:
            findings.append(
                Finding(
                    rule_id=ENTROPY_RULE_ID,
                    path=fn.path,
                    line=sink.line,
                    message=(
                        f"artifact writer '{sink.desc}' can emit nondeterministic "
                        f"bytes: entropy source '{desc}' reachable via "
                        f"{_render_chain(chain)}"
                    ),
                    symbol=qual,
                    witness=chain,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


class ProjectAnalyzer:
    """Parses the tree once and runs the configured whole-program passes."""

    def __init__(self, config: ProjectConfig | None = None):
        self.config = config if config is not None else ProjectConfig()

    def analyze_paths(self, paths: Sequence[str]) -> list[Finding]:
        """All findings (syntax + enabled passes), in stable sorted order."""
        index = build_index(paths)
        graph = build_call_graph(index)
        return self.analyze_graph(graph)

    def analyze_graph(self, graph: CallGraph) -> list[Finding]:
        """Run the enabled passes over an already-built call graph."""
        summaries = _collect_summaries(graph, self.config)
        findings = list(graph.index.syntax_findings)
        if self.config.wants("deadlock"):
            findings.extend(run_deadlock_pass(graph, summaries, self.config))
        if self.config.wants("blocking"):
            findings.extend(run_blocking_pass(graph, summaries, self.config))
        if self.config.wants("entropy"):
            findings.extend(run_entropy_pass(graph, summaries, self.config))
        return sorted(findings, key=Finding.sort_key)


def analyze_project(
    paths: Sequence[str], config: ProjectConfig | None = None
) -> list[Finding]:
    """Convenience wrapper: one-shot whole-program analysis."""
    return ProjectAnalyzer(config).analyze_paths(paths)
