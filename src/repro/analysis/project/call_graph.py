"""Whole-program index and module-qualified call graph.

The builder parses every file under the analysis roots **once** and
produces two layers:

* a :class:`ProjectIndex` — modules, classes (with base classes, lock
  attributes and ``self.X = Class()`` attribute types), functions, and
  per-module import alias tables;
* a :class:`CallGraph` — every call site of every function resolved to
  the set of project functions it may invoke, annotated with the lock
  context from :mod:`repro.analysis.project.locks`.

Resolution is deliberately layered from precise to conservative:

1. **direct** — local/imported functions, ``Class(...)`` constructors,
   relative imports resolved against the module's package;
2. **self** — ``self.m()`` resolved through the method-resolution order
   of the enclosing class *plus* every project subclass override (a
   virtual call may land in any of them);
3. **typed** — ``self.attr.m()`` / ``var.m()`` where the receiver's
   class is known from ``self.attr = Class(...)`` in the class body, a
   module-level ``VAR = Class(...)``, or a local ``var = Class(...)``;
4. **dynamic** — any remaining ``x.m()`` links to *every* project
   method named ``m``, unless ``m`` is a ubiquitous container/str
   method name (``get``, ``items``, ``append``...) whose fan-out would
   drown the precise edges in noise.

Layer 4 is the sound-side over-approximation the deadlock pass needs:
a virtual call the analysis cannot type still contributes its lock
acquisitions to every plausible target.  The ubiquitous-name carve-out
is the one deliberate unsoundness, documented in DESIGN.md.

Unparsable files become ``REPRO-SYNTAX`` findings (same contract as the
per-file engine) and the rest of the tree is still analyzed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.engine import SYNTAX_RULE_ID, collect_python_files, display_path
from repro.analysis.findings import Finding, Severity
from repro.analysis.project.locks import (
    LOCK_CONSTRUCTORS,
    FunctionScan,
    is_lock_name,
    scan_function,
)

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectIndex",
    "CallSite",
    "CallGraph",
    "build_index",
    "build_call_graph",
    "UBIQUITOUS_METHOD_NAMES",
]

#: Builtin container/str method names excluded from dynamic dispatch.
UBIQUITOUS_METHOD_NAMES = frozenset(
    {
        "add", "append", "clear", "copy", "count", "discard", "encode",
        "endswith", "extend", "format", "get", "index", "insert", "items",
        "join", "keys", "lower", "lstrip", "pop", "popitem", "remove",
        "replace", "rstrip", "setdefault", "sort", "split", "splitlines",
        "startswith", "strip", "title", "update", "upper", "values",
    }
)


@dataclass(slots=True)
class FunctionInfo:
    """One function, method or module body in the project."""

    qual: str  # "pkg.mod.Class.method" | "pkg.mod.func" | "pkg.mod" (module body)
    module: str
    cls: str | None  # enclosing class qual, if a method
    name: str
    path: str  # display path
    line: int
    body: list[ast.stmt]
    args: list[str] = field(default_factory=list)


@dataclass(slots=True)
class ClassInfo:
    """One class: methods, bases, lock attributes, inferred field types."""

    qual: str
    module: str
    name: str
    line: int
    base_exprs: list[ast.expr] = field(default_factory=list)
    bases: list[str] = field(default_factory=list)  # resolved project class quals
    methods: dict[str, str] = field(default_factory=dict)  # name -> function qual
    attr_types: dict[str, set[str]] = field(default_factory=dict)  # self.X -> class quals
    lock_attrs: dict[str, tuple[str, bool | None]] = field(default_factory=dict)


@dataclass(slots=True)
class ModuleInfo:
    """One parsed module: symbols and the import alias table."""

    name: str
    path: str
    tree: ast.Module
    is_package: bool
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted target
    functions: dict[str, str] = field(default_factory=dict)  # local name -> qual
    classes: dict[str, str] = field(default_factory=dict)  # local name -> class qual
    var_types: dict[str, set[str]] = field(default_factory=dict)  # global -> class quals
    module_locks: dict[str, tuple[str, bool | None]] = field(default_factory=dict)


@dataclass(slots=True)
class ProjectIndex:
    """Everything known about the parsed tree, keyed by qualified name."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    methods_by_name: dict[str, list[str]] = field(default_factory=dict)
    subclasses: dict[str, set[str]] = field(default_factory=dict)
    syntax_findings: list[Finding] = field(default_factory=list)

    def resolve_method(self, class_qual: str, method: str) -> str | None:
        """The defining function qual for ``method`` on ``class_qual``.

        Walks the class then its (project-resolved) bases breadth-first —
        a static stand-in for the MRO.
        """
        seen: set[str] = set()
        queue = [class_qual]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.bases)
        return None

    def override_targets(self, class_qual: str, method: str) -> list[str]:
        """``method`` resolved on ``class_qual`` and every project subclass."""
        targets: list[str] = []
        base = self.resolve_method(class_qual, method)
        if base is not None:
            targets.append(base)
        for sub in sorted(self.subclasses.get(class_qual, ())):
            info = self.classes.get(sub)
            if info is not None and method in info.methods:
                targets.append(info.methods[method])
        return targets


@dataclass(frozen=True, slots=True)
class CallSite:
    """One resolved call site with its lock context."""

    caller: str
    line: int
    held: tuple[str, ...]
    deferred: bool
    targets: tuple[str, ...]  # project function quals (may be empty)
    external: str  # dotted external name ("time.sleep", "*.submit"), "" if none
    dispatch: str  # direct | self | typed | dynamic | external
    receiver_const: bool  # receiver is a literal (e.g. ", ".join) — never blocking


@dataclass(slots=True)
class CallGraph:
    """The resolved project: index, per-function scans and call sites."""

    index: ProjectIndex
    scans: dict[str, FunctionScan] = field(default_factory=dict)
    sites: dict[str, list[CallSite]] = field(default_factory=dict)

    def adjacency(self, *, include_deferred: bool) -> dict[str, list[str]]:
        """Caller -> unique callee quals (optionally skipping deferred sites)."""
        out: dict[str, list[str]] = {}
        for caller, sites in self.sites.items():
            seen: set[str] = set()
            targets: list[str] = []
            for site in sites:
                if site.deferred and not include_deferred:
                    continue
                for target in site.targets:
                    if target not in seen:
                        seen.add(target)
                        targets.append(target)
            out[caller] = targets
        return out

    def shortest_chain(
        self, start: str, goal: str, *, include_deferred: bool
    ) -> list[str] | None:
        """BFS witness path ``[start, ..., goal]`` through the call graph."""
        if start == goal:
            return [start]
        adjacency = self.adjacency(include_deferred=include_deferred)
        previous: dict[str, str] = {}
        queue = [start]
        seen = {start}
        while queue:
            current = queue.pop(0)
            for nxt in adjacency.get(current, ()):
                if nxt in seen:
                    continue
                previous[nxt] = current
                if nxt == goal:
                    chain = [goal]
                    while chain[-1] != start:
                        chain.append(previous[chain[-1]])
                    return list(reversed(chain))
                seen.add(nxt)
                queue.append(nxt)
        return None


# ---------------------------------------------------------------------------
# Index construction
# ---------------------------------------------------------------------------


def _module_name(file_path: Path, root: Path) -> tuple[str, bool]:
    """(dotted module name, is_package) for a file under an analysis root."""
    parts = list(file_path.relative_to(root).parts)
    is_package = parts[-1] == "__init__.py"
    parts[-1] = parts[-1][: -len(".py")]
    if is_package:
        parts.pop()
    if not parts:
        return root.name, True
    return ".".join(parts), is_package


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _expand(dotted: str, imports: dict[str, str]) -> str:
    """Expand the root identifier of a dotted name through the alias table."""
    root, _, rest = dotted.partition(".")
    target = imports.get(root)
    if target is None:
        return dotted
    return f"{target}.{rest}" if rest else target


def _relative_base(module: ModuleInfo, level: int) -> list[str]:
    """Package parts a level-``level`` relative import resolves against."""
    parts = module.name.split(".")
    if not module.is_package:
        parts = parts[:-1]
    drop = level - 1
    return parts[: len(parts) - drop] if drop else parts


def _collect_imports(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    module.imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    module.imports.setdefault(root, root)
        elif isinstance(node, ast.ImportFrom):
            base: list[str]
            if node.level:
                base = _relative_base(module, node.level)
            else:
                base = []
            if node.module:
                base = base + node.module.split(".")
            prefix = ".".join(base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                module.imports[bound] = f"{prefix}.{alias.name}" if prefix else alias.name


def _constructed_class(
    value: ast.expr, module: ModuleInfo, index: ProjectIndex
) -> str | None:
    """The project class qual when ``value`` is ``ClassName(...)``."""
    if not isinstance(value, ast.Call):
        return None
    dotted = _dotted_name(value.func)
    if dotted is None:
        return None
    expanded = _expand(dotted, module.imports)
    if expanded in index.classes:
        return expanded
    local = module.classes.get(dotted)
    return local


def _lock_constructor(value: ast.expr, imports: dict[str, str]) -> bool | None | str:
    """'' if not a lock constructor, else the reentrancy of the lock made."""
    if not isinstance(value, ast.Call):
        return ""
    dotted = _dotted_name(value.func)
    if dotted is None:
        return ""
    expanded = _expand(dotted, imports)
    if expanded in LOCK_CONSTRUCTORS:
        return LOCK_CONSTRUCTORS[expanded]
    return ""


def _index_class(
    cls_node: ast.ClassDef, module: ModuleInfo, index: ProjectIndex, path: str
) -> None:
    class_qual = f"{module.name}.{cls_node.name}"
    info = ClassInfo(
        qual=class_qual,
        module=module.name,
        name=cls_node.name,
        line=cls_node.lineno,
        base_exprs=list(cls_node.bases),
    )
    index.classes[class_qual] = info
    module.classes[cls_node.name] = class_qual

    for stmt in cls_node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn_qual = f"{class_qual}.{stmt.name}"
            info.methods[stmt.name] = fn_qual
            index.functions[fn_qual] = FunctionInfo(
                qual=fn_qual,
                module=module.name,
                cls=class_qual,
                name=stmt.name,
                path=path,
                line=stmt.lineno,
                body=stmt.body,
                args=[a.arg for a in stmt.args.args],
            )
            index.methods_by_name.setdefault(stmt.name, []).append(fn_qual)


def _index_class_attrs(
    cls_node: ast.ClassDef, module: ModuleInfo, index: ProjectIndex
) -> None:
    """Attribute types and lock attributes from ``self.X = ...``.

    Runs in pass 2, once *every* class in *every* module is registered,
    so ``self.right = Right()`` types correctly even when ``Right`` is
    defined further down the file (or in another module).
    """
    info = index.classes[f"{module.name}.{cls_node.name}"]
    class_qual = info.qual
    for stmt in cls_node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            reentrant = _lock_constructor(node.value, module.imports)
            if reentrant != "":
                info.lock_attrs[attr] = (f"{class_qual}.{attr}", reentrant)  # type: ignore[assignment]
                continue
            constructed = _constructed_class(node.value, module, index)
            if constructed is not None:
                info.attr_types.setdefault(attr, set()).add(constructed)


def build_index(paths: Sequence[str | Path]) -> ProjectIndex:
    """Parse every ``.py`` file under the analysis roots into an index.

    Each argument is an analysis *root*: module names are the dotted
    relative paths beneath it (so ``src`` yields ``repro.lqn.solver``).
    A file argument is its own root (module name = stem).
    """
    index = ProjectIndex()
    seen_files: set[Path] = set()
    parsed: list[tuple[ModuleInfo, str]] = []
    class_nodes: list[tuple[ast.ClassDef, ModuleInfo]] = []

    for raw in paths:
        root = Path(raw)
        files = collect_python_files([root])
        file_root = root if root.is_dir() else root.parent
        for file_path in files:
            resolved = file_path.resolve()
            if resolved in seen_files:
                continue
            seen_files.add(resolved)
            shown = display_path(file_path)
            source = file_path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=shown)
            except SyntaxError as error:
                index.syntax_findings.append(
                    Finding(
                        rule_id=SYNTAX_RULE_ID,
                        severity=Severity.ERROR,
                        path=shown,
                        line=error.lineno or 0,
                        message=f"file does not parse: {error.msg}",
                    )
                )
                continue
            name, is_package = _module_name(file_path, file_root)
            module = ModuleInfo(
                name=name, path=shown, tree=tree, is_package=is_package
            )
            # First root wins on duplicate module names (overlapping roots).
            if name in index.modules:
                continue
            index.modules[name] = module
            parsed.append((module, shown))

    # Pass 1: symbols (so cross-module references resolve in pass 2).
    for module, shown in parsed:
        _collect_imports(module)
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn_qual = f"{module.name}.{stmt.name}"
                module.functions[stmt.name] = fn_qual
                index.functions[fn_qual] = FunctionInfo(
                    qual=fn_qual,
                    module=module.name,
                    cls=None,
                    name=stmt.name,
                    path=shown,
                    line=stmt.lineno,
                    body=stmt.body,
                    args=[a.arg for a in stmt.args.args],
                )
            elif isinstance(stmt, ast.ClassDef):
                _index_class(stmt, module, index, shown)
                class_nodes.append((stmt, module))
        # The module body itself participates (module-level seeding, CLI glue).
        index.functions[module.name] = FunctionInfo(
            qual=module.name,
            module=module.name,
            cls=None,
            name="<module>",
            path=shown,
            line=1,
            body=[
                s
                for s in module.tree.body
                if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            ],
        )

    # Pass 2: attribute/variable types, module locks, class bases — all of
    # which may reference classes registered anywhere in pass 1.
    for cls_node, module in class_nodes:
        _index_class_attrs(cls_node, module, index)
    for module, _ in parsed:
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    reentrant = _lock_constructor(stmt.value, module.imports)
                    if reentrant != "":
                        module.module_locks[target.id] = (
                            f"{module.name}.{target.id}",
                            reentrant,  # type: ignore[arg-type]
                        )
                        continue
                    constructed = _constructed_class(stmt.value, module, index)
                    if constructed is not None:
                        module.var_types.setdefault(target.id, set()).add(constructed)

    for class_qual, info in index.classes.items():
        module = index.modules[info.module]
        for base_expr in info.base_exprs:
            dotted = _dotted_name(base_expr)
            if dotted is None:
                continue
            expanded = _expand(dotted, module.imports)
            if expanded in index.classes:
                info.bases.append(expanded)
            elif dotted in module.classes:
                info.bases.append(module.classes[dotted])

    # Transitive subclass map for virtual-dispatch over-approximation.
    direct: dict[str, set[str]] = {}
    for class_qual, info in index.classes.items():
        for base in info.bases:
            direct.setdefault(base, set()).add(class_qual)
    for base in direct:
        frontier = list(direct[base])
        closure: set[str] = set()
        while frontier:
            sub = frontier.pop()
            if sub in closure:
                continue
            closure.add(sub)
            frontier.extend(direct.get(sub, ()))
        index.subclasses[base] = closure

    return index


# ---------------------------------------------------------------------------
# Call resolution
# ---------------------------------------------------------------------------


class _Resolver:
    """Resolves raw call sites of one function to project targets."""

    def __init__(self, index: ProjectIndex, fn: FunctionInfo):
        self.index = index
        self.fn = fn
        self.module = index.modules[fn.module]
        self.cls = index.classes.get(fn.cls) if fn.cls else None
        self.local_types = self._infer_local_types()

    def _infer_local_types(self) -> dict[str, set[str]]:
        """``var -> class quals`` for ``var = Class(...)`` in this body."""
        types: dict[str, set[str]] = {}
        for stmt in self.fn.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        constructed = _constructed_class(
                            node.value, self.module, self.index
                        )
                        if constructed is not None:
                            types.setdefault(target.id, set()).add(constructed)
        return types

    # -- helpers ---------------------------------------------------------------

    def _function_for(self, qual: str) -> tuple[str, ...]:
        """Edges for a fully-qualified symbol (function or class constructor)."""
        if qual in self.index.functions:
            return (qual,)
        if qual in self.index.classes:
            init = self.index.resolve_method(qual, "__init__")
            return (init,) if init is not None else ()
        return ()

    def _methods_on(self, class_quals: Iterable[str], method: str) -> tuple[str, ...]:
        targets: list[str] = []
        for class_qual in sorted(set(class_quals)):
            resolved = self.index.resolve_method(class_qual, method)
            if resolved is not None and resolved not in targets:
                targets.append(resolved)
            for override in self.index.override_targets(class_qual, method):
                if override not in targets:
                    targets.append(override)
        return tuple(targets)

    def _receiver_types(self, recv: ast.AST) -> set[str]:
        """Known project classes the receiver expression may hold."""
        if (
            isinstance(recv, ast.Attribute)
            and isinstance(recv.value, ast.Name)
            and recv.value.id == "self"
            and self.cls is not None
        ):
            return set(self.cls.attr_types.get(recv.attr, ()))
        if isinstance(recv, ast.Name):
            types = set(self.local_types.get(recv.id, ()))
            types |= self.module.var_types.get(recv.id, set())
            if not types:
                imported = self.module.imports.get(recv.id)
                if imported is not None:
                    owner_module, _, var = imported.rpartition(".")
                    owner = self.index.modules.get(owner_module)
                    if owner is not None:
                        types |= owner.var_types.get(var, set())
            return types
        return set()

    # -- the resolution ladder --------------------------------------------------

    def resolve(self, call: ast.Call) -> tuple[tuple[str, ...], str, str, bool]:
        """(targets, external descriptor, dispatch kind, receiver-is-literal)."""
        func = call.func

        if isinstance(func, ast.Name):
            name = func.id
            if name in self.module.functions:
                return (self.module.functions[name],), "", "direct", False
            if name in self.module.classes:
                targets = self._function_for(self.module.classes[name])
                return targets, "", "direct", False
            imported = self.module.imports.get(name)
            if imported is not None:
                targets = self._function_for(imported)
                if targets:
                    return targets, "", "direct", False
                return (), imported, "external", False
            return (), name, "external", False

        if isinstance(func, ast.Attribute):
            method = func.attr
            recv = func.value
            receiver_const = isinstance(recv, ast.Constant)

            # super().m()
            if (
                isinstance(recv, ast.Call)
                and isinstance(recv.func, ast.Name)
                and recv.func.id == "super"
                and self.cls is not None
            ):
                for base in self.cls.bases:
                    resolved = self.index.resolve_method(base, method)
                    if resolved is not None:
                        return (resolved,), "", "self", False
                return (), f"super.{method}", "external", False

            # self.m(): own class MRO + subclass overrides.
            if (
                isinstance(recv, ast.Name)
                and recv.id == "self"
                and self.cls is not None
            ):
                targets = tuple(
                    dict.fromkeys(self.index.override_targets(self.cls.qual, method))
                )
                if targets:
                    return targets, "", "self", False
                # fall through to dynamic below

            # Fully-dotted reference (module functions, class methods,
            # module-level instances: INJECTOR.fire, TRACER.instant...).
            dotted = _dotted_name(func)
            if dotted is not None:
                expanded = _expand(dotted, self.module.imports)
                targets = self._function_for(expanded)
                if targets:
                    return targets, "", "direct", False
                owner_dotted, _, _ = expanded.rpartition(".")
                owner_module, _, var = owner_dotted.rpartition(".")
                # module-level instance in a project module?
                for mod_name, var_name in (
                    (owner_module, var),
                    (owner_dotted, ""),
                ):
                    owner = self.index.modules.get(mod_name)
                    if owner is None or not var_name:
                        continue
                    classes = owner.var_types.get(var_name, set())
                    if classes:
                        typed = self._methods_on(classes, method)
                        if typed:
                            return typed, "", "typed", False
                # local module-level instance (VAR.m() in same module)
                if isinstance(recv, ast.Name):
                    classes = self._receiver_types(recv)
                    if classes:
                        typed = self._methods_on(classes, method)
                        if typed:
                            return typed, "", "typed", False

            # Typed receiver: self.attr / local var / global instance.
            classes = self._receiver_types(recv)
            if classes:
                typed = self._methods_on(classes, method)
                if typed:
                    return typed, "", "typed", False

            # Dynamic fallback: any project method of this (distinctive) name.
            external = dotted if dotted is not None else f"*.{method}"
            if method not in UBIQUITOUS_METHOD_NAMES:
                candidates = tuple(self.index.methods_by_name.get(method, ()))
                if candidates:
                    return candidates, external, "dynamic", receiver_const
            return (), external, "external", receiver_const

        # Calls through subscripts/calls (``table[k]()``, ``f()()``): opaque.
        return (), "", "external", False


def build_call_graph(index: ProjectIndex) -> CallGraph:
    """Scan and resolve every function in the index."""
    graph = CallGraph(index=index)
    for qual, fn in index.functions.items():
        cls_info = index.classes.get(fn.cls) if fn.cls else None
        module = index.modules[fn.module]
        self_locks: dict[str, tuple[str, bool | None]] = {}
        if cls_info is not None:
            self_locks = dict(cls_info.lock_attrs)
        scan = scan_function(
            fn.body,
            self_locks=self_locks,
            module_locks=module.module_locks,
            owner_qual=cls_info.qual if cls_info is not None else fn.module,
        )
        graph.scans[qual] = scan
        resolver = _Resolver(index, fn)
        sites: list[CallSite] = []
        for raw in scan.calls:
            targets, external, dispatch, receiver_const = resolver.resolve(raw.node)
            sites.append(
                CallSite(
                    caller=qual,
                    line=raw.line,
                    held=raw.held,
                    deferred=raw.deferred,
                    targets=targets,
                    external=external,
                    dispatch=dispatch,
                    receiver_const=receiver_const,
                )
            )
        graph.sites[qual] = sites
    return graph
