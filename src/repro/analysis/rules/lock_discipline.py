"""REPRO-LOCK001 — lock-discipline: no bare access to lock-guarded state.

The PR-1 race this rule mechanizes: ``PredictionTimer.record`` did
``self.evaluations += 1`` with no lock while ``mean_delay_s`` read the
same accumulators — a classic lost-update under the serving layer's
worker threads.  The guard inference follows the ``@GuardedBy``
convention without annotations:

* a class is *lock-disciplined* when any of its methods contains a
  ``with self.<something-lock>:`` block;
* an attribute is *guarded* when it is accessed inside such a block in
  any method other than ``__init__``/``__post_init__``;
* a **write** outside every lock block to an attribute that is accessed
  under the lock somewhere, or a **read** outside the lock of an
  attribute that is *written* under the lock somewhere, is a finding.

Reads of attributes that are only ever read under the lock (immutable
configuration like histogram bucket bounds) are deliberately not
flagged, and nested functions reset the lock context — a closure
defined inside a ``with self._lock:`` block runs later, when the lock
is long released, which is itself a subtle source of races this rule
gets right.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.rules.base import Rule, SourceFile, register

__all__ = ["LockDisciplineRule"]

_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})


def _self_attr_name(node: ast.AST) -> str | None:
    """``X`` when ``node`` is exactly ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _root_self_attr(node: ast.AST) -> str | None:
    """``X`` when ``node`` is ``self.X`` or a subscript/attribute chain
    rooted at it (``self.X[k]``, ``self.X.field``, ``self.X[k].y``)."""
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        direct = _self_attr_name(node)
        if direct is not None:
            return direct
        node = node.value if not isinstance(node, ast.Starred) else node.value
    return None


def _is_lock_name(attr: str) -> bool:
    """Whether an attribute name denotes a lock (``_lock``, ``_stats_lock``...)."""
    return "lock" in attr.lower()


@dataclass(frozen=True, slots=True)
class _Access:
    """One touch of a ``self.X`` attribute inside a method body."""

    attr: str
    write: bool
    line: int
    under_lock: bool
    method: str


class _MethodScanner:
    """Collects every ``self.X`` access in one method, lock-context aware."""

    def __init__(self, method_name: str):
        self.method = method_name
        self.accesses: list[_Access] = []

    # -- recording -----------------------------------------------------------

    def _record(self, attr: str, *, write: bool, line: int, locked: bool) -> None:
        self.accesses.append(
            _Access(attr=attr, write=write, line=line, under_lock=locked, method=self.method)
        )

    def _record_target(self, target: ast.AST, locked: bool) -> None:
        """A write through an assignment/deletion target (chains included)."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, locked)
            return
        root = _root_self_attr(target)
        if root is not None:
            self._record(root, write=True, line=getattr(target, "lineno", 0), locked=locked)
            # The chain's inner expressions (subscript indices...) are reads.
            if not isinstance(target, ast.Attribute) or _self_attr_name(target) is None:
                self._scan_expr_children(target, locked)
        else:
            self._scan_expr(target, locked)

    # -- expression walking ----------------------------------------------------

    def _scan_expr(self, node: ast.AST, locked: bool) -> None:
        direct = _self_attr_name(node)
        if direct is not None:
            self._record(direct, write=False, line=getattr(node, "lineno", 0), locked=locked)
            return
        self._scan_expr_children(node, locked)

    def _scan_expr_children(self, node: ast.AST, locked: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                self._scan_deferred(child)
            else:
                self._scan_expr(child, locked)

    def _scan_deferred(self, node: ast.AST) -> None:
        """A nested function/lambda body runs later: the lock is NOT held."""
        body = getattr(node, "body", [])
        if isinstance(body, list):
            self.scan_body(body, locked=False)
        else:  # Lambda: body is one expression
            self._scan_expr(body, locked=False)

    # -- statement walking -------------------------------------------------------

    def scan_body(self, body: list[ast.stmt], *, locked: bool) -> None:
        """Walk statements, tracking whether a ``with self.*lock`` is held."""
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                holds = locked
                for item in stmt.items:
                    attr = _self_attr_name(item.context_expr)
                    if attr is not None and _is_lock_name(attr):
                        holds = True
                    else:
                        self._scan_expr(item.context_expr, locked)
                    if item.optional_vars is not None:
                        self._record_target(item.optional_vars, locked)
                self.scan_body(stmt.body, locked=holds)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_deferred(stmt)
            elif isinstance(stmt, ast.ClassDef):
                pass  # a nested class has its own `self`
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    self._record_target(target, locked)
                if isinstance(stmt, ast.AugAssign):
                    # `self.x += v` also reads self.x; the target record covers it.
                    pass
                if stmt.value is not None:
                    self._scan_expr(stmt.value, locked)
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    self._record_target(target, locked)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._record_target(stmt.target, locked)
                self._scan_expr(stmt.iter, locked)
                self.scan_body(stmt.body, locked=locked)
                self.scan_body(stmt.orelse, locked=locked)
            elif isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, locked)
                self.scan_body(stmt.body, locked=locked)
                self.scan_body(stmt.orelse, locked=locked)
            elif isinstance(stmt, ast.If):
                self._scan_expr(stmt.test, locked)
                self.scan_body(stmt.body, locked=locked)
                self.scan_body(stmt.orelse, locked=locked)
            elif isinstance(stmt, ast.Try):
                self.scan_body(stmt.body, locked=locked)
                for handler in stmt.handlers:
                    if handler.type is not None:
                        self._scan_expr(handler.type, locked)
                    self.scan_body(handler.body, locked=locked)
                self.scan_body(stmt.orelse, locked=locked)
                self.scan_body(stmt.finalbody, locked=locked)
            else:
                self._scan_expr_children(stmt, locked)


@register
class LockDisciplineRule(Rule):
    """Flag bare reads/writes of attributes guarded by ``self.*lock``."""

    rule_id = "REPRO-LOCK001"
    name = "lock-discipline"
    description = (
        "attribute guarded by a `with self._lock:` block elsewhere in the "
        "class is accessed outside the lock (lost-update / torn-read race)"
    )

    def check(self, sf: SourceFile) -> Iterator:
        """Analyze every class in the file (nested classes included)."""
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(sf, node)

    def _check_class(self, sf: SourceFile, cls: ast.ClassDef) -> Iterator:
        accesses: list[_Access] = []
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in _CONSTRUCTORS:
                continue  # the object is not yet shared during construction
            scanner = _MethodScanner(stmt.name)
            scanner.scan_body(stmt.body, locked=False)
            accesses.extend(scanner.accesses)

        if not any(a.under_lock for a in accesses):
            return  # not a lock-disciplined class

        # Guard inference: accessed-under-lock at all => writes to it may
        # race with locked readers; written-under-lock => bare reads may tear.
        guarded_any = {a.attr for a in accesses if a.under_lock and not _is_lock_name(a.attr)}
        guarded_written = {
            a.attr for a in accesses if a.under_lock and a.write and not _is_lock_name(a.attr)
        }

        seen: set[tuple[str, str, int]] = set()
        for access in accesses:
            if access.under_lock or _is_lock_name(access.attr):
                continue
            racy_write = access.write and access.attr in guarded_any
            racy_read = (not access.write) and access.attr in guarded_written
            if not (racy_write or racy_read):
                continue
            key = (access.method, access.attr, access.line)
            if key in seen:
                continue
            seen.add(key)
            action = "mutated" if access.write else "read"
            yield self.finding(
                sf,
                access.line,
                f"attribute '{access.attr}' is lock-guarded elsewhere in class "
                f"'{cls.name}' but {action} here without holding the lock",
                symbol=f"{cls.name}.{access.method}",
            )
