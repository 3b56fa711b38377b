"""REPRO-TRC001 — trace-discipline: spans are opened with ``with``.

A :class:`repro.trace.tracer.Span` is a context manager for a reason:
the ``with`` block guarantees the END event is emitted (and the
context-variable stack unwound) on *every* exit path, including
exceptions.  A bare ``begin()``/``end()`` pair leaks the span the first
time the code between them raises — the trace then shows a span that
never closed, every subsequent span in that context nests under the
leaked one, and the summarizer's self-time accounting is silently
wrong.  This rule flags:

* ``<tracer>.span(...)`` calls that are not used directly as a ``with``
  item (storing the span and driving it by hand);
* ``begin()``/``end()`` calls on span-valued receivers — a name
  containing ``span``, or chained directly off ``.span(...)``.

The detection is heuristic by design (receivers are matched by name,
as with the lock-discipline rule): it patrols the instrumentation
idiom, not arbitrary objects with a ``span`` method.
``src/repro/trace/`` itself is exempt — the tracer is the one place
that legitimately drives the span state machine.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.rules.base import Rule, SourceFile, register

__all__ = ["TraceDisciplineRule"]

_LIFECYCLE = frozenset({"begin", "end"})


def _terminal_name(node: ast.expr) -> str:
    """The rightmost identifier of a Name/Attribute chain ('' otherwise)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_tracer_receiver(node: ast.expr) -> bool:
    """Whether ``node`` names a tracer (``TRACER``, ``self._tracer``, ...)."""
    return "tracer" in _terminal_name(node).lower()


def _is_span_receiver(node: ast.expr) -> bool:
    """Whether ``node`` is span-valued: named like one or ``.span(...)``."""
    if "span" in _terminal_name(node).lower():
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "span"
    )


@register
class TraceDisciplineRule(Rule):
    """Flag spans driven by hand instead of through a ``with`` block."""

    rule_id = "REPRO-TRC001"
    name = "trace-discipline"
    description = (
        "span opened without a with block (or driven by bare begin()/end()); "
        "use 'with tracer.span(...):' so the END event survives exceptions"
    )

    def applies_to(self, path: str) -> bool:
        """Everywhere except the tracer package itself."""
        return "repro/trace/" not in path.replace("\\", "/")

    def check(self, sf: SourceFile) -> Iterator:
        """Mark with-managed span calls, then audit every call site."""
        managed: set[int] = set()
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Call)
                        and isinstance(expr.func, ast.Attribute)
                        and expr.func.attr == "span"
                    ):
                        managed.add(id(expr))

        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            func = node.func
            if (
                func.attr == "span"
                and id(node) not in managed
                and _is_tracer_receiver(func.value)
            ):
                receiver = _terminal_name(func.value)
                yield self.finding(
                    sf,
                    node,
                    f"'{receiver}.span(...)' is not a with item; a hand-held "
                    "span leaks its END event on any exception path",
                    symbol=f"{receiver}.span",
                )
            elif func.attr in _LIFECYCLE and _is_span_receiver(func.value):
                receiver = _terminal_name(func.value) or "span"
                yield self.finding(
                    sf,
                    node,
                    f"bare '{receiver}.{func.attr}()' drives the span "
                    "lifecycle by hand; open spans with "
                    "'with tracer.span(...):' instead",
                    symbol=f"{receiver}.{func.attr}",
                )
