"""Rule protocol and registry for the AST code linter.

A rule is a small class with an id, a name, a default severity and a
``check`` method that walks one parsed file and yields findings.  Rules
self-register via the :func:`register` decorator at import time (the
:mod:`repro.analysis.rules` package imports every rule module), so the
engine, the CLI's ``--rule`` selector and the documentation all read
from one registry.

Adding a rule is three steps: subclass :class:`Rule` in a new module
under ``repro/analysis/rules/``, decorate it with ``@register``, and
import the module from ``rules/__init__.py``.  Fixture snippets under
``tests/analysis_fixtures/`` (one positive, one negative) keep it
honest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.findings import Finding, Severity
from repro.util.errors import ValidationError

__all__ = ["SourceFile", "Rule", "register", "all_rules", "resolve_rules"]


@dataclass(frozen=True)
class SourceFile:
    """One parsed file handed to every rule: display path, text, AST."""

    path: str
    source: str
    tree: ast.Module


class Rule:
    """Base class for AST lint rules.

    Subclasses set the four class attributes and implement
    :meth:`check`; :meth:`applies_to` lets path-scoped rules (e.g.
    rng-discipline, which exempts the sanctioned stream factory) opt
    out of files they have no opinion about.
    """

    rule_id: str = "REPRO-XXX000"
    name: str = "abstract-rule"
    severity: Severity = Severity.WARNING
    description: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule patrols ``path`` (default: every file)."""
        return True

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        """Yield findings for one parsed file (subclass hook)."""
        raise NotImplementedError  # pragma: no cover - abstract hook

    def finding(
        self,
        sf: SourceFile,
        node: ast.AST | int,
        message: str,
        *,
        symbol: str = "",
        severity: Severity | None = None,
    ) -> Finding:
        """Build a finding anchored at ``node`` (or a literal line number)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 0)
        return Finding(
            rule_id=self.rule_id,
            severity=severity if severity is not None else self.severity,
            path=sf.path,
            line=line,
            message=message,
            symbol=symbol,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    for existing in _REGISTRY.values():
        if existing.rule_id == cls.rule_id and existing is not cls:
            raise ValidationError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.name] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by rule id."""
    return [cls() for cls in sorted(_REGISTRY.values(), key=lambda c: c.rule_id)]


def resolve_rules(selectors: Iterable[str]) -> list[Rule]:
    """Rules matching the given names or ids (the CLI's ``--rule``).

    Raises :class:`~repro.util.errors.ValidationError` on an unknown
    selector, listing what is available.
    """
    chosen: list[Rule] = []
    by_id = {cls.rule_id: cls for cls in _REGISTRY.values()}
    for selector in selectors:
        cls = _REGISTRY.get(selector) or by_id.get(selector)
        if cls is None:
            known = sorted(_REGISTRY) + sorted(by_id)
            raise ValidationError(f"unknown rule {selector!r}; known: {known}")
        if all(type(rule) is not cls for rule in chosen):
            chosen.append(cls())
    return chosen
