"""Findings: what every analyzer in :mod:`repro.analysis` reports.

A :class:`Finding` is one diagnosed defect — a rule id, a severity, a
``path:line`` anchor and a human-readable message.  Both halves of the
framework (the per-file AST linter and the whole-program passes) speak
in findings, so one baseline format, one reporter and one CI gate cover
them all.

Fingerprints deliberately exclude the line number: a baseline entry
keyed on ``(rule, path, symbol, message)`` survives unrelated edits
that shift code up or down, which is what keeps a committed baseline
from churning on every refactor.

Whole-program findings (the :mod:`repro.analysis.project` passes) carry
a ``witness`` — the call chain that proves the property, e.g. the path
from a lock acquisition to the nested acquisition completing a cycle.
The witness extends the fingerprint (still line-independent: it is a
tuple of qualified names), so two distinct interprocedural routes to
the same defect are distinct baseline entries, and a finding whose
witnessing chain changes shape is surfaced as new rather than silently
inheriting an old suppression.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

__all__ = ["Severity", "Finding"]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are defects (races, hidden entropy, deadlock
    cycles); ``WARNING`` findings are hygiene debt.  The CI gate fails
    on any *new* finding of either severity — the distinction matters to
    the reader, not to the gate.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Finding:
    """One diagnosed defect, anchored to ``path:line``.

    ``symbol`` names the offending definition (``Class.method``, an
    entry name, an attribute) when the rule knows it; it sharpens both
    the report and the baseline fingerprint.  ``witness`` is the
    qualified call chain proving an interprocedural finding (empty for
    the per-file rules).
    """

    rule_id: str
    severity: Severity
    path: str
    line: int
    message: str
    symbol: str = field(default="")
    witness: tuple[str, ...] = field(default=())

    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline.

        Two findings with the same rule, file, symbol and message share a
        fingerprint; the baseline stores a *count* per fingerprint so a
        file may carry several identical legacy findings.  A non-empty
        witness chain participates too (appended, so per-file rule
        fingerprints are unchanged from the pre-witness format).
        """
        raw = "|".join((self.rule_id, self.path, self.symbol, self.message))
        if self.witness:
            raw += "|" + " -> ".join(self.witness)
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:20]

    def render(self) -> str:
        """The text reporter's one-line form."""
        where = f"{self.path}:{self.line}"
        subject = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule_id} {self.severity}:{subject} {self.message}"

    def sort_key(self) -> tuple[str, int, str, str]:
        """Stable ordering: by file, then line, then rule, then message."""
        return (self.path, self.line, self.rule_id, self.message)
