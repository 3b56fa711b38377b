"""The finding reporter behind both CLIs' output.

It receives the *new* findings (post-baseline) plus the suppressed
count, so the same render path serves interactive use and the CI gate.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.findings import Finding, Severity

__all__ = ["render_text"]


def render_text(findings: Sequence[Finding], *, suppressed: int = 0) -> str:
    """One ``path:line: RULE severity: message`` line per finding + summary."""
    lines = [finding.render() for finding in findings]
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    summary = (
        f"{len(findings)} new finding(s): {errors} error(s), {warnings} warning(s)"
        if findings
        else "clean: no new findings"
    )
    if suppressed:
        summary += f" ({suppressed} suppressed by baseline)"
    lines.append(summary)
    return "\n".join(lines)
