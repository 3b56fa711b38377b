"""The AST-walking analysis engine: files in, findings out.

The engine owns the mechanics every rule shares — collecting ``.py``
files from path arguments, parsing them once, normalizing display paths
(relative, POSIX-style, so baselines are portable between machines and
CI), asking each applicable rule for findings and returning them in a
stable order.  Unparsable files are themselves findings
(``REPRO-SYNTAX``), not crashes: a syntax error in the tree is exactly
the kind of defect a CI gate must surface.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, SourceFile, all_rules
from repro.util.errors import ValidationError

__all__ = [
    "AnalysisEngine",
    "collect_python_files",
    "display_path",
    "find_project_root",
    "SYNTAX_RULE_ID",
]

SYNTAX_RULE_ID = "REPRO-SYNTAX"

_SKIPPED_DIRS = frozenset({"__pycache__", "build", "dist", ".git"})


def collect_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Every ``.py`` file under the given files/directories, sorted.

    Hidden directories, hidden *files* (``.hidden.py`` at any depth),
    ``__pycache__`` and build trees are skipped.  Raises
    :class:`~repro.util.errors.ValidationError` for a path that does not
    exist — a typo'd CI invocation must fail loudly, not gate on an
    empty file set.
    """
    collected: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            collected.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = candidate.relative_to(path).parts
                if any(p in _SKIPPED_DIRS or p.startswith(".") for p in parts):
                    continue
                collected.add(candidate)
        else:
            raise ValidationError(f"no such file or directory: {path}")
    return sorted(collected)


def find_project_root(start: Path) -> Path | None:
    """Nearest ancestor of ``start`` (inclusive) holding a ``pyproject.toml``."""
    anchor = start if start.is_dir() else start.parent
    for candidate in (anchor, *anchor.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def _display_path(path: Path) -> str:
    """Portable display path, POSIX-style.

    Anchored to the *project root* (the nearest ancestor with a
    ``pyproject.toml``) rather than the working directory, so a baseline
    written from the repo root and a CLI invocation from a subdirectory
    fingerprint the same file identically.  Files outside any project
    fall back to the old cwd-relative behaviour.
    """
    resolved = path.resolve()
    root = find_project_root(resolved)
    if root is not None:
        try:
            return resolved.relative_to(root).as_posix()
        except ValueError:  # pragma: no cover - root is an ancestor by construction
            pass
    try:
        rel = resolved.relative_to(Path.cwd().resolve())
    except ValueError:
        rel = path
    return rel.as_posix()


#: Public alias — the whole-program analyzer renders paths identically.
display_path = _display_path


class AnalysisEngine:
    """Runs a rule set over sources and returns sorted findings."""

    def __init__(self, rules: Iterable[Rule] | None = None):
        self.rules: list[Rule] = list(rules) if rules is not None else all_rules()

    def analyze_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Lint one source string (the unit tests' entry point)."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            return [
                Finding(
                    rule_id=SYNTAX_RULE_ID,
                    path=path,
                    line=error.lineno or 0,
                    message=f"file does not parse: {error.msg}",
                )
            ]
        sf = SourceFile(path=path, source=source, tree=tree)
        findings: list[Finding] = []
        for rule in self.rules:
            if rule.applies_to(path):
                findings.extend(rule.check(sf))
        return sorted(findings, key=Finding.sort_key)

    def analyze_file(self, path: str | Path) -> list[Finding]:
        """Lint one file from disk."""
        file_path = Path(path)
        source = file_path.read_text(encoding="utf-8")
        return self.analyze_source(source, _display_path(file_path))

    def analyze_paths(self, paths: Sequence[str | Path]) -> list[Finding]:
        """Lint every ``.py`` file under ``paths``; sorted findings."""
        findings: list[Finding] = []
        for file_path in collect_python_files(paths):
            findings.extend(self.analyze_file(file_path))
        return sorted(findings, key=Finding.sort_key)
