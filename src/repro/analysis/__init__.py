"""repro.analysis — static analysis gates for the codebase.

Two halves behind one findings/baseline/reporting pipeline:

* a **code linter** — an AST-walking engine with domain-specific rules
  (lock discipline for the concurrent serving layer, RNG and
  distribution discipline for seeded reproducibility, trace
  discipline for spans), a committed baseline so legacy findings don't
  block CI, and a ``python -m repro.analysis`` CLI whose exit code
  gates the build;
* a **whole-program analyzer** (:mod:`repro.analysis.project`) — parses
  the tree once into a module-qualified call graph and lock model, then
  runs interprocedural passes for lock-order deadlock cycles,
  blocking-under-lock, and entropy-to-artifact taint, via
  ``python -m repro.analysis project``.

Quick use::

    from repro.analysis import AnalysisEngine, analyze_project
    findings = AnalysisEngine().analyze_paths(["src"])
    program_findings = analyze_project(["src"])
"""

from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.engine import AnalysisEngine, collect_python_files
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectAnalyzer, ProjectConfig, analyze_project
from repro.analysis.reporters import render_text
from repro.analysis.rules import Rule, SourceFile, all_rules, register, resolve_rules

__all__ = [
    "AnalysisEngine",
    "Finding",
    "Rule",
    "SourceFile",
    "all_rules",
    "register",
    "resolve_rules",
    "collect_python_files",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
    "render_text",
    "ProjectAnalyzer",
    "ProjectConfig",
    "analyze_project",
]
