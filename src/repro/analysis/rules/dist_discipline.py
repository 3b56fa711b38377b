"""REPRO-DIST001 — dist-discipline: workload sampling takes an explicit RNG.

The workload-characterization pipeline regenerates traces from fitted
distributions, and its whole value proposition is that a (spec, seed)
pair reproduces byte-identically.  That breaks the moment any sampling
path reaches hidden entropy, which in practice arrives two ways:

* a sampling function that does not *accept* a generator — it can only
  get randomness from module-level state, and REPRO-RNG001 cannot see
  the leak until the call site exists;
* a SciPy ``.rvs(...)`` call without ``random_state=`` — frozen
  distributions silently fall back to NumPy's global generator.

So, within workload-characterization modules, this rule flags:

* ``def sample*(...)`` (function or method) with no ``rng`` parameter —
  samplers must be handed a stream spawned via
  :func:`repro.util.rng.spawn_rng`;
* any ``<obj>.rvs(...)`` call lacking a ``random_state`` keyword.

The rule patrols paths containing a ``workload`` fragment only: the
``repro.workload`` package, the ``workloads`` experiment and their tests.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Severity
from repro.analysis.rules.base import Rule, SourceFile, register

__all__ = ["DistDisciplineRule"]

#: Path fragments naming the modules under this rule's jurisdiction.
_SCOPE_MARKERS = ("workload",)


def _has_rng_parameter(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether any positional/keyword parameter is named ``rng``."""
    args = node.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    return any(arg.arg == "rng" for arg in every)


@register
class DistDisciplineRule(Rule):
    """Flag hidden-entropy sampling paths in workload modules."""

    rule_id = "REPRO-DIST001"
    name = "dist-discipline"
    severity = Severity.ERROR
    description = (
        "distribution sampling in workload modules must take an explicit "
        "rng (spawn_rng stream); no sample*() without an rng parameter, "
        "no .rvs() without random_state="
    )

    def applies_to(self, path: str) -> bool:
        """Only workload-characterization paths are patrolled."""
        normalized = path.replace("\\", "/")
        return any(marker in normalized for marker in _SCOPE_MARKERS)

    def check(self, sf: SourceFile) -> Iterator:
        """Audit sampler signatures and ``.rvs`` call sites."""
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("sample") and not _has_rng_parameter(node):
                    yield self.finding(
                        sf,
                        node,
                        f"sampler '{node.name}' takes no 'rng' parameter; pass a "
                        "generator from repro.util.rng.spawn_rng so regeneration "
                        "reproduces under a seed",
                        symbol=node.name,
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "rvs"
                    and not any(kw.arg == "random_state" for kw in node.keywords)
                ):
                    yield self.finding(
                        sf,
                        node,
                        ".rvs(...) without random_state= draws from NumPy's "
                        "global generator; pass the stream's Generator explicitly",
                        symbol="rvs",
                    )
