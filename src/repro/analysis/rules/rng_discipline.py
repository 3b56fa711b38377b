"""REPRO-RNG001 — rng-discipline: all randomness flows through named streams.

Every stochastic component draws from a named sub-stream of
:class:`repro.util.rng.RngStreams`; that is what makes simulation runs
reproducible under a seed and keeps cross-configuration comparisons
low-variance (common random numbers).  A single bare
``random.random()`` or ``np.random.default_rng()`` anywhere in the
simulator silently breaks both properties, so this rule flags:

* calls through the stdlib ``random`` module (``random.random()``,
  ``random.Random(...)``, any alias);
* calls through NumPy's module-level generator (``np.random.<fn>(...)``
  under any import spelling), including ``default_rng`` — constructing
  generators is :mod:`repro.util.rng`'s job;
* ``from random import ...`` / ``from numpy.random import ...`` value
  imports (class-only imports like ``Generator`` are fine: annotating
  with ``np.random.Generator`` is the encouraged style).

``repro/util/rng.py`` itself is exempt — it is the one sanctioned
construction site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.rules.base import Rule, SourceFile, register

__all__ = ["RngDisciplineRule"]

# Class/type names whose import from numpy.random carries no entropy.
_TYPE_ONLY = frozenset({"Generator", "BitGenerator", "SeedSequence", "Philox", "PCG64"})

_ALLOWED_PATH_SUFFIXES = ("repro/util/rng.py", "util/rng.py")


@register
class RngDisciplineRule(Rule):
    """Flag module-level RNG use outside :mod:`repro.util.rng`."""

    rule_id = "REPRO-RNG001"
    name = "rng-discipline"
    description = (
        "bare random.* / np.random.* call outside repro.util.rng; draw from "
        "a named RngStreams sub-stream so runs reproduce under a seed"
    )

    def applies_to(self, path: str) -> bool:
        """Every file except the sanctioned stream factory."""
        normalized = path.replace("\\", "/")
        return not normalized.endswith(_ALLOWED_PATH_SUFFIXES)

    def check(self, sf: SourceFile) -> Iterator:
        """Two passes: classify the file's imports, then audit the calls."""
        random_aliases: set[str] = set()  # names bound to the stdlib module
        numpy_aliases: set[str] = set()  # names bound to the numpy package
        npr_aliases: set[str] = set()  # names bound to numpy.random itself

        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        random_aliases.add(bound)
                    elif alias.name == "numpy":
                        numpy_aliases.add(bound)
                    elif alias.name == "numpy.random":
                        if alias.asname is not None:
                            npr_aliases.add(alias.asname)
                        else:
                            numpy_aliases.add("numpy")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    names = ", ".join(a.name for a in node.names)
                    yield self.finding(
                        sf,
                        node,
                        f"'from random import {names}': stdlib RNG functions "
                        "bypass the seeded stream registry",
                        symbol="import",
                    )
                elif node.module == "numpy.random":
                    flagged = [a.name for a in node.names if a.name not in _TYPE_ONLY]
                    if flagged:
                        yield self.finding(
                            sf,
                            node,
                            f"'from numpy.random import {', '.join(flagged)}': "
                            "construct generators via repro.util.rng.spawn_rng",
                            symbol="import",
                        )
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            npr_aliases.add(alias.asname or "random")

        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            rendered = self._rng_call(func, random_aliases, numpy_aliases, npr_aliases)
            if rendered is not None:
                yield self.finding(
                    sf,
                    node,
                    f"bare RNG call '{rendered}(...)' breaks seeded "
                    "reproducibility; use a repro.util.rng stream",
                    symbol=rendered,
                )

    @staticmethod
    def _rng_call(
        func: ast.Attribute,
        random_aliases: set[str],
        numpy_aliases: set[str],
        npr_aliases: set[str],
    ) -> str | None:
        """Dotted name when ``func`` targets a module-level RNG, else None."""
        # random.<fn> / npr.<fn>  (one attribute hop off a module alias)
        if isinstance(func.value, ast.Name):
            root = func.value.id
            if root in random_aliases:
                return f"{root}.{func.attr}"
            if root in npr_aliases and func.attr not in _TYPE_ONLY:
                return f"{root}.{func.attr}"
            return None
        # np.random.<fn>  (two hops off a numpy alias)
        if (
            isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in numpy_aliases
            and func.attr not in _TYPE_ONLY
        ):
            return f"{func.value.value.id}.random.{func.attr}"
        return None
