"""The code-lint rule set; importing this package registers every rule.

Current rules (one module each):

==============  ====================  =====================================
rule id         name                  defect class
==============  ====================  =====================================
REPRO-DIST001   dist-discipline       workload sampling with hidden entropy
REPRO-LOCK001   lock-discipline       lock-guarded state accessed bare
REPRO-RNG001    rng-discipline        unseeded module-level RNG use
REPRO-TRC001    trace-discipline      spans driven by bare begin()/end()
==============  ====================  =====================================

To add a rule: new module here, subclass
:class:`~repro.analysis.rules.base.Rule`, decorate with
:func:`~repro.analysis.rules.base.register`, import it below, and add
positive/negative fixtures under ``tests/analysis_fixtures/``.
"""

from repro.analysis.rules import (  # noqa: F401  (imports register the rules)
    dist_discipline,
    lock_discipline,
    rng_discipline,
    trace_discipline,
)
from repro.analysis.rules.base import Rule, SourceFile, all_rules, register, resolve_rules

__all__ = ["Rule", "SourceFile", "all_rules", "register", "resolve_rules"]
