"""Per-rule behaviour of the repro.analysis code linter.

Each rule is driven with inline positive and negative snippets through
:meth:`AnalysisEngine.analyze_source`, plus the committed fixture files
under ``tests/analysis_fixtures/`` (whose expected findings double as
the committed baseline's contents).
"""

from pathlib import Path
from textwrap import dedent

from repro.analysis import AnalysisEngine
from repro.analysis.rules.base import resolve_rules

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def findings_for(rule_name: str, source: str, path: str = "src/repro/module.py"):
    engine = AnalysisEngine(resolve_rules([rule_name]))
    return engine.analyze_source(dedent(source), path)


class TestLockDiscipline:
    def test_pr1_race_fixture_is_flagged(self):
        """The serving layer's original timer race must be re-flagged."""
        engine = AnalysisEngine(resolve_rules(["lock-discipline"]))
        found = engine.analyze_file(FIXTURES / "racy_timer.py")
        assert [f.rule_id for f in found] == ["REPRO-LOCK001"] * 2
        assert {f.symbol for f in found} == {"RacyTimer.record"}
        assert any("evaluations" in f.message for f in found)
        assert any("total_time_s" in f.message for f in found)

    def test_locked_twin_is_silent(self):
        engine = AnalysisEngine(resolve_rules(["lock-discipline"]))
        assert engine.analyze_file(FIXTURES / "safe_timer.py") == []

    def test_constructor_writes_are_exempt(self):
        found = findings_for(
            "lock-discipline",
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1
            """,
        )
        assert found == []

    def test_bare_read_of_write_guarded_attr_is_flagged(self):
        found = findings_for(
            "lock-discipline",
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def peek(self):
                    return self.count
            """,
        )
        assert [f.symbol for f in found] == ["C.peek"]
        assert "read here" in found[0].message

    def test_read_only_attr_outside_lock_is_fine(self):
        """Reads of an attr that is only ever *read* under the lock are safe
        (immutable config consulted both inside and outside a section)."""
        found = findings_for(
            "lock-discipline",
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.bounds = (1, 2, 3)
                    self.total = 0

                def observe(self, x):
                    with self._lock:
                        self.total += self.bounds[0] + x

                def describe(self):
                    return len(self.bounds)
            """,
        )
        assert found == []

    def test_nested_function_under_lock_does_not_count_as_guarded(self):
        """A closure defined under the lock runs after release."""
        found = findings_for(
            "lock-discipline",
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.pending = 0

                def submit(self):
                    with self._lock:
                        def later():
                            self.pending += 1
                        return later
            """,
        )
        assert found == []

    def test_write_through_subscript_counts_as_write(self):
        found = findings_for(
            "lock-discipline",
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.cache = {}

                def put(self, k, v):
                    with self._lock:
                        self.cache[k] = v

                def put_unlocked(self, k, v):
                    self.cache[k] = v
            """,
        )
        assert [f.symbol for f in found] == ["C.put_unlocked"]

    def test_unlocked_class_is_out_of_scope(self):
        found = findings_for(
            "lock-discipline",
            """
            class C:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    self.count += 1
            """,
        )
        assert found == []


class TestRngDiscipline:
    def test_stdlib_and_numpy_module_calls_flagged(self):
        engine = AnalysisEngine(resolve_rules(["rng-discipline"]))
        found = engine.analyze_file(FIXTURES / "bare_random.py")
        assert {f.symbol for f in found} == {"random.random", "np.random.exponential"}

    def test_numpy_random_alias_flagged(self):
        found = findings_for(
            "rng-discipline",
            """
            import numpy.random as npr

            def draw():
                return npr.normal()
            """,
        )
        assert [f.symbol for f in found] == ["npr.normal"]

    def test_type_only_import_allowed(self):
        found = findings_for(
            "rng-discipline",
            """
            from numpy.random import Generator

            def use(rng: Generator) -> float:
                return float(rng.random())
            """,
        )
        assert found == []

    def test_from_random_import_flagged(self):
        found = findings_for(
            "rng-discipline",
            "from random import choice\n",
        )
        assert [f.rule_id for f in found] == ["REPRO-RNG001"]

    def test_sanctioned_construction_site_exempt(self):
        found = findings_for(
            "rng-discipline",
            """
            import numpy as np

            def spawn(seed):
                return np.random.default_rng(seed)
            """,
            path="src/repro/util/rng.py",
        )
        assert found == []


class TestTraceDiscipline:
    def test_bare_span_fixture_findings(self):
        engine = AnalysisEngine(resolve_rules(["trace-discipline"]))
        found = engine.analyze_file(FIXTURES / "bare_span.py")
        assert [f.rule_id for f in found] == ["REPRO-TRC001"] * 3
        assert [f.symbol for f in found] == [
            "TRACER.span",
            "span.begin",
            "span.end",
        ]

    def test_managed_span_fixture_is_silent(self):
        engine = AnalysisEngine(resolve_rules(["trace-discipline"]))
        assert engine.analyze_file(FIXTURES / "managed_span.py") == []

    def test_with_block_span_is_the_sanctioned_idiom(self):
        found = findings_for(
            "trace-discipline",
            """
            from repro.trace import TRACER

            def f(model):
                with TRACER.span("solve") as span:
                    span.set_attribute("ok", True)
                    return model.solve()
            """,
        )
        assert found == []

    def test_stored_span_call_is_flagged(self):
        found = findings_for(
            "trace-discipline",
            """
            from repro.trace import TRACER

            def f():
                handle = TRACER.span("solve")
                return handle
            """,
        )
        assert [f.symbol for f in found] == ["TRACER.span"]

    def test_instance_tracer_attribute_is_flagged(self):
        found = findings_for(
            "trace-discipline",
            """
            class C:
                def f(self):
                    s = self._tracer.span("work")
                    return s
            """,
        )
        assert [f.symbol for f in found] == ["_tracer.span"]

    def test_lifecycle_chained_off_span_call_is_flagged(self):
        found = findings_for(
            "trace-discipline",
            """
            from repro.trace import TRACER

            def f():
                TRACER.span("solve").begin()
            """,
        )
        # The span(...) call is a with-less open AND begin() drives it bare.
        assert {f.symbol for f in found} == {"TRACER.span", "span.begin"}

    def test_regex_match_end_is_not_a_span(self):
        found = findings_for(
            "trace-discipline",
            """
            import re

            def f(text):
                m = re.search(r"x+", text)
                return m.end() if m else -1
            """,
        )
        assert found == []

    def test_tracer_package_is_exempt(self):
        found = findings_for(
            "trace-discipline",
            """
            def close(span):
                span.end()
            """,
            path="src/repro/trace/tracer.py",
        )
        assert found == []


class TestDistDiscipline:
    def test_hidden_entropy_fixture_is_flagged_twice(self):
        """Both defect shapes: rng-less sampler and bare .rvs draw."""
        engine = AnalysisEngine(resolve_rules(["dist-discipline"]))
        found = engine.analyze_file(FIXTURES / "workloads_hidden_entropy.py")
        assert [f.rule_id for f in found] == ["REPRO-DIST001"] * 2
        assert {f.symbol for f in found} == {"sample_think_times", "rvs"}

    def test_seeded_twin_is_silent(self):
        engine = AnalysisEngine(resolve_rules(["dist-discipline"]))
        assert engine.analyze_file(FIXTURES / "workloads_seeded_sampler.py") == []

    def test_sampler_without_rng_is_flagged(self):
        found = findings_for(
            "dist-discipline",
            """
            def sample(n):
                return [0.0] * n
            """,
            path="src/repro/workload/dists.py",
        )
        assert [f.symbol for f in found] == ["sample"]

    def test_sampler_method_with_rng_is_silent(self):
        found = findings_for(
            "dist-discipline",
            """
            class Spec:
                def sample(self, rng, n):
                    return rng.exponential(1.0, n)
            """,
            path="src/repro/workload/dists.py",
        )
        assert found == []

    def test_rvs_with_random_state_is_silent(self):
        found = findings_for(
            "dist-discipline",
            """
            def draw(dist, rng, n):
                return dist.rvs(size=n, random_state=rng)
            """,
            path="src/repro/workload/fitting.py",
        )
        assert found == []

    def test_out_of_scope_paths_are_exempt(self):
        """The simulator's draws are REPRO-RNG001's beat."""
        found = findings_for(
            "dist-discipline",
            """
            def sample(self):
                return self._draw()
            """,
            path="src/repro/simulation/clients.py",
        )
        assert found == []
