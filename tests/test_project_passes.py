"""The three whole-program passes against their known-bad specimens."""

from pathlib import Path

from repro.analysis.project import ProjectAnalyzer, ProjectConfig, analyze_project

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def findings_for(package: str, config: ProjectConfig | None = None):
    return ProjectAnalyzer(config).analyze_paths([FIXTURES / package])


class TestDeadlockPass:
    def test_ab_ba_cycle_reported_with_both_locks(self):
        found = [
            f
            for f in findings_for("project_deadlock")
            if "lock-order cycle" in f.message
        ]
        assert len(found) == 1
        finding = found[0]
        assert finding.rule_id == "REPRO-DEADLOCK001"
        assert "ab.Left._lock" in finding.message
        assert "ab.Right._lock" in finding.message

    def test_cycle_message_contains_witnessing_call_chain(self):
        (finding,) = [
            f
            for f in findings_for("project_deadlock")
            if "lock-order cycle" in f.message
        ]
        assert finding.witness
        # The dynamic-dispatch leg of the cycle is spelled out in full.
        assert "ab.Right.backward -> ab.Right._delegate -> ab.Left.forward" in (
            finding.message
        )

    def test_helper_reacquisition_of_plain_lock_is_self_deadlock(self):
        found = [
            f
            for f in findings_for("project_deadlock")
            if "self_deadlock.Counter._lock" in f.message
        ]
        assert len(found) == 1
        assert "self-deadlock" in found[0].message
        assert found[0].witness == (
            "self_deadlock.Counter.bump",
            "self_deadlock.Counter._audit",
        )


class TestBlockingPass:
    def test_probe_slot_leak_pattern_fully_flagged(self):
        """The synthetic replay of the breaker probe-slot leak: injector
        consultation, pool submit and future join all under the lock."""
        found = [
            f
            for f in findings_for("project_blocking")
            if f.symbol == "probe_leak.LeakyBreaker.allow"
        ]
        descs = sorted(f.message.split("'")[1] for f in found)
        assert descs == [
            "fut.result",
            "probe_leak.FaultInjector.fire",
            "self._pool.submit",
        ]
        assert all("LeakyBreaker._lock" in f.message for f in found)

    def test_interprocedural_sleep_carries_witness_chain(self):
        (finding,) = [
            f
            for f in findings_for("project_blocking")
            if f.symbol == "probe_leak.Throttler.tick"
        ]
        assert "time.sleep" in finding.message
        assert finding.witness == (
            "probe_leak.Throttler.tick",
            "probe_leak.Throttler._backoff",
        )
        assert "probe_leak.Throttler.tick -> probe_leak.Throttler._backoff" in (
            finding.message
        )


class TestEntropyPass:
    def test_time_reaches_writer_through_helper(self):
        found = [
            f
            for f in findings_for("project_entropy")
            if f.symbol == "writer.publish"
        ]
        assert len(found) == 1
        assert "time.time" in found[0].message
        assert found[0].witness == ("writer.publish", "writer.stamp")

    def test_set_order_reaches_json_dump(self):
        found = [
            f
            for f in findings_for("project_entropy")
            if f.symbol == "writer.leaky_order"
        ]
        assert len(found) == 2
        assert any("open(mode='w')" in f.message for f in found)
        assert any("'json.dump'" in f.message for f in found)
        assert all("hash order" in f.message for f in found)

    def test_entropy_neutral_module_suppresses_the_flow(self):
        config = ProjectConfig(entropy_neutral_modules=("writer",))
        assert findings_for("project_entropy", config) == []


class TestCleanAndSelection:
    def test_clean_fixture_produces_zero_findings(self):
        assert findings_for("project_clean") == []

    def test_pass_selection_restricts_rules(self):
        config = ProjectConfig(passes=("deadlock",))
        found = findings_for("project_blocking", config)
        assert found == []

    def test_analyze_project_runs_all_passes_at_once(self):
        found = analyze_project(
            [
                FIXTURES / "project_deadlock",
                FIXTURES / "project_blocking",
                FIXTURES / "project_entropy",
            ]
        )
        assert {f.rule_id for f in found} == {
            "REPRO-DEADLOCK001",
            "REPRO-BLOCK001",
            "REPRO-ENTROPY001",
        }

    def test_witness_extends_the_fingerprint(self):
        (finding,) = [
            f
            for f in findings_for("project_blocking")
            if f.symbol == "probe_leak.Throttler.tick"
        ]
        stripped = type(finding)(
            rule_id=finding.rule_id,
            severity=finding.severity,
            path=finding.path,
            line=finding.line,
            message=finding.message,
            symbol=finding.symbol,
        )
        assert stripped.fingerprint() != finding.fingerprint()
