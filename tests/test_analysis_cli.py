"""Exit-code contract of the ``python -m repro.analysis`` gate."""

from pathlib import Path

import pytest

from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

FIXTURES = Path(__file__).parent / "analysis_fixtures"


class TestExitCodes:
    def test_findings_exit_one(self, capsys):
        assert main([str(FIXTURES)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "REPRO-LOCK001" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f(x):\n    return x\n")
        assert main([str(tmp_path)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_baseline_suppression_exits_zero(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        assert (
            main([str(FIXTURES), "--baseline", str(baseline), "--write-baseline"])
            == EXIT_CLEAN
        )
        capsys.readouterr()
        assert main([str(FIXTURES), "--baseline", str(baseline)]) == EXIT_CLEAN
        assert "suppressed by baseline" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no/such/dir"])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_rule_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(FIXTURES), "--rule", "no-such-rule"])
        assert exc.value.code == EXIT_USAGE

    def test_unreadable_baseline_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([str(FIXTURES), "--baseline", str(tmp_path / "absent.json")])
        assert exc.value.code == EXIT_USAGE

    def test_write_baseline_requires_baseline_path(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(FIXTURES), "--write-baseline"])
        assert exc.value.code == EXIT_USAGE


class TestSelectionAndFormats:
    def test_rule_selection_by_name(self, capsys):
        assert main([str(FIXTURES), "--rule", "trace-discipline"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "REPRO-TRC001" in out
        assert "REPRO-LOCK001" not in out

    def test_rule_selection_by_id(self, capsys):
        assert main([str(FIXTURES), "--rule", "REPRO-DIST001"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "REPRO-DIST001" in out
        assert "REPRO-RNG001" not in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in (
            "REPRO-DIST001",
            "REPRO-LOCK001",
            "REPRO-RNG001",
            "REPRO-TRC001",
        ):
            assert rule_id in out


class TestRepoGate:
    def test_src_is_clean_without_any_baseline(self, capsys):
        """ISSUE acceptance: the shipped source carries zero findings."""
        repo = Path(__file__).parent.parent
        assert main([str(repo / "src")]) == EXIT_CLEAN
