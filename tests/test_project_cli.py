"""Exit codes of the ``python -m repro.analysis project`` gate."""

import shutil
import time
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO = Path(__file__).parent.parent


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        code = main(["project", str(FIXTURES / "project_clean"), "--no-baseline"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_deadlock_fixture_exits_one(self, capsys):
        code = main(["project", str(FIXTURES / "project_deadlock"), "--no-baseline"])
        assert code == 1
        assert "REPRO-DEADLOCK001" in capsys.readouterr().out

    def test_pass_selection_can_blank_a_bad_tree(self, capsys):
        code = main(
            [
                "project",
                str(FIXTURES / "project_blocking"),
                "--no-baseline",
                "--pass",
                "deadlock",
            ]
        )
        assert code == 0

    def test_baseline_round_trip(self, tmp_path, capsys):
        baseline = tmp_path / "project-baseline.json"
        assert (
            main(
                [
                    "project",
                    str(FIXTURES / "project_blocking"),
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "project",
                    str(FIXTURES / "project_blocking"),
                    "--baseline",
                    str(baseline),
                ]
            )
            == 0
        )

    def test_no_baseline_conflicts_with_baseline(self, tmp_path, capsys):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "project",
                    str(FIXTURES / "project_clean"),
                    "--baseline",
                    str(tmp_path / "b.json"),
                    "--no-baseline",
                ]
            )
        assert excinfo.value.code == 2


class TestRepositoryGate:
    """The acceptance contract CI enforces on this very repo."""

    def test_src_is_clean_under_committed_baseline_within_budget(self, capsys):
        start = time.perf_counter()
        code = main(["project", str(REPO / "src")])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 10.0

    def test_seeded_deadlock_fails_the_gate(self, tmp_path, capsys):
        """Copy the tree, smuggle in an AB-BA cycle, and the gate must trip."""
        shutil.copy(REPO / "pyproject.toml", tmp_path / "pyproject.toml")
        shutil.copy(
            REPO / ".analysis-project-baseline.json",
            tmp_path / ".analysis-project-baseline.json",
        )
        shutil.copytree(REPO / "src", tmp_path / "src")
        shutil.copy(
            FIXTURES / "project_deadlock" / "ab.py",
            tmp_path / "src" / "repro" / "service" / "seeded_ab.py",
        )
        code = main(["project", str(tmp_path / "src")])
        assert code == 1
        assert "REPRO-DEADLOCK001" in capsys.readouterr().out
