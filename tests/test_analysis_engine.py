"""Engine mechanics: file collection, fingerprints, baseline, reporters."""

from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisEngine,
    apply_baseline,
    collect_python_files,
    load_baseline,
    render_text,
    write_baseline,
)
from repro.analysis.findings import Finding
from repro.util.errors import ValidationError

FIXTURES = Path(__file__).parent / "analysis_fixtures"


class TestCollection:
    def test_fixture_directory_collected_recursively(self):
        names = {p.name for p in collect_python_files([FIXTURES])}
        assert {"racy_timer.py", "safe_timer.py", "bare_random.py"} <= names

    def test_single_file_accepted(self):
        files = collect_python_files([FIXTURES / "racy_timer.py"])
        assert [p.name for p in files] == ["racy_timer.py"]

    def test_hidden_and_cache_dirs_skipped(self, tmp_path):
        (tmp_path / "keep.py").write_text("x = 1\n")
        for skipped in (".hidden", "__pycache__", "build"):
            d = tmp_path / skipped
            d.mkdir()
            (d / "drop.py").write_text("x = 1\n")
        assert [p.name for p in collect_python_files([tmp_path])] == ["keep.py"]

    def test_hidden_files_skipped_not_just_hidden_dirs(self, tmp_path):
        """Regression: the hidden check once looked only at parent parts,
        so `.hidden.py` itself slipped through collection."""
        (tmp_path / "keep.py").write_text("x = 1\n")
        (tmp_path / ".hidden.py").write_text("x = 1\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / ".sneaky.py").write_text("x = 1\n")
        (sub / "fine.py").write_text("x = 1\n")
        names = [p.name for p in collect_python_files([tmp_path])]
        assert sorted(names) == ["fine.py", "keep.py"]

    def test_missing_path_raises(self):
        with pytest.raises(ValidationError, match="no such file"):
            collect_python_files(["no/such/path"])


class TestDisplayPaths:
    def test_paths_anchor_to_project_root_not_cwd(self, tmp_path, monkeypatch):
        """Regression: paths were relativized against cwd, so running the
        gate from a subdirectory produced fingerprints that missed every
        baseline entry written from the repo root."""
        from repro.analysis.engine import display_path, find_project_root

        (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        mod = pkg / "mod.py"
        mod.write_text("x = 1\n")

        monkeypatch.chdir(pkg)
        assert find_project_root(mod) == tmp_path
        assert display_path(Path("mod.py")) == "pkg/mod.py"
        monkeypatch.chdir(tmp_path)
        assert display_path(pkg / "mod.py") == "pkg/mod.py"

    def test_paths_fall_back_to_cwd_without_a_project_root(self, tmp_path, monkeypatch):
        pkg = tmp_path / "loose"
        pkg.mkdir()
        (pkg / "mod.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        from repro.analysis.engine import display_path

        assert display_path(pkg / "mod.py") == "loose/mod.py"


class TestEngine:
    def test_syntax_error_becomes_a_finding(self):
        found = AnalysisEngine().analyze_source("def broken(:\n", "src/repro/x.py")
        assert [f.rule_id for f in found] == ["REPRO-SYNTAX"]

    def test_findings_are_sorted_and_stable(self):
        engine = AnalysisEngine()
        found = engine.analyze_paths([FIXTURES])
        assert found == sorted(found, key=lambda f: f.sort_key())
        assert found == engine.analyze_paths([FIXTURES])

    def test_full_default_registry_covers_all_fixture_rules(self):
        found = AnalysisEngine().analyze_paths([FIXTURES])
        assert {f.rule_id for f in found} == {
            "REPRO-LOCK001",
            "REPRO-RNG001",
            "REPRO-TRC001",
            "REPRO-DIST001",
            # project_callgraph/broken.py is deliberately unparsable.
            "REPRO-SYNTAX",
        }


class TestFingerprints:
    def test_fingerprint_is_line_independent(self):
        """Inserting lines above a finding must not invalidate the baseline."""
        engine = AnalysisEngine()
        src = "import random\n\ndef f():\n    return random.random()\n"
        shifted = "\n\n" + src
        a = engine.analyze_source(src, "src/repro/x.py")
        b = engine.analyze_source(shifted, "src/repro/x.py")
        assert a[0].line != b[0].line
        assert a[0].fingerprint() == b[0].fingerprint()

    def test_fingerprint_depends_on_path_and_rule(self):
        f1 = Finding("R1", "a.py", 1, "m")
        f2 = Finding("R1", "b.py", 1, "m")
        f3 = Finding("R2", "a.py", 1, "m")
        assert len({f1.fingerprint(), f2.fingerprint(), f3.fingerprint()}) == 3


class TestBaseline:
    def test_round_trip_suppresses_everything(self, tmp_path):
        engine = AnalysisEngine()
        found = engine.analyze_paths([FIXTURES])
        assert found
        path = tmp_path / "baseline.json"
        assert write_baseline(found, path) == len(found)
        new, suppressed = apply_baseline(found, load_baseline(path))
        assert new == []
        assert suppressed == len(found)

    def test_new_findings_survive_the_baseline(self, tmp_path):
        engine = AnalysisEngine()
        found = engine.analyze_paths([FIXTURES])
        path = tmp_path / "baseline.json"
        write_baseline(found[:-1], path)
        new, suppressed = apply_baseline(found, load_baseline(path))
        assert new == [found[-1]]
        assert suppressed == len(found) - 1

    def test_counts_cap_duplicate_fingerprints(self):
        finding = Finding("R1", "a.py", 1, "m")
        twice = [finding, finding]
        new, suppressed = apply_baseline(twice, {finding.fingerprint(): 1})
        assert suppressed == 1
        assert new == [finding]

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="baseline"):
            load_baseline(tmp_path / "absent.json")

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValidationError):
            load_baseline(path)

    def test_committed_baseline_matches_fixture_findings(self):
        """The repo's own gate: src+tests must be clean under the committed
        baseline, which exists solely to carry the fixture findings."""
        repo = Path(__file__).parent.parent
        engine = AnalysisEngine()
        found = engine.analyze_paths([repo / "src", repo / "tests"])
        new, suppressed = apply_baseline(
            found, load_baseline(repo / ".analysis-baseline.json")
        )
        assert new == []
        assert suppressed == len(found) > 0


class TestReporters:
    def test_text_summarises_findings_and_suppression(self):
        f = Finding("R1", "a.py", 3, "boom", symbol="S")
        text = render_text([f], suppressed=2)
        assert "a.py:3: R1: [S] boom" in text
        assert "1 new finding(s) (2 suppressed by baseline)" in text

    def test_text_clean(self):
        assert "clean" in render_text([], suppressed=0)
