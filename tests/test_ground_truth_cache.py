"""Tests for the memoised ground-truth measurement layer."""

import ast
from pathlib import Path

import pytest

from repro.experiments import ground_truth as gt

REPRO = Path(gt.__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the disk cache at a temp dir and clear the memory cache.

    The disk cache is what these tests exercise, so it is switched on even
    when the suite runs under ``REPRO_NO_DISK_CACHE``.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    gt.clear_memory_cache()
    yield tmp_path
    gt.clear_memory_cache()


class TestMeasuredPointCache:
    def test_memoised_in_process(self, isolated_cache):
        a = gt.measured_point("AppServF", 60, fast=True)
        b = gt.measured_point("AppServF", 60, fast=True)
        assert a is b  # same object: memory cache hit

    def test_disk_cache_survives_memory_clear(self, isolated_cache):
        a = gt.measured_point("AppServF", 60, fast=True)
        files_before = list((isolated_cache / ".repro-cache").rglob("*.pkl"))
        assert files_before
        gt.clear_memory_cache()
        b = gt.measured_point("AppServF", 60, fast=True)
        assert a is not b
        assert b.mean_response_ms == a.mean_response_ms  # loaded from disk

    def test_different_parameters_different_entries(self, isolated_cache):
        a = gt.measured_point("AppServF", 60, fast=True)
        b = gt.measured_point("AppServF", 80, fast=True)
        assert a is not b

    def test_disk_cache_disabled_by_env(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        gt.measured_point("AppServF", 60, fast=True)
        assert not (isolated_cache / ".repro-cache").exists()

    def test_seed_offset_changes_run(self, isolated_cache):
        a = gt.measured_point("AppServF", 60, fast=True)
        b = gt.measured_point("AppServF", 60, fast=True, seed_offset=5)
        assert a.mean_response_ms != b.mean_response_ms


class TestDerivedCaches:
    def test_benchmarked_max_throughput_cached_and_sane(self, isolated_cache):
        first = gt.benchmarked_max_throughput("AppServF", fast=True)
        second = gt.benchmarked_max_throughput("AppServF", fast=True)
        assert first == second
        assert first == pytest.approx(186.0, rel=0.08)

    def test_mix_observations_ordered(self, isolated_cache):
        observations = gt.lqn_mix_observations(fast=True)
        assert [b for b, _ in observations] == [0.0, 0.25]
        assert observations[1][1] < observations[0][1]


class TestSourceDigestKey:
    """Disk entries are keyed by the sources that produce them, so a code
    change there cannot be served results the old code measured."""

    @pytest.fixture
    def fake_sources(self, tmp_path, monkeypatch):
        package = tmp_path / "sources" / "simulation"
        package.mkdir(parents=True)
        module = package / "engine.py"
        module.write_text("EVENTS = 1\n", encoding="utf-8")
        monkeypatch.setattr(gt, "_SOURCE_DIRS", (package,))
        gt._source_digest.cache_clear()
        yield module
        gt._source_digest.cache_clear()

    def test_editing_a_source_misses_the_disk_cache(self, isolated_cache, fake_sources):
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        assert gt._cached(("probe",), compute) == 1
        gt.clear_memory_cache()
        assert gt._cached(("probe",), compute) == 1  # unchanged source: disk hit
        assert len(calls) == 1

        fake_sources.write_text("EVENTS = 2\n", encoding="utf-8")
        gt._source_digest.cache_clear()
        gt.clear_memory_cache()
        assert gt._cached(("probe",), compute) == 2  # edited source: miss
        assert len(calls) == 2
        # The first write under the new digest removed the old digest's entry.
        assert len(list((isolated_cache / ".repro-cache").rglob("*.pkl"))) == 1

    def test_entries_live_in_one_directory_per_digest(self, isolated_cache, fake_sources):
        cache = isolated_cache / ".repro-cache"
        stale_digest = cache / "0123456789abcdef"
        stale_digest.mkdir(parents=True)
        (stale_digest / "old.pkl").write_bytes(b"")
        (cache / "flat-layout-entry.pkl").write_bytes(b"")

        gt._cached(("probe",), lambda: 1)
        current = cache / gt._source_digest()[:16]
        assert list(cache.iterdir()) == [current]
        assert len(list(current.glob("*.pkl"))) == 1

        # A hit writes nothing and prunes nothing; the next write does.
        stale_digest.mkdir()
        gt.clear_memory_cache()
        assert gt._cached(("probe",), lambda: 3) == 1
        assert stale_digest.exists()
        gt._cached(("another probe",), lambda: 2)
        assert list(cache.iterdir()) == [current]
        assert len(list(current.glob("*.pkl"))) == 2

    def test_digest_tracks_file_names_and_contents(self, fake_sources):
        before = gt._source_digest()
        gt._source_digest.cache_clear()
        assert gt._source_digest() == before  # deterministic
        (fake_sources.parent / "extra.py").write_text("", encoding="utf-8")
        gt._source_digest.cache_clear()
        assert gt._source_digest() != before

    def test_real_digest_covers_simulation_and_workload(self):
        assert [d.relative_to(REPRO).as_posix() for d in gt._SOURCE_DIRS] == [
            "simulation",
            "workload/operations.py",
            "workload/service_class.py",
            "workload/trade.py",
            "servers",
            "lqn/calibration.py",
            "util/rng.py",
        ]
        assert all(d.exists() for d in gt._SOURCE_DIRS)

    def test_digest_covers_every_module_a_measurement_imports(self):
        """Walk the ``repro.*`` imports from the simulator, the servers and
        the LQN calibration: each module reached under ``simulation``,
        ``servers``, ``workload`` or ``util/rng`` must be hashed.  Modules
        outside those (validation, units, errors, tracing) do not shape a
        measured value and are not followed."""
        tracked = ("simulation/", "servers/", "workload/", "util/rng.py")

        def covered(path: Path) -> bool:
            return any(path == d or d in path.parents for d in gt._SOURCE_DIRS)

        def imports(path: Path) -> set[Path]:
            found: set[Path] = set()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = (
                    [node.module or ""]
                    if isinstance(node, ast.ImportFrom)
                    else [alias.name for alias in node.names]
                    if isinstance(node, ast.Import)
                    else []
                )
                for name in names:
                    if name.startswith("repro."):
                        module = REPRO.joinpath(*name.split(".")[1:])
                        found.add(
                            module / "__init__.py" if module.is_dir() else module.with_suffix(".py")
                        )
            return found

        roots = [
            *(REPRO / "simulation").glob("*.py"),
            *(REPRO / "servers").glob("*.py"),
            REPRO / "lqn" / "calibration.py",
        ]
        seen: set[Path] = set()
        pending = list(roots)
        while pending:
            path = pending.pop()
            if path in seen:
                continue
            seen.add(path)
            for module in imports(path):
                relative = module.relative_to(REPRO).as_posix()
                if relative.startswith(tracked):
                    assert covered(module), f"{path.name} imports {relative}, not in the digest"
                    pending.append(module)
        assert REPRO / "util" / "rng.py" in seen

    def test_real_digest_reads_the_server_specs_benchmark_and_calibration(
        self, monkeypatch
    ):
        """Measurements are keyed by server name and the LQN calibration is
        disk-cached, so the catalogue, the max-throughput benchmark and the
        calibration module must all move the digest."""
        read: list[Path] = []
        original = Path.read_bytes

        def recording_read_bytes(path: Path) -> bytes:
            read.append(path)
            return original(path)

        monkeypatch.setattr(Path, "read_bytes", recording_read_bytes)
        gt._source_digest.cache_clear()
        try:
            gt._source_digest()
        finally:
            gt._source_digest.cache_clear()
        names = {path.relative_to(path.parents[1]).as_posix() for path in read}
        assert {
            "servers/catalogue.py",
            "servers/benchmarking.py",
            "lqn/calibration.py",
        } <= names
