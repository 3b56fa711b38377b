"""Tests for the memoised ground-truth measurement layer."""

import os

import pytest

from repro.experiments import ground_truth as gt


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
        files_before = list((isolated_cache / ".repro-cache").glob("*.pkl"))
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
    """Disk entries are keyed by the simulator/workload sources, so a code
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
        assert len(list((isolated_cache / ".repro-cache").glob("*.pkl"))) == 2

    def test_digest_tracks_file_names_and_contents(self, fake_sources):
        before = gt._source_digest()
        gt._source_digest.cache_clear()
        assert gt._source_digest() == before  # deterministic
        (fake_sources.parent / "extra.py").write_text("", encoding="utf-8")
        gt._source_digest.cache_clear()
        assert gt._source_digest() != before

    def test_real_digest_covers_simulation_and_workload(self):
        assert [d.name for d in gt._SOURCE_DIRS] == ["simulation", "workload"]
        assert all((d / "__init__.py").is_file() for d in gt._SOURCE_DIRS)
