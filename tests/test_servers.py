"""Unit tests for the server catalogue and max-throughput benchmarking."""

import pytest

from repro.servers.architecture import DatabaseArchitecture, ServerArchitecture
from repro.servers.benchmarking import measure_max_throughput
from repro.servers.catalogue import (
    ALL_APP_SERVERS,
    APP_SERV_F,
    APP_SERV_S,
    APP_SERV_VF,
    ESTABLISHED_SERVERS,
    NEW_SERVERS,
    PAPER_MAX_THROUGHPUTS,
    architecture,
)
from repro.util.errors import ValidationError


class TestArchitecture:
    def test_speed_scaling(self):
        arch = ServerArchitecture(name="x", cpu_speed=2.0)
        assert arch.scaled_demand_ms(10.0) == 5.0

    def test_heap_bytes(self):
        arch = ServerArchitecture(name="x", cpu_speed=1.0, heap_mb=128)
        assert arch.heap_bytes() == 128 * 1024 * 1024

    def test_as_new_flag(self):
        assert APP_SERV_F.as_new().established is False
        assert APP_SERV_F.established is True

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValidationError):
            ServerArchitecture(name="x", cpu_speed=0.0)

    def test_database_architecture_defaults(self):
        db = DatabaseArchitecture(name="db", cpu_speed=1.0)
        assert db.max_concurrency == 20


class TestCatalogue:
    def test_speed_ratios_derive_from_paper_throughputs(self):
        assert APP_SERV_S.cpu_speed == pytest.approx(86 / 186)
        assert APP_SERV_F.cpu_speed == 1.0
        assert APP_SERV_VF.cpu_speed == pytest.approx(320 / 186)

    def test_heap_sizes(self):
        assert APP_SERV_S.heap_mb == 128
        assert APP_SERV_F.heap_mb == 256

    def test_groups(self):
        assert set(ALL_APP_SERVERS) == set(ESTABLISHED_SERVERS) | set(NEW_SERVERS)
        assert APP_SERV_S in NEW_SERVERS
        assert APP_SERV_F in ESTABLISHED_SERVERS

    def test_lookup(self):
        assert architecture("AppServVF") is APP_SERV_VF

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            architecture("AppServX")

    def test_paper_throughputs_recorded(self):
        assert PAPER_MAX_THROUGHPUTS["AppServF"] == 186.0


class TestBenchmarking:
    @pytest.mark.slow
    def test_measured_max_throughput_matches_design(self):
        result = measure_max_throughput(
            APP_SERV_F, duration_s=30.0, warmup_s=8.0, seed=3
        )
        assert result.max_throughput_req_per_s == pytest.approx(186.0, rel=0.06)
        assert result.runs >= 2

    @pytest.mark.slow
    def test_speed_ratio_close_to_catalogue(self):
        new, established = (
            measure_max_throughput(arch, duration_s=25.0, warmup_s=6.0, seed=3)
            for arch in (APP_SERV_S, APP_SERV_F)
        )
        ratio = new.max_throughput_req_per_s / established.max_throughput_req_per_s
        assert ratio == pytest.approx(86 / 186, rel=0.08)
