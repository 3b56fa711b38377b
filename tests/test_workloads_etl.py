"""The CSV bridge: a saved arrival trace reloads into the same record set."""

from repro.workload.generators import generate_trace, load_trace_csv, save_trace_csv
from repro.workload.records import records_from_trace_entries
from repro.workload.trade import BROWSE_CLASS


class TestCsvBridge:
    def test_trace_round_trips_through_csv(self, tmp_path):
        """S1: generate -> save CSV -> ingest == ingest-in-memory."""
        trace = generate_trace(BROWSE_CLASS, 5.0, 60.0, seed=42, n_clients=10)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)

        direct = records_from_trace_entries(trace)
        loaded = records_from_trace_entries(load_trace_csv(path))

        assert len(loaded) == len(direct) == len(trace)
        assert [r.arrival_ms for r in loaded] == [r.arrival_ms for r in direct]
        assert [r.operation for r in loaded] == [r.operation for r in direct]
        assert loaded.statistics().to_dict() == direct.statistics().to_dict()
