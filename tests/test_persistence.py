"""Round-trip tests for LQN model serialisation and historical-data CSV."""

import json

import pytest

from repro.historical.datastore import HistoricalDataPoint, HistoricalDataStore
from repro.historical.persistence import load_store_csv, save_store_csv
from repro.lqn.builder import RequestTypeParameters, TradeModelParameters, build_trade_model
from repro.lqn.model import CallKind, Entry, LqnModel, Processor, Task
from repro.lqn.serialization import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.lqn.solver import LqnSolver
from repro.servers.catalogue import APP_SERV_F
from repro.util.errors import CalibrationError, ModelError
from repro.workload.trade import mixed_workload

PARAMS = TradeModelParameters(
    request_types={
        "browse": RequestTypeParameters(
            name="browse",
            app_demand_ms=5.376,
            db_calls=1.14,
            db_cpu_per_call_ms=0.8294,
            db_disk_per_call_ms=1.2,
        ),
        "buy": RequestTypeParameters(
            name="buy",
            app_demand_ms=10.455,
            db_calls=2.0,
            db_cpu_per_call_ms=1.613,
            db_disk_per_call_ms=1.5,
        ),
    }
)


class TestLqnSerialization:
    @pytest.fixture
    def model(self) -> LqnModel:
        return build_trade_model(APP_SERV_F, mixed_workload(200, 0.25), PARAMS)

    def test_round_trip_preserves_structure(self, model):
        rebuilt = model_from_dict(model_to_dict(model))
        assert set(rebuilt.tasks) == set(model.tasks)
        assert set(rebuilt.processors) == set(model.processors)
        for name, task in model.tasks.items():
            assert rebuilt.tasks[name] == task

    def test_round_trip_gives_an_equal_model(self, model):
        rebuilt = model_from_dict(model_to_dict(model))
        assert rebuilt == model
        for task in model.tasks.values():
            for entry in task.entries:
                assert rebuilt.entry(entry.name) == entry
                assert rebuilt.entry_owner(entry.name) == task

    def test_round_trip_preserves_solution(self, model):
        rebuilt = model_from_dict(model_to_dict(model))
        solver = LqnSolver()
        original = solver.solve(model)
        again = solver.solve(rebuilt)
        assert again.response_ms == pytest.approx(original.response_ms)

    def test_json_file_round_trip(self, model, tmp_path):
        path = save_model(model, tmp_path / "trade.lqn.json")
        assert path.exists()
        rebuilt = load_model(path)
        assert set(rebuilt.tasks) == set(model.tasks)

    def test_round_trip_keeps_a_bounded_queue(self):
        model = build_trade_model(
            APP_SERV_F, mixed_workload(200, 0.25), PARAMS, app_queue_capacity=60
        )
        assert 60 in {p.queue_capacity for p in model.processors.values()}
        rebuilt = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert rebuilt == model

    def test_document_is_plain_json(self, model):
        json.dumps(model_to_dict(model))  # must not raise

    def test_wrong_format_rejected(self):
        with pytest.raises(ModelError, match="format"):
            model_from_dict({"format": "other"})

    def test_wrong_version_rejected(self):
        with pytest.raises(ModelError, match="version"):
            model_from_dict({"format": "repro-lqn", "version": 99})

    def test_invalid_model_rejected_on_load(self):
        data = {
            "format": "repro-lqn",
            "version": 1,
            "processors": [{"name": "p"}],
            "tasks": [
                {
                    "name": "t",
                    "processor": "p",
                    "entries": [
                        {"name": "e", "demand_ms": 1.0, "calls": [{"target": "missing", "mean_calls": 1.0}]}
                    ],
                    "is_reference": True,
                }
            ],
        }
        with pytest.raises(ModelError):
            model_from_dict(data)

    def test_call_kinds_preserved(self):
        model = LqnModel()
        model.add_processor(Processor(name="cl"))
        model.add_processor(Processor(name="p"))
        model.add_task(
            Task(name="w", processor="p", entries=(Entry("work", 5.0),), multiplicity=10)
        )
        from repro.lqn.model import Call

        model.add_task(
            Task(
                name="clients",
                processor="cl",
                entries=(
                    Entry(
                        "cycle",
                        0.0,
                        calls=(Call("work", 1.0, kind=CallKind.ASYNCHRONOUS),),
                    ),
                ),
                is_reference=True,
                multiplicity=5,
                think_time_ms=100.0,
            )
        )
        rebuilt = model_from_dict(model_to_dict(model))
        call = rebuilt.entry("cycle").calls[0]
        assert call.kind is CallKind.ASYNCHRONOUS


class TestHistoricalCsv:
    @pytest.fixture
    def store(self) -> HistoricalDataStore:
        store = HistoricalDataStore()
        store.add(HistoricalDataPoint("F", 100, 12.5, 14.2, 50))
        store.add(HistoricalDataPoint("F", 1500, 980.25, 186.0, 200, buy_fraction=0.25))
        store.add(HistoricalDataPoint("VF", 200, 9.0, 28.0, 50))
        return store

    def test_round_trip(self, store, tmp_path):
        path = save_store_csv(store, tmp_path / "history.csv")
        loaded = load_store_csv(path)
        assert len(loaded) == len(store)
        assert loaded.all_points() == store.all_points()

    def test_floats_round_trip_exactly(self, store, tmp_path):
        path = save_store_csv(store, tmp_path / "history.csv")
        loaded = load_store_csv(path)
        original = store.for_server("F", buy_fraction=0.25)[0]
        reloaded = loaded.for_server("F", buy_fraction=0.25)[0]
        assert reloaded.mean_response_ms == original.mean_response_ms

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CalibrationError, match="no historical data"):
            load_store_csv(tmp_path / "nope.csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CalibrationError, match="header"):
            load_store_csv(path)

    def test_bad_row_rejected(self, tmp_path):
        from repro.historical.persistence import CSV_COLUMNS

        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\nF,notanumber,1,1,1,0\n")
        with pytest.raises(CalibrationError):
            load_store_csv(path)

    def test_empty_store_round_trips(self, tmp_path):
        path = save_store_csv(HistoricalDataStore(), tmp_path / "empty.csv")
        assert len(load_store_csv(path)) == 0
