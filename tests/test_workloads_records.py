"""RecordSet normalization: ordering, think-time extraction, mix, rates."""

import numpy as np
import pytest

from repro.util.errors import ValidationError
from repro.workload.records import RecordSet, RequestRecord, classify_request_type


def _record(at_ms, op="quote", client="c0"):
    return RequestRecord(arrival_ms=at_ms, operation=op, client_id=client)


class TestRequestRecord:
    def test_rejects_negative_arrival(self):
        with pytest.raises(ValidationError):
            _record(-1.0)

    def test_rejects_empty_operation(self):
        with pytest.raises(ValidationError):
            RequestRecord(arrival_ms=0.0, operation="", client_id="c0")


class TestClassify:
    def test_trade_operations_map_to_browse_and_buy(self):
        assert classify_request_type("quote") == "browse"
        assert classify_request_type("buy") == "buy"
        assert classify_request_type("register_login") == "buy"

    def test_unknown_operations_classify_as_themselves(self):
        assert classify_request_type("checkout_v2") == "checkout_v2"


class TestRecordSet:
    def test_construction_sorts_by_arrival(self):
        rs = RecordSet([_record(30.0), _record(10.0), _record(20.0)])
        assert [r.arrival_ms for r in rs.records] == [10.0, 20.0, 30.0]

    def test_empty_set_is_rejected(self):
        with pytest.raises(ValidationError):
            RecordSet([])

    def test_duration_spans_first_to_last_arrival(self):
        rs = RecordSet([_record(0.0), _record(15.0), _record(45.0)])
        assert rs.duration_ms == 45.0

    def test_think_times_are_per_client_gaps(self):
        rs = RecordSet(
            [
                _record(0.0, client="a"),
                _record(100.0, client="b"),
                _record(300.0, client="a"),
                _record(350.0, client="b"),
            ]
        )
        # a: 300-0, b: 350-100 — never the cross-client 100-0 gap.
        assert sorted(rs.think_times_ms()) == [250.0, 300.0]

    def test_non_positive_think_samples_are_dropped(self):
        rs = RecordSet([_record(300.0, client="a"), _record(300.0, client="a")])
        assert rs.think_times_ms().size == 0

    def test_type_and_operation_fractions(self):
        rs = RecordSet(
            [_record(0.0, op="quote"), _record(1.0, op="quote"), _record(2.0, op="buy")]
        )
        assert rs.operation_fractions() == {"buy": 1 / 3, "quote": 2 / 3}
        assert rs.type_fractions() == {"browse": 2 / 3, "buy": 1 / 3}

    def test_binned_rates(self):
        rs = RecordSet([_record(t * 1000.0) for t in range(10)])
        rates = rs.binned_rates_req_per_s(5.0)
        assert rates.shape == (2,)
        assert float(np.sum(rates)) * 5.0 == 10.0

    def test_statistics_payload_is_json_ready(self):
        rs = RecordSet([_record(0.0, client="a"), _record(7000.0, client="a")])
        stats = rs.statistics()
        assert stats.n_requests == 2
        assert stats.n_clients == 1
        assert stats.think_mean_ms == 7000.0
        payload = stats.to_dict()
        assert payload["type_fractions"] == {"browse": 1.0}
        assert payload["duration_s"] == 7.0
