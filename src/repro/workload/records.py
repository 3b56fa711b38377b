"""The normalized request-record set the characterisation stages read.

Every stage downstream of a trace (fitting, validation, scenario
regeneration) and the overload experiment's loss observation want the
same things per request: *when* it arrived, *what* it asked for, *who*
asked, and whether a finite-capacity server shed it.
:class:`RequestRecord` is that normal form, :func:`records_from_trace_entries`
builds it from :class:`~repro.workload.generators.TraceEntry` rows (in
memory or reloaded with :func:`~repro.workload.generators.load_trace_csv`),
and :class:`RecordSet` is the analysable collection, exposing the derived
series the fitters consume:

* **inter-arrival times** — gaps between consecutive arrivals overall;
* **think times** — per-client gaps between consecutive arrivals, the
  classic closed-workload approximation for arrival traces;
* **mix fractions** — the share of requests per operation and per
  request type (browse/buy for Trade-shaped logs);
* **arrival-rate curves** — binned request rates over the trace, the
  series the time-varying modulators are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.util.validation import check_non_negative, check_positive, require
from repro.workload.generators import TraceEntry
from repro.workload.operations import TRADE_OPERATIONS

__all__ = [
    "RequestRecord",
    "RecordSet",
    "TraceStatistics",
    "classify_request_type",
    "records_from_trace_entries",
]


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One normalized request: arrival instant, operation, issuer.

    ``dropped`` marks an offered request that a finite-capacity server
    shed instead of serving (traces recorded under overload carry a
    ``dropped`` column); dropped requests count toward offered arrival
    rates.
    """

    arrival_ms: float
    operation: str
    client_id: str
    dropped: bool = False

    def __post_init__(self) -> None:
        check_non_negative(self.arrival_ms, "arrival_ms")
        require(bool(self.operation), "operation must be non-empty")


def classify_request_type(operation: str) -> str:
    """Coarse request type for an operation name.

    Trade operation names resolve through the canonical catalogue to
    ``browse``/``buy``; unknown operations classify as themselves, so
    foreign logs still produce a (finer-grained) mix.
    """
    known = TRADE_OPERATIONS.get(operation)
    return known.request_type if known is not None else operation


def records_from_trace_entries(entries: Iterable[TraceEntry]) -> RecordSet:
    """Normalize :class:`~repro.workload.generators.TraceEntry` rows.

    The ``dropped`` marker (traces recorded against finite-capacity
    servers) carries through, so ``RecordSet.loss_rate`` reflects the
    recorded drops.
    """
    return RecordSet(
        RequestRecord(
            arrival_ms=entry.arrival_ms,
            operation=entry.operation,
            client_id=entry.client_id,
            dropped=entry.dropped,
        )
        for entry in entries
    )


class RecordSet:
    """An arrival-ordered collection of request records plus derived series.

    Construction sorts by arrival time, so adapters may ingest unordered
    logs; all derived statistics are computed lazily and cached.
    """

    def __init__(self, records: Iterable[RequestRecord]):
        self._records: tuple[RequestRecord, ...] = tuple(
            sorted(records, key=lambda r: r.arrival_ms)
        )
        require(len(self._records) > 0, "a RecordSet needs at least one record")
        self._think_cache: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self) -> tuple[RequestRecord, ...]:
        """The records, ordered by arrival time."""
        return self._records

    @property
    def duration_ms(self) -> float:
        """Span from first to last arrival (ms)."""
        return self._records[-1].arrival_ms - self._records[0].arrival_ms

    @property
    def n_clients(self) -> int:
        """Distinct client identities observed."""
        return len({r.client_id for r in self._records})

    @property
    def dropped_count(self) -> int:
        """Requests marked as shed by a finite-capacity server."""
        return sum(1 for r in self._records if r.dropped)

    @property
    def loss_rate(self) -> float:
        """Fraction of offered requests that were dropped."""
        return self.dropped_count / len(self._records)

    def arrivals_ms(self) -> np.ndarray:
        """All arrival instants, ascending (ms)."""
        return np.array([r.arrival_ms for r in self._records])

    def think_times_ms(self) -> np.ndarray:
        """Per-client think times (ms).

        For each client, each gap between consecutive arrivals is one
        think-time sample; non-positive samples (simultaneous requests,
        clock skew) are dropped.
        """
        if self._think_cache is not None:
            return self._think_cache
        by_client: dict[str, list[RequestRecord]] = {}
        for record in self._records:
            by_client.setdefault(record.client_id, []).append(record)
        thinks: list[float] = []
        for sequence in by_client.values():
            for earlier, later in zip(sequence, sequence[1:]):
                gap = later.arrival_ms - earlier.arrival_ms
                if gap > 0.0:
                    thinks.append(gap)
        self._think_cache = np.array(thinks)
        return self._think_cache

    def arrival_rate_req_per_s(self) -> float:
        """Mean arrival rate over the trace (req/s)."""
        if self.duration_ms <= 0.0:
            return 0.0
        return (len(self._records) - 1) / (self.duration_ms / 1000.0)

    def binned_rates_req_per_s(self, bin_s: float) -> np.ndarray:
        """Arrival rate per ``bin_s``-second bin across the trace."""
        check_positive(bin_s, "bin_s")
        arrivals_s = (self.arrivals_ms() - self._records[0].arrival_ms) / 1000.0
        duration_s = max(arrivals_s[-1], bin_s)
        n_bins = int(np.ceil(duration_s / bin_s))
        counts, _ = np.histogram(arrivals_s, bins=n_bins, range=(0.0, n_bins * bin_s))
        return counts / bin_s

    def operation_fractions(self) -> dict[str, float]:
        """Fraction of requests per operation name."""
        counts: dict[str, int] = {}
        for record in self._records:
            counts[record.operation] = counts.get(record.operation, 0) + 1
        total = len(self._records)
        return {name: count / total for name, count in sorted(counts.items())}

    def type_fractions(
        self, classifier: Callable[[str], str] = classify_request_type
    ) -> dict[str, float]:
        """Fraction of requests per request type (default: Trade browse/buy)."""
        counts: dict[str, int] = {}
        for record in self._records:
            kind = classifier(record.operation)
            counts[kind] = counts.get(kind, 0) + 1
        total = len(self._records)
        return {name: count / total for name, count in sorted(counts.items())}

    def statistics(self, *, rate_bin_s: float = 10.0) -> "TraceStatistics":
        """The summary statistics the validation battery compares on."""
        thinks = self.think_times_ms()
        think_mean = float(np.mean(thinks)) if thinks.size else 0.0
        if thinks.size > 1 and think_mean > 0.0:
            think_cv2 = float(np.var(thinks) / think_mean**2)
        else:
            think_cv2 = 0.0
        rates = self.binned_rates_req_per_s(rate_bin_s)
        return TraceStatistics(
            n_requests=len(self._records),
            n_clients=self.n_clients,
            duration_s=self.duration_ms / 1000.0,
            arrival_rate_req_per_s=self.arrival_rate_req_per_s(),
            peak_rate_req_per_s=float(np.max(rates)) if rates.size else 0.0,
            think_mean_ms=think_mean,
            think_cv2=think_cv2,
            type_fractions=self.type_fractions(),
            operation_fractions=self.operation_fractions(),
        )


@dataclass(frozen=True)
class TraceStatistics:
    """Headline statistics of one record set (JSON-ready)."""

    n_requests: int
    n_clients: int
    duration_s: float
    arrival_rate_req_per_s: float
    peak_rate_req_per_s: float
    think_mean_ms: float
    think_cv2: float
    type_fractions: dict[str, float]
    operation_fractions: dict[str, float]

    def to_dict(self) -> dict:
        """A JSON-serializable view (used by experiment artefacts)."""
        return {
            "n_requests": self.n_requests,
            "n_clients": self.n_clients,
            "duration_s": self.duration_s,
            "arrival_rate_req_per_s": self.arrival_rate_req_per_s,
            "peak_rate_req_per_s": self.peak_rate_req_per_s,
            "think_mean_ms": self.think_mean_ms,
            "think_cv2": self.think_cv2,
            "type_fractions": dict(self.type_fractions),
            "operation_fractions": dict(self.operation_fractions),
        }
