"""Workload definitions and seeded input generation.

Nothing here imports ``repro``: every input is generated from the seed
before the set-up clock starts, and the program only ever receives the
generated values.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("serve-lqn-cold", "serve-lqn-hot", "testbed")

#: Service worker threads, one per core of the 2-core reference machine.
WORKERS = 2

SERVERS = ("AppServS", "AppServF", "AppServVF")
GOALS_MS = (300, 500, 800, 1200)

# The section-5 calibration the solver tests use, so no simulated-testbed
# calibration runs inside the benchmark.
REQUEST_TYPES = {
    "browse": dict(
        app_demand_ms=5.376, db_calls=1.14, db_cpu_per_call_ms=0.8294, db_disk_per_call_ms=1.2
    ),
    "buy": dict(
        app_demand_ms=10.455, db_calls=2.0, db_cpu_per_call_ms=1.613, db_disk_per_call_ms=1.5
    ),
}

# The request mix of one block of 50: 78% mrt, 20% throughput, 2% capacity.
MIX_BLOCK = ("mrt",) * 39 + ("throughput",) * 10 + ("capacity",)

# Client counts of the wide draw are uniform on [50, 2400], drawn one per
# equal slice of the range per round and server.
CLIENTS_LOW, CLIENTS_HIGH = 50, 2400
CLIENT_STRATA = 16

#: Requests per stream; the client replays its stream cyclically.  This is
#: far above the 4,096-entry cache, so a replayed request of the wide draw
#: has long been evicted and still misses.
STREAM_LENGTH = 20_000

HOT_CLIENTS = tuple(range(100, 2001, 100))
HOT_BUY = (0.0, 0.10, 0.25)
# Capacity cells of the hot working set are at buy 0 only: each costs a
# search of ~25 solves, and set-up runs three times per benchmark run.
HOT_CAPACITY_BUY = (0.0,)

Request = tuple  # (kind, server, operand, buy_fraction)


def _rounds(rng: random.Random, values) -> Iterator:
    """Every value once per round, each round in a fresh seeded order.

    Drawing in rounds keeps every stretch of a stream balanced (the mix,
    the servers, the load levels), so a seed changes which requests
    arrive, not how much work a second of them is.
    """
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def _wide_stream(rng: random.Random, length: int) -> list[Request]:
    """Uniform over servers, clients [50, 2400] and buy k/100, k in [0, 25].

    Capacity queries go round all 312 (server, goal, buy) cells before any
    repeats, so a run (~100 of them) never answers one from the cache: a
    search costs ~30x a point prediction, and a varying number of cached
    ones made throughput depend on the seed.
    """
    kinds = _rounds(rng, MIX_BLOCK)
    buys = _rounds(rng, range(26))
    servers = _rounds(rng, SERVERS)
    strata = {server: _rounds(rng, range(CLIENT_STRATA)) for server in SERVERS}
    capacity = _rounds(rng, [(s, g, k / 100) for s in SERVERS for g in GOALS_MS
                             for k in range(26)])
    width = (CLIENTS_HIGH - CLIENTS_LOW + 1) / CLIENT_STRATA
    stream: list[Request] = []
    for kind in itertools.islice(kinds, length):
        if kind == "capacity":
            stream.append((kind, *next(capacity)))
        else:
            server = next(servers)
            clients = CLIENTS_LOW + int((next(strata[server]) + rng.random()) * width)
            stream.append((kind, server, clients, next(buys) / 100))
    return stream


def hot_cells() -> tuple[list[tuple[str, int, float]], list[tuple[str, int, float]]]:
    """The hot working set: operating points and capacity cells."""
    points = [(s, n, b) for s in SERVERS for n in HOT_CLIENTS for b in HOT_BUY]
    capacity = [(s, g, b) for s in SERVERS for g in GOALS_MS for b in HOT_CAPACITY_BUY]
    return points, capacity


def hot_warmup() -> list[Request]:
    """Every cell of the hot working set once, in a fixed order."""
    points, capacity = hot_cells()
    return (
        [("mrt", s, n, b) for s, n, b in points]
        + [("throughput", s, n, b) for s, n, b in points]
        + [("capacity", s, g, b) for s, g, b in capacity]
    )


def _hot_stream(rng: random.Random, length: int) -> list[Request]:
    """The wide mix, drawn from the hot working set only."""
    points, capacity = hot_cells()
    cells = {"capacity": _rounds(rng, capacity), "operating": _rounds(rng, points)}
    return [
        (kind, *next(cells["capacity" if kind == "capacity" else "operating"]))
        for kind in itertools.islice(_rounds(rng, MIX_BLOCK), length)
    ]


def serving_stream(workload: str, seed: int, length: int = STREAM_LENGTH) -> list[Request]:
    """The request stream of a serving workload."""
    draw = _hot_stream if workload == "serve-lqn-hot" else _wide_stream
    return draw(random.Random(f"{seed}:{workload}"), length)


@dataclass(frozen=True)
class SimPoint:
    """One simulated measurement: a load on one server architecture."""

    server: str
    load: float  # clients as a multiple of the clients-at-max load
    buy_fraction: float
    queue_capacity: int | None
    seed: int

    @property
    def label(self) -> str:
        """Readable identity used in reports."""
        bound = f" K={self.queue_capacity}" if self.queue_capacity else ""
        return f"{self.server}@{self.load}x buy={self.buy_fraction}{bound}"


# (load, buy fraction, queue capacity) per server: the typical mix across
# the knee, a buy-heavy mix at 0.9x the typical knee, and an overloaded,
# bounded server.
TESTBED_LOADS = (
    (0.35, 0.0, None),
    (0.66, 0.0, None),
    (1.15, 0.0, None),
    (1.6, 0.0, None),
    (0.9, 0.25, None),
    (1.6, 0.0, 100),
)
SIM_DURATION_S = 30.0
SIM_WARMUP_S = 8.0


def testbed_points(seed: int, servers: tuple = SERVERS) -> list[SimPoint]:
    """Every point, each with its own simulator seed drawn from ``seed``."""
    rng = random.Random(f"{seed}:testbed")
    return [
        SimPoint(server, load, buy, capacity, rng.randrange(1, 2**31))
        for server in servers
        for load, buy, capacity in TESTBED_LOADS
    ]
