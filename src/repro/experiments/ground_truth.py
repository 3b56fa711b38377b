"""Memoised "measured" data from the simulated testbed.

Experiment drivers share many simulator runs (the same measured curve backs
table 1, figure 2, the accuracy summary, …).  This layer memoises them —
in-process and, optionally, on disk under ``.repro-cache/`` next to the
repository (delete the directory or set ``REPRO_NO_DISK_CACHE=1`` to force
fresh runs).

Everything here is keyed by the full parameter set, so changing the scenario
invalidates naturally.  Disk entries are also keyed by a digest of the
sources that produce them (the simulator, the workload and server packages
and the LQN calibration), so a code change to any of them can never be
served results the old code measured.  Entries live in one directory per
digest, ``.repro-cache/<digest prefix>/``; each write deletes every other
digest's directory, so the cache holds one code version's results.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import shutil
from pathlib import Path
from typing import Any

from repro.experiments.scenario import FAST_CONFIG, MEASUREMENT_CONFIG, SEED, SOLVER_OPTIONS
from repro.lqn.calibration import LqnCalibration, calibrate_from_simulator
from repro.servers.benchmarking import measure_max_throughput
from repro.servers.catalogue import APP_SERV_F, architecture
from repro.simulation.system import SimulationResult, simulate_deployment
from repro.workload.trade import mixed_workload

__all__ = [
    "measured_point",
    "benchmarked_max_throughput",
    "lqn_calibration",
    "lqn_mix_observations",
    "clear_memory_cache",
]

_MEMORY: dict[Any, Any] = {}

# Packages and modules whose code determines every disk-cached value:
# measurements are keyed by server *name*, so the catalogue's specs and the
# benchmark are part of what a key means.  Of ``workload`` only the modules
# a measurement imports count, and ``util/rng.py`` seeds every simulated
# stream.
_SOURCE_DIRS: tuple[Path, ...] = tuple(
    Path(__file__).resolve().parents[1] / source
    for source in (
        "simulation",
        "workload/operations.py",
        "workload/service_class.py",
        "workload/trade.py",
        "servers",
        "lqn/calibration.py",
        "util/rng.py",
    )
)


@functools.cache
def _source_digest() -> str:
    """sha256 over the ``.py`` files of :data:`_SOURCE_DIRS` (computed once).

    An entry is a package directory (every ``.py`` under it) or one module.
    """
    digest = hashlib.sha256()
    for source in _SOURCE_DIRS:
        paths = [source] if source.is_file() else sorted(source.rglob("*.py"))
        for path in paths:
            digest.update(path.relative_to(source.parent).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def _disk_cache_path() -> Path | None:
    """``.repro-cache/<digest prefix>/``: this code's entries, one directory."""
    if os.environ.get("REPRO_NO_DISK_CACHE"):
        return None
    root = Path(os.environ.get("REPRO_CACHE_DIR", Path(__file__).resolve().parents[3]))
    path = root / ".repro-cache" / _source_digest()[:16]
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:  # pragma: no cover - read-only filesystem
        return None
    return path


def _prune_other_digests(path: Path) -> None:
    """Delete everything in ``.repro-cache/`` but ``path``.

    Whatever else is there was measured by other code (another digest's
    directory, or a flat ``*.pkl`` of the layout before directories), and
    the current code can never read it.  Called before each write, which
    follows a measurement, so the scan costs nothing in comparison.
    """
    for stale in path.parent.iterdir():
        if stale == path:
            continue
        try:
            if stale.is_dir():
                shutil.rmtree(stale)
            else:
                stale.unlink()
        except OSError:  # pragma: no cover - removed concurrently, permissions
            pass


def _cached(key: tuple, compute):
    if key in _MEMORY:
        return _MEMORY[key]
    disk = _disk_cache_path()
    file = None
    if disk is not None:
        disk_key = (key, _source_digest())
        digest = hashlib.sha256(repr(disk_key).encode("utf-8")).hexdigest()[:24]
        file = disk / (digest + ".pkl")
        if file.exists():
            try:
                with open(file, "rb") as fh:
                    stored_key, value = pickle.load(fh)
                if stored_key == disk_key:
                    _MEMORY[key] = value
                    return value
            except Exception:  # pragma: no cover - corrupt cache entry
                pass
    value = compute()
    _MEMORY[key] = value
    if file is not None:
        _prune_other_digests(disk)
        try:
            with open(file, "wb") as fh:
                pickle.dump((disk_key, value), fh)
        except OSError:  # pragma: no cover - disk full etc.
            pass
    return value


def clear_memory_cache() -> None:
    """Drop the in-process memo (disk entries are left alone)."""
    _MEMORY.clear()


def measured_point(
    server: str,
    n_clients: int,
    *,
    buy_fraction: float = 0.0,
    fast: bool = False,
    seed_offset: int = 0,
    enable_cache: bool = False,
    cache_bytes: int | None = None,
) -> SimulationResult:
    """One testbed measurement: run the workload on the simulated server."""
    config = FAST_CONFIG if fast else MEASUREMENT_CONFIG
    if seed_offset or enable_cache or cache_bytes is not None:
        config = config.with_overrides(
            seed=config.seed + seed_offset,
            enable_cache=enable_cache,
            cache_bytes=cache_bytes,
        )
    key = (
        "measured",
        server,
        n_clients,
        round(buy_fraction, 6),
        config.duration_s,
        config.warmup_s,
        config.seed,
        config.network_latency_ms,
        config.enable_cache,
        config.cache_bytes,
    )
    return _cached(
        key,
        lambda: simulate_deployment(
            architecture(server), mixed_workload(n_clients, buy_fraction), config
        ),
    )


def benchmarked_max_throughput(server: str, *, fast: bool = False) -> float:
    """The server's benchmarked max throughput under the typical workload
    (the system model's 'calibrate request processing speeds' service)."""
    duration, warmup = (25.0, 6.0) if fast else (40.0, 10.0)
    key = ("max_tput", server, duration, warmup, SEED)

    def compute() -> float:
        result = measure_max_throughput(
            architecture(server),
            duration_s=duration,
            warmup_s=warmup,
            seed=SEED,
        )
        return result.max_throughput_req_per_s

    return float(_cached(key, compute))


def lqn_calibration(*, fast: bool = False) -> LqnCalibration:
    """The layered queuing calibration on the established AppServF."""
    duration, clients = (60.0, 400) if fast else (120.0, 600)
    key = ("lqn_calibration", APP_SERV_F.name, duration, clients, SEED)
    return _cached(
        key,
        lambda: calibrate_from_simulator(
            APP_SERV_F,
            clients_per_type=clients,
            duration_s=duration,
            seed=SEED,
        ),
    )


def lqn_mix_observations(*, fast: bool = False) -> list[tuple[float, float]]:
    """Relationship 3's anchors: LQN max throughputs at 0 %/25 % buy on
    AppServF (the paper's 189 / 158 req/s analogues).

    Not cached: two bottleneck sums over the cached calibration cost less
    than keying them on the builder and hybrid sources they also read.
    """
    from repro.hybrid.model import lqn_max_throughput
    from repro.lqn.builder import build_trade_model

    parameters = lqn_calibration(fast=fast).to_model_parameters()
    observations = []
    for buy_fraction in (0.0, 0.25):
        model = build_trade_model(APP_SERV_F, mixed_workload(400, buy_fraction), parameters)
        observations.append((buy_fraction, lqn_max_throughput(model)))
    return observations


# Re-exported so experiment modules only import ground_truth.
DEFAULT_SOLVER_OPTIONS = SOLVER_OPTIONS
