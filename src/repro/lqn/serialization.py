"""Serialisation of layered queuing models.

LQNS models live in files; to make this solver a practical replacement the
model structure round-trips through a plain-dict (JSON-compatible) form:

>>> data = model_to_dict(model)
>>> rebuilt = model_from_dict(data)

plus convenience :func:`save_model` / :func:`load_model` for JSON files.
The dict layout is versioned so future extensions stay loadable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.lqn.model import Call, CallKind, Entry, LqnModel, Processor, Scheduling, Task
from repro.util.errors import ModelError

__all__ = ["model_to_dict", "model_from_dict", "save_model", "load_model", "FORMAT_VERSION"]

FORMAT_VERSION = 1


def model_to_dict(model: LqnModel) -> dict[str, Any]:
    """A JSON-compatible description of ``model`` (validated first)."""
    model.validate()
    return {
        "format": "repro-lqn",
        "version": FORMAT_VERSION,
        "processors": [
            {
                "name": p.name,
                "scheduling": p.scheduling.value,
                "multiplicity": p.multiplicity,
                "speed": p.speed,
                "queue_capacity": p.queue_capacity,
            }
            for p in model.processors.values()
        ],
        "tasks": [
            {
                "name": t.name,
                "processor": t.processor,
                "multiplicity": t.multiplicity,
                "is_reference": t.is_reference,
                "think_time_ms": t.think_time_ms,
                "open_arrival_rate_per_s": t.open_arrival_rate_per_s,
                "entries": [
                    {
                        "name": e.name,
                        "demand_ms": e.demand_ms,
                        "phase2_demand_ms": e.phase2_demand_ms,
                        "calls": [
                            {
                                "target": c.target_entry,
                                "mean_calls": c.mean_calls,
                                "kind": c.kind.value,
                            }
                            for c in e.calls
                        ],
                    }
                    for e in t.entries
                ],
            }
            for t in model.tasks.values()
        ],
    }


def model_from_dict(data: dict[str, Any]) -> LqnModel:
    """Rebuild a validated :class:`LqnModel` from :func:`model_to_dict` output."""
    if data.get("format") != "repro-lqn":
        raise ModelError(f"not a repro-lqn document: format={data.get('format')!r}")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ModelError(
            f"unsupported repro-lqn version {version!r} (supported: {FORMAT_VERSION})"
        )
    model = LqnModel()
    for p in data.get("processors", []):
        queue_capacity = p.get("queue_capacity")
        model.add_processor(
            Processor(
                name=p["name"],
                scheduling=Scheduling(p.get("scheduling", "ps")),
                multiplicity=int(p.get("multiplicity", 1)),
                speed=float(p.get("speed", 1.0)),
                queue_capacity=None if queue_capacity is None else int(queue_capacity),
            )
        )
    for t in data.get("tasks", []):
        entries = tuple(
            Entry(
                name=e["name"],
                demand_ms=float(e["demand_ms"]),
                phase2_demand_ms=float(e.get("phase2_demand_ms", 0.0)),
                calls=tuple(
                    Call(
                        target_entry=c["target"],
                        mean_calls=float(c["mean_calls"]),
                        kind=CallKind(c.get("kind", "sync")),
                    )
                    for c in e.get("calls", [])
                ),
            )
            for e in t.get("entries", [])
        )
        model.add_task(
            Task(
                name=t["name"],
                processor=t["processor"],
                entries=entries,
                multiplicity=int(t.get("multiplicity", 1)),
                is_reference=bool(t.get("is_reference", False)),
                think_time_ms=float(t.get("think_time_ms", 0.0)),
                open_arrival_rate_per_s=float(t.get("open_arrival_rate_per_s", 0.0)),
            )
        )
    model.validate()
    return model


def save_model(model: LqnModel, path: str | Path) -> Path:
    """Write ``model`` to a JSON file; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(model_to_dict(model), indent=2) + "\n")
    return target


def load_model(path: str | Path) -> LqnModel:
    """Read a model saved with :func:`save_model`."""
    return model_from_dict(json.loads(Path(path).read_text()))
