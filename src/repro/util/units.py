"""Time and rate unit conventions.

The paper mixes units freely (response times in milliseconds, think times in
seconds, throughput in requests/second).  Internally this library follows a
single convention:

* **time**  — milliseconds (``ms``)
* **rates** — requests per second (``req/s``), as in the paper's figures

The helpers below are the only sanctioned conversion points; using them keeps
factors of 1000 out of the modelling code.
"""

from __future__ import annotations

from repro.util.validation import check_non_negative

MS_PER_S: float = 1000.0


def s_to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return float(seconds) * MS_PER_S


def ms_to_s(millis: float) -> float:
    """Convert milliseconds to seconds."""
    return float(millis) / MS_PER_S


def throughput_req_per_s(completions: int, duration_ms: float) -> float:
    """Throughput in req/s of ``completions`` requests over ``duration_ms``.

    Raises if the duration is not positive.
    """
    check_non_negative(float(completions), "completions")
    duration = check_non_negative(duration_ms, "duration_ms")
    if duration == 0.0:
        return 0.0
    return completions / ms_to_s(duration)
