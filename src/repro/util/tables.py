"""Fixed-width plain-text table rendering for the experiment harness.

The experiment drivers print the same rows/series the paper's tables and
figures report; this module renders them legibly without any third-party
dependency.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table", "format_series", "format_kv"]


def _cell(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        magnitude = abs(value)
        if magnitude != 0.0 and (magnitude < 10.0 ** (-precision) or magnitude >= 1e7):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Render ``rows`` under ``headers`` as a fixed-width text table.

    Floats are formatted to ``precision`` decimal places (scientific notation
    for very small/large magnitudes, mirroring how the paper prints e.g.
    ``4E-06`` in table 1).
    """
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must have one cell per header")
    text_rows = [[_cell(v, precision) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append(sep)
    for row in text_rows:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def format_series(
    x_name: str,
    x_values: Sequence[float],
    series: dict[str, Sequence[float]],
    *,
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Render one or more y-series against a shared x-axis (a text 'figure')."""
    headers = [x_name, *series.keys()]
    for name, ys in series.items():
        if len(ys) != len(x_values):
            raise ValueError(f"series {name!r} length {len(ys)} != x length {len(x_values)}")
    rows = [
        [x, *(series[name][i] for name in series)]
        for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, title=title, precision=precision)


def format_kv(pairs: dict[str, Any], *, title: str | None = None, precision: int = 3) -> str:
    """Render scalar results as an aligned key/value block."""
    width = max((len(k) for k in pairs), default=0)
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for key, value in pairs.items():
        lines.append(f"{key.ljust(width)} : {_cell(value, precision)}")
    return "\n".join(lines)
