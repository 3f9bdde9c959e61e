"""Plain-text rendering of paper-style tables and bar-series."""

from __future__ import annotations

from typing import Dict, Mapping, Sequence


def format_table(title: str, rows: Mapping[str, Mapping[str, float]],
                 percent: bool = False, decimals: int = 3) -> str:
    """Render ``rows`` (row label -> {column -> value}) as aligned text.

    With ``percent=True`` values are shown as percentages, the way the
    paper's Y axes label coverage, false-positive rates and overheads.
    A None value (undefined, e.g. coverage of no SDC fault) renders ``-``.
    """
    if not rows:
        return f"{title}\n(no data)"
    columns = list(next(iter(rows.values())).keys())
    label_width = max(len(title), *(len(r) for r in rows)) + 2

    def fmt(value) -> str:
        if isinstance(value, str):
            return value
        if value is None:
            return "-"
        if percent:
            return f"{100.0 * value:.{max(0, decimals - 2)}f}%"
        return f"{value:.{decimals}f}"

    col_width = max(10, *(len(c) for c in columns)) + 2
    lines = [title,
             "-" * (label_width + col_width * len(columns))]
    header = " " * label_width + "".join(c.rjust(col_width) for c in columns)
    lines.append(header)
    for label, cells in rows.items():
        line = label.ljust(label_width) + "".join(
            fmt(cells.get(c, 0.0)).rjust(col_width) for c in columns)
        lines.append(line)
    return "\n".join(lines)


def format_series(title: str, series: Mapping[str, Sequence[float]],
                  x_labels: Sequence[str] | None = None,
                  percent: bool = False) -> str:
    """Render named series (one per scheme) over an x-axis (benchmarks)."""
    rows: Dict[str, Dict[str, float]] = {}
    for name, values in series.items():
        labels = x_labels or [str(i) for i in range(len(values))]
        rows[name] = dict(zip(labels, values))
    return format_table(title, rows, percent=percent)


__all__ = ["format_table", "format_series"]
