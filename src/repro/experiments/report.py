"""ASCII rendering of figure results.

The benchmarks print every reproduced figure as a table: one row per
x-value, one column per curve, each cell a mean with its 95% CI
half-width.  This is the textual equivalent of the paper's plots.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.figures import FigureResult
from repro.metrics.stats import MeanCI

__all__ = ["format_figure", "format_table"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render a simple aligned ASCII table; each column is at least 8 wide."""
    widths = [max(8, len(header)) for header in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header_line = "  ".join(header.ljust(width) for header, width in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _format_point(point: MeanCI) -> str:
    if point.halfwidth > 0:
        return f"{point.mean:8.3f} ±{point.halfwidth:6.3f}"
    return f"{point.mean:8.3f}"


def format_figure(result: FigureResult, chart: bool = False) -> str:
    """Render a :class:`FigureResult` as an ASCII table with a caption.

    With ``chart=True`` an ASCII line chart is appended below the table.
    """
    headers = [result.xlabel] + list(result.series)
    rows = []
    for i, x in enumerate(result.x):
        row = [f"{x:g}"]
        for label in result.series:
            row.append(_format_point(result.series[label][i]))
        rows.append(row)
    table = format_table(headers, rows)
    text = f"{result.name}: {result.title}\n[y: {result.ylabel}]\n{table}"
    if chart:
        text += "\n\n" + ascii_chart(result)
    return text


_CHART_SYMBOLS = "oxv*+#@%&$"


def ascii_chart(result: FigureResult) -> str:
    """A terminal line chart of a figure's series means.

    Each x grid point occupies 6 characters; each series is drawn with
    its own symbol; 12 rows are linear in y from the data minimum to
    maximum.  Intended for quick visual inspection of shapes in
    `results/` files and CI logs, not for publication.
    """
    height, column_width = 12, 6
    values = [
        point.mean for series in result.series.values() for point in series
    ]
    if not values:
        return "(no data)"
    y_min, y_max = min(values), max(values)
    if y_max == y_min:
        y_max = y_min + 1.0
    n_cols = len(result.x) * column_width
    grid = [[" "] * n_cols for _ in range(height)]

    def row_of(value: float) -> int:
        fraction = (value - y_min) / (y_max - y_min)
        return (height - 1) - int(round(fraction * (height - 1)))

    for series_index, (label, points) in enumerate(result.series.items()):
        symbol = _CHART_SYMBOLS[series_index % len(_CHART_SYMBOLS)]
        for i, point in enumerate(points):
            column = i * column_width + column_width // 2
            grid[row_of(point.mean)][column] = symbol

    lines = []
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = f"{y_max:>10.3g} |"
        elif row_index == height - 1:
            label = f"{y_min:>10.3g} |"
        else:
            label = " " * 10 + " |"
        lines.append(label + "".join(row))
    axis = " " * 10 + " +" + "-" * n_cols
    ticks = " " * 12 + "".join(
        f"{x:^{column_width}g}"[:column_width] for x in result.x
    )
    legend = "  ".join(
        f"{_CHART_SYMBOLS[i % len(_CHART_SYMBOLS)]}={label}"
        for i, label in enumerate(result.series)
    )
    return "\n".join(lines + [axis, ticks, f"[x: {result.xlabel}]  {legend}"])
