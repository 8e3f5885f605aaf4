"""Dependency-free ASCII charts.

The paper's figures are line charts; rendering them as ASCII lets every
benchmark print its "figure" into the terminal / CI log with no plotting
dependency.  ``ascii_timeline`` additionally renders a storage-usage profile
(the shape of the paper's Fig. 3).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.analysis.series import Series
from repro.core.spacefunc import UsageTimeline
from repro.errors import ReproError

_MARKERS = "*+ox#@%&"
#: Grid columns of both renderings, and rows of a chart / of a timeline.
_WIDTH = 64
_CHART_HEIGHT = 16
_TIMELINE_HEIGHT = 12


def ascii_chart(series_list: Sequence[Series], *, title: str | None = None) -> str:
    """Plot one or more series in a character grid with a shared scale."""
    if not series_list:
        raise ReproError("need at least one series to chart")
    width, height = _WIDTH, _CHART_HEIGHT
    all_x = [x for s in series_list for x in s.x]
    all_y = [y for s in series_list for y in s.y]
    x0, x1 = min(all_x), max(all_x)
    y0, y1 = min(all_y), max(all_y)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, s in enumerate(series_list):
        marker = _MARKERS[idx % len(_MARKERS)]
        # draw with light interpolation so curves read as lines
        xs = np.asarray(s.x, dtype=np.float64)
        ys = np.asarray(s.y, dtype=np.float64)
        dense_x = np.linspace(x0, x1, width * 2)
        dense_y = np.interp(dense_x, xs, ys, left=np.nan, right=np.nan)
        for dx, dy in zip(dense_x, dense_y):
            if np.isnan(dy):
                continue
            col = int(round((dx - x0) / (x1 - x0) * (width - 1)))
            row = int(round((dy - y0) / (y1 - y0) * (height - 1)))
            grid[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y1:>12.4g} +" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 12 + " |" + "".join(row))
    lines.append(f"{y0:>12.4g} +" + "".join(grid[-1]))
    lines.append(" " * 14 + f"{x0:<.4g}" + " " * max(1, width - 16) + f"{x1:>.4g}")
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {s.name}" for i, s in enumerate(series_list)
    )
    lines.append(" " * 14 + legend)
    return "\n".join(lines)


def ascii_timeline(
    timeline: UsageTimeline,
    *,
    capacity: float | None = None,
    title: str | None = None,
) -> str:
    """Render a storage-usage timeline (the shape of the paper's Fig. 3).

    Over-capacity cells are drawn with ``!`` so overflow windows stand out.
    """
    width, height = _WIDTH, _TIMELINE_HEIGHT
    if timeline.is_empty:
        return (title + "\n" if title else "") + "(no usage)"
    grid_t = timeline.grid
    t0, t1 = float(grid_t[0]), float(grid_t[-1])
    if t1 == t0:
        t1 = t0 + 1.0
    ts = np.linspace(t0, t1, width)
    vals = np.array([timeline.value(float(t)) for t in ts])
    top = max(float(vals.max()), capacity or 0.0)
    if top <= 0:
        top = 1.0
    lines = []
    if title:
        lines.append(title)
    cap_row = (
        int(round(capacity / top * (height - 1))) if capacity is not None else None
    )
    for row in range(height - 1, -1, -1):
        level = row / (height - 1) * top
        cells = []
        overflow_slack = (
            capacity * (1 + 1e-9) + 1e-9 if capacity is not None else None
        )
        for v in vals:
            if v >= level and v > 0:
                cells.append(
                    "!"
                    if overflow_slack is not None and v > overflow_slack
                    else "#"
                )
            elif cap_row is not None and row == cap_row:
                cells.append("-")
            else:
                cells.append(" ")
        prefix = f"{level:>12.4g} |"
        lines.append(prefix + "".join(cells))
    lines.append(" " * 13 + "+" + "-" * width)
    lines.append(" " * 14 + f"t={t0:<.4g}" + " " * max(1, width - 20) + f"t={t1:>.4g}")
    if capacity is not None:
        lines.append(" " * 14 + f"capacity = {capacity:g} ('!' marks overflow)")
    return "\n".join(lines)
