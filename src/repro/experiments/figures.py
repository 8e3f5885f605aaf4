"""Common figure-result container and rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ascii import ascii_chart
from repro.analysis.series import Series
from repro.analysis.tables import format_table


@dataclass
class FigureResult:
    """A reproduced paper figure: named series plus rendering helpers."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)
    notes: str = ""

    def series_by_name(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(f"no series named {name!r} in {self.figure_id}")

    def as_table(self) -> str:
        """Tabulate all series over the union of x values."""
        xs = sorted({x for s in self.series for x in s.x})
        headers = [self.xlabel] + [s.name for s in self.series]
        rows = []
        for x in xs:
            row: list[object] = [x]
            for s in self.series:
                m = dict(zip(s.x, s.y))
                row.append(m[x] if x in m else "-")
            rows.append(row)
        return format_table(headers, rows, title=f"{self.figure_id}: {self.title}")

    def as_chart(self) -> str:
        return ascii_chart(
            self.series,
            title=f"{self.figure_id}: {self.title}  [{self.ylabel} vs {self.xlabel}]",
        )

    def render(self) -> str:
        parts = [self.as_table(), "", self.as_chart()]
        if self.notes:
            parts += ["", self.notes]
        return "\n".join(parts)
