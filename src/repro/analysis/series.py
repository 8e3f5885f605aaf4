"""Named (x, y) data series with qualitative-shape predicates.

The reproduction's acceptance criteria are *shapes*: "total cost increases
with the network charging rate", "the no-cache line grows faster than the
cached curve", "the curve approaches the network-only asymptote".  These are
exactly the predicates :class:`Series` offers, so benchmark assertions read
like the paper's prose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError

#: Slack for float noise in the shape predicates.
_TOL = 1e-9


@dataclass(frozen=True)
class Series:
    """One curve of an experiment figure."""

    name: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ReproError(
                f"series {self.name!r}: x and y lengths differ "
                f"({len(self.x)} vs {len(self.y)})"
            )
        if len(self.x) == 0:
            raise ReproError(f"series {self.name!r} is empty")
        xs = np.asarray(self.x)
        if not (np.diff(xs) > 0).all():
            raise ReproError(f"series {self.name!r}: x must be strictly increasing")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.x, self.y))

    # -- shape predicates ------------------------------------------------------

    def is_increasing(self, *, strict: bool = False) -> bool:
        d = np.diff(np.asarray(self.y))
        return bool((d > _TOL).all()) if strict else bool((d >= -_TOL).all())

    def is_decreasing(self) -> bool:
        return bool((np.diff(np.asarray(self.y)) <= _TOL).all())

    def dominates(self, other: "Series") -> bool:
        """True if this curve lies at or above ``other`` at every shared x."""
        return all(a >= b - _TOL for a, b in self._shared_points(other))

    def linearity(self) -> float:
        """R^2 of the best linear fit (1.0 = perfectly linear)."""
        xs, ys = np.asarray(self.x), np.asarray(self.y)
        if len(xs) < 3:
            return 1.0
        coeffs = np.polyfit(xs, ys, 1)
        pred = np.polyval(coeffs, xs)
        ss_res = float(((ys - pred) ** 2).sum())
        ss_tot = float(((ys - ys.mean()) ** 2).sum())
        if ss_tot == 0.0:
            return 1.0
        return 1.0 - ss_res / ss_tot

    def _shared_points(self, other: "Series") -> list[tuple[float, float]]:
        other_map = dict(zip(other.x, other.y))
        shared = [(ys, other_map[xs]) for xs, ys in zip(self.x, self.y) if xs in other_map]
        if not shared:
            raise ReproError(
                f"series {self.name!r} and {other.name!r} share no x values"
            )
        return shared


def gap_between(upper: Series, lower: Series) -> list[float]:
    """Pointwise ``upper - lower`` at shared x values (in x order)."""
    lower_map = dict(zip(lower.x, lower.y))
    gaps = [y - lower_map[x] for x, y in zip(upper.x, upper.y) if x in lower_map]
    if not gaps:
        raise ReproError(
            f"series {upper.name!r} and {lower.name!r} share no x values"
        )
    return gaps
