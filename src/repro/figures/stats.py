"""Fit statistics for the figure harnesses.

The paper reports that every measured curve "remains linear (each plot has a
correlation coefficient greater than 0.99)"; these helpers compute the same
statistics for our regenerated series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line plus the Pearson correlation of the data."""

    slope: float
    intercept: float
    correlation: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept

    @property
    def is_linear(self) -> bool:
        """The paper's linearity criterion: |r| > 0.99."""
        return abs(self.correlation) > 0.99


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Least-squares fit of ``ys`` on ``xs`` with Pearson correlation."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a line")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.allclose(x, x[0]):
        raise ValueError("all x values identical; cannot fit")
    slope, intercept = np.polyfit(x, y, 1)
    if np.allclose(y, y[0]):
        # A perfectly flat series is perfectly linear; Pearson r is 0/0.
        correlation = 1.0
    else:
        correlation = float(np.corrcoef(x, y)[0, 1])
    return LinearFit(slope=float(slope), intercept=float(intercept), correlation=correlation)


def relative_overhead(baseline: Sequence[float], measured: Sequence[float]) -> float:
    """Mean relative overhead of ``measured`` over ``baseline`` (e.g. 0.08 = 8 %)."""
    if len(baseline) != len(measured):
        raise ValueError("series must have equal length")
    if not baseline:
        raise ValueError("empty series")
    overheads = []
    for base, value in zip(baseline, measured):
        if base <= 0:
            raise ValueError(f"non-positive baseline value {base}")
        overheads.append((value - base) / base)
    return float(np.mean(overheads))


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The nearest-rank ``fraction`` quantile of ``samples`` (0.0 if empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned text table (the harnesses' output format)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for ri, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
        if ri == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines)
