"""Series utilities: down-sampling and ASCII table rendering.

The experiment harnesses print the same series the paper's figures plot;
these helpers keep that rendering code out of the platform modules.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np


def downsample(series: Sequence[Tuple[float, float]], points: int) -> List[Tuple[float, float]]:
    """Reduce a series to at most ``points`` entries, keeping the endpoints.

    Uses evenly spaced index selection — adequate for the monotone cumulative
    curves of Figs. 5-6 where the shape, not every sample, matters.
    """
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    if len(series) <= points:
        return list(series)
    idx = np.linspace(0, len(series) - 1, points).round().astype(int)
    idx = np.unique(idx)
    return [series[i] for i in idx]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a fixed-width ASCII table (no external deps)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)
