"""Latency summaries and plain-text tables shared across layers.

The serving layer's metrics (:mod:`repro.service.metrics`), the trace
summariser (:mod:`repro.obs.summarize`) and the evaluation harness
(:mod:`repro.eval`, which re-exports these names) all summarise latency
series and render aligned tables the same way.  Living in ``util`` keeps
those layers from importing the evaluation package, which itself imports
the serving layer.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values`` by linear interpolation.

    Returns 0 for an empty sequence so summary tables degrade gracefully.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return float(ordered[lower])
    weight = rank - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


def summarise_latencies(values: Sequence[float]) -> Dict[str, float]:
    """Count / mean / p50 / p95 / max summary of a latency series.

    Used by the serving subsystem (:mod:`repro.service.metrics`) for latency
    and queue-wait distributions.
    """
    values = list(values)
    if not values:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "max": float(max(values)),
    }


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:.3g}",
) -> str:
    """Render ``rows`` as an aligned monospace table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_line([str(h) for h in headers]))
    lines.append(render_line(["-" * w for w in widths]))
    for row in rendered_rows:
        lines.append(render_line(row))
    return "\n".join(lines)


def format_latency_summary(
    name: str, summary: Dict[str, float], unit: str = "units"
) -> str:
    """One-line rendering of a :func:`summarise_latencies` dict.

    The serving subsystem reports latencies in backend-specific abstract work
    units (or nanoseconds for the accelerator backend); ``unit`` labels them.
    """
    return (
        f"{name}: mean {summary['mean']:.1f} {unit}, "
        f"p50 {summary['p50']:.1f}, p95 {summary['p95']:.1f}, "
        f"max {summary['max']:.1f} (n={int(summary['count'])})"
    )
