"""Plain-text rendering of experiment results.

Every experiment in :mod:`repro.eval.experiments` returns structured rows;
this module turns them into aligned text tables (and simple ASCII series) so
the benchmark harness can print the same rows/series the paper's tables and
figures report.  No plotting library is required.
"""

from __future__ import annotations

from typing import Dict, Sequence

# Re-exported: the helpers live in ``repro.util`` so lower layers can use them.
from repro.util.summary import format_latency_summary, format_table  # noqa: F401


def format_ratio_summary(name: str, summary: Dict[str, float]) -> str:
    """One-line min/mean/max summary of a ratio series (paper-style phrasing)."""
    return (
        f"{name}: {summary['mean']:.1f}x on average "
        f"(geomean {summary['geomean']:.1f}x, range {summary['min']:.1f}x - {summary['max']:.1f}x)"
    )


def format_distribution(
    labels: Sequence[str], fractions: Sequence[float], width: int = 40
) -> str:
    """Render a single stacked-distribution row as labelled percentages plus a bar."""
    parts = [f"{label} {fraction:.1%}" for label, fraction in zip(labels, fractions)]
    bar = ""
    for label, fraction in zip(labels, fractions):
        segment = max(0, int(round(fraction * width)))
        bar += (label[0] if label else "?") * segment
    return ", ".join(parts) + "  |" + bar[:width] + "|"


def format_series(
    x_label: str,
    y_label: str,
    points: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an (x, y) series as a two-column table (for line-plot figures)."""
    return format_table([x_label, y_label], points, title=title)


def indent(text: str, prefix: str = "    ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
