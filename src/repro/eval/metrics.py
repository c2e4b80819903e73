"""Small numeric helpers used by the evaluation harness.

The paper reports speedups and energy reductions as per-workload ratios and
summarises them with averages and ranges ("7-63x on average", "up to 539x").
These helpers centralise that arithmetic so every figure reproduction
summarises its series the same way.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

# Re-exported: the helpers live in ``repro.util`` so lower layers can use them.
from repro.util.summary import percentile, summarise_latencies  # noqa: F401


def speedup(baseline_time: float, accelerated_time: float) -> float:
    """Ratio of baseline to accelerated runtime (> 1 means the accelerator wins)."""
    if accelerated_time <= 0:
        raise ValueError("accelerated_time must be positive")
    return baseline_time / accelerated_time


def reduction(baseline_value: float, accelerated_value: float) -> float:
    """Ratio of baseline to accelerated consumption (energy, accesses, ...)."""
    if accelerated_value <= 0:
        raise ValueError("accelerated_value must be positive")
    return baseline_value / accelerated_value


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0 for an empty sequence)."""
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def arithmetic_mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def summarise_ratios(values: Sequence[float]) -> Dict[str, float]:
    """Min / max / arithmetic and geometric mean of a ratio series."""
    values = list(values)
    if not values:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "geomean": 0.0}
    return {
        "min": min(values),
        "max": max(values),
        "mean": arithmetic_mean(values),
        "geomean": geometric_mean(values),
    }


def normalise(values: Sequence[float]) -> List[float]:
    """Scale a series so it sums to one (used for energy distributions)."""
    total = sum(values)
    if total == 0:
        return [0.0 for _ in values]
    return [v / total for v in values]


def group_by(
    rows: Iterable[Dict[str, object]], key: str
) -> Dict[object, List[Dict[str, object]]]:
    """Group row dictionaries by one of their fields, preserving order."""
    grouped: Dict[object, List[Dict[str, object]]] = {}
    for row in rows:
        grouped.setdefault(row[key], []).append(row)
    return grouped
