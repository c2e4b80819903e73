"""Instrumentation bridges between the serving stack and the tracer.

The serving layer (:mod:`repro.service.service`) — the one execution
pipeline, which :meth:`repro.api.Session.execute` also submits to —
annotates its ``execute`` spans from engine outcome objects; these helpers
keep that annotation in one place — :class:`~repro.joins.stats.JoinStats` counters onto the execute
span, and the per-shard scatter/gather legs reconstructed from a
:class:`~repro.service.scatter.ScatterGatherStats` breakdown.

Shard legs are *derived* spans: they are laid out in virtual time from the
recorded per-task costs using the same model the executor charges
(``dispatch * n + critical path + merge``), rather than traced live on
worker threads — that keeps worker threads free of tracer calls and makes
the leg layout identical under the serial and concurrent fan-outs.
"""

from __future__ import annotations

from typing import Optional

from repro.joins.stats import JoinStats
from repro.obs.trace import Span
from repro.relational.sharding import SCATTER_DISPATCH_COST_NS

#: JoinStats counters attached to execute spans (the high-signal subset;
#: ``per_variable_matches`` stays off spans to keep lines compact).
JOIN_STAT_KEYS = JoinStats.TRACE_KEYS


def join_stats_attributes(stats: Optional[JoinStats]) -> dict:
    """The span-attribute projection of one execution's engine counters."""
    if stats is None:
        return {}
    return stats.trace_attributes()


def annotate_execute_span(span: Span, execution) -> None:
    """Attach an engine execution's outcome to its ``execute`` span.

    Adds the modelled cost, result cardinality, plan usage and the
    :data:`JOIN_STAT_KEYS` counters; a scatter fan-out additionally gets
    one child span per shard leg plus a ``gather`` leg (see
    :func:`attach_scatter_legs`).
    """
    span.attributes["cost_ns"] = execution.cost
    span.attributes["cardinality"] = execution.cardinality
    span.attributes["plan_used"] = execution.plan_used
    span.attributes.update(join_stats_attributes(execution.stats))
    if execution.scatter is not None:
        attach_scatter_legs(span, execution.scatter)


def attach_scatter_legs(span: Span, scatter) -> None:
    """Reconstruct per-shard scatter legs as children of the execute span.

    Layout mirrors the executor's virtual-time charge: a ``scatter_dispatch``
    window of ``SCATTER_DISPATCH_COST_NS`` per task, every shard leg starting
    together when dispatch ends (shards run concurrently in the model), and
    the ``gather`` merge starting after the critical-path shard finishes.
    """
    start = span.start_ns
    dispatch_ns = SCATTER_DISPATCH_COST_NS * len(scatter.tasks)
    span.attributes["scatter.shards"] = scatter.num_shards
    span.attributes["scatter.seed_relation"] = scatter.seed_relation
    span.attributes["scatter.seed_partitioned"] = scatter.seed_partitioned
    # Fault-tolerance outcome (repro.service.faults).  Attributes appear
    # only when nonzero, so fault-free traces stay byte-identical.
    retries = getattr(scatter, "retries", 0)
    timeouts = getattr(scatter, "timeouts", 0)
    hedges = getattr(scatter, "hedges", 0)
    missing = getattr(scatter, "missing_shards", ())
    if retries:
        span.attributes["scatter.retries"] = retries
    if timeouts:
        span.attributes["scatter.timeouts"] = timeouts
    if hedges:
        span.attributes["scatter.hedges"] = hedges
    if missing:
        span.attributes["scatter.degraded"] = True
        span.attributes["scatter.missing_shards"] = tuple(missing)
    span.child("scatter_dispatch", start).end(start + dispatch_ns)
    legs_start = start + dispatch_ns
    for task in scatter.tasks:
        leg = span.child(
            "shard",
            legs_start,
            {
                "shard": task.shard,
                "tuples": task.tuples,
                "from_cache": task.from_cache,
                "fragment_cardinality": task.fragment_cardinality,
            },
        )
        leg.end(legs_start + task.cost_ns)
        attempts = getattr(task, "attempts", 1)
        if attempts > 1:
            leg.attributes["attempts"] = attempts
            leg.event(
                "retried",
                legs_start,
                attempts=attempts,
                timeouts=getattr(task, "timeouts", 0),
            )
        if getattr(task, "timeouts", 0):
            leg.attributes["timeouts"] = task.timeouts
        if getattr(task, "hedged", False):
            leg.attributes["hedged"] = True
        if getattr(task, "replica", 0):
            leg.attributes["replica"] = task.replica
        if getattr(task, "lost", False):
            leg.attributes["lost"] = True
        wall = getattr(task, "wall_seconds", None)
        if wall is not None:
            leg.wall_elapsed_s = wall
    gather_start = legs_start + scatter.critical_path_ns
    gather = span.child(
        "gather",
        gather_start,
        {
            "merged_tuples": scatter.merged_tuples,
            "duplicates_removed": scatter.duplicates_removed,
        },
    )
    gather.end(gather_start + scatter.merge_cost_ns)


__all__ = [
    "JOIN_STAT_KEYS",
    "annotate_execute_span",
    "attach_scatter_legs",
    "join_stats_attributes",
]
