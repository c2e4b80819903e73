"""Incremental view maintenance: patch cached results instead of dropping them.

Historically every catalog mutation flowed straight into
``ResultCache.invalidate`` — drop-and-recompute: any entry touching the
mutated relation was discarded and the next request paid the full join
again.  :class:`ResultMaintainer` is the alternative wiring: it subscribes
to the catalog's mutation events and, for *patchable* events (exact insert
batches, see :attr:`repro.relational.catalog.MutationEvent.patchable`),
computes each dependent entry's **delta result** with a semi-naive delta
join (:func:`repro.joins.delta.evaluate_delta`) and merges it into the
cached entry (:meth:`~repro.service.caches.ResultCache.patch_result`).
Both halves cost in proportion to the batch, not to the relation or the
cached result: every delta term's variable order leads with its delta atom,
so the join starts from the inserted rows, and a patched entry stays sorted
so later patches bisect-insert the new rows instead of re-sorting the
result.  Non-patchable events — relation (re)definitions,
inexact batches — and any solver failure fall back to the historical drop,
so maintenance can degrade to recompute but never to a wrong answer.

Two caches are maintained:

* the **result cache** of complete query results: the delta join runs
  against the full catalog, with the event's rows as the only delta;
* the **shard-partial cache** behind a scatter-gather executor (when one is
  present): delegated to :meth:`ScatterGatherExecutor.maintain`, which
  patches only the fragment entries the event's shard touches and respects
  the fault-injection path (a patch whose fragment is unreachable is lost —
  the entry drops).

The maintainer owns a dedicated plan-aware engine (LFTJ by default) and a
:class:`~repro.joins.delta.DeltaPlanner` so delta-term plans are compiled
once and maintenance work is accounted with real ``JoinStats``; the
accumulated virtual-time cost is surfaced as :attr:`cost_ns` for the
service's clock and traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from repro.joins.compiler import QueryCompiler
from repro.joins.delta import DeltaPlanner, evaluate_delta
from repro.relational.catalog import MutationEvent
from repro.relational.query import ConjunctiveQuery
from repro.service.caches import ResultCache

#: The maintenance policies a service/session can run under.
MAINTENANCE_MODES = ("recompute", "incremental")


def check_maintenance_mode(mode: str) -> str:
    """Validate a maintenance mode name; returns it for chaining."""
    if mode not in MAINTENANCE_MODES:
        raise ValueError(
            f"maintenance must be one of {MAINTENANCE_MODES}, got {mode!r}"
        )
    return mode


@dataclass(frozen=True)
class MaintenanceReport:
    """What one mutation event did to the caches.

    ``patchable`` records whether the incremental path was even attempted;
    a ``False`` means the event forced drop-and-recompute (and the drop
    counts land in ``*_dropped``).  ``cost_ns`` is the virtual-time cost of
    the delta joins run for this event (0 for pure drops).
    """

    mode: str
    patchable: bool
    result_patched: int = 0
    result_dropped: int = 0
    partial_patched: int = 0
    partial_dropped: int = 0
    cost_ns: float = 0.0

    @property
    def patched(self) -> int:
        return self.result_patched + self.partial_patched

    @property
    def dropped(self) -> int:
        return self.result_dropped + self.partial_dropped


class ResultMaintainer:
    """Routes catalog mutation events to patch-or-drop cache maintenance.

    For a patchable insert batch, each dependent entry's delta result comes
    from delta-first semi-naive terms (:class:`~repro.joins.delta.DeltaPlanner`
    compiles each term to start at the inserted rows) and is merged by
    :meth:`~repro.service.caches.ResultCache.patch_result`, which keeps a
    patched entry sorted and bisect-inserts later deltas into a copy.

    Parameters
    ----------
    catalog:
        The live (post-insert) catalog the delta joins read.  Mutation
        events are observed *after* the catalog applied them, which is
        exactly what the post-state semi-naive rewrite needs.
    result_cache:
        The complete-result cache to maintain.
    scatter:
        Optional :class:`~repro.service.scatter.ScatterGatherExecutor`
        whose shard-partial cache should be maintained too.
    compiler:
        Compiler for delta-term plans (shared with the service where
        possible so signatures agree); a private caching compiler by
        default.
    engine:
        Plan-aware engine the delta terms run on; LFTJ by default — the
        cache-less engine keeps maintenance cost independent of any
        PJR-cache state.
    mode:
        ``"incremental"`` (patch when possible) or ``"recompute"``
        (always drop; useful to A/B the two policies through one wiring).
    clock:
        Zero-argument callable giving the current virtual time, used for
        the scatter fault-path check (a fragment unreachable *now* cannot
        be patched).  Defaults to a constant 0.0.
    """

    def __init__(
        self,
        catalog,
        result_cache: ResultCache,
        scatter=None,
        compiler: Optional[QueryCompiler] = None,
        engine=None,
        mode: str = "incremental",
        clock: Optional[Callable[[], float]] = None,
    ):
        if engine is None:
            from repro.api.engines import create_engine

            engine = create_engine("lftj")
        self.catalog = catalog
        self.result_cache = result_cache
        self.scatter = scatter
        self.compiler = compiler or QueryCompiler(enable_caching=True)
        self.planner = DeltaPlanner(self.compiler)
        self.engine = engine
        self.mode = check_maintenance_mode(mode)
        self.clock = clock or (lambda: 0.0)
        #: Accumulated virtual-time cost of every delta join run so far.
        self.cost_ns = 0.0
        #: Per-mutation report history, in event order (like the service's
        #: ``metrics.records``: one entry per observed event).
        self.reports: List[MaintenanceReport] = []

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #
    def on_mutation(self, event: MutationEvent) -> MaintenanceReport:
        """Maintain both caches for one mutation event; returns the report.

        This is the method to subscribe to the catalog
        (``catalog.subscribe_invalidation(maintainer.on_mutation)``) in
        place of the caches' ``invalidate`` methods.
        """
        if self.mode != "incremental" or not event.patchable:
            result_dropped = self.result_cache.invalidate(event)
            partial_dropped = 0
            if self.scatter is not None and self.scatter.partial_cache is not None:
                partial_dropped = self.scatter.partial_cache.invalidate(event)
            report = MaintenanceReport(
                mode=self.mode,
                patchable=False,
                result_dropped=result_dropped,
                partial_dropped=partial_dropped,
            )
            self.reports.append(report)
            return report
        cost_before = self.cost_ns
        patched, dropped = self.result_cache.maintain(event, self._solve)
        partial_patched = partial_dropped = 0
        if self.scatter is not None and self.scatter.partial_cache is not None:
            partial_patched, partial_dropped = self.scatter.maintain(
                event, self.planner, self.engine, now=self.clock()
            )
        report = MaintenanceReport(
            mode=self.mode,
            patchable=True,
            result_patched=patched,
            result_dropped=dropped,
            partial_patched=partial_patched,
            partial_dropped=partial_dropped,
            cost_ns=self.cost_ns - cost_before,
        )
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------ #
    # Delta computation
    # ------------------------------------------------------------------ #
    def delta_for(
        self, query: ConjunctiveQuery, event: MutationEvent
    ) -> Tuple[Tuple[int, ...], ...]:
        """The rows ``event`` added to ``query``'s result (sorted).

        Shared by the result-cache solver and continuous-query subscribers
        (:meth:`repro.api.session.Session.subscribe`); compiled delta plans
        are memoised across both uses.
        """
        result = evaluate_delta(
            query,
            self.catalog,
            {event.relation: event.delta.rows},
            self.engine,
            self.planner,
        )
        self.cost_ns += result.cost_ns
        return result.tuples

    def _solve(
        self, key: str, query: ConjunctiveQuery, event: MutationEvent
    ) -> Optional[Iterable[Tuple[int, ...]]]:
        """Delta rows one cached entry gains from ``event`` (None = drop)."""
        del key  # full-result entries need no per-key context
        return self.delta_for(query, event)


__all__ = [
    "MAINTENANCE_MODES",
    "MaintenanceReport",
    "ResultMaintainer",
    "check_maintenance_mode",
]
