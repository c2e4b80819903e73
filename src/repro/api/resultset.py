"""ResultSet: the lazy result surface returned by :meth:`Session.execute`.

The old entry points returned bare ``JoinResult`` / ``BackendExecution``
objects, each with a different shape.  A :class:`ResultSet` is the single
API-boundary result type: it knows its query, canonical signature, routed
engine and route decision up front, and defers the actual execution until
the tuples are first consumed (iteration, :meth:`to_list`, ``len``,
``.stats``...).  Forcing it submits one request to the owning session's
:class:`~repro.service.QueryService` and serves it, exactly once; the
resulting :class:`~repro.service.QueryOutcome` (tuples, ``QueryRecord``,
engine execution and trace) backs every property.  The service's caches
are probed and populated at that moment, not at :meth:`Session.execute`
time, so a ResultSet that is never consumed never pays for — or
publishes — a result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

from repro.api.routing import RouteDecision
from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.query import ConjunctiveQuery

if TYPE_CHECKING:  # the service layer imports this package's engines
    from repro.service.service import QueryOutcome


class ResultSet:
    """Lazy, iterable view over one statement execution."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        signature: str,
        backend: str,
        executor: Callable[[], "QueryOutcome"],
        route: Optional[RouteDecision] = None,
    ):
        self.query = query
        self.signature = signature
        self.backend = backend
        self.route = route
        self._executor = executor
        self._outcome: Optional["QueryOutcome"] = None

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    @property
    def executed(self) -> bool:
        """Whether the execution has been forced yet."""
        return self._outcome is not None

    def _force(self) -> "QueryOutcome":
        if self._outcome is None:
            self._outcome = self._executor()
        return self._outcome

    def _execution_field(self, name: str, default=None):
        """One field of the engine execution (``default`` for cache replays)."""
        execution = self._force().execution
        return default if execution is None else getattr(execution, name)

    # ------------------------------------------------------------------ #
    # Tuples
    # ------------------------------------------------------------------ #
    @property
    def tuples(self) -> List[Tuple[int, ...]]:
        return self._force().tuples

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self._force().tuples)

    def __len__(self) -> int:
        return len(self._force().tuples)

    def to_list(self) -> List[Tuple[int, ...]]:
        """The output tuples as a fresh list (head-variable order)."""
        return list(self._force().tuples)

    def to_set(self) -> set:
        """The output as a set of tuples (order-insensitive comparison)."""
        return set(self._force().tuples)

    @property
    def cardinality(self) -> int:
        """Result count (the aggregated count for count-only executions)."""
        return self._force().cardinality

    # ------------------------------------------------------------------ #
    # Provenance
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> Optional[JoinStats]:
        """Algorithm counters of the run (``None`` for cache replays)."""
        return self._execution_field("stats")

    @property
    def plan(self) -> Optional[JoinPlan]:
        """The compiled plan the run used (``None`` for plan-blind engines)."""
        return self._execution_field("plan")

    @property
    def report(self) -> Optional[object]:
        """The accelerator run report, when the engine produced one."""
        return self._execution_field("report")

    @property
    def shard_stats(self) -> Optional[object]:
        """Per-shard work breakdown of a scatter-gather execution.

        A :class:`repro.service.scatter.ScatterGatherStats` when the
        statement ran over a sharded catalog; ``None`` for monolithic
        executions and cache replays.
        """
        return self._execution_field("scatter")

    @property
    def degraded(self) -> bool:
        """True when the answer is a flagged partial (shard fragments lost).

        Only possible under ``on_shard_loss="partial"`` with an armed fault
        plan; a degraded result is exactly the union of the surviving shard
        fragments and is never entered into the result cache.
        """
        return self._force().record.degraded

    @property
    def missing_shards(self) -> Tuple[int, ...]:
        """Shards whose fragments are absent from a degraded answer."""
        return self._execution_field("missing_shards", ())

    @property
    def trace(self) -> Optional[object]:
        """The finished :class:`repro.obs.Span` tree of this execution.

        ``None`` unless the owning session was built with ``trace=...``;
        forcing the ResultSet is what produces (and finishes) the trace.
        """
        return self._force().trace

    @property
    def cost(self) -> float:
        """Deterministic service cost of the run, in modelled nanoseconds."""
        return self._force().record.service_time

    @property
    def from_cache(self) -> bool:
        """True when the tuples were replayed from the service result cache."""
        return self._force().record.result_cache_hit

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = f"{len(self._outcome.tuples)} tuples" if self.executed else "pending"
        return f"ResultSet(query={self.query.name!r}, backend={self.backend!r}, {state})"
