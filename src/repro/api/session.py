"""Session: the repository's single public entry point.

A :class:`Session` is a thin facade over one
:class:`repro.service.QueryService`, built with it: the service owns the
catalog wiring, the plan and result caches, the scatter-gather executor of a
sharded catalog, the incremental maintainer, the fault injector, the route
memo and the execution backend.  The session resolves statements, routes
them through its cost router (:mod:`repro.api.routing`) over the engine
table resolved from the shared registry (:mod:`repro.api.engines`), and
exposes three verbs::

    session = Session(database)
    session.execute("cycle3")            # -> ResultSet (lazy, cached, routed)
    session.explain("cycle3")            # -> Explanation (route, plan, costs)
    session.serve(WorkloadSpec(...))     # -> a request stream on the same service

``execute`` resolves, validates, signs and routes the statement at call
time and returns a lazy :class:`~repro.api.resultset.ResultSet`; forcing it
submits one request, pinned to the routed engine, and serves it.  There is
one query pipeline: synchronous executions and served workloads share the
caches, counters, ``QueryRecord`` history, traces, circuit breakers and
maintenance by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.api.engines import EngineProtocol, create_engine, engine_names
from repro.api.resultset import ResultSet
from repro.api.routing import CostRouter, RouteDecision
from repro.api.statement import Statement, coerce_statement
from repro.joins.compiler import QueryCompiler
from repro.joins.plan import JoinPlan
from repro.relational.catalog import Database, MutationEvent
from repro.relational.query import ConjunctiveQuery
from repro.relational.sharding import ShardedDatabase, shard_database
from repro.service.faults import FaultPlan, RetryPolicy
from repro.service.maintenance import ResultMaintainer, check_maintenance_mode
from repro.service.service import QueryService
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ResultDelta:
    """One change to a subscribed query's result, delivered on mutation.

    ``added``/``removed`` are the rows that entered/left the result
    (sorted).  ``relation``/``shard`` identify the mutation that caused the
    change; ``incremental`` records whether the delta was computed by a
    semi-naive delta join (patch path) or by a full re-execution diff.
    """

    relation: str
    shard: Optional[int]
    added: Tuple[Tuple[int, ...], ...]
    removed: Tuple[Tuple[int, ...], ...]
    incremental: bool = False


class Subscription:
    """A continuous query: a live result set plus a stream of deltas.

    Created by :meth:`Session.subscribe`.  The subscription snapshots the
    statement's current result at creation; every subsequent catalog
    mutation that touches the query's relations updates the snapshot and
    queues a :class:`ResultDelta` (only when the result actually changed).
    Consume with :meth:`poll` (drains queued deltas) and :attr:`result`
    (the maintained result, sorted).  :meth:`close` detaches it.

    Under ``maintenance="incremental"`` patchable insert events update the
    snapshot with a semi-naive delta join; everything else — and every
    event in ``"recompute"`` mode — re-executes the statement and diffs,
    so removed rows (relation redefinitions) are reported correctly in
    both modes.
    """

    def __init__(self, session: "Session", query: ConjunctiveQuery, signature: str):
        self._session = session
        self.query = query
        self.signature = signature
        self._snapshot: set = set(
            tuple(row) for row in session.execute(query).tuples
        )
        self._pending: list = []
        self.closed = False

    @property
    def result(self) -> Tuple[Tuple[int, ...], ...]:
        """The maintained result as of the last observed mutation (sorted)."""
        return tuple(sorted(self._snapshot))

    def poll(self) -> Tuple[ResultDelta, ...]:
        """Drain and return the deltas queued since the last poll."""
        pending, self._pending = self._pending, []
        return tuple(pending)

    def close(self) -> None:
        """Stop maintaining this subscription (idempotent)."""
        self.closed = True
        self._session._unsubscribe(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@dataclass
class Explanation:
    """What :meth:`Session.explain` returns: the route and plan for a statement."""

    statement: Statement
    query: ConjunctiveQuery
    signature: str
    decision: RouteDecision
    plan: Optional[JoinPlan]
    estimated_cost_ns: float

    def describe(self) -> str:
        lines = [
            f"statement       : {self.query.to_datalog()}",
            f"signature       : {self.signature}",
            self.decision.describe(),
        ]
        if self.plan is not None:
            lines.append("plan:")
            lines.append(self.plan.describe())
        else:
            lines.append("plan            : (engine plans internally)")
        return "\n".join(lines)


class Session:
    """Unified facade over the catalog, the engine registry and one service.

    Parameters
    ----------
    database:
        The catalog statements run against (a fresh empty one by default).
        The session's service subscribes its caches to the catalog's
        mutation events, so mutations through :meth:`insert` (or the
        catalog itself) drop — or patch — dependent cached results.
    engines:
        Engine names (resolved through the shared registry) and/or ready
        :class:`~repro.api.engines.EngineProtocol` instances.  Defaults to
        every registered engine.
    routing:
        ``"auto"`` (default) routes unpinned served requests through the
        cost router; ``"rotate"`` keeps the legacy round-robin for them.
        :meth:`execute` always routes on cost (or pins a named engine).
    shards / partitioner:
        ``shards > 1`` re-partitions the database into a
        :class:`~repro.relational.sharding.ShardedDatabase` (``"hash"`` or
        ``"range"`` over each relation's first attribute) and executes
        statements by scatter-gather; a database that is already sharded is
        used as-is.  The service keeps a shard-aware partial-result cache,
        so mutating one shard re-executes only that shard's fragment.
    concurrency / execution_backend:
        How the service physically executes admitted requests — those of
        :meth:`serve` and the single request of each forced
        :meth:`execute`.  ``concurrency=1`` (default) keeps the
        deterministic virtual-time loop; ``concurrency=N`` (N > 1) runs
        engine work on a :class:`~repro.service.backends.ThreadPoolBackend`
        with ``N`` workers — same results, cache contents and admission
        decisions.  ``execution_backend`` pins a backend name from the
        registry (``"virtual"``, ``"threads"``, or ``"process"`` — the
        latter ships plan-aware engine work to worker processes over
        shared-memory trie segments, see :mod:`repro.service.shm`) or a
        ready :class:`~repro.service.backends.ExecutionBackend` instance.
        Pooled backends own host resources (worker pools, shared-memory
        segments); :meth:`close` releases them and is idempotent.
    max_in_flight / max_queue_depth / seed:
        Admission-control knobs of the service.
    trace:
        ``True`` (or a ready :class:`repro.obs.Tracer`) makes the service
        record a span tree per request; a forced :class:`ResultSet`
        surfaces its request's tree as ``ResultSet.trace``.  Default
        ``None`` keeps the zero-overhead no-op tracer.
    storage_dir:
        Open (or initialise) the durable store at this directory and use it
        as the session's catalog — an existing store is *recovered*
        (snapshot + mmap'd trie segments + WAL replay) before the first
        statement runs.  Mutually exclusive with ``database``; combine with
        ``shards``/``partitioner`` to create a durable sharded catalog.
        The session owns the store: :meth:`snapshot` persists, and
        :meth:`close` releases its file handles.
    faults / on_shard_loss / retry_policy / replication_factor:
        Fault-tolerance knobs for sharded catalogs (see
        :mod:`repro.service.faults`).  ``faults`` arms a deterministic
        fault injector from a :class:`~repro.service.faults.FaultPlan` or a
        spec string like ``"slow:0*3;down:1@100-inf"`` (an empty plan arms
        nothing); ``on_shard_loss`` selects between raising a typed
        :class:`~repro.service.faults.ShardUnavailableError` (``"fail"``,
        default) and returning a flagged partial result (``"partial"`` —
        see :attr:`ResultSet.degraded`); ``retry_policy`` overrides the
        default timeout/backoff/hedging/breaker parameters; and
        ``replication_factor > 1`` stores that many copies of every
        partitioned fragment on distinct shards so retries can move to a
        replica.
    maintenance:
        How the caches track catalog mutations.  ``"recompute"`` (default)
        drops every dependent cached result.  ``"incremental"`` patches
        cached results — and the shard-partial cache of a sharded catalog —
        in place with semi-naive delta joins (:mod:`repro.joins.delta`) for
        patchable events (exact insert batches); anything else still
        drops, so a stale answer is never served.  Also selects how
        :meth:`subscribe` subscriptions are advanced.

    ``service``, ``plan_cache``, ``result_cache``, ``maintainer`` (``None``
    under ``"recompute"``), ``tracer`` and ``engines`` are the service's own
    objects.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        engines: Optional[Sequence[Union[str, EngineProtocol]]] = None,
        compiler: Optional[QueryCompiler] = None,
        router: Optional[CostRouter] = None,
        plan_cache_capacity: int = 128,
        result_cache_capacity: int = 256,
        max_in_flight: int = 4,
        max_queue_depth: Optional[int] = None,
        seed: int = 2020,
        routing: str = "auto",
        shards: int = 1,
        partitioner: str = "hash",
        concurrency: int = 1,
        execution_backend=None,
        trace=None,
        storage_dir: Optional[str] = None,
        faults: Union[FaultPlan, str, None] = None,
        on_shard_loss: str = "fail",
        retry_policy: Optional[RetryPolicy] = None,
        replication_factor: int = 1,
        maintenance: str = "recompute",
    ):
        # Checked before a durable store is opened, so a bad knob leaks no
        # file handle (the service checks maintenance and on_shard_loss too).
        if routing not in ("auto", "rotate"):
            raise ValueError(f"routing must be 'auto' or 'rotate', got {routing!r}")
        check_maintenance_mode(maintenance)
        if on_shard_loss not in ("fail", "partial"):
            raise ValueError(
                f"on_shard_loss must be 'fail' or 'partial', got {on_shard_loss!r}"
            )
        check_positive("shards", shards)
        check_positive("concurrency", concurrency)
        if storage_dir is not None:
            if database is not None:
                raise ValueError(
                    "pass either database= or storage_dir=, not both: a "
                    "durable session owns the catalog it opens"
                )
            from repro.storage import open_store

            database = open_store(
                storage_dir,
                name="session",
                num_shards=shards if shards > 1 else None,
                partitioner=partitioner,
            )
        self.storage_dir = storage_dir
        self._owns_database = storage_dir is not None
        if database is None:
            database = Database("session")
        if shards > 1 and not isinstance(database, ShardedDatabase):
            database = shard_database(
                database,
                shards,
                partitioner=partitioner,
                replication_factor=replication_factor,
            )
        self.database = database
        self.compiler = compiler or QueryCompiler(enable_caching=True)
        self.router = router or CostRouter()
        self.routing = routing
        self.seed = seed
        engine_table: Dict[str, EngineProtocol] = {}
        for entry in engines if engines is not None else engine_names():
            engine = create_engine(entry) if isinstance(entry, str) else entry
            engine_table[engine.name] = engine
        if not engine_table:
            raise ValueError("Session needs at least one engine")
        self.service = QueryService(
            database,
            backends=tuple(engine_table.values()),
            compiler=self.compiler,
            plan_cache_capacity=plan_cache_capacity,
            result_cache_capacity=result_cache_capacity,
            max_in_flight=max_in_flight,
            max_queue_depth=max_queue_depth,
            seed=seed,
            router=self.router if routing == "auto" else None,
            backend=execution_backend,
            workers=concurrency,
            tracer=trace,
            faults=faults,
            on_shard_loss=on_shard_loss,
            retry_policy=retry_policy,
            maintenance=maintenance,
        )
        self.engines: Dict[str, EngineProtocol] = self.service.backends
        self.plan_cache = self.service.plan_cache
        self.result_cache = self.service.result_cache
        self.maintainer: Optional[ResultMaintainer] = self.service.maintainer
        self.tracer = self.service.tracer
        self._subscriptions: list = []
        self._closed = False

    # ------------------------------------------------------------------ #
    # Continuous queries
    # ------------------------------------------------------------------ #
    def subscribe(self, statement: object) -> Subscription:
        """Register ``statement`` as a continuous query; returns its handle.

        The returned :class:`Subscription` carries the statement's current
        result and is kept up to date as the catalog mutates: each mutation
        touching the query's relations updates :attr:`Subscription.result`
        and queues a :class:`ResultDelta` for :meth:`Subscription.poll`.
        Under ``maintenance="incremental"`` the update is a semi-naive
        delta join; otherwise the statement is re-executed and diffed.
        """
        _, query, signature = self._prepare(statement)
        subscription = Subscription(self, query, signature)
        if not self._subscriptions:
            # Registered after the service's own listener, so subscriptions
            # advance over caches already maintained for each event.
            self.database.subscribe_invalidation(self._notify_subscriptions)
        self._subscriptions.append(subscription)
        return subscription

    def _unsubscribe(self, subscription: Subscription) -> None:
        self._subscriptions = [s for s in self._subscriptions if s is not subscription]
        if not self._subscriptions:
            self.database.unsubscribe_invalidation(self._notify_subscriptions)

    def _notify_subscriptions(self, event: MutationEvent) -> None:
        """Advance every live subscription past one catalog mutation.

        Runs inside the catalog's notification, *after* the service
        maintained its caches for the event — the recompute diff below may
        therefore be answered straight from the (already patched or
        dropped) result cache.  A delta is queued only when the result
        actually changed.
        """
        incremental = self.maintainer is not None and event.patchable
        for subscription in list(self._subscriptions):
            if event.relation not in subscription.query.relation_names():
                continue
            added: Tuple[Tuple[int, ...], ...]
            removed: Tuple[Tuple[int, ...], ...] = ()
            if incremental:
                delta = self.maintainer.delta_for(subscription.query, event)
                added = tuple(
                    sorted(t for t in delta if t not in subscription._snapshot)
                )
                subscription._snapshot.update(added)
            else:
                current = {tuple(row) for row in self.execute(subscription.query).tuples}
                added = tuple(sorted(current - subscription._snapshot))
                removed = tuple(sorted(subscription._snapshot - current))
                subscription._snapshot = current
            if added or removed:
                subscription._pending.append(
                    ResultDelta(
                        relation=event.relation,
                        shard=event.shard,
                        added=added,
                        removed=removed,
                        incremental=incremental,
                    )
                )

    @property
    def num_shards(self) -> int:
        """Shard count of the session's catalog (1 for a monolithic database)."""
        return getattr(self.database, "num_shards", 1)

    def close(self) -> None:
        """Detach this session and its service from the catalog (idempotent).

        Unsubscribes the mutation listeners, so short-lived sessions over a
        long-lived shared database do not accumulate dead listeners, and
        releases the execution backend's host resources.  A closed session
        can still execute; its cached results simply stop tracking catalog
        mutations.
        """
        if not self._closed:
            self.database.unsubscribe_invalidation(self._notify_subscriptions)
            self._subscriptions = []
            self.service.close()
            if self._owns_database:
                # A durable catalog opened via storage_dir= belongs to this
                # session; release its WAL/SQLite handles.
                self.database.close()
            self._closed = True

    def snapshot(self):
        """Fold the durable store's WAL into a fresh snapshot.

        Only meaningful for sessions opened with ``storage_dir=`` (or handed
        a durable catalog); persists every relation plus the currently
        cached trie indexes as mmap-ready segments and truncates the
        mutation log.  Returns the store's snapshot summary.
        """
        snapshot = getattr(self.database, "snapshot", None)
        if snapshot is None:
            raise RuntimeError(
                "this session's catalog is not durable; open the session "
                "with storage_dir=... to enable snapshots"
            )
        return snapshot()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Engine table
    # ------------------------------------------------------------------ #
    def add_engine(self, engine: EngineProtocol) -> None:
        """Make ``engine`` available to this session (latest name wins)."""
        self.service.add_backend(engine)

    def engine_names(self) -> Tuple[str, ...]:
        """Engines configured on this session, sorted."""
        return tuple(sorted(self.engines))

    # ------------------------------------------------------------------ #
    # Statement preparation and routing
    # ------------------------------------------------------------------ #
    def _prepare(self, statement: object) -> Tuple[Statement, ConjunctiveQuery, str]:
        """Resolve, validate and sign ``statement`` against the catalog."""
        stmt = coerce_statement(statement)
        query = stmt.resolve(self.database)
        self.database.validate_query(query)
        return stmt, query, self.compiler.signature(query)

    def _route(
        self,
        query: ConjunctiveQuery,
        route: Optional[str],
        signature: str,
        with_estimates: bool = False,
    ) -> RouteDecision:
        """Route ``query``: auto decisions come from the service's route memo."""
        if route in (None, "auto"):
            return self.service.route(query, signature, self.router)
        return self.router.pinned(
            route, query, self.database, self.engines, with_estimates=with_estimates
        )

    # ------------------------------------------------------------------ #
    # Single-statement execution
    # ------------------------------------------------------------------ #
    def execute(self, statement: object, route: str = "auto") -> ResultSet:
        """Execute ``statement`` and return a lazy :class:`ResultSet`.

        ``statement`` may be a :class:`Statement`, a ``ConjunctiveQuery``,
        or a string (SQL, datalog, or a pattern name).  ``route="auto"``
        picks the cheapest eligible engine from the cost estimates; any
        configured engine name pins the choice.  Execution is deferred to
        the first consumption of the ResultSet and memoised: forcing it
        submits one request, pinned to the routed engine, and serves it
        (draining anything else pending on the service).
        """
        _, query, signature = self._prepare(statement)
        decision = self._route(query, route, signature)
        service = self.service
        return ResultSet(
            query,
            signature,
            decision.chosen,
            lambda: service.serve(query, backend=decision.chosen, signature=signature),
            route=decision,
        )

    def explain(self, statement: object, route: str = "auto") -> Explanation:
        """Describe how ``statement`` would run: route, costs and plan.

        Explaining a plan-aware route compiles (and caches) the canonical
        plan but executes nothing.
        """
        stmt, query, signature = self._prepare(statement)
        decision = self._route(query, route, signature, with_estimates=True)
        plan = None
        if self.engines[decision.chosen].plan_aware:
            _canonical, plan, _hit = self.service.plan_for(query, signature)
        estimate = decision.estimate_for(decision.chosen)
        return Explanation(
            statement=stmt,
            query=query,
            signature=signature,
            decision=decision,
            plan=plan,
            estimated_cost_ns=estimate.cost_ns if estimate else float("nan"),
        )

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(self, workload, seed: Optional[int] = None):
        """Serve a workload through the service layer; outcomes by request id.

        ``workload`` is either a :class:`~repro.service.WorkloadSpec` (a
        seeded stream is generated from it) or an iterable of
        :class:`~repro.service.WorkloadRequest`.
        """
        from repro.service.workload import WorkloadSpec, generate_requests, run_workload

        if isinstance(workload, WorkloadSpec):
            requests = generate_requests(workload, seed=seed if seed is not None else self.seed)
        else:
            requests = list(workload)
        return run_workload(self.service, requests)

    def report(self) -> str:
        """The service report (serving metrics plus cache/admission lines)."""
        return self.service.report()

    # ------------------------------------------------------------------ #
    # Catalog mutation
    # ------------------------------------------------------------------ #
    def insert(self, relation_name: str, rows) -> int:
        """Insert tuples through the catalog; dependent cached results drop."""
        return self.database.insert_into(relation_name, rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Session(database={self.database.name!r}, "
            f"engines={list(self.engine_names())}, routing={self.routing!r})"
        )
