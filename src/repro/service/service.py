"""The query service: the one execution pipeline over the engines.

:class:`QueryService` turns the single-query reproduction into a serving
system.  It owns a :class:`~repro.relational.catalog.Database` catalog and a
set of execution backends (see :mod:`repro.api.engines`) and serves a
stream of requests — a workload, or the single request each forced
:class:`repro.api.ResultSet` submits through
:meth:`repro.api.Session.execute` — through three cooperating layers:

1. the **result cache** answers a repeated query without touching an engine
   and is invalidated (per relation) whenever the catalog mutates;
2. the **plan cache** hands every plan-aware backend the precompiled
   canonical plan, so α-equivalent queries are compiled exactly once;
3. the **admission controller** caps concurrent executions and arbitrates
   the queued remainder across priority classes with a seeded,
   reproducible lottery.

Concurrency is modelled in *virtual time* (modelled nanoseconds, see
:mod:`repro.api.engines`), the same way the core scheduler models
hardware threads: each execution charges a deterministic backend cost as
its service time, and :meth:`QueryService.drain` advances a virtual clock
through arrival/completion events.  The clock persists across drains, and a
freshly computed result enters the result cache only at its request's
*completion* event, so a concurrent duplicate can never observe a result
that has not finished yet in virtual time.  Identical (workload, seed)
configurations produce bit-identical metrics, queue waits included.

*Where* executions physically run is pluggable
(:mod:`repro.service.backends`): the default
:class:`~repro.service.backends.VirtualTimeBackend` runs them inline on the
draining thread (the deterministic oracle), while
:class:`~repro.service.backends.ThreadPoolBackend` overlaps the engine work
of in-flight requests on a host worker pool — same virtual-time event
order, same results and cache contents, plus wall-clock spans in the
metrics.

**Event-order contract.**  Arrivals are served in ``(arrival_time,
request_id)`` order — equal-time requests always dispatch in submission
order — and the virtual clock never moves backwards: a submission with an
explicit ``arrival_time`` earlier than the persisted clock is *back-dated*
and, per the service's ``backdated_arrivals`` policy, :meth:`submit`
either rejects it with ``ValueError`` or accepts it under a
:class:`BackdatedArrivalWarning` (it then drains clamped to the clock).
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.engines import EngineExecution, EngineProtocol
from repro.api.engines import create_engine as create_backend
from repro.joins.compiler import QueryCompiler
from repro.joins.plan import JoinPlan
from repro.obs.instrument import annotate_execute_span
from repro.obs.trace import Span, Tracer, coerce_tracer
from repro.relational.catalog import Database, MutationEvent
from repro.relational.query import ConjunctiveQuery
from repro.relational.sharding import ShardedDatabase
from repro.service.admission import AdmissionController
from repro.service.backends import ExecutionBackend, TaskMap, create_execution_backend
from repro.service.caches import PlanCache, ResultCache
from repro.service.maintenance import ResultMaintainer, check_maintenance_mode
from repro.service.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    ShardUnavailableError,
    coerce_fault_plan,
)
from repro.service.metrics import QueryRecord, ServiceMetrics
from repro.service.scatter import ScatterGatherExecutor, ScatterGatherStats

#: Virtual-time cost charged to a request answered from the result cache.
RESULT_REPLAY_COST = 1.0

#: Accepted ``backdated_arrivals`` policies.
BACKDATED_POLICIES = ("warn", "raise")


class BackdatedArrivalWarning(UserWarning):
    """An explicitly-dated submission lay before the persisted virtual clock.

    The request will be clamped to the clock when it drains (the clock
    never moves backwards), which can reorder it relative to what its
    literal arrival time suggested.  Construct the service with
    ``backdated_arrivals="raise"`` to have :meth:`QueryService.submit`
    reject such submissions instead.

    Re-exported as :class:`repro.service.BackdatedArrivalWarning` — it is
    part of the public submit surface.  The governing **arrival-order
    contract** is documented on
    :meth:`repro.service.backends.ExecutionBackend.drain`: arrivals are
    processed in ``(arrival_time, request_id)`` order and completions in
    ``(finish_time, dispatch_sequence)`` order, on every execution backend.
    """


@dataclass
class ServiceRequest:
    """One submitted query, waiting to be served."""

    request_id: int
    query: ConjunctiveQuery
    priority: str = "normal"
    arrival_time: float = 0.0
    backend: Optional[str] = None  # None → router or round-robin
    signature: Optional[str] = None  # None → signed at dispatch


@dataclass
class QueryOutcome:
    """What :meth:`QueryService.drain` returns per request: tuples + record.

    ``error`` is the typed :class:`ShardUnavailableError` of a request that
    failed on unrecoverable shard loss under ``on_shard_loss="fail"`` (its
    tuples are empty and its record is flagged ``failed``);
    :meth:`QueryService.serve` re-raises it for single-query callers, while
    :meth:`~QueryService.drain` keeps the whole batch's outcomes flowing.
    ``execution`` is the engine (or scatter-gather) execution that computed
    the tuples — stats, plan, report, count, shard breakdown — and ``None``
    for result-cache hits and failures; ``trace`` is the request's finished
    span tree when the service traces.
    """

    tuples: List[Tuple[int, ...]]
    record: QueryRecord
    error: Optional[ShardUnavailableError] = None
    execution: Optional[EngineExecution] = None
    trace: Optional[Span] = None

    @property
    def cardinality(self) -> int:
        """Result count: the tuple count, or the count of a count-only run."""
        if self.execution is not None:
            return self.execution.cardinality
        return len(self.tuples)


@dataclass
class _PreparedRequest:
    """The deterministic dispatch phase of one request, work still pending.

    Produced by :meth:`QueryService._dispatch` on the orchestrator thread
    (cache lookups, plan compilation, backend choice — everything whose
    *order* must match the virtual-time oracle).  ``work`` is the engine
    execution itself: a pure closure over the read-only catalog that an
    execution backend may run on any thread; ``None`` when the result cache
    already answered.
    """

    request: ServiceRequest
    start_time: float
    signature: str
    backend: EngineProtocol
    work: Optional[Callable[[], EngineExecution]]
    tuples: Optional[List[Tuple[int, ...]]] = None  # set for result-cache hits
    result_cache_hit: bool = False
    plan_cache_hit: bool = False
    compiled: bool = False
    cache_dependencies: Optional[Tuple[str, ...]] = None
    partial_entries: List = field(default_factory=list)
    trace: Optional[Span] = None  # root span of the request's trace, if tracing
    error: Optional[ShardUnavailableError] = None  # unrecoverable shard loss


@dataclass
class _CompletedRequest:
    """One finished execution, ready for its virtual-time completion event."""

    request_id: int
    outcome: QueryOutcome
    record: QueryRecord
    cache_entry: Optional[
        Tuple[str, List[Tuple[int, ...]], Tuple[str, ...], ConjunctiveQuery]
    ]
    partial_entries: List
    trace: Optional[Span] = None
    #: Scatter breakdown for circuit-breaker observation at completion.
    scatter_stats: Optional[ScatterGatherStats] = None


class QueryService:
    """Serves conjunctive-query streams over a shared catalog.

    Parameters
    ----------
    database:
        The catalog queries run against.  The service subscribes to its
        invalidation events: any mutation through the catalog drops the
        dependent result-cache entries (compiled plans survive — they
        depend only on query structure, never on data).
    backends:
        Backend names (resolved via the shared registry in
        :mod:`repro.api.engines`) and/or ready
        :class:`~repro.api.engines.EngineProtocol` instances.  Requests
        that do not pin a backend either rotate round-robin through this
        list (the default) or, when ``router`` is given, go to the engine
        the cost router picks for each query.
    router:
        A :class:`repro.api.routing.CostRouter` (or compatible) used to
        choose the backend of unpinned requests from the statistics-based
        cost estimates; ``None`` keeps the legacy round-robin rotation.
        Decisions are memoised per canonical signature (see :meth:`route`)
        until the catalog mutates.
    backend / workers:
        The *execution* backend (how admitted requests physically run, see
        :mod:`repro.service.backends`): ``"virtual"`` (deterministic
        inline loop, the default), ``"threads"`` (engine work overlaps on
        a ``workers``-wide host pool), or a ready
        :class:`~repro.service.backends.ExecutionBackend`.  ``backend=None``
        with ``workers > 1`` selects the threaded backend.
    backdated_arrivals:
        What :meth:`submit` does with an explicit ``arrival_time`` that
        lies before the persisted virtual clock: ``"warn"`` (default)
        accepts it with a :class:`BackdatedArrivalWarning` (it drains
        clamped to the clock); ``"raise"`` rejects the submission with
        ``ValueError``.  Service-dated arrivals ("arrive now") never
        trigger the policy.
    max_in_flight / max_queue_depth / seed:
        Admission-control knobs (see
        :class:`~repro.service.admission.AdmissionController`).
    tracer:
        A :class:`repro.obs.Tracer` (or ``True`` for a fresh one) records a
        hierarchical span tree per request — admission wait, routing, plan
        probe, engine execution with scatter legs — with deterministic ids
        (traces finish in virtual-time completion order, identical on every
        execution backend).  Default ``None`` is the no-op tracer: every
        instrumentation site is guarded on ``tracer.enabled``, so the off
        cost is a couple of attribute reads per request.
    faults:
        A :class:`repro.service.faults.FaultPlan` (or a spec string, see
        :func:`repro.service.faults.parse_fault_spec`) arming deterministic
        fault injection.  One rule: a *non-empty* plan arms the scatter
        executor's retry/timeout/hedging attempt walk and its circuit
        breakers, and a ``crash:`` clause arms the process backend's
        worker-crash trigger; an empty plan arms nothing.
    on_shard_loss:
        ``"fail"`` (default): a shard lost on every replica raises a typed
        :class:`~repro.service.faults.ShardUnavailableError` — surfaced on
        the request's :class:`QueryOutcome` and re-raised by :meth:`serve`.
        ``"partial"``: the request completes with the surviving fragments'
        union, flagged on ``QueryRecord.degraded`` and never admitted into
        the result cache as a complete answer.
    retry_policy:
        :class:`repro.service.faults.RetryPolicy` knobs for the
        fault-tolerant scatter path (timeouts, backoff, hedging, breaker).
    maintenance:
        How the caches track catalog mutations: ``"recompute"`` (default)
        drops dependent entries; ``"incremental"`` patches them in place
        with semi-naive delta joins through a
        :class:`~repro.service.maintenance.ResultMaintainer` (non-patchable
        events still drop).

    The service owns its plan cache, result cache, shard-partial cache
    (behind :attr:`scatter`, for a sharded catalog), maintainer and fault
    injector; :class:`repro.api.Session` is a facade over one service and
    exposes these same objects.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        backends: Sequence[Union[str, EngineProtocol]] = ("lftj", "ctj"),
        compiler: Optional[QueryCompiler] = None,
        plan_cache_capacity: int = 128,
        result_cache_capacity: int = 256,
        max_in_flight: int = 4,
        max_queue_depth: Optional[int] = None,
        seed: int = 2020,
        router=None,
        backend: Union[str, ExecutionBackend, None] = None,
        workers: Optional[int] = None,
        backdated_arrivals: str = "warn",
        tracer: Union[Tracer, bool, None] = None,
        storage_dir: Optional[str] = None,
        faults: Union[FaultPlan, str, None] = None,
        on_shard_loss: str = "fail",
        retry_policy: Optional[RetryPolicy] = None,
        maintenance: str = "recompute",
    ):
        check_maintenance_mode(maintenance)
        if storage_dir is not None:
            if database is not None:
                raise ValueError(
                    "pass either database= or storage_dir=, not both: a "
                    "durable service owns the store it opens"
                )
            from repro.storage import open_store

            database = open_store(storage_dir, name="service")
        self._owns_database = storage_dir is not None
        if database is None:
            raise ValueError("QueryService needs a database (or a storage_dir)")
        if not backends:
            raise ValueError("QueryService needs at least one backend")
        if backdated_arrivals not in BACKDATED_POLICIES:
            raise ValueError(
                f"backdated_arrivals must be one of {BACKDATED_POLICIES}, "
                f"got {backdated_arrivals!r}"
            )
        if on_shard_loss not in ("fail", "partial"):
            raise ValueError(
                f"on_shard_loss must be 'fail' or 'partial', got {on_shard_loss!r}"
            )
        self.database = database
        self.compiler = compiler or QueryCompiler(enable_caching=True)
        self.router = router
        self.backends: Dict[str, EngineProtocol] = {}
        self._rotation: List[str] = []
        self._route_memo: Dict[str, object] = {}
        for entry in backends:
            self.add_backend(create_backend(entry) if isinstance(entry, str) else entry)
        self.plan_cache = PlanCache(plan_cache_capacity)
        self.result_cache = ResultCache(result_cache_capacity)
        self.admission: AdmissionController[ServiceRequest] = AdmissionController(
            max_in_flight=max_in_flight, max_queue_depth=max_queue_depth, seed=seed
        )
        self.metrics = ServiceMetrics()
        self.tracer = coerce_tracer(tracer)
        self.execution_backend = create_execution_backend(backend, workers)
        self.backdated_arrivals = backdated_arrivals
        self._pending: List[ServiceRequest] = []
        self._rejected: List[int] = []
        self._next_request_id = 0
        self._next_rotation = 0
        self._last_arrival = 0.0
        self._clock = 0.0
        self._closed = False
        # Submission state (ids, pending list, last arrival) may be touched
        # from worker threads of a closed-loop driver; the drain lock
        # serialises whole drains so two threads never run the event loop
        # concurrently over the same admission/cache state.  It is
        # re-entrant because serve() holds it from submit through drain.
        self._submit_lock = threading.Lock()
        self._drain_lock = threading.RLock()
        self.fault_plan = (
            coerce_fault_plan(faults, seed=seed) if faults is not None else None
        )
        injector = (
            FaultInjector(self.fault_plan)
            if self.fault_plan is not None and not self.fault_plan.empty
            else None
        )
        if isinstance(database, ShardedDatabase):
            # Per-shard partial results, maintained fragment-by-fragment
            # by the catalog's shard-tagged mutation events.
            self.scatter: Optional[ScatterGatherExecutor] = ScatterGatherExecutor(
                database,
                ResultCache(result_cache_capacity),
                compiler=self.compiler,
                retry_policy=retry_policy,
                injector=injector,
                on_shard_loss=on_shard_loss,
            )
        else:
            self.scatter = None
        if injector is not None and injector.crash_after is not None:
            runner = getattr(self.execution_backend, "_runner", None)
            if runner is not None:
                runner.crash_after = injector.crash_after
        self.maintenance = maintenance
        self.maintainer: Optional[ResultMaintainer] = None
        if maintenance == "incremental":
            self.maintainer = ResultMaintainer(
                database,
                self.result_cache,
                scatter=self.scatter,
                compiler=self.compiler,
                mode="incremental",
                clock=lambda: self._clock,
            )
        database.subscribe_invalidation(self._on_mutation)

    def _on_mutation(self, event: MutationEvent) -> None:
        """Keep the caches and the route memo in step with one catalog mutation.

        Under ``"incremental"`` the maintainer patches (or drops) both the
        result cache and the shard-partial cache; otherwise dependent
        entries drop.  Route decisions always clear: cost estimates read
        relation statistics.
        """
        if self.maintainer is not None:
            self.maintainer.on_mutation(event)
        else:
            self.result_cache.invalidate(event)
            if self.scatter is not None:
                self.scatter.partial_cache.invalidate(event)
        self._route_memo.clear()

    def add_backend(self, engine: EngineProtocol) -> None:
        """Make ``engine`` servable (latest name wins); clears the route memo."""
        if engine.name not in self.backends:
            self._rotation.append(engine.name)
        self.backends[engine.name] = engine
        self._route_memo.clear()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        query: ConjunctiveQuery,
        priority: str = "normal",
        arrival_time: Optional[float] = None,
        backend: Optional[str] = None,
        signature: Optional[str] = None,
    ) -> int:
        """Enqueue ``query``; returns its request id (serve with :meth:`drain`).

        ``arrival_time`` is in virtual time; omitted, the request arrives
        together with the latest submission so far (a closed-loop backlog).
        Explicitly dating an arrival before the current :attr:`clock` is
        back-dating: depending on the service's ``backdated_arrivals``
        policy, the submission either warns (:class:`BackdatedArrivalWarning`;
        the request drains clamped to the clock) or is rejected with
        ``ValueError`` and nothing is enqueued.

        ``signature`` is the query's canonical signature from a caller that
        already validated and signed it (:meth:`repro.api.Session.execute`);
        both steps are then skipped here.
        """
        if backend is not None and backend not in self.backends:
            raise KeyError(
                f"backend {backend!r} not configured; have {sorted(self.backends)}"
            )
        if signature is None:
            self.database.validate_query(query)
        if arrival_time is not None and arrival_time < self._clock:
            message = (
                f"arrival_time {arrival_time:.1f} lies before the service "
                f"clock {self._clock:.1f}; the virtual clock never moves "
                f"backwards, so the request would drain at {self._clock:.1f}"
            )
            if self.backdated_arrivals == "raise":
                raise ValueError(message)
            warnings.warn(message, BackdatedArrivalWarning, stacklevel=2)
        with self._submit_lock:
            if arrival_time is None:
                arrival_time = self._last_arrival
            self._last_arrival = max(self._last_arrival, arrival_time)
            request = ServiceRequest(
                self._next_request_id, query, priority, arrival_time, backend, signature
            )
            self._next_request_id += 1
            self._pending.append(request)
        return request.request_id

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> float:
        """The persisted virtual clock (advances across :meth:`drain` calls)."""
        return self._clock

    def _take_arrivals(self) -> List[ServiceRequest]:
        """Claim the pending requests, apply the arrival-order contract.

        Arrivals before the persisted clock are clamped to it — the clock
        never moves backwards.  (The ``backdated_arrivals`` policy already
        fired at :meth:`submit` time for explicitly-dated requests;
        service-dated ones simply mean "arrive now".)  The returned list is
        sorted by ``(arrival_time, request_id)`` — the documented
        tie-break, so equal-time requests always enter admission in
        submission order, independent of drain boundaries.
        """
        with self._submit_lock:
            pending, self._pending = self._pending, []
        for request in pending:
            if request.arrival_time < self._clock:
                request.arrival_time = self._clock
        pending.sort(key=lambda r: (r.arrival_time, r.request_id))
        return pending

    def drain(self) -> Dict[int, QueryOutcome]:
        """Serve every pending request to completion; return their outcomes by id.

        Runs the virtual-time event loop (see
        :meth:`repro.service.backends.ExecutionBackend.drain`): arrivals
        enter admission control in ``(arrival_time, request_id)`` order,
        admitted requests execute (charging their deterministic backend
        cost as service time) and completions free slots for the queued
        remainder.  The clock carries over from previous drains, and
        freshly computed results are published to the result cache at their
        completion event, never earlier.  Rejected requests (bounded queue)
        appear in :attr:`rejected_requests`, not in the returned outcomes.
        """
        with self._drain_lock:
            arrivals = self._take_arrivals()
            started = time.perf_counter()
            try:
                return self.execution_backend.drain(self, arrivals)
            finally:
                self.metrics.wall_drain_seconds += time.perf_counter() - started
                # Surface the process backend's permanent inline fallback
                # (broken worker pool) in the service report.
                self.metrics.inline_fallbacks = getattr(
                    self.execution_backend, "inline_fallbacks", 0
                )

    def serve(
        self,
        query: ConjunctiveQuery,
        priority: str = "normal",
        backend: Optional[str] = None,
        signature: Optional[str] = None,
    ) -> QueryOutcome:
        """Submit one query and serve everything pending; returns its outcome.

        Re-raises the typed :class:`ShardUnavailableError` of a request
        that failed on unrecoverable shard loss (``on_shard_loss="fail"``);
        batch callers using :meth:`drain` directly get the error on the
        outcome instead.  ``signature`` is passed to :meth:`submit`.

        Safe to call from several threads: the drain lock is held from
        submit to drain, so no other thread's drain can take this request
        and keep its outcome.
        """
        with self._drain_lock:
            request_id = self.submit(
                query, priority=priority, backend=backend, signature=signature
            )
            outcome = self.drain()[request_id]
        if outcome.error is not None:
            raise outcome.error
        return outcome

    def close(self) -> None:
        """Detach from the catalog and release the execution backend's host
        resources (worker pools, shared-memory segments).  Idempotent —
        tear-down paths often close both the session and its service.  A
        closed service's caches stop tracking catalog mutations.

        A service opened with ``storage_dir=`` also releases its durable
        store's file handles.
        """
        if self._closed:
            return
        self._closed = True
        self.database.unsubscribe_invalidation(self._on_mutation)
        self.execution_backend.close()
        if self._owns_database:
            self.database.close()

    def snapshot(self):
        """Fold the durable store's WAL into a fresh snapshot.

        Only available when the service's catalog is durable (opened via
        ``storage_dir=`` or constructed from :mod:`repro.storage`).
        """
        snapshot = getattr(self.database, "snapshot", None)
        if snapshot is None:
            raise RuntimeError(
                "this service's catalog is not durable; open the service "
                "with storage_dir=... to enable snapshots"
            )
        return snapshot()

    @property
    def rejected_requests(self) -> Tuple[int, ...]:
        """Request ids rejected by the bounded admission queue."""
        return tuple(self._rejected)

    # ------------------------------------------------------------------ #
    # Catalog mutation
    # ------------------------------------------------------------------ #
    def insert_tuples(self, relation_name: str, rows) -> int:
        """Mutate the catalog through the service; dependent results drop.

        With tracing on, the mutation (and the cache invalidations it
        triggered) is recorded as a process-level event span on the
        :data:`~repro.obs.trace.PROCESS_TRACE_ID` lane, stamped at the
        persisted virtual clock.
        """
        if not self.tracer.enabled:
            return self.database.insert_into(relation_name, rows)
        results_before = self.result_cache.stats.invalidations
        patches_before = self.result_cache.stats.patches
        partial_cache = (
            self.scatter.partial_cache if self.scatter is not None else None
        )
        partials_before = partial_cache.stats.invalidations if partial_cache else 0
        partial_patches_before = partial_cache.stats.patches if partial_cache else 0
        inserted = self.database.insert_into(relation_name, rows)
        partials_after = partial_cache.stats.invalidations if partial_cache else 0
        partial_patches_after = partial_cache.stats.patches if partial_cache else 0
        self.tracer.emit(
            "catalog_mutation",
            self._clock,
            {
                "relation": relation_name,
                "rows_inserted": inserted,
                "invalidated_results": self.result_cache.stats.invalidations
                - results_before,
                "invalidated_partials": partials_after - partials_before,
                "patched_results": self.result_cache.stats.patches - patches_before,
                "patched_partials": partial_patches_after - partial_patches_before,
            },
        )
        return inserted

    # ------------------------------------------------------------------ #
    # Execution of one request
    # ------------------------------------------------------------------ #
    def route(self, query: ConjunctiveQuery, signature: str, router=None):
        """The cost router's decision for ``query``, memoised per signature.

        Estimates are pure functions of query structure and relation
        statistics, so one :class:`~repro.api.routing.RouteDecision` per
        canonical signature holds until the catalog mutates or the backend
        set changes (both clear the memo).  ``router`` defaults to the
        service's own; :class:`repro.api.Session` passes its router so
        synchronous executions are cost-routed even when served requests
        rotate.
        """
        decision = self._route_memo.get(signature)
        if decision is None:
            decision = (router or self.router).choose(query, self.database, self.backends)
            self._route_memo[signature] = decision
        return decision

    def plan_for(
        self, query: ConjunctiveQuery, signature: str
    ) -> Tuple[ConjunctiveQuery, JoinPlan, bool]:
        """``(canonical query, plan, cache hit)`` from the plan cache.

        A miss compiles the canonical plan once and caches it under the
        signature; plans depend only on query structure, never on data.
        """
        entry = self.plan_cache.get(signature)
        if entry is not None:
            return entry[0], entry[1], True
        _, canonical, plan = self.compiler.compile_canonical(query)
        self.plan_cache.put(signature, (canonical, plan))
        return canonical, plan, False

    def _choose_backend(self, request: ServiceRequest, signature: str) -> EngineProtocol:
        if request.backend is not None:
            return self.backends[request.backend]
        if self.router is not None:
            return self.backends[self.route(request.query, signature).chosen]
        name = self._rotation[self._next_rotation % len(self._rotation)]
        self._next_rotation += 1
        return self.backends[name]

    def _dispatch(
        self,
        request: ServiceRequest,
        start_time: float,
        task_map: Optional[TaskMap] = None,
        engine_runner=None,
    ) -> _PreparedRequest:
        """The deterministic dispatch phase of one request.

        Runs on the orchestrator thread, in dispatch order: backend choice
        (which may consume rotation/router state), the result-cache lookup,
        and the plan-cache lookup/compile for plan-aware engines.  The plan
        cache is populated here at dispatch time: compilation is not
        charged any virtual time, so plan visibility has no causal ordering
        to violate.  The returned ``work`` closure (the engine execution
        itself, or the scatter-gather fan-out) touches no ordered service
        state and may run on any thread.

        ``engine_runner`` (see
        :class:`repro.service.shm.SharedMemoryRunner`) may take over the
        pure engine work of plan-aware executions — shipping it to worker
        processes — and declines by returning ``None``, in which case the
        inline closure runs unchanged.
        """
        query = request.query
        signature = request.signature or self.compiler.signature(query)
        backend = self._choose_backend(request, signature)
        prepared = _PreparedRequest(
            request=request,
            start_time=start_time,
            signature=signature,
            backend=backend,
            work=None,
        )
        if self.tracer.enabled:
            # Span skeleton, built on the orchestrator thread in dispatch
            # order.  No ids yet — Tracer.finish assigns them at the
            # request's completion event (see _complete), so ids/ordering
            # are identical on every execution backend.
            root = self.tracer.begin(
                "query",
                request.arrival_time,
                {
                    "request_id": request.request_id,
                    "query": query.name,
                    "signature": signature,
                    "priority": request.priority,
                    "backend": backend.name,
                },
            )
            root.child(
                "admission",
                request.arrival_time,
                {"queue_wait_ns": start_time - request.arrival_time},
            ).end(start_time)
            root.child(
                "route",
                start_time,
                {
                    "backend": backend.name,
                    "pinned": request.backend is not None,
                    "routed": request.backend is None and self.router is not None,
                },
            )
            prepared.trace = root

        cached = self.result_cache.get(signature)
        scatter_spec = self.scatter.spec_for(query) if self.scatter is not None else None
        if cached is not None:
            prepared.tuples = cached
            prepared.result_cache_hit = True
            if prepared.trace is not None:
                prepared.trace.event("result_cache_hit", start_time, signature=signature)
            return prepared
        if scatter_spec is not None:
            # Sharded catalog: fan out through the scatter-gather executor
            # (which owns the rewritten plans and per-shard partial cache);
            # the service plan cache is bypassed, so no hit is credited.
            # Fresh partials are collected and published at completion.
            prepared.cache_dependencies = query.relation_names()
            # Breaker admission is read here, at dispatch, on the
            # orchestrator thread — pooled backends then see the same gate
            # the virtual-time oracle computed.  Outcomes feed back at the
            # completion event (_complete), never from worker threads.
            breaker_gate = self.scatter.breaker_gate(start_time)

            def scatter_work() -> Optional[EngineExecution]:
                try:
                    return self.scatter.execute(
                        query,
                        backend,
                        spec=scatter_spec,
                        collect_partials=prepared.partial_entries,
                        task_map=task_map,
                        engine_runner=engine_runner,
                        now=start_time,
                        breaker_gate=breaker_gate,
                    )
                except ShardUnavailableError as error:
                    # Typed, expected failure: carry it to _finalize as a
                    # failed record instead of tearing down the drain loop.
                    prepared.error = error
                    return None

            prepared.work = scatter_work
            return prepared

        prepared.cache_dependencies = query.relation_names()
        if backend.plan_aware:
            canonical, plan, prepared.plan_cache_hit = self.plan_for(query, signature)
            prepared.compiled = not prepared.plan_cache_hit
            if prepared.trace is not None:
                # Plan work is charged no virtual time; the probe/compile
                # outcome lands as an instantaneous span at dispatch.
                prepared.trace.child(
                    "plan_cache",
                    start_time,
                    {"hit": prepared.plan_cache_hit, "compiled": prepared.compiled},
                )
            offloaded = (
                engine_runner.global_work(backend, canonical, plan, self.database)
                if engine_runner is not None
                else None
            )
            if offloaded is not None:
                prepared.work = offloaded
            else:
                prepared.work = lambda: backend.execute(
                    canonical, self.database, plan=plan
                )
        else:
            # Plan-blind backends (naive, pairwise) plan internally; the
            # plan cache neither helps nor counts for them.
            prepared.work = lambda: backend.execute(query, self.database)
        return prepared

    def _finalize(
        self,
        prepared: _PreparedRequest,
        execution: Optional[EngineExecution],
        wall_elapsed: Optional[float] = None,
    ) -> _CompletedRequest:
        """Turn a finished execution into its completion event payload."""
        request = prepared.request
        cache_entry = None
        scatter_stats: Optional[ScatterGatherStats] = None
        failed = False
        if execution is None and prepared.error is not None:
            # Unrecoverable shard loss under on_shard_loss="fail": a failed
            # record charging the virtual time burned before giving up.
            tuples = []
            service_time = max(prepared.error.cost_ns, RESULT_REPLAY_COST)
            plan_cache_hit = False
            failed = True
            scatter_stats = getattr(prepared.error, "scatter", None)
        elif execution is None:
            tuples = prepared.tuples if prepared.tuples is not None else []
            service_time = RESULT_REPLAY_COST
            plan_cache_hit = False
        else:
            tuples = execution.tuples
            service_time = execution.cost
            # A backend that ignored the plan it was handed must not be
            # credited with a plan-cache hit (see repro.api.engines:
            # EngineExecution.plan_used).
            plan_cache_hit = prepared.plan_cache_hit and execution.plan_used
            if execution.cacheable:
                cache_entry = (
                    prepared.signature,
                    tuples,
                    prepared.cache_dependencies,
                    request.query,
                )
            if isinstance(execution.scatter, ScatterGatherStats):
                scatter_stats = execution.scatter
        record = QueryRecord(
            request_id=request.request_id,
            query_name=request.query.name,
            signature=prepared.signature,
            backend=prepared.backend.name,
            priority=request.priority,
            arrival_time=request.arrival_time,
            start_time=prepared.start_time,
            finish_time=prepared.start_time + service_time,
            service_time=service_time,
            result_count=len(tuples),
            result_cache_hit=prepared.result_cache_hit,
            plan_cache_hit=plan_cache_hit,
            compiled=prepared.compiled,
            wall_elapsed=wall_elapsed,
            retries=scatter_stats.retries if scatter_stats is not None else 0,
            timeouts=scatter_stats.timeouts if scatter_stats is not None else 0,
            degraded=execution.degraded if execution is not None else False,
            failed=failed,
        )
        if prepared.trace is not None:
            execute = prepared.trace.child(
                "execute", prepared.start_time, {"backend": prepared.backend.name}
            )
            execute.end(record.finish_time)
            if execution is None and failed:
                execute.attributes["failed"] = True
                execute.attributes["error"] = "shard_unavailable"
                execute.attributes["missing_shards"] = list(prepared.error.shards)
                execute.attributes["cost_ns"] = service_time
            elif execution is None:
                execute.attributes["result_cache_hit"] = True
                execute.attributes["cost_ns"] = service_time
                execute.attributes["cardinality"] = len(tuples)
            else:
                annotate_execute_span(execute, execution)
            if wall_elapsed is not None:
                execute.wall_elapsed_s = wall_elapsed
            prepared.trace.end(record.finish_time)
        return _CompletedRequest(
            request_id=request.request_id,
            outcome=QueryOutcome(
                tuples, record, error=prepared.error, execution=execution
            ),
            record=record,
            cache_entry=cache_entry,
            partial_entries=prepared.partial_entries,
            trace=prepared.trace,
            scatter_stats=scatter_stats,
        )

    def _complete(self, completed: _CompletedRequest) -> None:
        """Process one completion event: free the slot, publish, record.

        Called by the execution backend's event loop in virtual-time
        completion order — this is the only place freshly computed results
        (and per-shard partials) become visible, preserving virtual-time
        causality on every backend.
        """
        self.admission.release()
        if completed.cache_entry is not None:
            signature, tuples, relation_names, query = completed.cache_entry
            self.result_cache.put_result(signature, tuples, relation_names, query=query)
        if completed.partial_entries:
            self.scatter.publish_partials(completed.partial_entries)
        if (
            completed.scatter_stats is not None
            and self.scatter is not None
            and self.scatter.fault_tolerant
        ):
            # Breaker state advances here, in virtual-time completion order
            # on the orchestrator thread — the only mutation point, so every
            # execution backend observes identical breaker transitions.
            self.scatter.observe_attempts(
                completed.scatter_stats, completed.record.finish_time
            )
        if completed.trace is not None:
            # Traces seal in completion order — the deterministic order both
            # execution backends share — so span ids never depend on host
            # scheduling.
            completed.outcome.trace = self.tracer.finish(completed.trace)
        self.metrics.record(completed.record)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def cache_report_lines(self) -> List[str]:
        plan = self.plan_cache.stats
        result = self.result_cache.stats
        admission = self.admission.stats
        lines = []
        if self.scatter is not None:
            partial_line = self.scatter.invalidation_report()
            if partial_line is not None:
                lines.append(partial_line)
        return lines + [
            (
                f"plan cache           : {plan.hits}/{plan.lookups} hits "
                f"({plan.hit_rate:.1%}), {plan.evictions} evictions"
            ),
            (
                f"result cache         : {result.hits}/{result.lookups} hits "
                f"({result.hit_rate:.1%}), {result.evictions} evictions, "
                f"{result.invalidations} invalidations "
                f"({result.drops} drops, {result.patches} patches)"
            ),
            (
                f"admission            : {admission.submitted} submitted, "
                f"{admission.queued} queued, {admission.rejected} rejected, "
                f"peak in-flight {admission.peak_in_flight}, "
                f"peak queue {admission.peak_queue_depth}"
            ),
        ]

    def report(self) -> str:
        """Full service report: aggregate metrics plus cache/admission lines."""
        return self.metrics.summary(cache_lines=self.cache_report_lines())
