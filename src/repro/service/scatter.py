"""Scatter-gather execution: fan one query out over a sharded catalog.

The executor takes any :class:`~repro.api.engines.EngineProtocol` engine and
a :class:`~repro.relational.sharding.ShardedDatabase` and runs the catalog's
:class:`~repro.relational.sharding.ScatterSpec`: the seed atom is rewritten
to the shard alias, each shard's task executes the rewritten query against
its :class:`~repro.relational.sharding.ShardView` (seed fragment local,
everything else the shared global view), and the gather step merges the
partial results — deduplicating, which matters when the seed relation is
replicated and every task computes the full result.

**Plans.**  The rewritten query is shard-independent, so plan-aware engines
compile it exactly once per canonical signature; the compiled plan is
memoised here (plans depend only on query structure, never on data) and
handed to every shard task.

**Partial-result reuse.**  With a ``partial_cache`` (a shard-aware
:class:`~repro.service.caches.ResultCache` subscribed to the catalog's
mutation events), each shard's partial result is cached under
``(signature, shard)`` with its true read set as dependencies: the seed
fragment ``(seed_relation, shard)`` plus every non-seed relation as a
whole.  Inserting into one shard of the seed relation therefore invalidates
only that shard's partials — re-executing the query replays every other
shard from cache and recomputes one fragment.

**Virtual time.**  Shards run concurrently in the service's model: the
execution's cost is the slowest task (critical path) plus a per-task
dispatch charge and a per-tuple merge charge
(:data:`~repro.relational.sharding.SCATTER_DISPATCH_COST_NS`,
:data:`~repro.relational.sharding.SCATTER_MERGE_COST_PER_TUPLE_NS`).

**Host concurrency.**  :meth:`ScatterGatherExecutor.execute` accepts a
``task_map`` hook (see :mod:`repro.service.backends`): the per-shard engine
executions of one fan-out then genuinely overlap on a worker pool.  The
partial-cache probes stay sequential in shard order and the gather step
assembles results in shard order, so every observable (tuples, costs,
cache counters, aggregated stats) is identical to the serial fan-out.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.engines import EngineExecution, EngineProtocol
from repro.joins.compiler import QueryCompiler
from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.query import ConjunctiveQuery
from repro.relational.sharding import (
    SCATTER_DISPATCH_COST_NS,
    SCATTER_MERGE_COST_PER_TUPLE_NS,
    ScatterSpec,
    ShardedDatabase,
)
from repro.service.caches import ResultCache, ShardDependency
from repro.service.faults import (
    FaultInjector,
    NodeBreakers,
    RetryPolicy,
    ShardUnavailableError,
    schedule_task,
)

#: Virtual-time cost of replaying one shard's partial result from the cache.
PARTIAL_REPLAY_COST_NS = 1.0


@dataclass(frozen=True)
class ShardTaskStats:
    """What one shard contributed to a scatter-gather execution.

    ``wall_seconds`` is the host wall-clock span of the shard's engine
    execution, measured only when the fan-out ran on a concurrent
    ``task_map`` (``None`` for the serial fan-out and for cache replays) —
    virtual runs stay free of host timings so their traces are
    byte-reproducible.

    The fault-tolerance fields describe the task's deterministic attempt
    walk (see :func:`repro.service.faults.schedule_task`): how many
    attempts it burned, how many of those timed out, whether a hedged
    duplicate dispatch won, which replica finally served it, and — for a
    ``lost`` task — that no replica could, in which case ``tuples`` is 0
    and ``cost_ns`` is the virtual time burned before giving up.
    """

    shard: int
    tuples: int
    cost_ns: float
    from_cache: bool
    fragment_cardinality: int
    wall_seconds: Optional[float] = None
    attempts: int = 1
    timeouts: int = 0
    hedged: bool = False
    replica: int = 0
    lost: bool = False

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass(frozen=True)
class ScatterGatherStats:
    """Per-shard work breakdown of one scatter-gather execution.

    Surfaced as ``ResultSet.shard_stats`` so callers can see how the fan-out
    balanced: which shards computed, which replayed cached partials, and how
    much the gather step merged away.

    ``missing_shards`` names the shards whose fragments are absent from the
    merged result (``degraded`` is its truthiness); ``attempt_outcomes``
    carries ``(node, ok)`` per attempt for circuit-breaker observation at
    the request's completion event.
    """

    seed_relation: str
    seed_partitioned: bool
    tasks: Tuple[ShardTaskStats, ...]
    merged_tuples: int
    duplicates_removed: int
    merge_cost_ns: float
    missing_shards: Tuple[int, ...] = ()
    attempt_outcomes: Tuple[Tuple[int, bool], ...] = ()

    @property
    def num_shards(self) -> int:
        return len(self.tasks)

    @property
    def replayed_shards(self) -> Tuple[int, ...]:
        """Shards answered from the partial-result cache."""
        return tuple(task.shard for task in self.tasks if task.from_cache)

    @property
    def critical_path_ns(self) -> float:
        return max((task.cost_ns for task in self.tasks), default=0.0)

    @property
    def degraded(self) -> bool:
        return bool(self.missing_shards)

    @property
    def retries(self) -> int:
        return sum(task.retries for task in self.tasks)

    @property
    def timeouts(self) -> int:
        return sum(task.timeouts for task in self.tasks)

    @property
    def hedges(self) -> int:
        return sum(1 for task in self.tasks if task.hedged)

    @property
    def lost_shards(self) -> Tuple[int, ...]:
        return tuple(task.shard for task in self.tasks if task.lost)

    def describe(self) -> str:
        lines = [
            (
                f"scatter-gather over {self.num_shards} shard(s) of "
                f"{self.seed_relation!r} "
                f"({'partitioned' if self.seed_partitioned else 'replicated'} seed)"
            )
        ]
        for task in self.tasks:
            if task.lost:
                source = f"LOST after {task.attempts} attempt(s)"
            elif task.from_cache:
                source = "cache replay"
            else:
                source = "computed"
                if task.retries:
                    source += f", {task.retries} retr{'ies' if task.retries != 1 else 'y'}"
                if task.replica:
                    source += f", replica {task.replica}"
                if task.hedged:
                    source += ", hedged"
            lines.append(
                f"  shard {task.shard}: {task.tuples} tuples from "
                f"{task.fragment_cardinality} fragment rows, "
                f"~{task.cost_ns:.0f} ns ({source})"
            )
        lines.append(
            f"  gather: {self.merged_tuples} merged, "
            f"{self.duplicates_removed} duplicates removed, "
            f"~{self.merge_cost_ns:.0f} ns"
        )
        if self.missing_shards:
            lines.append(
                f"  DEGRADED: missing shard(s) {list(self.missing_shards)}"
            )
        return "\n".join(lines)


def _merge_join_stats(into: JoinStats, stats: Optional[JoinStats]) -> None:
    if stats is None:
        return
    into.output_tuples += stats.output_tuples
    into.bindings_enumerated += stats.bindings_enumerated
    into.intermediate_results += stats.intermediate_results
    into.lub_searches += stats.lub_searches
    into.index_element_reads += stats.index_element_reads
    into.index_element_writes += stats.index_element_writes
    into.cache_lookups += stats.cache_lookups
    into.cache_hits += stats.cache_hits
    into.cache_inserts += stats.cache_inserts
    into.cache_evictions += stats.cache_evictions
    for variable, matches in stats.per_variable_matches.items():
        into.per_variable_matches[variable] = (
            into.per_variable_matches.get(variable, 0) + matches
        )


def partial_key(signature: str, shard: int) -> str:
    """Partial-result cache key of one shard's contribution to a signature."""
    return f"{signature}#shard{shard}"


class ScatterGatherExecutor:
    """Runs queries over a :class:`ShardedDatabase` through any engine.

    Parameters
    ----------
    catalog:
        The sharded catalog to fan out over.
    partial_cache:
        Optional shard-aware result cache for per-shard partials.  The
        *caller* owns its invalidation wiring (subscribe it to the
        catalog's mutation events); the executor only reads and populates
        it.
    compiler:
        Query compiler used for the rewritten scatter queries (plan-aware
        engines only).
    retry_policy:
        Timeout/backoff/hedging/breaker knobs for the fault-tolerant path
        (defaults to :class:`~repro.service.faults.RetryPolicy`).
    injector:
        A :class:`~repro.service.faults.FaultInjector`.  Its presence is
        what arms the fault-tolerant attempt walk; ``None`` (the default)
        keeps the exact fault-free execution path.
    on_shard_loss:
        ``"fail"`` raises :class:`~repro.service.faults.ShardUnavailableError`
        when a shard's fragment cannot be computed on any replica;
        ``"partial"`` returns the surviving fragments' union, flagged
        degraded and barred from the result cache.
    """

    def __init__(
        self,
        catalog: ShardedDatabase,
        partial_cache: Optional[ResultCache] = None,
        compiler: Optional[QueryCompiler] = None,
        retry_policy: Optional[RetryPolicy] = None,
        injector: Optional[FaultInjector] = None,
        on_shard_loss: str = "fail",
    ):
        self.catalog = catalog
        self.partial_cache = partial_cache
        self.compiler = compiler or QueryCompiler(enable_caching=True)
        self.retry_policy = retry_policy or RetryPolicy()
        self.injector = injector
        if on_shard_loss not in ("fail", "partial"):
            raise ValueError(
                f"on_shard_loss must be 'fail' or 'partial', got {on_shard_loss!r}"
            )
        self.on_shard_loss = on_shard_loss
        self.breakers = NodeBreakers(self.retry_policy)
        # Rewritten plans by (canonical signature, seed index): pure query
        # structure, shared by every shard and never invalidated by data.
        # Locked: concurrent requests may compile the same signature from
        # worker threads; compilation is deterministic, so serialising it
        # only avoids duplicate work and a torn check-then-insert.
        self._plan_memo: Dict[Tuple[str, int], JoinPlan] = {}
        self._plan_lock = threading.Lock()
        # Scatter spec by signature, recorded at execute time so the
        # incremental-maintenance path (see maintain) can rebuild a shard's
        # view when patching its cached partial.
        self._spec_memo: Dict[str, ScatterSpec] = {}

    # ------------------------------------------------------------------ #
    # Fault tolerance
    # ------------------------------------------------------------------ #
    @property
    def fault_tolerant(self) -> bool:
        """Whether the attempt-walk path is armed (an injector is present)."""
        return self.injector is not None

    def breaker_gate(self, now: float) -> Optional[Dict[int, bool]]:
        """Per-node breaker admission at virtual ``now`` (None when unarmed).

        Called on the orchestrator thread at *dispatch*, so pooled backends
        see the same admission decisions as the virtual-time oracle.
        """
        if not self.fault_tolerant:
            return None
        return self.breakers.gate(range(self.catalog.num_shards), now)

    def observe_attempts(self, stats: ScatterGatherStats, now: float) -> None:
        """Feed an execution's attempt outcomes to the breakers at ``now``.

        Called at the request's *completion* event (orchestrator thread,
        virtual-time order) — never from worker threads.
        """
        if stats.attempt_outcomes:
            self.breakers.observe(stats.attempt_outcomes, now)

    def spec_for(self, query: ConjunctiveQuery) -> Optional[ScatterSpec]:
        """The catalog's scatter spec for ``query`` (``None`` = run globally)."""
        return self.catalog.scatter_spec(query)

    def dependencies_for(
        self, spec: ScatterSpec, shard: int
    ) -> Tuple[ShardDependency, ...]:
        """The exact fragment read set of shard ``shard``'s task."""
        seed: ShardDependency = (
            spec.seed_relation,
            shard if spec.partitioned else None,
        )
        others = tuple(
            (atom.relation, None)
            for index, atom in enumerate(spec.query.atoms)
            if index != spec.seed_index
        )
        return tuple(dict.fromkeys((seed,) + others))

    def _plan_for(self, signature: str, spec: ScatterSpec) -> JoinPlan:
        key = (signature, spec.seed_index)
        with self._plan_lock:
            plan = self._plan_memo.get(key)
            if plan is None:
                plan = self.compiler.compile(spec.query)
                self._plan_memo[key] = plan
            return plan

    def execute(
        self,
        query: ConjunctiveQuery,
        engine: EngineProtocol,
        spec: Optional[ScatterSpec] = None,
        collect_partials: Optional[
            List[
                Tuple[
                    str,
                    List[Tuple[int, ...]],
                    Tuple[ShardDependency, ...],
                    ConjunctiveQuery,
                ]
            ]
        ] = None,
        task_map: Optional[
            Callable[[Callable[[int], EngineExecution], Sequence[int]], List[EngineExecution]]
        ] = None,
        engine_runner=None,
        now: float = 0.0,
        breaker_gate: Optional[Dict[int, bool]] = None,
    ) -> EngineExecution:
        """Scatter ``query`` over the shards through ``engine`` and gather.

        Falls back to one execution against the catalog's global view when
        no atom binds a partitioned relation (pass a ``spec`` built with an
        explicit ``seed_atom`` to force broadcast fan-out instead).  The
        returned execution carries the merged tuples, the critical-path
        virtual-time cost, aggregated engine counters, and a
        :class:`ScatterGatherStats` breakdown in ``scatter``.

        With ``collect_partials``, freshly computed per-shard partials are
        appended to that list as ``(key, tuples, dependencies, query)`` instead of
        entering the partial cache immediately — the virtual-time service
        passes it so partials become visible at the request's *completion*
        event, preserving the causality the result cache already honours
        (a concurrent duplicate must not replay a result that has not
        finished yet in virtual time).

        ``task_map`` runs the per-shard engine executions (a concurrent
        execution backend passes a worker-pool map; ``None`` runs them
        inline).  It must return results in input order; everything ordered
        — cache probes, gather, stats aggregation, partial publication —
        happens in shard order on the calling thread either way.

        ``engine_runner`` (the process backend's
        :class:`repro.service.shm.SharedMemoryRunner`) gets first claim on
        the missed shard tasks of plan-aware fan-outs — each shard becomes
        one shared-memory work request in a worker process.  It declines
        (returns ``None``) whenever the fan-out cannot ship faithfully,
        and the ``task_map`` path runs instead; the per-shard executions
        are bit-identical either way.

        **Fault tolerance.**  With an armed injector, ``now`` is the
        request's virtual dispatch time and every computed shard's single
        engine execution is layered under a deterministic attempt walk
        (:func:`repro.service.faults.schedule_task`): failed attempts,
        backoffs, hedges and the final success or give-up are pure
        virtual-cost events, so a recoverable fault schedule yields
        byte-identical results/stats/caches to the fault-free run.  A task
        whose walk gives up is *lost*: its execution is discarded entirely
        (no tuples, no JoinStats, no partial-cache entry), and the gather
        step either raises :class:`ShardUnavailableError`
        (``on_shard_loss="fail"``) or returns the surviving union flagged
        degraded and non-cacheable.  ``breaker_gate`` is the per-node
        circuit-breaker admission computed at dispatch; when ``None`` and
        faults are armed, the executor gates and observes its own breakers
        inline (a direct sequential caller).
        """
        if spec is None:
            spec = self.spec_for(query)
        if spec is None:
            return self._execute_global(query, engine)
        signature = self.compiler.signature(query)
        self._spec_memo[signature] = spec
        plan = self._plan_for(signature, spec) if engine.plan_aware else None
        injector = self.injector
        own_gate = injector is not None and breaker_gate is None
        if own_gate:
            breaker_gate = self.breakers.gate(range(self.catalog.num_shards), now)

        tasks: List[ShardTaskStats] = []
        partials: List[List[Tuple[int, ...]]] = []
        replayed_lengths: List[int] = []
        counts: List[int] = []
        aggregated = JoinStats()
        computed_any = False
        plan_used = False
        cacheable = True

        # Phase 1 — probe the partial cache sequentially in shard order
        # (deterministic counters) and collect the shards left to compute.
        fragment_sizes: Dict[int, int] = {}
        replayed: Dict[int, List[Tuple[int, ...]]] = {}
        to_compute: List[int] = []
        for shard in range(self.catalog.num_shards):
            fragment_sizes[shard] = self.catalog.shard_relation(
                spec.seed_relation, shard
            ).cardinality
            key = partial_key(signature, shard)
            cached = self.partial_cache.get(key) if self.partial_cache is not None else None
            if cached is not None:
                replayed[shard] = cached
            else:
                to_compute.append(shard)

        # Phase 2 — run the missed shard tasks, possibly on a worker pool.
        # With faults armed, each task reads the first replica whose node is
        # live at dispatch (fragment copies are identical, so the bytes are
        # the same as the primary's); whether the task *survives* is decided
        # by the attempt walk in phase 3, and a lost task's execution is
        # discarded there.
        read_replica: Dict[int, int] = {}
        if injector is not None:
            for shard in to_compute:
                nodes = self.catalog.replica_nodes(spec.seed_relation, shard)
                read_replica[shard] = next(
                    (
                        r
                        for r, node in enumerate(nodes)
                        if not injector.is_down(node, now)
                    ),
                    0,
                )

        def run_shard(shard: int) -> EngineExecution:
            view = self.catalog.shard_view(
                shard, spec, replica=read_replica.get(shard, 0)
            )
            if plan is not None:
                return engine.execute(spec.query, view, plan=plan)
            return engine.execute(spec.query, view)

        wall_times: Dict[int, float] = {}
        offloaded = None
        if engine_runner is not None and plan is not None and to_compute:
            offloaded = engine_runner.run_shards(
                engine,
                spec.query,
                plan,
                {
                    shard: self.catalog.shard_view(
                        shard, spec, replica=read_replica.get(shard, 0)
                    )
                    for shard in to_compute
                },
            )
        if offloaded is not None:
            executions = {}
            for shard in to_compute:
                execution, wall = offloaded[shard]
                executions[shard] = execution
                if wall is not None:
                    wall_times[shard] = wall
        elif task_map is not None:
            # Per-shard host spans: distinct keys per worker, so the dict
            # writes cannot collide; the serial fan-out records none.
            def timed_run(shard: int) -> EngineExecution:
                wall_start = time.perf_counter()
                execution = run_shard(shard)
                wall_times[shard] = time.perf_counter() - wall_start
                return execution

            executions = dict(zip(to_compute, task_map(timed_run, to_compute)))
        else:
            executions = {shard: run_shard(shard) for shard in to_compute}

        # Phase 3 — gather in shard order (identical to the serial fan-out).
        attempt_outcomes: List[Tuple[int, bool]] = []
        for shard in range(self.catalog.num_shards):
            fragment_size = fragment_sizes[shard]
            if shard in replayed:
                cached = replayed[shard]
                tasks.append(
                    ShardTaskStats(shard, len(cached), PARTIAL_REPLAY_COST_NS, True, fragment_size)
                )
                partials.append(cached)
                replayed_lengths.append(len(cached))
                continue
            execution = executions[shard]
            schedule = None
            if injector is not None:
                schedule = schedule_task(
                    shard,
                    self.catalog.replica_nodes(spec.seed_relation, shard),
                    execution.cost,
                    now,
                    signature,
                    self.retry_policy,
                    injector,
                    breaker_gate,
                )
                attempt_outcomes.extend(schedule.outcomes)
                if not schedule.ok:
                    # Lost shard: the execution is discarded wholesale — no
                    # tuples, no stats, no partial-cache entry — so a
                    # degraded result is exactly the surviving union.
                    tasks.append(
                        ShardTaskStats(
                            shard,
                            0,
                            schedule.cost_ns,
                            False,
                            fragment_size,
                            attempts=len(schedule.attempts),
                            timeouts=schedule.timeouts,
                            hedged=schedule.hedged,
                            lost=True,
                        )
                    )
                    partials.append([])
                    continue
            computed_any = True
            plan_used = plan_used or execution.plan_used
            cacheable = cacheable and execution.cacheable
            if execution.count is not None:
                counts.append(execution.count)
            _merge_join_stats(aggregated, execution.stats)
            if self.partial_cache is not None and execution.cacheable:
                key = partial_key(signature, shard)
                entry = (
                    key,
                    execution.tuples,
                    self.dependencies_for(spec, shard),
                    spec.query,
                )
                if collect_partials is not None:
                    collect_partials.append(entry)
                else:
                    self.partial_cache.put_result(*entry)
            tasks.append(
                ShardTaskStats(
                    shard,
                    execution.cardinality,
                    schedule.cost_ns if schedule is not None else execution.cost,
                    False,
                    fragment_size,
                    wall_seconds=wall_times.get(shard),
                    attempts=len(schedule.attempts) if schedule is not None else 1,
                    timeouts=schedule.timeouts if schedule is not None else 0,
                    hedged=schedule.hedged if schedule is not None else False,
                    replica=schedule.replica if schedule is not None else 0,
                )
            )
            partials.append(execution.tuples)

        gathered = sum(len(partial) for partial in partials)
        count: Optional[int] = None
        if counts:
            # Count-only execution (possibly mixed with replayed tuple
            # partials written earlier by an enumerating engine): the result
            # is a pure count — a replayed partial contributes its length,
            # and for a partitioned seed the disjoint per-shard counts sum,
            # while a replicated seed counts the same full result everywhere.
            merged: List[Tuple[int, ...]] = []
            if spec.partitioned:
                count = sum(counts) + sum(replayed_lengths)
            else:
                count = counts[0]
        elif spec.partitioned and set(spec.query.head_variables) == set(
            spec.query.variables
        ):
            # Disjoint partials (the seed fragments partition the relation
            # and no projection can alias bindings): concatenation in shard
            # order is the merged result, no dedup pass needed.
            merged = [row for partial in partials for row in partial]
        else:
            merged = sorted(set().union(*partials)) if partials else []
        duplicates_removed = 0 if counts else gathered - len(merged)
        merge_cost = SCATTER_MERGE_COST_PER_TUPLE_NS * gathered
        cost = (
            SCATTER_DISPATCH_COST_NS * len(tasks)
            + max((task.cost_ns for task in tasks), default=0.0)
            + merge_cost
        )
        # Degradation contract.  A lost fragment of a partitioned seed is
        # missing from the union; a replicated-seed fan-out computes the full
        # result on every task, so it only degrades when *every* task is lost.
        lost = tuple(task.shard for task in tasks if task.lost)
        if spec.partitioned:
            missing = lost
        else:
            missing = lost if len(lost) == len(tasks) else ()
        if missing:
            cacheable = False
        scatter_stats = ScatterGatherStats(
            seed_relation=spec.seed_relation,
            seed_partitioned=spec.partitioned,
            tasks=tuple(tasks),
            merged_tuples=len(merged),
            duplicates_removed=duplicates_removed,
            merge_cost_ns=merge_cost,
            missing_shards=missing,
            attempt_outcomes=tuple(attempt_outcomes),
        )
        if own_gate:
            # Sequential caller: the execution is complete here, so observing
            # at `now + cost` is the same deterministic point the service
            # uses (the request's completion event).
            self.observe_attempts(scatter_stats, now + cost)
        if missing and self.on_shard_loss == "fail":
            error = ShardUnavailableError(
                spec.seed_relation,
                missing,
                sum(task.attempts for task in tasks if task.lost),
                cost,
            )
            # Carry the breakdown so the service can still feed the
            # breakers and trace the failed fan-out at completion.
            error.scatter = scatter_stats
            raise error
        return EngineExecution(
            tuples=merged,
            cost=cost,
            plan_used=plan_used,
            stats=aggregated if computed_any else None,
            plan=plan,
            count=count,
            cacheable=cacheable,
            scatter=scatter_stats,
            degraded=bool(missing),
            missing_shards=missing,
        )

    def _execute_global(
        self, query: ConjunctiveQuery, engine: EngineProtocol
    ) -> EngineExecution:
        """Single execution against the merged view (no partitioned atom)."""
        if engine.plan_aware:
            _, canonical, plan = self.compiler.compile_canonical(query)
            return engine.execute(canonical, self.catalog, plan=plan)
        return engine.execute(query, self.catalog)

    def publish_partials(
        self,
        entries: List[Tuple],
    ) -> None:
        """Publish partials collected via ``collect_partials`` into the cache."""
        if self.partial_cache is None:
            return
        for key, tuples, dependencies, query in entries:
            self.partial_cache.put_result(key, tuples, dependencies, query=query)

    # ------------------------------------------------------------------ #
    # Incremental maintenance of cached partials
    # ------------------------------------------------------------------ #
    def maintain(self, event, planner, engine, now: float = 0.0) -> Tuple[int, int]:
        """Patch the cached shard partials a mutation event touches.

        The incremental alternative to subscribing ``partial_cache.invalidate``:
        for each dependent partial entry, the fragment's delta result is
        computed by semi-naive delta joins against that shard's view — the
        seed atom's delta is the slice of the batch routed to the entry's
        shard (empty for sibling shards of a partitioned seed), and every
        other atom over the mutated relation sees the whole batch through
        the global view — and merged into the entry in place.

        Composes with the PR 9 fault path: with an armed injector, a patch
        whose fragment is unreachable on every replica at virtual ``now``
        is *lost* and the entry is dropped instead — a lost patch degrades
        to recompute, never to a wrong answer.  Any solver failure
        (unknown spec, raised error) falls back to the drop the same way.

        Returns ``(patched, dropped)``.
        """
        if self.partial_cache is None:
            return (0, 0)

        def solve(key: str, query, evt):
            signature, _, suffix = key.rpartition("#shard")
            spec = self._spec_memo.get(signature)
            if spec is None or not suffix.isdigit():
                return None
            shard = int(suffix)
            if self.injector is not None and spec.partitioned:
                nodes = self.catalog.replica_nodes(spec.seed_relation, shard)
                if all(self.injector.is_down(node, now) for node in nodes):
                    return None  # lost patch → fragment drop
            rows = evt.delta.rows
            deltas: Dict[str, Tuple[Tuple[int, ...], ...]] = {}
            if any(
                atom.relation == evt.relation
                for index, atom in enumerate(spec.query.atoms)
                if index != spec.seed_index
            ):
                deltas[evt.relation] = rows
            if spec.seed_relation == evt.relation:
                if not spec.partitioned:
                    deltas[spec.alias] = rows
                elif evt.shard == shard:
                    deltas[spec.alias] = rows
                elif evt.shard is None:
                    # Whole-relation event on a partitioned seed: the rows
                    # cannot be attributed to fragments here, so drop.
                    return None
            deltas = {name: batch for name, batch in deltas.items() if batch}
            if not deltas:
                return ()  # dependency touched, fragment result unchanged
            view = self.catalog.shard_view(shard, spec)
            from repro.joins.delta import evaluate_delta

            return evaluate_delta(spec.query, view, deltas, engine, planner).tuples

        return self.partial_cache.maintain(event, solve)

    def invalidation_report(self) -> Optional[str]:
        """One report line for the partial cache, or ``None`` without one."""
        if self.partial_cache is None:
            return None
        stats = self.partial_cache.stats
        return (
            f"shard partial cache  : {stats.hits}/{stats.lookups} hits "
            f"({stats.hit_rate:.1%}), {stats.invalidations} invalidations "
            f"({stats.drops} drops, {stats.patches} patches)"
        )


__all__ = [
    "PARTIAL_REPLAY_COST_NS",
    "ScatterGatherExecutor",
    "ScatterGatherStats",
    "ShardTaskStats",
    "ShardUnavailableError",
    "partial_key",
]
