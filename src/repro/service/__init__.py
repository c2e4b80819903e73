"""The query-serving subsystem: concurrent, cache-reusing query execution.

The serving layer generalises two of the paper's single-query mechanisms to
cross-query, throughput-oriented workloads:

* the PJR cache's partial-result reuse (Section 3.5) becomes the
  signature-keyed **plan cache** and **result cache**
  (:mod:`repro.service.caches`), with α-equivalent queries canonicalised by
  the compiler hooks in :mod:`repro.joins.compiler`;
* the deterministic in-query thread scheduler (Figure 14,
  :mod:`repro.core.scheduler`) becomes the request-level **admission
  controller** (:mod:`repro.service.admission`), which caps in-flight
  queries and arbitrates priority classes with a seeded lottery.

:class:`QueryService` (:mod:`repro.service.service`) composes both over the
pluggable engine registry (:mod:`repro.api.engines`: naive, LFTJ, CTJ,
Generic Join, pairwise, and the TrieJax accelerator model);
:mod:`repro.service.workload` drives it with seeded open/closed-loop query
streams and :mod:`repro.service.metrics` aggregates per-request records
into service reports.  Catalog mutations flow to the caches under one of
two maintenance policies (:mod:`repro.service.maintenance`): drop dependent
entries and recompute on the next request, or patch them in place with
semi-naive delta joins (:mod:`repro.joins.delta`).

*How* admitted requests physically execute is pluggable too
(:mod:`repro.service.backends`): :class:`VirtualTimeBackend` is the
deterministic virtual-time oracle, :class:`ThreadPoolBackend` overlaps the
engine work on a host worker pool, and :class:`ProcessPoolBackend` ships
it to worker processes over shared-memory trie segments
(:mod:`repro.service.shm`) to escape the GIL — all while keeping the same
deterministic event order (identical results, cache contents and admission
decisions — see ``QueryService(backend=..., workers=...)``).

Quick start::

    from repro.service import QueryService, WorkloadSpec, generate_requests
    from repro.service import run_workload, workload_database

    service = QueryService(workload_database(), backends=("lftj", "ctj"))
    requests = generate_requests(WorkloadSpec(num_queries=100), seed=7)
    outcomes = run_workload(service, requests)
    print(service.report())

Engines live in :mod:`repro.api.engines` (the single registry shared with
:class:`repro.api.Session`); ``ExecutionBackend`` here names the
*execution-loop* abstraction from :mod:`repro.service.backends`.
Every :class:`repro.api.Session` is a facade over one
:class:`QueryService` (``session.service``): its ``execute`` submits one
request per forced result and ``serve`` a whole stream, on the same
caches, router and records.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionStats,
    PRIORITY_CLASSES,
    PRIORITY_WEIGHTS,
)
from repro.service.backends import (
    EXECUTION_BACKEND_NAMES,
    EXECUTION_BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    ThreadPoolBackend,
    VirtualTimeBackend,
    create_execution_backend,
)
from repro.service.caches import CacheStats, LRUCache, PlanCache, ResultCache
from repro.service.maintenance import (
    MAINTENANCE_MODES,
    MaintenanceReport,
    ResultMaintainer,
    check_maintenance_mode,
)
from repro.service.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    NodeBreakers,
    OutageFault,
    RetryPolicy,
    ShardUnavailableError,
    SlowdownFault,
    TaskAttempt,
    TaskSchedule,
    TransientFault,
    WorkerCrashFault,
    coerce_fault_plan,
    parse_fault_spec,
    schedule_task,
)
from repro.service.metrics import QueryRecord, ServiceMetrics
from repro.service.scatter import (
    PARTIAL_REPLAY_COST_NS,
    ScatterGatherExecutor,
    ScatterGatherStats,
    ShardTaskStats,
)
from repro.service.service import (
    BackdatedArrivalWarning,
    QueryOutcome,
    QueryService,
    RESULT_REPLAY_COST,
    ServiceRequest,
)
from repro.service.workload import (
    DEFAULT_PRIORITY_MIX,
    WorkloadRequest,
    WorkloadSpec,
    alpha_rename,
    generate_requests,
    run_workload,
    workload_database,
    zipf_weights,
)

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "PRIORITY_CLASSES",
    "PRIORITY_WEIGHTS",
    "EXECUTION_BACKENDS",
    "EXECUTION_BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "ThreadPoolBackend",
    "VirtualTimeBackend",
    "create_execution_backend",
    "BackdatedArrivalWarning",
    "CacheStats",
    "LRUCache",
    "PlanCache",
    "ResultCache",
    "MAINTENANCE_MODES",
    "MaintenanceReport",
    "ResultMaintainer",
    "check_maintenance_mode",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "NodeBreakers",
    "OutageFault",
    "RetryPolicy",
    "ShardUnavailableError",
    "SlowdownFault",
    "TaskAttempt",
    "TaskSchedule",
    "TransientFault",
    "WorkerCrashFault",
    "coerce_fault_plan",
    "parse_fault_spec",
    "schedule_task",
    "QueryRecord",
    "ServiceMetrics",
    "PARTIAL_REPLAY_COST_NS",
    "ScatterGatherExecutor",
    "ScatterGatherStats",
    "ShardTaskStats",
    "QueryOutcome",
    "QueryService",
    "RESULT_REPLAY_COST",
    "ServiceRequest",
    "DEFAULT_PRIORITY_MIX",
    "WorkloadRequest",
    "WorkloadSpec",
    "alpha_rename",
    "generate_requests",
    "run_workload",
    "workload_database",
    "zipf_weights",
]
