"""Chaos benchmarks: serving under deterministic fault injection.

The fault harness (:mod:`repro.service.faults`) schedules slowdowns,
transient failures and shard outages on the service's virtual clock, so a
fault scenario is exactly as reproducible as a fault-free run.  This suite
serves the same seeded mixed workload under a sweep of fault plans and
reports, per scenario:

* **p99 latency** (virtual ns) of the served stream under churn;
* **recovery window** (virtual ns): the span from the first fault-impacted
  request's arrival to the last impacted request's completion — how long
  the service was visibly perturbed before returning to fault-free
  behaviour;
* retry / timeout / hedge / degraded counts from the service records.

Scenarios:

* ``fault_free`` — the baseline every equivalence check compares against;
* ``transient_retry`` — a flaky shard whose failures end mid-stream, so
  in-window requests recover by retrying; the contract requires results,
  records and cache counters **byte-identical** to fault-free (retries are
  invisible outside the latency/attempt columns);
* ``straggler_unhedged`` / ``straggler_hedged`` — one shard slowed 8x,
  with and without hedged duplicate dispatch onto its replica: the hedge
  must cap the straggler's p99 below the unhedged control's;
* ``outage_partial`` — a mid-stream permanent shard outage served with
  ``on_shard_loss="partial"``: affected answers degrade to exactly the
  union of the surviving shard fragments and are never cached as complete;
* ``outage_replica`` — the same outage with ``replication_factor=2``:
  retries move to the replica, so every answer stays complete.

The committed form of this report, ``BENCH_chaos.json``, is the chaos
baseline; ``repro bench chaos --compare BENCH_chaos.json`` regresses
against it.  The report shape matches :mod:`repro.eval.kernels`
(``{meta, kernels, checks}``) so the CLI formatting/artifact/comparison
pipeline serves all four suites.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, Optional, Tuple

from repro.eval.metrics import percentile
from repro.service import (
    WorkloadSpec,
    generate_requests,
    run_workload,
    workload_database,
)
from repro.service.faults import RetryPolicy

#: Engines the service rotates through (matches the concurrency suite).
ENGINE_ROTATION = ("lftj", "ctj")

#: Stream length at scale 1.0.
NUM_QUERIES = 100

#: Synthetic workload graph (fixed across scales; ``scale`` stretches the
#: stream, not the data).
NUM_VERTICES = 60
NUM_EDGES = 300

#: Catalog shards every scenario serves over.
NUM_SHARDS = 4

#: Default scale — the committed ``BENCH_chaos.json`` baseline.
DEFAULT_CHAOS_SCALE = 1.0

#: Tiny scale used by ``--smoke`` (CI correctness gate, not timing-sensitive).
SMOKE_CHAOS_SCALE = 0.25

#: The flaky window of ``transient_retry`` ends well before the stream does,
#: so every in-window failure recovers by retry.
TRANSIENT_WINDOW = "flaky:1@0-220"

#: The outage scenarios lose shard 2 permanently from virtual time 0.
OUTAGE = "down:2"

#: The straggler scenario slows shard 3 by 8x; hedging fires for tasks whose
#: slowed cost exceeds the threshold.
STRAGGLER = "slow:3*8"
HEDGE_THRESHOLD_NS = 2_000.0

#: Scenario table: (kernel name, faults spec, session kwargs).  The two
#: straggler scenarios replicate fragments (a hedge needs a second replica
#: to duplicate onto); ``straggler_unhedged`` is the control the hedging
#: check compares against.
SCENARIOS: Tuple[Tuple[str, Optional[str], Dict], ...] = (
    ("fault_free", None, {}),
    ("transient_retry", TRANSIENT_WINDOW, {}),
    ("straggler_unhedged", STRAGGLER, {"replication_factor": 2}),
    (
        "straggler_hedged",
        STRAGGLER,
        {
            "replication_factor": 2,
            "retry_policy": RetryPolicy(hedge_threshold_ns=HEDGE_THRESHOLD_NS),
        },
    ),
    ("outage_partial", OUTAGE, {"on_shard_loss": "partial"}),
    (
        "outage_replica",
        OUTAGE,
        {"replication_factor": 2, "on_shard_loss": "partial"},
    ),
)


def _spec(num_queries: int) -> WorkloadSpec:
    # Renames keep the result cache honest (α-equivalent repeats) while the
    # mixed arrival discipline spreads arrivals over virtual time, so fault
    # windows cut through the stream instead of hitting only request 0.
    return WorkloadSpec(
        num_queries=num_queries,
        mode="mixed",
        rename_fraction=0.5,
    )


def _serve_round(faults: Optional[str], session_kwargs: Dict, requests, seed: int) -> Dict:
    """One fresh session lifecycle under ``faults``; returns the measurements."""
    from repro.api import Session

    database = workload_database(
        num_vertices=NUM_VERTICES, num_edges=NUM_EDGES, seed=seed
    )
    session = Session(
        database,
        engines=ENGINE_ROTATION,
        routing="rotate",
        shards=NUM_SHARDS,
        max_in_flight=4,
        seed=seed,
        faults=faults,
        **session_kwargs,
    )
    try:
        started = time.perf_counter()
        outcomes = run_workload(session.service, requests)
        elapsed = time.perf_counter() - started
        records = list(session.service.metrics.records)
        measurements = {
            "seconds": elapsed,
            "results": {rid: sorted(o.tuples) for rid, o in outcomes.items()},
            "result_cache": session.result_cache.stats.as_dict(),
            "degraded_ids": sorted(r.request_id for r in records if r.degraded),
            "latencies": [r.latency for r in records],
            "impacted": [
                r
                for r in records
                if r.retries or r.timeouts or r.degraded or r.failed
            ],
            "retries": sum(r.retries for r in records),
            "timeouts": sum(r.timeouts for r in records),
            "degraded_count": sum(1 for r in records if r.degraded),
            "queries": len(outcomes),
        }
    finally:
        session.close()
    return measurements


def _recovery_ns(measurements: Dict) -> float:
    """The virtual-time window during which the service was perturbed.

    Spans from the first fault-impacted request's arrival to the last
    impacted request's completion; 0.0 when no request was impacted (the
    service behaved exactly like fault-free throughout).
    """
    impacted = measurements["impacted"]
    if not impacted:
        return 0.0
    return max(r.finish_time for r in impacted) - min(
        r.arrival_time for r in impacted
    )


def run_chaos_benchmarks(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    repeats: int = 3,
    smoke: bool = False,
) -> Dict:
    """Run the chaos suite and return the JSON-serialisable report.

    Parameters mirror :func:`repro.eval.kernels.run_kernel_benchmarks`:
    ``smoke`` forces the tiny scale and a single repeat (CI gate mode), and
    ``seed`` defaults to ``REPRO_BENCH_SEED``.
    """
    if seed is None:
        seed = int(os.environ.get("REPRO_BENCH_SEED", "2020"))
    if smoke:
        scale = SMOKE_CHAOS_SCALE if scale is None else scale
        repeats = 1
    elif scale is None:
        scale = DEFAULT_CHAOS_SCALE

    num_queries = max(12, int(round(NUM_QUERIES * scale)))
    requests = generate_requests(_spec(num_queries), seed=seed)

    kernels: Dict[str, Dict] = {}
    measured: Dict[str, Dict] = {}
    for name, faults, session_kwargs in SCENARIOS:
        best: Optional[Dict] = None
        for _ in range(max(repeats, 1)):
            round_result = _serve_round(faults, session_kwargs, requests, seed)
            if best is None or round_result["seconds"] < best["seconds"]:
                best = round_result
        assert best is not None
        measured[name] = best
        kernels[name] = {
            "seconds": best["seconds"],
            "faults": faults or "",
            "queries": best["queries"],
            "p99_latency_ns": round(percentile(best["latencies"], 99), 1),
            "recovery_ns": round(_recovery_ns(best), 1),
            "retries": best["retries"],
            "timeouts": best["timeouts"],
            "degraded": best["degraded_count"],
        }

    oracle = measured["fault_free"]
    transient = measured["transient_retry"]
    replica = measured["outage_replica"]
    partial = measured["outage_partial"]

    checks = {
        # Retries must be invisible outside the latency columns: identical
        # result sets and result-cache counters, request for request.  (The
        # per-request JoinStats equality lives in the fault-equivalence
        # tests, where stats are directly inspectable on a ResultSet.)
        "transient_equivalent_to_fault_free": (
            transient["results"] == oracle["results"]
            and transient["result_cache"] == oracle["result_cache"]
            and transient["degraded_count"] == 0
            and transient["retries"] > 0
        ),
        # With a replica per fragment the permanent outage costs retries,
        # never answers: every result stays complete and fault-free-equal.
        "replica_covers_outage": (
            replica["results"] == oracle["results"]
            and replica["degraded_count"] == 0
        ),
        # Without replicas the same outage degrades: affected answers are
        # flagged and are subsets of (or equal to) the fault-free answer —
        # never fabricated tuples.
        "partial_degrades_without_replica": (
            partial["degraded_count"] > 0
            and all(
                set(partial["results"][rid]) <= set(oracle["results"][rid])
                for rid in partial["degraded_ids"]
            )
        ),
        # The hedge must not change any answer, and duplicating the slowed
        # dispatch onto the healthy replica must cap the straggler's tail:
        # hedged p99 strictly below the unhedged control's.
        "hedging_preserves_results": (
            measured["straggler_hedged"]["results"] == oracle["results"]
        ),
        "hedging_caps_straggler_p99": (
            kernels["straggler_hedged"]["p99_latency_ns"]
            < kernels["straggler_unhedged"]["p99_latency_ns"]
        ),
    }

    return {
        "meta": {
            "suite": "chaos",
            "dataset": "workload-synthetic",
            "scale": scale,
            "seed": seed,
            "repeats": repeats,
            "smoke": smoke,
            "edges": NUM_EDGES,
            "vertices": NUM_VERTICES,
            "queries": num_queries,
            "shards": NUM_SHARDS,
            "engines": list(ENGINE_ROTATION),
            "hedge_threshold_ns": HEDGE_THRESHOLD_NS,
            "python": platform.python_version(),
        },
        "kernels": kernels,
        "checks": checks,
    }
