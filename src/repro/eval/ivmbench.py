"""Incremental-view-maintenance benchmarks: patching vs drop-and-recompute.

The serving layer maintains cached results under one of two policies
(:mod:`repro.service.maintenance`): ``recompute`` drops every dependent
cache entry on a catalog mutation and pays the full join again at the next
request, while ``incremental`` patches the cached tuples in place with a
semi-naive delta join (:mod:`repro.joins.delta`).  This suite serves the
same seeded **update-heavy** stream — Zipf-popular patterns, α-renamed
repeats, a third of the stream inserting edges — under both policies and
reports, per scenario:

* **modelled cost** (virtual ns): the backend-charged service time of the
  stream *plus* the maintainer's delta-join cost, so patching is charged
  honestly against recomputation;
* result-cache traffic: hits, and the ``drops`` vs ``patches`` split of
  the maintenance counters (plus the partial-fragment counters when the
  catalog is sharded);
* host wall seconds, and beside each modelled speedup the measured wall
  speedup over the recompute control (``wall_speedup_vs_recompute``).

Scenarios pair the two policies over a monolithic catalog and over a
2-shard scatter-gather catalog.  The checks pin the contract from both
sides: the incremental runs must return **identical results** to their
recompute controls on every request, must actually patch (and never be
silently demoted to dropping), and must beat recomputation by at least
``REQUIRED_SPEEDUP``× on modelled cost.  A full run also requires
``REQUIRED_WALL_SPEEDUP``× in measured wall time; smoke runs report the
wall ratios but judge no wall check, since a smoke-length stream on a
shared host cannot support one.

The committed form of this report, ``BENCH_ivm.json``, is the maintenance
baseline; ``repro bench ivm --compare BENCH_ivm.json`` regresses against
it.  The report shape matches :mod:`repro.eval.kernels`
(``{meta, kernels, checks}``) so the CLI formatting/artifact/comparison
pipeline serves all five suites.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, Optional, Tuple

from repro.service import (
    WorkloadSpec,
    generate_requests,
    run_workload,
    workload_database,
)

#: Engines the service rotates through (matches the chaos suite).
ENGINE_ROTATION = ("lftj", "ctj")

#: Stream length at scale 1.0.
NUM_QUERIES = 120

#: Synthetic workload graph (fixed across scales; ``scale`` stretches the
#: stream, not the data).  Denser than the other serving suites on
#: purpose: the recompute cost of a full join grows with the data while a
#: two-row delta join barely notices, and the speedup checks need that gap
#: to be the dominant effect, not a rounding artefact.
NUM_VERTICES = 60
NUM_EDGES = 600

#: Default scale — the committed ``BENCH_ivm.json`` baseline.
DEFAULT_IVM_SCALE = 1.0

#: Tiny scale used by ``--smoke`` (CI correctness gate, not timing-sensitive).
SMOKE_IVM_SCALE = 0.25

#: The update-heavy stream shape: a third of requests insert edges, the
#: rest draw Zipf-popular patterns with α-renamed repeats — so cached
#: results are both popular (worth keeping alive) and constantly dirtied.
UPDATE_FRACTION = 0.3
ZIPF_SKEW = 1.1
RENAME_FRACTION = 0.5
UPDATE_BATCH = 2

#: Modelled-cost speedup the incremental runs must clear over recompute at
#: full scale.  Smoke runs only require patching to be strictly cheaper
#: (>1x): each delta join is amortised over the reads that follow it, and
#: a smoke-length stream is too short for the full-scale ratio — smoke is
#: the correctness gate, the committed baseline carries the speedup claim.
REQUIRED_SPEEDUP = 2.0
SMOKE_REQUIRED_SPEEDUP = 1.0

#: Wall-clock speedup (best-of-``repeats`` seconds) the incremental runs
#: must clear over recompute in a full run.
REQUIRED_WALL_SPEEDUP = 1.5

#: Scenario table: (kernel name, maintenance mode, shard count).  Each
#: incremental scenario has the recompute control it is checked against
#: directly above it.
SCENARIOS: Tuple[Tuple[str, str, int], ...] = (
    ("recompute_mono", "recompute", 1),
    ("incremental_mono", "incremental", 1),
    ("recompute_sharded", "recompute", 2),
    ("incremental_sharded", "incremental", 2),
)


def _spec(num_queries: int) -> WorkloadSpec:
    return WorkloadSpec(
        num_queries=num_queries,
        mode="mixed",
        rename_fraction=RENAME_FRACTION,
        update_fraction=UPDATE_FRACTION,
        update_batch=UPDATE_BATCH,
        update_domain=NUM_VERTICES,
        zipf_skew=ZIPF_SKEW,
    )


def _serve_round(mode: str, shards: int, requests, seed: int) -> Dict:
    """One fresh session lifecycle under ``mode``; returns the measurements."""
    from repro.api import Session

    database = workload_database(
        num_vertices=NUM_VERTICES, num_edges=NUM_EDGES, seed=seed
    )
    session = Session(
        database,
        engines=ENGINE_ROTATION,
        routing="rotate",
        shards=shards,
        max_in_flight=4,
        seed=seed,
        maintenance=mode,
    )
    try:
        started = time.perf_counter()
        outcomes = run_workload(session.service, requests)
        elapsed = time.perf_counter() - started
        records = list(session.service.metrics.records)
        stats = session.result_cache.stats
        scatter = session.service.scatter
        partial_stats = scatter.partial_cache.stats if scatter is not None else None
        maintenance_ns = (
            session.maintainer.cost_ns if session.maintainer is not None else 0.0
        )
        service_ns = sum(r.service_time for r in records)
        measurements = {
            "seconds": elapsed,
            "results": {rid: sorted(o.tuples) for rid, o in outcomes.items()},
            "queries": len(outcomes),
            "service_ns": service_ns,
            "maintenance_ns": maintenance_ns,
            "model_ns": service_ns + maintenance_ns,
            "hits": stats.hits,
            "drops": stats.drops,
            "patches": stats.patches,
            "partial_drops": partial_stats.drops if partial_stats else 0,
            "partial_patches": partial_stats.patches if partial_stats else 0,
        }
    finally:
        session.close()
    return measurements


def run_ivm_benchmarks(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    repeats: int = 3,
    smoke: bool = False,
) -> Dict:
    """Run the maintenance suite and return the JSON-serialisable report.

    Parameters mirror :func:`repro.eval.kernels.run_kernel_benchmarks`:
    ``smoke`` forces the tiny scale and a single repeat (CI gate mode), and
    ``seed`` defaults to ``REPRO_BENCH_SEED``.
    """
    if seed is None:
        seed = int(os.environ.get("REPRO_BENCH_SEED", "2020"))
    if smoke:
        scale = SMOKE_IVM_SCALE if scale is None else scale
        repeats = 1
    elif scale is None:
        scale = DEFAULT_IVM_SCALE

    num_queries = max(16, int(round(NUM_QUERIES * scale)))
    requests = generate_requests(_spec(num_queries), seed=seed)

    kernels: Dict[str, Dict] = {}
    measured: Dict[str, Dict] = {}
    for name, mode, shards in SCENARIOS:
        best: Optional[Dict] = None
        for _ in range(max(repeats, 1)):
            round_result = _serve_round(mode, shards, requests, seed)
            if best is None or round_result["seconds"] < best["seconds"]:
                best = round_result
        assert best is not None
        measured[name] = best
        kernels[name] = {
            "seconds": best["seconds"],
            "maintenance": mode,
            "shards": shards,
            "queries": best["queries"],
            "model_ns": round(best["model_ns"], 1),
            "service_ns": round(best["service_ns"], 1),
            "maintenance_ns": round(best["maintenance_ns"], 1),
            "result_cache_hits": best["hits"],
            "drops": best["drops"],
            "patches": best["patches"],
            "partial_drops": best["partial_drops"],
            "partial_patches": best["partial_patches"],
        }

    def _speedup(control: str, treatment: str, metric: str) -> float:
        patched = measured[treatment][metric]
        if patched <= 0.0:
            return float("inf")
        return measured[control][metric] / patched

    required_speedup = SMOKE_REQUIRED_SPEEDUP if smoke else REQUIRED_SPEEDUP
    speedups: Dict[str, Tuple[float, float]] = {}
    for layout in ("mono", "sharded"):
        control, treatment = f"recompute_{layout}", f"incremental_{layout}"
        speedups[layout] = (
            _speedup(control, treatment, "model_ns"),
            _speedup(control, treatment, "seconds"),
        )
        kernels[treatment]["speedup_vs_recompute"] = round(speedups[layout][0], 2)
        kernels[treatment]["wall_speedup_vs_recompute"] = round(
            speedups[layout][1], 2
        )

    checks = {
        # Patching must be invisible in the answers: every request returns
        # the exact tuples its recompute control returns.
        "incremental_equivalent_mono": (
            measured["incremental_mono"]["results"]
            == measured["recompute_mono"]["results"]
        ),
        "incremental_equivalent_sharded": (
            measured["incremental_sharded"]["results"]
            == measured["recompute_sharded"]["results"]
        ),
        # The incremental runs actually patch; the recompute controls never
        # do (their counters stay pure drops).
        "incremental_patches": (
            measured["incremental_mono"]["patches"] > 0
            and measured["incremental_sharded"]["patches"] > 0
            and measured["incremental_sharded"]["partial_patches"] > 0
        ),
        "recompute_never_patches": (
            measured["recompute_mono"]["patches"] == 0
            and measured["recompute_sharded"]["patches"] == 0
            and measured["recompute_sharded"]["partial_patches"] == 0
        ),
        # The point of the refactor: patching beats drop-and-recompute on
        # modelled cost, with the delta-join work charged to the
        # incremental side (2x at full scale, strictly cheaper on smoke).
        "incremental_speedup_mono": speedups["mono"][0] > required_speedup,
        "incremental_speedup_sharded": speedups["sharded"][0] > required_speedup,
    }
    if not smoke:
        # Measured, not modelled: patching must also win on the host clock.
        for layout in ("mono", "sharded"):
            checks[f"incremental_wall_speedup_{layout}"] = (
                speedups[layout][1] >= REQUIRED_WALL_SPEEDUP
            )

    return {
        "meta": {
            "suite": "ivm",
            "dataset": "workload-synthetic",
            "scale": scale,
            "seed": seed,
            "repeats": repeats,
            "smoke": smoke,
            "edges": NUM_EDGES,
            "vertices": NUM_VERTICES,
            "queries": num_queries,
            "update_fraction": UPDATE_FRACTION,
            "zipf_skew": ZIPF_SKEW,
            "required_speedup": required_speedup,
            "required_wall_speedup": None if smoke else REQUIRED_WALL_SPEEDUP,
            "engines": list(ENGINE_ROTATION),
            "python": platform.python_version(),
        },
        "kernels": kernels,
        "checks": checks,
    }
