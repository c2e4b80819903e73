"""Run one perfbench workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytic-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed op sequence (sized from ``--seconds``) twice —
untraced, then traced — and prints the per-layer metrics, the tracing
overhead and coverage, and writes the spans as JSONL under
``.perfbench_out/``.  Every answer is checked against the benchmark's own
oracle; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 0
only when every operation succeeded with a correct answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from dataclasses import asdict
from importlib.metadata import PackageNotFoundError, version
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Span files of ``--trace 1`` runs; scratch stores live under WORK_DIR.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def _bootstrap() -> None:
    """Import the program from ``src/`` of this checkout, or exit 2."""
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    source = os.path.join(ROOT, "src", "repro")
    try:
        import repro
    except ImportError as error:
        repro = error
    if getattr(repro, "__file__", None) is None or not os.path.abspath(
        repro.__file__
    ).startswith(source + os.sep):
        # Never measure an installed copy in place of this checkout's source.
        print(f"perfbench: cannot import the program from {source}: {repro}",
              file=sys.stderr)
        sys.exit(2)


def git_sha() -> str:
    """HEAD's commit id read from ``.git`` without running git; "unknown" if absent."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, sizing) -> dict:
    from perfbench import workloads

    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "absent"
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizing": asdict(sizing),
        "zipf_skew": workloads.ZIPF_SKEW,
        "rename_fraction": workloads.RENAME_FRACTION,
        "insert_fraction": workloads.INSERT_FRACTION,
        "insert_batch": workloads.INSERT_BATCH,
        "shards": workloads.SHARDS,
        "ingest_engines": list(workloads.INGEST_ENGINES),
        "flush_policy": workloads.FLUSH_POLICY,
        "calibration_reference_ms": workloads.CALIBRATION_REFERENCE_MS,
    }


def end_to_end(run) -> dict:
    from perfbench.workloads import peak_rss_mb, percentile

    queries = run.scaled_latencies("query")
    completed = len(run.latencies["query"]) + len(run.latencies["insert"])
    return {
        "setup_s": (median(run.scaled_setups()), "s"),
        "query_p50_ms": (percentile(queries, 50), "ms"),
        "query_p90_ms": (percentile(queries, 90), "ms"),
        "ops_per_s": (completed / run.scaled_measure_wall(), "1/s"),
        "peak_rss_mb": (run.peak_rss_mb or peak_rss_mb(), "MB"),
    }


def per_layer(untraced, traced) -> dict:
    from perfbench.tracing import (
        LAYERS,
        layer_self_times,
        self_time,
        span_count,
        span_items,
        total_time,
    )
    from perfbench.workloads import percentile

    spans = traced.tracer.spans
    queries = len(traced.latencies["query"])
    routed = sum(traced.backends.values()) or 1
    inserts = untraced.scaled_latencies("insert")

    def ratio(cache: str) -> float:
        lookups = traced.cache_stats[cache + ".lookups"]
        return traced.cache_stats[cache + ".hits"] / lookups if lookups else 0.0

    def per_setup(name: str) -> float:
        return total_time(spans, name, "setup") / len(traced.setup_walls)

    maintenance_s = total_time(spans, "service.maintenance")
    delta_s = total_time(spans, "joins.delta")
    layers = layer_self_times(spans)
    traced_wall = sum(traced.setup_walls) + traced.measure_wall
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    speed = traced.speed_factor
    metrics = {
        "api.route_ms": (
            total_time(spans, "api.route") * 1e3 * speed / max(queries, 1),
            "ms",
        ),
        "api.route_share.triejax": (traced.backends["triejax"] / routed, "fraction"),
        "api.route_share.ctj": (traced.backends["ctj"] / routed, "fraction"),
        "api.route_share.lftj": (traced.backends["lftj"] / routed, "fraction"),
        "joins.exec_s": (total_time(spans, "joins.exec") * speed, "s"),
        "joins.exec_calls": (span_count(spans, "joins.exec"), "count"),
        "joins.output_tuples": (span_items(spans, "joins.exec"), "count"),
        "core.exec_s": (total_time(spans, "core.exec") * speed, "s"),
        "core.exec_calls": (span_count(spans, "core.exec"), "count"),
        "joins.compile_s": (total_time(spans, "joins.compile") * speed, "s"),
        "joins.signature_s": (total_time(spans, "joins.signature") * speed, "s"),
        "joins.delta_s": (delta_s * speed, "s"),
        "service.self_s": (self_time(spans, "service.request") * speed, "s"),
        "service.result_cache.hit_ratio": (ratio("result_cache"), "fraction"),
        "service.plan_cache.hit_ratio": (ratio("plan_cache"), "fraction"),
        "service.maintenance_s": (maintenance_s * speed, "s"),
        "service.merge_s": ((maintenance_s - delta_s) * speed, "s"),
        "service.patches": (traced.maintenance["patches"], "count"),
        "service.drops": (traced.maintenance["drops"], "count"),
        "service.partial_patches": (traced.maintenance["partial_patches"], "count"),
        "service.partial_drops": (traced.maintenance["partial_drops"], "count"),
        "service.rejected": (traced.rejected, "count"),
        "relational.insert_apply_s": (self_time(spans, "relational.insert") * speed, "s"),
        "storage.recover_s": (per_setup("storage.recover") * speed, "s"),
        "graphs.load_s": (per_setup("graphs.load") * speed, "s"),
        "query_p99_ms": (percentile(untraced.scaled_latencies("query"), 99), "ms"),
        "insert_p50_ms": (percentile(inserts, 50) if inserts else 0.0, "ms"),
        "insert_p90_ms": (percentile(inserts, 90) if inserts else 0.0, "ms"),
        "error_rate": (failed / attempted if attempted else 1.0, "fraction"),
        "trace.overhead": (
            traced.scaled_measure_wall() / untraced.scaled_measure_wall() - 1.0,
            "ratio",
        ),
        "trace.coverage": (sum(layers.values()) / traced_wall, "fraction"),
    }
    measured = layer_self_times(spans, "measure")
    for layer in LAYERS:
        metrics[f"trace.self_share.{layer}"] = (
            measured[layer] / traced.measure_wall,
            "fraction",
        )
    return metrics


def measure(args, sizing, workdir, engine_hook=None):
    """Run the passes ``args`` asks for; returns (runs, metrics)."""
    from perfbench.tracing import Tracer
    from perfbench.workloads import TRACE_UNITS_PER_SECOND, WORKLOADS, Run

    workload = WORKLOADS[args.workload]
    if not args.trace:
        run = Run(args.seed, sizing, workdir, engine_hook=engine_hook)
        workload(run, args.seconds, None)
        return [run], end_to_end(run)
    units = max(1, round(args.seconds * TRACE_UNITS_PER_SECOND[args.workload]))
    untraced = Run(args.seed, sizing, workdir, engine_hook=engine_hook)
    workload(untraced, args.seconds, units)
    traced = Run(args.seed, sizing, workdir, tracer=Tracer(), engine_hook=engine_hook)
    workload(traced, args.seconds, units)
    return [untraced, traced], per_layer(untraced, traced)


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, sizing=None, engine_hook=None) -> int:
    _bootstrap()
    from perfbench.workloads import Sizing, make_workdir

    args = parse_args(argv)
    sizing = sizing or Sizing()
    meta = metadata(args, sizing)
    workdir = make_workdir(WORK_DIR)
    try:
        runs, metrics = measure(args, sizing, workdir, engine_hook)
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            trace_path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"
            )
            runs[-1].tracer.write_jsonl(trace_path)
            meta["trace_file"] = trace_path
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses the shared work directory
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    meta["samples"] = {
        kind: sum(len(run.latencies[kind]) for run in runs) for kind in ("query", "insert")
    }
    meta["error_rate"] = failed / attempted if attempted else 1.0
    # Per pass: the calibration slice's median time and the resulting factor
    # (raw wall time = reported time / speed_factor).
    meta["calibration_ms"] = [round(median(run.calibration) * 1e3, 6) for run in runs]
    meta["speed_factor"] = [round(run.speed_factor, 6) for run in runs]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for run in runs:
        for message in run.failures:
            print("FAILED " + message)
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    correct = failed == 0 and attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
