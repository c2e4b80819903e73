"""The three closed-loop workloads and the run that measures them.

Every workload is single-client and single-process: the next operation is
sent only after the previous one returned.  All of them use the seeded
60-vertex / 300-edge community graph of :func:`repro.service.workload_database`
(its own fixed graph seed, so ``--seed`` varies the request stream, not the
data scale) and the five Table 1 patterns.

* ``analytic-cold`` — batch jobs: each opens a fresh ``Session`` over the
  trie-warm catalog, executes every pattern once in a seeded order and
  closes the session.  Every query misses both caches, so routing and the
  chosen engine do the work.
* ``serve-hot`` — one session served through ``Session.service``, one
  request at a time; Zipf(1.1) pattern popularity, half the requests
  α-renamed, caches warmed in set-up, so nearly every request is a cache hit.
* ``ingest-ivm`` — the ``serve-hot`` read path plus 30% inserts of two edges
  into a durable 2-shard store under incremental maintenance.  Inserts grow
  the graph, so the stream runs in fixed-length episodes that each start
  from a freshly recovered snapshot: the data an insert meets depends on
  the seed, never on how fast the host ran earlier episodes.

The benchmark times each operation from the call until its answer is fully
materialised, checks the answer against :class:`~perfbench.oracle.PatternOracle`
outside that window, and keeps the benchmark's own work (input generation,
oracle) out of every reported wall time.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import tempfile
import time
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from statistics import median, quantiles
from typing import Callable, Dict, List, Optional

from repro.api import Session, create_engine, engine_names
from repro.graphs import PATTERN_NAMES, pattern_query
from repro.relational.query import Atom, ConjunctiveQuery
from repro.service import workload_database
from repro.storage import open_store

from perfbench.oracle import PatternOracle
from perfbench.tracing import (
    TimedCompiler,
    TimedEngine,
    TimedRouter,
    Tracer,
    maintenance_markers,
    timed_engine,
)

clock = time.perf_counter

ZIPF_SKEW = 1.1
RENAME_FRACTION = 0.5
INSERT_FRACTION = 0.3
INSERT_BATCH = 2
SHARDS = 2
#: The WAL fsyncs every insert record; the program has no other policy.
FLUSH_POLICY = "fsync per WAL insert record"
#: ``triejax`` over a sharded catalog answers every pattern with no rows
#: (the scatter gather reads the accelerator's always-set ``count`` as a
#: count-only execution), so the sharded workload routes among the software
#: engines only.  ``tests/test_perfbench.py`` keeps the defect visible.
INGEST_ENGINES = tuple(name for name in engine_names() if name != "triejax")


@dataclass(frozen=True)
class Sizing:
    """Sizes of one run.  The defaults are the benchmark; tests shrink them."""

    vertices: int = 60
    edges: int = 300
    #: Set-ups per run of analytic-cold / serve-hot; ``setup_s`` is their median.
    setups: int = 5
    #: Operations per ingest-ivm episode (each episode is one set-up).
    episode_ops: int = 100
    #: Minimum samples: p90 needs 100, serve-hot's p99 needs 1000.  Peak RSS
    #: is read when they are reached, a point fixed in work rather than in
    #: time: the service keeps a record per request, so memory grows with
    #: the requests served, which would otherwise scale with host speed.
    min_queries: int = 100
    min_serve_queries: int = 20000
    min_inserts: int = 100
    #: Hard cap on one measured phase, so a slow host still exits in time.
    max_seconds: float = 120.0


#: Seconds between host-speed calibration slices inside a measured phase.
CALIBRATION_INTERVAL_S = 0.05
#: Median slice time, in ms, at the reference speed all times are rescaled to.
CALIBRATION_REFERENCE_MS = 0.5
#: Slices whose median gives the speed factor at one moment.
CALIBRATION_NEIGHBOURS = 5


def calibration_slice() -> int:
    """Fixed interpreter-bound work, independent of the program under test.

    Dict, set, tuple and sort churn like the join kernels do; its time is
    the host's current speed for pure-Python code.
    """
    data = list(range(400))
    total = 0
    for step in range(1, 9):
        keys = {value * step % 397: (value, step) for value in data}
        common = set(keys) & set(range(0, 397, 3))
        total += len(sorted(common, reverse=True))
        total += sum(a for a, _ in keys.values() if a % step == 0)
    return total


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Budget:
    """When a measured phase stops: on a deadline or after a fixed op count."""

    def __init__(self, seconds: float, cap: float, fixed_units: Optional[int] = None):
        self.start = clock()
        self.seconds = seconds
        self.cap = cap
        self.fixed_units = fixed_units

    def more(self, units_done: int, enough_samples: bool) -> bool:
        if self.fixed_units is not None:
            return units_done < self.fixed_units
        elapsed = clock() - self.start
        if elapsed >= self.cap:
            return False
        return elapsed < self.seconds or not enough_samples


class Run:
    """One pass over a workload: samples, failures, phase walls and spans."""

    def __init__(
        self,
        seed: int,
        sizing: Sizing,
        workdir: str,
        tracer: Optional[Tracer] = None,
        engine_hook: Optional[Callable[[list], list]] = None,
    ):
        self.seed = seed
        self.sizing = sizing
        self.workdir = workdir
        self.tracer = tracer
        self.engine_hook = engine_hook
        #: Per kind: start times and wall latencies of successful operations.
        self.starts: Dict[str, array] = {"query": array("d"), "insert": array("d")}
        self.latencies: Dict[str, array] = {"query": array("d"), "insert": array("d")}
        self.backends: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.setup_starts: List[float] = []
        self.setup_walls: List[float] = []
        self.measure_wall = 0.0
        #: Wall time of the benchmark's own work inside measured phases.
        self.bench_wall = 0.0
        self.cache_stats: Counter = Counter()
        self.maintenance: Counter = Counter()
        self.rejected = 0
        self.units = 0  # jobs, requests or episodes completed
        #: Calibration slices: start times and durations, in time order.
        self.calibration_starts: List[float] = []
        self.calibration: List[float] = []
        self._last_calibration = float("-inf")
        self._factors: Optional[List[float]] = None
        self.peak_rss_mb: Optional[float] = None

    def enough(self, samples_reached: bool) -> bool:
        """Pass ``samples_reached`` through; read peak RSS when it first holds."""
        if samples_reached and self.peak_rss_mb is None:
            self.peak_rss_mb = peak_rss_mb()
        return samples_reached

    def calibrate(self, force: bool = False) -> None:
        """Time one calibration slice if the interval passed (outside any window)."""
        started = clock()
        if not force and started - self._last_calibration < CALIBRATION_INTERVAL_S:
            return
        calibration_slice()
        ended = clock()
        self.calibration_starts.append(started)
        self.calibration.append(ended - started)
        self._last_calibration = ended
        self._factors = None
        self.bench_wall += clock() - started

    @property
    def speed_factor(self) -> float:
        """Reference-speed seconds per measured second, over the whole pass."""
        return CALIBRATION_REFERENCE_MS / (median(self.calibration) * 1e3)

    def factor_at(self, moment: float) -> float:
        """The speed factor from the calibration slices nearest ``moment``.

        Host speed drifts within a run; each slice is noisy, so the factor
        is the median of the ``CALIBRATION_NEIGHBOURS`` nearest slices.
        """
        if self._factors is None:
            half = CALIBRATION_NEIGHBOURS // 2
            durations = self.calibration
            self._factors = [
                CALIBRATION_REFERENCE_MS
                / (median(durations[max(0, i - half): i + half + 1]) * 1e3)
                for i in range(len(durations))
            ]
        index = bisect_left(self.calibration_starts, moment)
        return self._factors[min(index, len(self._factors) - 1)]

    def scaled_latencies(self, kind: str) -> List[float]:
        """Latencies of ``kind`` in ms at the reference speed."""
        return [
            elapsed * 1e3 * self.factor_at(start)
            for start, elapsed in zip(self.starts[kind], self.latencies[kind])
        ]

    def scaled_setups(self) -> List[float]:
        return [
            wall * self.factor_at(start + wall / 2)
            for start, wall in zip(self.setup_starts, self.setup_walls)
        ]

    def scaled_measure_wall(self) -> float:
        """The measured phase's wall time at the reference speed.

        The phase is scaled by the operations' latency-weighted factor.
        """
        weighted = total = 0.0
        for kind in self.latencies:
            for start, elapsed in zip(self.starts[kind], self.latencies[kind]):
                weighted += elapsed * self.factor_at(start)
                total += elapsed
        return self.measure_wall * (weighted / total if total else self.speed_factor)

    # -- building blocks ------------------------------------------------ #
    def span(self, name: str, layer: str, fn):
        """Run ``fn`` inside a root-level span when tracing; return its result."""
        if self.tracer is None:
            return fn()
        index = self.tracer.begin(name, layer)
        try:
            return fn()
        finally:
            self.tracer.end(index)

    def session_kwargs(self, names) -> dict:
        engines = [create_engine(name) for name in names]
        if self.engine_hook is not None:
            engines = self.engine_hook(engines)
        if self.tracer is None:
            return {"engines": engines}
        return {
            "engines": [timed_engine(engine, self.tracer) for engine in engines],
            "compiler": TimedCompiler(self.tracer),
            "router": TimedRouter(self.tracer),
        }

    def load_graph(self):
        return self.span(
            "graphs.load",
            "graphs",
            lambda: workload_database(self.sizing.vertices, self.sizing.edges),
        )

    def operation(self, kind: str, name: str, layer: str, fn):
        """Time one operation; returns its result, or ``None`` if it raised."""
        self.calibrate()
        tracer = self.tracer
        if tracer is not None:
            tracer.request = self.attempted
            index = tracer.begin(name, layer)
        self.attempted += 1
        start = clock()
        try:
            result = fn()
        except Exception as error:  # a failed operation is a measured outcome
            result = None
            self.fail(f"{kind} raised {type(error).__name__}: {error}")
        elapsed = clock() - start
        if tracer is not None:
            tracer.end(index)
            tracer.request = None
        if result is not None:
            self.starts[kind].append(start)
            self.latencies[kind].append(elapsed)
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, oracle: PatternOracle, pattern: str, tuples, backend: str) -> None:
        self.backends[backend] += 1
        if not oracle.check(pattern, tuples):
            self.fail(
                f"{pattern} on {backend}: {len(tuples)} rows, "
                f"oracle has {len(oracle.answer(pattern))}"
            )

    def serve(self, service, oracle: PatternOracle, pattern: str, query) -> None:
        """One closed-loop request: submit, drain, check outside the window."""

        def request():
            request_id = service.submit(query)
            return service.drain().get(request_id), request_id

        result = self.operation("query", "service.request", "service", request)
        started = clock()
        if result is not None:
            outcome, request_id = result
            if outcome is None:
                self.rejected += 1
                self.fail(f"request {request_id} ({pattern}) rejected by admission")
                self.starts["query"].pop()
                self.latencies["query"].pop()
            elif outcome.error is not None:
                self.fail(f"{pattern}: {outcome.error}")
            else:
                self.check(oracle, pattern, outcome.tuples, outcome.record.backend)
        self.bench_wall += clock() - started

    def warm(self, service, oracle: PatternOracle) -> None:
        """Set-up: serve every pattern once so the caches hold them; checked."""
        for pattern in PATTERN_NAMES:
            self.calibrate(force=True)
            query = pattern_query(pattern)

            def request():
                request_id = service.submit(query)
                return service.drain()[request_id]

            outcome = self.span("service.request", "service", request)
            self.attempted += 1
            if not oracle.check(pattern, outcome.tuples):
                self.fail(f"warm-up {pattern} on {outcome.record.backend}: wrong answer")

    def record_caches(self, session, before: Counter) -> None:
        for cache in ("result_cache", "plan_cache"):
            stats = getattr(session, cache).stats
            self.cache_stats[cache + ".hits"] += stats.hits - before[cache + ".hits"]
            self.cache_stats[cache + ".lookups"] += (
                stats.lookups - before[cache + ".lookups"]
            )

    @staticmethod
    def cache_snapshot(session) -> Counter:
        snapshot: Counter = Counter()
        for cache in ("result_cache", "plan_cache"):
            stats = getattr(session, cache).stats
            snapshot[cache + ".hits"] = stats.hits
            snapshot[cache + ".lookups"] = stats.lookups
        return snapshot

    def begin_setup(self) -> None:
        self.set_phase("setup")
        self.calibrate(force=True)
        self._setup_started = clock()
        self._setup_bench = self.bench_wall

    def end_setup(self) -> None:
        """Record one set-up's wall, less the calibration slices taken inside it."""
        wall = clock() - self._setup_started - (self.bench_wall - self._setup_bench)
        self.setup_starts.append(self._setup_started)
        self.setup_walls.append(wall)
        self.calibrate(force=True)

    def set_phase(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase


# --------------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------------- #
def zipf_block(rng: random.Random, size: int) -> List[str]:
    """``size`` patterns with Zipf(ZIPF_SKEW) popularity, in a seeded order.

    Pattern ``r`` (1-based rank in Table 1 order) gets ``1/r**ZIPF_SKEW`` of
    the block, apportioned exactly: per-request draws would move the read
    mix, and with it the p90 boundary between patterns, from seed to seed.
    """
    weights = [1.0 / rank**ZIPF_SKEW for rank in range(1, len(PATTERN_NAMES) + 1)]
    shares = [size * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: size - sum(counts)]:
        counts[i] += 1
    block = [name for name, count in zip(PATTERN_NAMES, counts) for _ in range(count)]
    rng.shuffle(block)
    return block


def renamed(query: ConjunctiveQuery, tag: int) -> ConjunctiveQuery:
    """An α-equivalent copy of ``query`` with fresh variable names."""
    names = {variable: f"{variable}_{tag}" for variable in query.variables}
    atoms = [
        Atom(atom.relation, tuple(names[v] for v in atom.variables))
        for atom in query.atoms
    ]
    head = tuple(names[v] for v in query.head_variables)
    return ConjunctiveQuery(query.name, head, atoms)


def read_request(rng: random.Random, pattern: str) -> ConjunctiveQuery:
    query = pattern_query(pattern)
    if rng.random() < RENAME_FRACTION:
        query = renamed(query, rng.randrange(1 << 30))
    return query


def materialise(result_set):
    """Force a lazy ``ResultSet``: its rows and the engine that produced them."""
    return result_set.tuples, result_set.backend


def edge_oracle(database) -> PatternOracle:
    return PatternOracle(database.relation("E").sorted_rows())


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def run_analytic_cold(run: Run, budget_seconds: float, fixed_jobs: Optional[int]) -> None:
    database = None
    for _ in range(1 if fixed_jobs is not None else run.sizing.setups):
        run.begin_setup()
        database = run.load_graph()

        def warm_tries(database=database):
            # Build every trie the patterns need on the shared catalog; the
            # plans (and hence trie orders) do not depend on the engine.
            with Session(database, **run.session_kwargs(["lftj"])) as warm:
                for pattern in PATTERN_NAMES:
                    run.calibrate(force=True)
                    warm.execute(pattern, route="lftj").tuples

        run.span("relational.warm_tries", "relational", warm_tries)
        run.end_setup()
    oracle = edge_oracle(database)
    rng = random.Random(run.seed)
    run.set_phase("measure")
    budget = Budget(budget_seconds, run.sizing.max_seconds, fixed_jobs)
    phase_start = clock()
    bench_before = run.bench_wall
    while budget.more(
        run.units, run.enough(len(run.latencies["query"]) >= run.sizing.min_queries)
    ):
        order = rng.sample(PATTERN_NAMES, len(PATTERN_NAMES))
        session = run.span(
            "api.session",
            "api",
            lambda: Session(database, **run.session_kwargs(engine_names())),
        )
        before = run.cache_snapshot(session)
        for pattern in order:
            result = run.operation(
                "query", "api.execute", "api", lambda: materialise(session.execute(pattern))
            )
            started = clock()
            if result is not None:
                run.check(oracle, pattern, *result)
            run.bench_wall += clock() - started
        run.record_caches(session, before)
        run.span("api.session", "api", session.close)
        run.units += 1
    run.measure_wall += clock() - phase_start - (run.bench_wall - bench_before)


def run_serve_hot(run: Run, budget_seconds: float, fixed_requests: Optional[int]) -> None:
    session = None
    for _ in range(1 if fixed_requests is not None else run.sizing.setups):
        if session is not None:
            session.close()
        run.begin_setup()
        database = run.load_graph()
        session = run.span(
            "api.session",
            "api",
            lambda: Session(database, **run.session_kwargs(engine_names())),
        )
        service = run.span("service.open", "service", lambda: session.service)
        oracle = edge_oracle(database)
        run.warm(service, oracle)
        run.end_setup()
    rng = random.Random(run.seed)
    run.set_phase("measure")
    before = run.cache_snapshot(session)
    budget = Budget(budget_seconds, run.sizing.max_seconds, fixed_requests)
    phase_start = clock()
    bench_before = run.bench_wall
    patterns: List[str] = []
    while budget.more(
        run.units,
        run.enough(len(run.latencies["query"]) >= run.sizing.min_serve_queries),
    ):
        started = clock()
        if not patterns:
            patterns = zipf_block(rng, 100)
        pattern = patterns.pop()
        query = read_request(rng, pattern)
        run.bench_wall += clock() - started
        run.serve(service, oracle, pattern, query)
        run.units += 1
    run.measure_wall += clock() - phase_start - (run.bench_wall - bench_before)
    run.record_caches(session, before)
    session.close()


def run_ingest_ivm(run: Run, budget_seconds: float, fixed_episodes: Optional[int]) -> None:
    budget = Budget(budget_seconds, run.sizing.max_seconds, fixed_episodes)
    while budget.more(
        run.units,
        run.enough(
            len(run.latencies["query"]) >= run.sizing.min_queries
            and len(run.latencies["insert"]) >= run.sizing.min_inserts
        ),
    ):
        store_dir = tempfile.mkdtemp(prefix="ingest-", dir=run.workdir)
        try:
            ingest_episode(run, store_dir, random.Random(run.seed * 7919 + run.units))
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        run.units += 1


def ingest_episode(run: Run, store_dir: str, rng: random.Random) -> None:
    run.begin_setup()
    database = run.load_graph()

    def build_snapshot():
        store = open_store(store_dir, name="ingest", num_shards=SHARDS, partitioner="hash")
        try:
            store.add_relation(database.relation("E"))
            with Session(database=store, **run.session_kwargs(["lftj"])) as warm:
                for pattern in PATTERN_NAMES:
                    run.calibrate(force=True)
                    warm.execute(pattern, route="lftj").tuples
            store.snapshot()
        finally:
            store.close()

    run.span("storage.snapshot", "storage", build_snapshot)
    store = run.span("storage.recover", "storage", lambda: open_store(store_dir))
    session = None
    try:
        markers = maintenance_markers(run.tracer) if run.tracer is not None else None
        if markers is not None:
            store.subscribe_invalidation(markers[0])
        session = run.span(
            "api.session",
            "api",
            lambda: Session(
                database=store,
                maintenance="incremental",
                **run.session_kwargs(INGEST_ENGINES),
            ),
        )
        if markers is not None:
            store.subscribe_invalidation(markers[1])
            session.maintainer.engine = TimedEngine(
                session.maintainer.engine, run.tracer, "joins.delta"
            )
        service = run.span("service.open", "service", lambda: session.service)
        oracle = edge_oracle(database)
        run.warm(service, oracle)
        run.end_setup()

        run.set_phase("measure")
        before = run.cache_snapshot(session)
        reports_before = len(session.maintainer.reports)
        phase_start = clock()
        bench_before = run.bench_wall
        # Exactly INSERT_FRACTION of every episode is inserts, in a seeded
        # order: a binomial draw would vary the write load ±15% per episode.
        inserts = round(run.sizing.episode_ops * INSERT_FRACTION)
        stream = [None] * inserts + zipf_block(rng, run.sizing.episode_ops - inserts)
        rng.shuffle(stream)
        for pattern in stream:
            started = clock()
            if pattern is None:
                rows = [
                    (rng.randrange(run.sizing.vertices), rng.randrange(run.sizing.vertices))
                    for _ in range(INSERT_BATCH)
                ]
                run.bench_wall += clock() - started
                run.operation(
                    "insert",
                    "relational.insert",
                    "relational",
                    lambda: service.insert_tuples("E", rows) >= 0,
                )
                started = clock()
                oracle.insert(rows)
                run.bench_wall += clock() - started
            else:
                query = read_request(rng, pattern)
                run.bench_wall += clock() - started
                run.serve(service, oracle, pattern, query)
        run.measure_wall += clock() - phase_start - (run.bench_wall - bench_before)
        run.record_caches(session, before)
        for report in session.maintainer.reports[reports_before:]:
            run.maintenance["patches"] += report.result_patched
            run.maintenance["drops"] += report.result_dropped
            run.maintenance["partial_patches"] += report.partial_patched
            run.maintenance["partial_drops"] += report.partial_dropped
    finally:
        if session is not None:
            session.close()
        store.close()


WORKLOADS = {
    "analytic-cold": run_analytic_cold,
    "serve-hot": run_serve_hot,
    "ingest-ivm": run_ingest_ivm,
}

#: Trace mode runs a fixed op sequence sized from ``--seconds`` (units per
#: second at the reference speed), so per-layer totals compare across commits.
TRACE_UNITS_PER_SECOND = {"analytic-cold": 1 / 6, "serve-hot": 500.0, "ingest-ivm": 1 / 8}


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (1..99) as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return quantiles(values, n=100)[q - 1]


def make_workdir(base: str) -> str:
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base)
