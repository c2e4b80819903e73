"""Self-tests of the benchmark: its oracle, its output format, its gates."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import run as bench
from perfbench.oracle import PatternOracle
from perfbench.workloads import Sizing
from repro.api import EngineExecution, EngineProtocol, Session
from repro.graphs import PATTERN_NAMES, pattern_query
from repro.joins import NaiveJoin
from repro.service import workload_database

#: Small enough that every workload, set-up included, runs in about a second.
SMOKE = Sizing(
    vertices=24,
    edges=60,
    setups=1,
    episode_ops=12,
    min_queries=5,
    min_serve_queries=20,
    min_inserts=2,
    max_seconds=5.0,
)

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


@pytest.fixture(autouse=True)
def _scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path / "out"))
    monkeypatch.setattr(bench, "WORK_DIR", str(tmp_path / "work"))


def run_main(capsys, argv, **kwargs):
    code = bench.main(argv, **kwargs)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_matches_naive_join_under_inserts(seed):
    database = workload_database(14, 36, seed=seed)
    oracle = PatternOracle(database.relation("E").sorted_rows())
    rng = random.Random(seed)
    for round_ in range(3):
        for pattern in PATTERN_NAMES:
            expected = NaiveJoin().run(pattern_query(pattern), database).as_set()
            assert oracle.answer(pattern) == expected, (pattern, round_)
        # Self-loops included: they bind two pattern variables to one vertex.
        rows = [(rng.randrange(14), rng.randrange(14)) for _ in range(4)] + [(3, 3)]
        database.insert_into("E", rows)
        oracle.insert(rows)


def test_oracle_check_rejects_missing_and_duplicated_rows():
    oracle = PatternOracle([(0, 1), (1, 2), (2, 0)])
    answer = sorted(oracle.answer("cycle3"))
    assert oracle.check("cycle3", answer)
    assert not oracle.check("cycle3", answer[:-1])
    assert not oracle.check("cycle3", answer[:-1] + answer[:1])


@pytest.mark.parametrize("workload", ["analytic-cold", "serve-hot", "ingest-ivm"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_the_declared_metrics(capsys, workload, trace):
    started = time.perf_counter()
    code, result, _ = run_main(
        capsys,
        ["--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", str(trace)],
        sizing=SMOKE,
    )
    assert time.perf_counter() - started < 60
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == [
        "analytic-cold",
        "serve-hot",
        "ingest-ivm",
    ]
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s", "query_p50_ms"}


class DropsOneRow(EngineProtocol):
    """A wrong-answer engine: delegates, then loses the last result row."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.capabilities = inner.capabilities

    def execute(self, query, database, plan=None):
        execution = self.inner.execute(query, database, plan=plan)
        return EngineExecution(
            tuples=execution.tuples[:-1], cost=execution.cost, plan_used=execution.plan_used
        )


def test_wrong_answer_engine_fails_the_run(capsys):
    def inject(engines):
        return [DropsOneRow(e) if e.name == "ctj" else e for e in engines]

    code, result, lines = run_main(
        capsys,
        ["--workload", "analytic-cold", "--seed", "1", "--seconds", "0.3", "--trace", "1"],
        sizing=SMOKE,
        engine_hook=inject,
    )
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["error_rate"]["value"] > 0
    assert any(line.startswith("FAILED ") for line in lines)


def test_without_the_program_source_it_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(bench.ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.xfail(
    strict=True,
    reason="triejax over a sharded catalog returns no rows: the scatter gather "
    "treats the accelerator's always-set count as count-only.  When this "
    "passes, put triejax back into workloads.INGEST_ENGINES.",
)
def test_triejax_on_a_sharded_catalog_matches_the_oracle():
    database = workload_database()
    oracle = PatternOracle(database.relation("E").sorted_rows())
    with Session(database, engines=["triejax"], shards=2) as session:
        assert oracle.check("cycle4", session.execute("cycle4").tuples)
