"""Semi-naive delta plans (:mod:`repro.joins.delta`).

The contract under test: for any conjunctive query and any batch of
genuinely-new rows, evaluating the delta terms against the *post-insert*
catalog yields exactly the result tuples the insert added —
``after == before ∪ delta`` and ``delta ⊇ after - before`` — across
engines and patterns, with plans memoised per (signature, relation, atom
position) and ``JoinStats``/cost accounting carried through the normal
slot-program machinery.
"""

import pytest

from repro.api.engines import create_engine
from repro.graphs import PATTERN_NAMES, pattern_query
from repro.joins.delta import (
    DELTA_SUFFIX,
    DeltaPlanner,
    DeltaView,
    delta_alias,
    delta_rewrites,
    evaluate_delta,
    is_delta_alias,
)
from repro.relational import Database, Relation, Schema
from repro.service import workload_database

#: Plan-aware engines the maintainer may run delta terms through.
ENGINES = ("lftj", "ctj", "generic")

#: Patterns covering self-joins over one relation at several arities.
PATTERNS = ("cycle3", "path3", "clique4")


def fresh_rows(database, batch):
    """Insert ``batch`` and return the genuinely-new rows it added."""
    events = []
    database.subscribe_invalidation(events.append)
    database.insert_into("E", batch)
    database.unsubscribe_invalidation(events.append)
    return tuple(row for event in events for row in event.delta.rows)


class TestRewrites:
    def test_alias_round_trip(self):
        assert delta_alias("E") == f"E{DELTA_SUFFIX}"
        assert is_delta_alias(delta_alias("E"))
        assert not is_delta_alias("E")

    def test_one_rewrite_per_matching_atom(self):
        query = pattern_query("cycle3")  # E(x,y), E(y,z), E(z,x)
        rewrites = delta_rewrites(query, ["E"])
        assert [index for index, _ in rewrites] == [0, 1, 2]
        for index, rewritten in rewrites:
            assert rewritten.head_variables == query.head_variables
            for position, atom in enumerate(rewritten.atoms):
                original = query.atoms[position]
                assert atom.variables == original.variables
                expected = (
                    delta_alias(original.relation)
                    if position == index
                    else original.relation
                )
                assert atom.relation == expected

    def test_unchanged_relations_produce_no_rewrites(self):
        assert delta_rewrites(pattern_query("cycle3"), ["other"]) == ()


class TestDeltaView:
    def test_alias_resolves_to_batch_everything_else_to_base(self):
        base = Database("base")
        base.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2), (2, 3)]))
        view = DeltaView(
            base, [Relation(delta_alias("E"), Schema(("src", "dst")), [(7, 8)])]
        )
        assert sorted(view.relation("E").sorted_rows()) == [(1, 2), (2, 3)]
        assert sorted(view.relation(delta_alias("E")).sorted_rows()) == [(7, 8)]
        assert delta_alias("E") in view and "E" in view
        assert view.total_tuples() == 3
        assert view.trie(delta_alias("E"), ("src", "dst")).num_tuples == 1


class TestPlannerMemoisation:
    def test_plans_are_compiled_once_per_term(self):
        planner = DeltaPlanner()
        query = pattern_query("cycle3")
        first = planner.plans_for(query, ["E"])
        second = planner.plans_for(query, ["E"])
        assert len(first) == 3
        for a, b in zip(first, second):
            assert a is b  # memoised, not recompiled

    def test_terms_lead_with_the_delta_atom(self):
        planner = DeltaPlanner()
        for name in PATTERN_NAMES:
            query = pattern_query(name)
            first = planner.plans_for(query, ["E"])
            for a, b in zip(first, planner.plans_for(query, ["E"])):
                variables = query.atoms[a.atom_index].variables
                order = a.plan.variable_order
                assert order[: len(variables)] == variables
                assert sorted(order) == sorted(query.variables)
                assert a is b  # still memoised


class TestEvaluateDelta:
    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_delta_equals_recompute_difference(self, engine_name, pattern):
        database = workload_database(num_vertices=24, num_edges=90, seed=11)
        engine = create_engine(engine_name)
        planner = DeltaPlanner()
        query = pattern_query(pattern)
        before = set(engine.execute(query, database).tuples)
        batches = (
            [(1, 2), (2, 5), (5, 1), (9, 9)],
            [(0, 1), (1, 0), (3, 3), (2, 2), (5, 2)],
            [(6, 7), (7, 8), (8, 6), (6, 6)],
        )
        for batch in batches:
            rows = fresh_rows(database, batch)
            result = evaluate_delta(
                query, database, {"E": rows}, engine, planner
            )
            after = set(engine.execute(query, database).tuples)
            assert after - before <= set(result.tuples)
            assert before | set(result.tuples) == after
            before = after

    def test_empty_delta_short_circuits(self):
        database = workload_database(num_vertices=10, num_edges=20, seed=3)
        result = evaluate_delta(
            pattern_query("cycle3"),
            database,
            {"E": ()},
            create_engine("lftj"),
            DeltaPlanner(),
        )
        assert result.tuples == () and result.terms == 0

    def test_unrelated_relations_are_ignored(self):
        database = workload_database(num_vertices=10, num_edges=20, seed=3)
        result = evaluate_delta(
            pattern_query("cycle3"),
            database,
            {"other": ((1, 2),)},
            create_engine("lftj"),
            DeltaPlanner(),
        )
        assert result.tuples == () and result.terms == 0

    def test_stats_and_cost_are_accounted(self):
        database = workload_database(num_vertices=24, num_edges=90, seed=11)
        rows = fresh_rows(database, [(1, 2), (2, 3), (3, 1)])
        result = evaluate_delta(
            pattern_query("cycle3"),
            database,
            {"E": rows},
            create_engine("lftj"),
            DeltaPlanner(),
        )
        assert result.terms == 3  # one per atom over E
        assert result.cost_ns > 0.0
        assert result.stats.index_element_reads > 0
