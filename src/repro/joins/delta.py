"""Semi-naive delta plans: evaluate what a batch of inserts *added* to a join.

Given a conjunctive query ``Q = R_1 ⋈ ... ⋈ R_n`` and a batch of freshly
inserted rows ``ΔR`` (a :class:`~repro.relational.catalog.DeltaBatch`), the
new result tuples are exactly

    ⋃_{i : R_i changed}  R_1' ⋈ ... ⋈ ΔR_i ⋈ ... ⋈ R_n'

where every non-delta atom reads the *post-insert* relation.  Any new result
tuple has a witness assignment that uses at least one inserted row in some
atom, so it appears in that atom's term; every term only produces valid
post-state results, and the set union absorbs the overlap between terms.
This is the classic semi-naive rewrite in its post-state form — no
pre-insert snapshot of any relation is needed.

The machinery is deliberately thin over the existing compiler/engine stack:

* :func:`delta_rewrites` produces, per atom over a changed relation, the
  query with that one atom rebound to the relation's *delta alias*
  (``E`` → ``E@delta``).
* :class:`DeltaPlanner` compiles each rewritten query through the normal
  :class:`~repro.joins.compiler.QueryCompiler` (memoised per signature and
  atom position).  Each term's variable order *leads with its delta atom*:
  the delta atom's variables come first, in atom order, and the rest grow
  by the compiler's connectivity rule.  The join then binds its first
  levels from the handful of inserted rows and only probes the full
  relations under those bindings, instead of scanning a full relation
  before the tiny delta ever filters anything (the standard IVM ordering,
  as in DBToaster).  The compiled :class:`~repro.joins.plan.JoinPlan` runs
  through the same ``slot_program()`` machinery as any other plan, so
  ``JoinStats`` accounting stays honest for delta joins.
* :class:`DeltaView` is the read-only catalog the delta terms run against:
  delta aliases resolve to a private :class:`Database` holding the batch
  rows; every other name falls through to the base catalog (a
  :class:`Database`, :class:`~repro.relational.sharding.ShardedDatabase`
  or :class:`~repro.relational.sharding.ShardView` — anything with the
  catalog read surface).
* :func:`evaluate_delta` runs the union and returns the delta result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.joins.compiler import QueryCompiler
from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.catalog import Database
from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational.relation import Relation
from repro.relational.trie import TrieIndex

Row = Tuple[int, ...]

#: Suffix distinguishing a delta relation from its base relation inside a
#: rewritten query.  ``@`` cannot appear in user relation names that also
#: serve as datalog identifiers, so the alias never collides.
DELTA_SUFFIX = "@delta"


def delta_alias(relation_name: str) -> str:
    """The delta-relation name atoms are rebound to (``E`` → ``E@delta``)."""
    return f"{relation_name}{DELTA_SUFFIX}"


def is_delta_alias(name: str) -> bool:
    return name.endswith(DELTA_SUFFIX)


def delta_rewrites(
    query: ConjunctiveQuery, relation_names: Iterable[str]
) -> Tuple[Tuple[int, ConjunctiveQuery], ...]:
    """Per-atom rewrites binding one atom to its relation's delta alias.

    Returns ``(atom_index, rewritten_query)`` for every atom whose relation
    is in ``relation_names``; the rewritten query differs from ``query``
    only in that one atom's relation name.
    """
    changed = set(relation_names)
    rewrites: List[Tuple[int, ConjunctiveQuery]] = []
    for index, atom in enumerate(query.atoms):
        if atom.relation not in changed:
            continue
        atoms = list(query.atoms)
        atoms[index] = Atom(delta_alias(atom.relation), atom.variables)
        rewrites.append(
            (
                index,
                ConjunctiveQuery(
                    f"{query.name}@d{index}", query.head_variables, atoms
                ),
            )
        )
    return tuple(rewrites)


class DeltaView:
    """The catalog one delta term runs against.

    Resolves every delta alias to a private database holding the batch
    rows and everything else to the base catalog, so a delta term reads
    ``ΔR_i`` for its rebound atom and the live post-insert relations for
    the rest.  Read-only: the serving layer mutates the base catalog, never
    the view.
    """

    def __init__(self, base, delta_relations: Iterable[Relation]):
        self._base = base
        self._deltas = Database(f"{getattr(base, 'name', 'catalog')}~delta")
        for relation in delta_relations:
            self._deltas.add_relation(relation)
        self.name = self._deltas.name

    def _owns(self, name: str) -> bool:
        return name in self._deltas

    def relation(self, name: str) -> Relation:
        if self._owns(name):
            return self._deltas.relation(name)
        return self._base.relation(name)

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._base.relation_names()) + self._deltas.relation_names()

    def __contains__(self, name: str) -> bool:
        return self._owns(name) or name in self._base

    def trie(self, relation_name: str, attribute_order: Sequence[str]) -> TrieIndex:
        if self._owns(relation_name):
            return self._deltas.trie(relation_name, attribute_order)
        return self._base.trie(relation_name, attribute_order)

    def trie_for_atom(self, atom: Atom, variable_order: Sequence[str]) -> TrieIndex:
        if self._owns(atom.relation):
            return self._deltas.trie_for_atom(atom, variable_order)
        return self._base.trie_for_atom(atom, variable_order)

    def validate_query(self, query: ConjunctiveQuery) -> None:
        for atom in query.atoms:
            relation = self.relation(atom.relation)
            if atom.arity != relation.schema.arity:
                raise ValueError(
                    f"atom {atom} has arity {atom.arity}, but relation "
                    f"{relation.name!r} has arity {relation.schema.arity}"
                )

    def total_tuples(self) -> int:
        return self._base.total_tuples() + self._deltas.total_tuples()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DeltaView(base={getattr(self._base, 'name', '?')!r})"


@dataclass(frozen=True)
class DeltaPlan:
    """One compiled delta term: which atom is rebound, and its plan."""

    atom_index: int
    query: ConjunctiveQuery
    plan: JoinPlan


class DeltaPlanner:
    """Compiles and memoises the delta terms of queries.

    Plans depend only on query structure and relation names (both carried
    by the canonical signature), never on data, so one compilation per
    ``(signature, relation, atom position)`` serves every subsequent batch.
    Each term's variable order starts with its delta atom's variables (see
    the module docstring).
    """

    def __init__(self, compiler: Optional[QueryCompiler] = None):
        self.compiler = compiler or QueryCompiler(enable_caching=True)
        self._memo: Dict[Tuple[str, str, int], DeltaPlan] = {}

    def plans_for(
        self, query: ConjunctiveQuery, relation_names: Iterable[str]
    ) -> Tuple[DeltaPlan, ...]:
        """The compiled delta terms of ``query`` for the changed relations."""
        signature = self.compiler.signature(query)
        plans: List[DeltaPlan] = []
        for index, rewritten in delta_rewrites(query, relation_names):
            key = (signature, query.atoms[index].relation, index)
            plan = self._memo.get(key)
            if plan is None:
                order = self.compiler.choose_variable_order(
                    rewritten, prefix=rewritten.atoms[index].variables
                )
                plan = DeltaPlan(
                    index, rewritten, self.compiler.compile(rewritten, variable_order=order)
                )
                self._memo[key] = plan
            plans.append(plan)
        return tuple(plans)


@dataclass
class DeltaResult:
    """What a batch of inserts added to a query's result.

    ``tuples`` are the delta result rows (sorted, deduplicated across
    terms); note they may overlap the pre-insert result when an inserted
    row only adds a new *witness* for an existing result tuple — patching
    merges by set union, and subscribers diff against their snapshot.
    ``stats`` aggregates the per-term ``JoinStats`` and ``cost_ns`` the
    per-term virtual-time engine costs, so maintenance work is accounted
    with the same honesty as foreground executions.
    """

    tuples: Tuple[Row, ...]
    stats: JoinStats
    terms: int
    cost_ns: float = 0.0


def evaluate_delta(
    query: ConjunctiveQuery,
    catalog,
    deltas: Mapping[str, Sequence[Row]],
    engine,
    planner: DeltaPlanner,
) -> DeltaResult:
    """Evaluate what the inserted ``deltas`` rows added to ``query``'s result.

    ``catalog`` is the *post-insert* catalog (any object with the catalog
    read surface); ``deltas`` maps relation names — as they appear in the
    query's atoms — to the genuinely-new rows just inserted into them.
    ``engine`` must be plan-aware (the maintainer uses LFTJ); every term
    runs its compiled :class:`JoinPlan` through the normal slot-program
    machinery against a :class:`DeltaView`.
    """
    changed = {
        name: tuple(rows)
        for name, rows in deltas.items()
        if rows and name in set(query.relation_names())
    }
    stats = JoinStats()
    if not changed:
        return DeltaResult(tuples=(), stats=stats, terms=0)
    relations = []
    for name, rows in sorted(changed.items()):
        schema = catalog.relation(name).schema
        relations.append(Relation(delta_alias(name), schema, rows))
    view = DeltaView(catalog, relations)
    results: set = set()
    terms = 0
    cost = 0.0
    for delta_plan in planner.plans_for(query, changed):
        execution = engine.execute(delta_plan.query, view, plan=delta_plan.plan)
        results.update(tuple(row) for row in execution.tuples)
        _merge_stats(stats, execution.stats)
        cost += execution.cost
        terms += 1
    return DeltaResult(
        tuples=tuple(sorted(results)), stats=stats, terms=terms, cost_ns=cost
    )


def _merge_stats(into: JoinStats, stats: Optional[JoinStats]) -> None:
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


__all__ = [
    "DELTA_SUFFIX",
    "DeltaPlan",
    "DeltaPlanner",
    "DeltaResult",
    "DeltaView",
    "delta_alias",
    "delta_rewrites",
    "evaluate_delta",
    "is_delta_alias",
]
