"""Cross-query caches of the serving layer: compiled plans and full results.

The paper's PJR cache (:mod:`repro.core.pjr_cache`) reuses partial results
*within* one query execution; the serving layer generalises the idea across
requests with two LRU caches keyed by the canonical query signature
(:func:`repro.joins.compiler.canonical_signature`):

* the **plan cache** stores ``(canonical_query, JoinPlan)`` pairs so that
  α-equivalent queries are compiled exactly once;
* the **result cache** stores complete result-tuple lists together with the
  set of (relation, shard) fragments they were computed from, and drops
  exactly the dependent entries when the catalog reports a
  :class:`~repro.relational.catalog.MutationEvent`.

Result-cache dependencies are **shard-aware**: each dependency is a
``(relation, shard)`` pair where ``shard=None`` means "the whole relation".
A mutation event for shard ``i`` drops entries depending on ``(rel, i)`` or
``(rel, None)``; entries pinned to *other* shards survive.  The
scatter-gather executor (:mod:`repro.service.scatter`) uses this to keep
per-shard partial results alive across mutations of sibling shards.

Both caches are bounded by entry count and evict in LRU order, and both keep
the same style of hit/miss/eviction counters as
:class:`~repro.core.pjr_cache.PJRCacheStats` so service reports can show
plan- and result-reuse rates side by side.

**Thread safety.**  The serving layer's threaded execution backend
(:class:`repro.service.backends.ThreadPoolBackend`) reads these caches from
worker threads — the scatter-gather executor probes the per-shard partial
cache from every concurrent request.  Unsynchronised, the ``OrderedDict``
corrupts (``move_to_end`` racing a structural mutation) and the ``+=``
stats counters lose updates, so every public operation takes the cache's
internal re-entrant lock.  The lock protects *individual operations*; the
cross-operation ordering that determinism needs (get-before-publish) is the
execution backend's job.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.joins.plan import JoinPlan
from repro.relational.catalog import MutationEvent
from repro.relational.query import ConjunctiveQuery
from repro.util.validation import check_positive

V = TypeVar("V")

#: One result-cache dependency: a relation name, optionally pinned to a
#: shard.  Plain strings are accepted anywhere a dependency is and mean
#: "the whole relation" (shard ``None``).
ShardDependency = Tuple[str, Optional[int]]


def normalize_dependency(dependency: Union[str, ShardDependency]) -> ShardDependency:
    """Coerce a relation name or (relation, shard) pair to a ShardDependency."""
    if isinstance(dependency, str):
        return (dependency, None)
    relation, shard = dependency
    return (relation, shard)


@dataclass
class CacheStats:
    """Activity counters shared by the plan and result caches.

    ``insertions`` counts fresh keys only; re-putting an existing key is a
    ``replacement``.  Entries leave the cache through exactly one of
    ``evictions`` (capacity pressure), ``drops`` (a targeted
    :meth:`LRUCache.discard`) or ``clears`` (a bulk :meth:`LRUCache.clear`),
    so service reports can tell reuse loss from staleness loss.  A mutation
    handled by the incremental-maintenance path *patches* an entry in place
    instead of dropping it (``patches``); ``invalidations`` is the derived
    total of mutation-triggered touches, ``drops + patches``, preserving
    the historical counter for reports and trace events.
    """

    lookups: int = 0
    hits: int = 0
    insertions: int = 0
    replacements: int = 0
    evictions: int = 0
    drops: int = 0
    patches: int = 0
    clears: int = 0

    @property
    def invalidations(self) -> int:
        """Mutation-triggered entry touches: targeted drops plus patches."""
        return self.drops + self.patches

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "insertions": self.insertions,
            "replacements": self.replacements,
            "evictions": self.evictions,
            "drops": self.drops,
            "patches": self.patches,
            "invalidations": self.invalidations,
            "clears": self.clears,
        }


class LRUCache(Generic[V]):
    """A bounded mapping with LRU eviction and activity counters.

    Keys are the canonical query signatures produced by the compiler hooks;
    values are whatever the subclass stores.  ``capacity`` counts entries
    (signatures), not bytes: both cached artefact kinds are small and
    entry-count bounds keep eviction behaviour easy to reason about in
    tests.
    """

    def __init__(self, capacity: int):
        check_positive("capacity", capacity)
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, V]" = OrderedDict()
        # Re-entrant: compound operations (put_result → put, invalidate →
        # discard) nest inside one acquisition, and subclass hooks
        # (_on_evict) run under it.
        self._lock = threading.RLock()

    def get(self, key: str) -> Optional[V]:
        """Return the cached value (refreshing LRU order) or ``None``."""
        with self._lock:
            self.stats.lookups += 1
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: str, value: V) -> None:
        """Insert/replace ``key``, evicting LRU entries past capacity.

        Replacing an existing key counts as a ``replacement``, not a fresh
        insertion — the entry count does not grow, so no eviction can be
        triggered and reuse reports stay honest.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                self.stats.replacements += 1
                return
            self._entries[key] = value
            self.stats.insertions += 1
            while len(self._entries) > self.capacity:
                victim_key, _ = self._entries.popitem(last=False)
                self._on_evict(victim_key)
                self.stats.evictions += 1

    def peek(self, key: str) -> Optional[V]:
        """Inspect an entry without touching statistics or LRU order (tests)."""
        with self._lock:
            return self._entries.get(key)

    def discard(self, key: str) -> bool:
        """Drop ``key`` (an invalidation drop, not an eviction); True if present."""
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self._on_evict(key)
            self.stats.drops += 1
            return True

    def clear(self) -> None:
        """Drop every entry, counted under ``clears`` (not invalidations)."""
        with self._lock:
            for key in list(self._entries):
                del self._entries[key]
                self._on_evict(key)
                self.stats.clears += 1

    def keys(self) -> Tuple[str, ...]:
        """Current keys in LRU order (least recently used first)."""
        with self._lock:
            return tuple(self._entries)

    def _on_evict(self, key: str) -> None:
        """Subclass hook: an entry left the cache (evicted or invalidated).

        Always invoked with the cache lock held.
        """

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries


class PlanCache(LRUCache[Tuple[ConjunctiveQuery, JoinPlan]]):
    """LRU cache of compiled canonical plans, keyed by query signature."""


class ResultCache(LRUCache[List[Tuple[int, ...]]]):
    """LRU cache of complete query results with shard-aware invalidation.

    Every entry records the (relation, shard) fragments its result was
    computed from — plain relation names mean "every shard".  When the
    catalog reports a :class:`~repro.relational.catalog.MutationEvent`,
    one of two maintenance policies applies: :meth:`invalidate` *drops*
    exactly the entries whose dependencies intersect the mutated fragment
    (drop-and-recompute, counted as drops, not evictions), while
    :meth:`maintain` *patches* dependent entries in place with the delta
    result a solver computes (incremental maintenance, counted as
    patches), dropping only what cannot be patched safely.  Entries pinned
    to untouched shards survive either way.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        # relation -> shard (None = whole relation) -> dependent keys.
        self._dependents: Dict[str, Dict[Optional[int], Set[str]]] = {}
        self._dependencies: Dict[str, Tuple[ShardDependency, ...]] = {}
        # key -> the query the entry answers; only entries that recorded one
        # are patchable by the incremental-maintenance path.
        self._queries: Dict[str, ConjunctiveQuery] = {}
        # Keys whose entry :meth:`patch_result` already holds sorted and
        # deduplicated; cleared whenever the entry is replaced or leaves.
        self._sorted: Set[str] = set()

    def put_result(
        self,
        key: str,
        tuples: List[Tuple[int, ...]],
        relation_names: Iterable[Union[str, ShardDependency]],
        query: Optional[ConjunctiveQuery] = None,
    ) -> None:
        """Cache ``tuples`` for ``key``, depending on ``relation_names``.

        Dependencies may be bare relation names (whole-relation) and/or
        ``(relation, shard)`` pairs (fragment-level, as produced by the
        scatter-gather executor's per-shard partial results).  ``query``
        records what the entry answers: entries carrying their query can be
        *patched* in place by incremental maintenance (see :meth:`maintain`)
        instead of dropped; entries without one always drop.
        """
        dependencies = tuple(
            dict.fromkeys(normalize_dependency(d) for d in relation_names)
        )
        with self._lock:
            if key in self._dependencies:
                self._drop_dependency_index(key)
            self._dependencies[key] = dependencies
            for relation, shard in dependencies:
                self._dependents.setdefault(relation, {}).setdefault(shard, set()).add(key)
            if query is not None:
                self._queries[key] = query
            self._sorted.discard(key)
            self.put(key, tuples)

    def dependent_keys(self, event: MutationEvent) -> Tuple[str, ...]:
        """The keys a mutation event touches, in deterministic (sorted) order.

        A whole-relation event (``shard=None``) selects every entry that
        mentions the relation at any shard; a shard event selects entries
        depending on that shard or on the whole relation.
        """
        with self._lock:
            by_shard = self._dependents.get(event.relation)
            if not by_shard:
                return ()
            if event.shard is None:
                keys: Set[str] = set().union(*by_shard.values())
            else:
                keys = set(by_shard.get(None, ())) | set(by_shard.get(event.shard, ()))
            return tuple(sorted(keys))

    def invalidate(self, event: MutationEvent) -> int:
        """Drop every entry dependent on the mutated fragment; return the count.

        This is the drop-and-recompute maintenance policy; see
        :meth:`maintain` for the delta-patching alternative.
        """
        dropped = 0
        for key in self.dependent_keys(event):
            if self.discard(key):
                dropped += 1
        return dropped

    def query_of(self, key: str) -> Optional[ConjunctiveQuery]:
        """The query recorded for ``key`` at :meth:`put_result` time, if any."""
        with self._lock:
            return self._queries.get(key)

    def patch_result(self, key: str, rows: Iterable[Tuple[int, ...]]) -> bool:
        """Merge delta ``rows`` into ``key``'s cached result.

        The entry's tuples become the sorted set union of the old result
        and the delta — set semantics, matching every engine's dedup on
        merge.  The merge never mutates the cached list (an earlier
        :meth:`get` may still hold it); it installs a new one.  Only an
        entry's first non-empty patch pays the full ``sorted(set | set)``,
        since engine output order is arbitrary; the cache then records the
        entry as sorted, and later patches copy it and bisect-insert just
        the delta rows it lacks.  :meth:`put_result`, a drop and an
        eviction clear that record.  An empty delta leaves the entry as it
        is.  Counted under ``patches`` (never ``replacements``); LRU
        recency is left untouched, exactly like a drop would not have
        refreshed it.  Returns ``False`` (and changes nothing) when the
        key is absent — the caller then falls back to a drop.
        """
        with self._lock:
            current = self._entries.get(key)
            if current is None:
                return False
            self.stats.patches += 1
            delta = sorted({tuple(row) for row in rows})
            if not delta:
                return True
            if key in self._sorted:
                merged = list(current)
                for row in delta:
                    index = bisect_left(merged, row)
                    if index == len(merged) or merged[index] != row:
                        merged.insert(index, row)
            else:
                merged = sorted(set(current).union(delta))
                self._sorted.add(key)
            self._entries[key] = merged
            return True

    def maintain(
        self,
        event: MutationEvent,
        solver: "Callable[[str, ConjunctiveQuery, MutationEvent], Optional[Iterable[Tuple[int, ...]]]]",
    ) -> Tuple[int, int]:
        """Patch-or-drop every entry the mutation touches; ``(patched, dropped)``.

        The incremental-maintenance policy: for each dependent entry that
        recorded its query, ``solver(key, query, event)`` computes the
        delta result rows (typically a semi-naive delta join, see
        :mod:`repro.joins.delta`); the entry is patched in place with them.
        A solver that returns ``None`` or raises — or an entry without a
        recorded query — falls back to the drop path, so maintenance can
        never leave a wrong answer behind.
        """
        patched = dropped = 0
        for key in self.dependent_keys(event):
            query = self.query_of(key)
            rows: Optional[Iterable[Tuple[int, ...]]] = None
            if query is not None:
                try:
                    rows = solver(key, query, event)
                except Exception:
                    rows = None
            if rows is not None and self.patch_result(key, rows):
                patched += 1
            elif self.discard(key):
                dropped += 1
        return patched, dropped

    def invalidate_relation(self, relation_name: str) -> int:
        """Drop every entry computed from any shard of ``relation_name``."""
        return self.invalidate(MutationEvent(relation_name))

    def dependencies_of(self, key: str) -> Tuple[ShardDependency, ...]:
        """The fragment dependencies recorded for ``key`` (tests/debugging)."""
        with self._lock:
            return self._dependencies.get(key, ())

    def _drop_dependency_index(self, key: str) -> None:
        self._queries.pop(key, None)
        for relation, shard in self._dependencies.pop(key, ()):
            by_shard = self._dependents.get(relation)
            if by_shard is None:
                continue
            dependents = by_shard.get(shard)
            if dependents is not None:
                dependents.discard(key)
                if not dependents:
                    del by_shard[shard]
            if not by_shard:
                del self._dependents[relation]

    def _on_evict(self, key: str) -> None:
        self._sorted.discard(key)
        self._drop_dependency_index(key)
