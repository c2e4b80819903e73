"""The benchmark's own answer oracle for the five Table 1 patterns.

It keeps an adjacency-set shadow copy of the edge relation ``E`` and
evaluates each pattern by nested set intersections — independent of every
engine, compiler and cache in ``src/``.  The workload applies each insert to
the shadow as well, so answers are checked against the data they were
computed on.  Per-pattern answers are memoised until the next insert.

Semantics match :func:`repro.graphs.pattern_query`: directed edges, set
semantics, no distinctness constraints (self-loops may bind two variables
to one vertex), result columns in the pattern's head order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

Row = Tuple[int, ...]


class PatternOracle:
    """Answers the Table 1 patterns over a mutable shadow edge set."""

    def __init__(self, edges: Iterable[Tuple[int, int]]):
        self.out: Dict[int, Set[int]] = {}
        self.inn: Dict[int, Set[int]] = {}
        self._memo: Dict[str, FrozenSet[Row]] = {}
        self.insert(edges)

    def insert(self, edges: Iterable[Tuple[int, int]]) -> None:
        for source, target in edges:
            self.out.setdefault(source, set()).add(target)
            self.inn.setdefault(target, set()).add(source)
        self._memo.clear()

    def answer(self, pattern: str) -> FrozenSet[Row]:
        result = self._memo.get(pattern)
        if result is None:
            result = frozenset(getattr(self, "_" + pattern)())
            self._memo[pattern] = result
        return result

    def check(self, pattern: str, tuples) -> bool:
        """True when ``tuples`` is exactly the pattern's answer, without duplicates."""
        expected = self.answer(pattern)
        return len(tuples) == len(expected) and set(map(tuple, tuples)) == expected

    # Each evaluator walks the pattern's atoms in head order; ``out[v]`` and
    # ``inn[v]`` are v's successors and predecessors.
    def _succ(self, v: int) -> Set[int]:
        return self.out.get(v, set())

    def _pred(self, v: int) -> Set[int]:
        return self.inn.get(v, set())

    def _path3(self):
        for x, ys in self.out.items():
            for y in ys:
                for z in self._succ(y):
                    yield (x, y, z)

    def _path4(self):
        for x, y, z in self._path3():
            for w in self._succ(z):
                yield (x, y, z, w)

    def _cycle3(self):
        for x, ys in self.out.items():
            closing = self._pred(x)
            for y in ys:
                for z in self._succ(y) & closing:
                    yield (x, y, z)

    def _cycle4(self):
        for x, ys in self.out.items():
            closing = self._pred(x)
            for y in ys:
                for z in self._succ(y):
                    for w in self._succ(z) & closing:
                        yield (x, y, z, w)

    def _clique4(self):
        # E(x,y), E(y,z), E(z,w), E(w,x), E(z,x), E(w,y)
        for x, ys in self.out.items():
            into_x = self._pred(x)
            for y in ys:
                into_y = self._pred(y)
                for z in self._succ(y) & into_x:
                    for w in self._succ(z) & into_x & into_y:
                        yield (x, y, z, w)
