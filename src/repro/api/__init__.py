"""repro.api — the repository's single public entry surface.

Everything a caller needs lives behind three objects and one registry:

* :class:`~repro.api.session.Session` — owns a database, the plan/result
  caches and an engine table; ``execute`` / ``explain`` / ``serve``.
* :class:`~repro.api.statement.Statement` — one query object over the three
  front-ends (patterns, datalog, SQL, raw conjunctive queries) with
  canonical-signature identity.
* :class:`~repro.api.resultset.ResultSet` — the lazy result surface
  (iterator of tuples, ``.to_list()``, ``.stats``, ``.plan``, ``.backend``).
* the engine registry (:mod:`repro.api.engines`) — the one table mapping
  engine names to :class:`~repro.api.engines.EngineProtocol` factories,
  shared by the CLI, the service layer, the evaluation harness and the
  benchmarks; and the cost router (:mod:`repro.api.routing`) that picks the
  cheapest engine per query from the statistics estimates.

Quick start::

    from repro.api import Session, Statement
    from repro.service import workload_database

    session = Session(workload_database())
    triangles = session.execute(Statement.pattern("cycle3"))
    print(triangles.backend, len(triangles.to_list()))
    print(session.explain("clique4").describe())
"""

from repro.api.engines import (
    AcceleratorEngine,
    CostModel,
    ENGINE_FACTORIES,
    EngineCapabilities,
    EngineExecution,
    EngineProtocol,
    SoftwareEngine,
    create_engine,
    engine_names,
    register_engine,
)
from repro.api.routing import (
    CostRouter,
    EngineEstimate,
    RouteDecision,
    choose_engine,
)
from repro.api.resultset import ExecutionOutcome, ResultSet
from repro.api.statement import Statement, coerce_statement

#: Names served lazily from :mod:`repro.api.session`.  The session sits
#: above the serving layer, whose modules import :mod:`repro.api.engines`;
#: importing it eagerly here would make ``import repro.service`` re-enter
#: its own half-initialised package through this one.
_SESSION_EXPORTS = (
    "Explanation",
    "RESULT_REPLAY_COST",
    "ResultDelta",
    "Session",
    "Subscription",
)


def __getattr__(name: str):
    if name in _SESSION_EXPORTS:
        from repro.api import session

        return getattr(session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AcceleratorEngine",
    "CostModel",
    "ENGINE_FACTORIES",
    "EngineCapabilities",
    "EngineExecution",
    "EngineProtocol",
    "SoftwareEngine",
    "create_engine",
    "engine_names",
    "register_engine",
    "CostRouter",
    "EngineEstimate",
    "RouteDecision",
    "choose_engine",
    "ExecutionOutcome",
    "ResultSet",
    "Statement",
    "coerce_statement",
    "Explanation",
    "ResultDelta",
    "Subscription",
    "RESULT_REPLAY_COST",
    "Session",
]
