"""Video query processing: the SQL-ish front end of the paper's Section 1.

The paper motivates MES with queries of the form::

    SELECT frameID
    FROM (PROCESS inputVideo PRODUCE frameID, Detections
          USING MES(OD1, OD2, ...; REF))
    WHERE ...

This subpackage implements that surface as a layered query stack: a
lexer and recursive-descent parser (:mod:`repro.query.parser`), a typed
AST (:mod:`repro.query.ast`), a catalog of registered videos and models
(:mod:`repro.query.catalog`), a planner that binds names to runtime
objects (:mod:`repro.query.planner`), a logical plan with rewrite rules
— predicate pushdown and projection pruning —
(:mod:`repro.query.logical`), a physical plan that runs it on the
engine (:mod:`repro.query.physical`), detection-level predicates
(:mod:`repro.query.predicates`), a persistent materialized detection
store for cross-query reuse (:mod:`repro.query.matstore`), and the
engine that ties them together (:mod:`repro.query.executor`).
"""

from repro.query.ast import (
    Comparison,
    CountExpr,
    ExistsExpr,
    LogicalExpr,
    ProcessClause,
    Query,
)
from repro.query.catalog import Catalog, CatalogError
from repro.query.executor import QueryEngine, QueryResult, Row
from repro.query.logical import LogicalPlan, build_logical_plan
from repro.query.matstore import MaterializedDetectionStore
from repro.query.parser import ParseError, format_parse_error, parse_query
from repro.query.physical import PhysicalPlan

__all__ = [
    "Catalog",
    "CatalogError",
    "Comparison",
    "CountExpr",
    "ExistsExpr",
    "LogicalExpr",
    "LogicalPlan",
    "MaterializedDetectionStore",
    "ParseError",
    "PhysicalPlan",
    "ProcessClause",
    "Query",
    "QueryEngine",
    "QueryResult",
    "Row",
    "build_logical_plan",
    "format_parse_error",
    "parse_query",
]
