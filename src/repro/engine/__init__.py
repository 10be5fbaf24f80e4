"""Query processing engine (ClickHouse substitute, part 3).

Pipeline: SQL text -> AST (:mod:`repro.sql`) -> logical plan
(:mod:`repro.engine.planner`) -> optimized plan
(:mod:`repro.engine.optimizer`) -> vectorized physical execution
(:mod:`repro.engine.physical`).  :class:`repro.engine.database.Database` is
the user-facing facade tying the pieces together with a catalog, UDF
registry, statistics, tracer and cost models.
"""

from repro.engine.database import Database, Result
from repro.engine.infer_cache import InferenceCache
from repro.engine.udf import BatchUdf, UdfRegistry

__all__ = ["BatchUdf", "Database", "InferenceCache", "Result", "UdfRegistry"]
