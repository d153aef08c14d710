"""SPROUT reproduction: exact confidence computation for tuple-independent
probabilistic databases with lazy, eager, and hybrid query plans.

This package reimplements the system described in

    Dan Olteanu, Jiewen Huang, Christoph Koch.
    "SPROUT: Lazy vs. Eager Query Plans for Tuple-Independent Probabilistic
    Databases." ICDE 2009.

Quickstart
----------

>>> from repro import ProbabilisticDatabase, SproutEngine, ConjunctiveQuery, Atom
>>> from repro.storage import Relation, Schema
>>> db = ProbabilisticDatabase("demo")
>>> cust = Relation("Cust", Schema.of("ckey:int", "cname:str"), [(1, "Joe"), (2, "Dan")])
>>> _ = db.add_table(cust, probabilities=[0.1, 0.2], primary_key=["ckey"])
>>> engine = SproutEngine(db)
>>> query = ConjunctiveQuery("Q", [Atom("Cust", ["ckey", "cname"])], projection=["cname"])
>>> sorted(engine.evaluate(query).confidences().items())
[(('Dan',), 0.2), (('Joe',), 0.1)]

Package layout (bottom up): :mod:`repro.storage` (schemas with V/P column
roles, relations, heap files), :mod:`repro.algebra` (row and columnar
physical operators), :mod:`repro.query` (conjunctive queries, hierarchies,
FDs, signatures), :mod:`repro.prob` (probabilistic model, lineage, d-trees,
possible worlds), :mod:`repro.sprout` (the engine: planners, confidence
operator, top-k/threshold, streaming), :mod:`repro.safeplans`
(the MystiQ-style baseline), and :mod:`repro.tpch` (the experimental
workload).  The ``docs/`` tree documents the architecture
(``docs/architecture.md``), the confidence-computation routing and its
epsilon/bounds semantics (``docs/confidence.md``), and the benchmark suite
(``docs/benchmarks.md``).
"""

from repro.errors import (
    ApproximationBudgetError,
    NonHierarchicalQueryError,
    NumericalError,
    PlanningError,
    ProbabilityError,
    QueryError,
    ReproError,
    SchemaError,
    StorageError,
    UnsafePlanError,
    UnsupportedQueryError,
)
from repro.prob import ProbabilisticDatabase, ProbabilisticTable, VariableRegistry
from repro.query import (
    Atom,
    ConjunctiveQuery,
    Signature,
    build_hierarchy,
    effective_signature,
    fd_reduct,
    is_hierarchical,
    parse_query,
    parse_signature,
    signature_of_query,
)
from repro.safeplans import MystiqEngine, build_safe_plan, has_safe_plan
from repro.sprout import EvaluationResult, SproutEngine
from repro.storage import Attribute, Catalog, FunctionalDependency, Relation, Schema

__version__ = "1.0.0"

__all__ = [
    "ApproximationBudgetError",
    "Atom",
    "Attribute",
    "Catalog",
    "ConjunctiveQuery",
    "EvaluationResult",
    "FunctionalDependency",
    "MystiqEngine",
    "NonHierarchicalQueryError",
    "NumericalError",
    "PlanningError",
    "ProbabilisticDatabase",
    "ProbabilisticTable",
    "ProbabilityError",
    "QueryError",
    "Relation",
    "ReproError",
    "Schema",
    "SchemaError",
    "Signature",
    "SproutEngine",
    "StorageError",
    "UnsafePlanError",
    "UnsupportedQueryError",
    "VariableRegistry",
    "build_hierarchy",
    "build_safe_plan",
    "effective_signature",
    "fd_reduct",
    "has_safe_plan",
    "is_hierarchical",
    "parse_query",
    "parse_signature",
    "signature_of_query",
    "__version__",
]
