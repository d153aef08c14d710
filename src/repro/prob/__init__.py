"""Probabilistic data model: variables, formulas, tables, worlds, lineage.

Everything about *probability*, independent of query processing:

* :mod:`repro.prob.variables` / :mod:`repro.prob.ptable` /
  :mod:`repro.prob.pdb` — Boolean variables with marginals, probabilistic
  tables, and the tuple-independent :class:`ProbabilisticDatabase`.
* :mod:`repro.prob.formulas` — DNF lineage, one-occurrence-form formulas,
  and exact weighted model counting by memoised Shannon expansion.
* :mod:`repro.prob.lineage` — extraction of per-tuple DNF lineage from
  answer relations that carry ``V``/``P`` columns.
* :mod:`repro.prob.dtree` — the decomposition-tree rules every compile
  shares: node bound arithmetic, open-leaf bounds, the Shannon branch
  rule, the refinement driver (exact when compilation closes, guaranteed
  lower/upper bounds when stopped early), plus the Karp–Luby Monte Carlo
  fallback.
* :mod:`repro.prob.sharedag` — the one lineage compiler: hash-consed
  subformula nodes shared *across* answer tuples, with per-tuple
  :class:`SharedDTree` views whose bounds tighten whenever any tuple
  refines a shared node.  Its refinement is deterministic and resumable,
  which d-tree evaluation and the top-k/threshold scheduler
  (:mod:`repro.sprout.topk`) rely on.
* :mod:`repro.prob.delta` — delta updates over the shared DAG: a
  probability update re-seeds exactly the rows carrying the variable and
  repairs their ancestor closure in one multi-source pass; deleted views
  are retired with epoch-based garbage accounting.  The substrate of the
  streaming layer (:mod:`repro.sprout.streaming`).
* :mod:`repro.prob.nodetable` — the columnar refinement core: node kinds,
  child ranges, and bound columns in parallel flat ``array``-module
  columns, propagated in scalar per-level passes.
* :mod:`repro.prob.worlds` — brute-force possible-worlds enumeration, the
  ground truth every other evaluator is differentially tested against.
* :mod:`repro.prob.synthetic` — synthetic lineage generators for stress
  tests and benchmarks.

``docs/confidence.md`` explains how the engine routes between these
evaluators and what the epsilon/bounds semantics guarantee.
"""

from repro.prob.delta import DeltaReport, apply_probability_update, retire_view
from repro.prob.dtree import (
    ApproxResult,
    MonteCarloResult,
    karp_luby_probability,
    refine_to_budget,
)
from repro.prob.formulas import (
    DNF,
    And,
    Bottom,
    Formula,
    Or,
    Top,
    Var,
    dnf_probability,
    dnf_probability_enumeration,
    is_read_once,
)
from repro.prob.lineage import (
    confidences_from_lineage,
    interned_dnf,
    lineage_by_tuple,
    probabilities_from_answer,
    split_answer_columns,
)
from repro.prob.pdb import PossibleWorld, ProbabilisticDatabase
from repro.prob.sharedag import (
    ClauseInterner,
    SharedDTree,
    SharedDTreeCache,
    SharedLineageStore,
)
from repro.prob.ptable import ProbabilisticTable, make_tuple_independent
from repro.prob.synthetic import bipartite_lineage, hub_lineage
from repro.prob.variables import VariableInfo, VariableRegistry
from repro.prob.worlds import confidences_by_enumeration


def backend_info() -> dict:
    """The refinement core's numeric backend, for benchmark environment records.

    Bound propagation has one scalar implementation, so this is constant.
    It stays only while the benchmark harness still imports it; retire it
    together with that import.
    """
    return {"backend": "python"}


__all__ = [
    "And",
    "ApproxResult",
    "Bottom",
    "ClauseInterner",
    "DNF",
    "DeltaReport",
    "Formula",
    "MonteCarloResult",
    "Or",
    "PossibleWorld",
    "ProbabilisticDatabase",
    "ProbabilisticTable",
    "SharedDTree",
    "SharedDTreeCache",
    "SharedLineageStore",
    "Top",
    "Var",
    "VariableInfo",
    "VariableRegistry",
    "apply_probability_update",
    "backend_info",
    "bipartite_lineage",
    "confidences_by_enumeration",
    "confidences_from_lineage",
    "dnf_probability",
    "dnf_probability_enumeration",
    "hub_lineage",
    "interned_dnf",
    "is_read_once",
    "karp_luby_probability",
    "lineage_by_tuple",
    "make_tuple_independent",
    "probabilities_from_answer",
    "refine_to_budget",
    "retire_view",
    "split_answer_columns",
]
