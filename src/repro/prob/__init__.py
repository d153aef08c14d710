"""Probabilistic data model: variables, tables, lineage and its compiler.

Everything about *probability*, independent of query processing:

* :mod:`repro.prob.variables` / :mod:`repro.prob.ptable` /
  :mod:`repro.prob.pdb` — Boolean variables with marginals, probabilistic
  tables, and the tuple-independent :class:`ProbabilisticDatabase`.
* :mod:`repro.prob.formulas` — DNF lineage and the component grouping the
  lineage compiler decomposes by.
* :mod:`repro.prob.lineage` — per-tuple DNF lineage as views of the shared
  store, and the column split of answers that carry ``V``/``P`` columns.
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
from repro.prob.formulas import DNF
from repro.prob.lineage import interned_dnf, split_answer_columns
from repro.prob.pdb import ProbabilisticDatabase
from repro.prob.sharedag import (
    ClauseInterner,
    SharedDTree,
    SharedDTreeCache,
    SharedLineageStore,
)
from repro.prob.ptable import ProbabilisticTable, make_tuple_independent
from repro.prob.synthetic import bipartite_lineage, hub_lineage
from repro.prob.variables import VariableInfo, VariableRegistry


def backend_info() -> dict:
    """The refinement core's numeric backend, for benchmark environment records.

    Bound propagation has one scalar implementation, so this is constant.
    It stays only while the benchmark harness still imports it; retire it
    together with that import.
    """
    return {"backend": "python"}


__all__ = [
    "ApproxResult",
    "ClauseInterner",
    "DNF",
    "DeltaReport",
    "MonteCarloResult",
    "ProbabilisticDatabase",
    "ProbabilisticTable",
    "SharedDTree",
    "SharedDTreeCache",
    "SharedLineageStore",
    "VariableInfo",
    "VariableRegistry",
    "apply_probability_update",
    "backend_info",
    "bipartite_lineage",
    "hub_lineage",
    "interned_dnf",
    "karp_luby_probability",
    "make_tuple_independent",
    "refine_to_budget",
    "retire_view",
    "split_answer_columns",
]
