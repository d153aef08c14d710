"""Probabilistic data model: variables, formulas, tables, worlds, lineage.

Everything about *probability*, independent of query processing:

* :mod:`repro.prob.variables` / :mod:`repro.prob.ptable` /
  :mod:`repro.prob.pdb` — Boolean variables with marginals, probabilistic
  tables, and the tuple-independent :class:`ProbabilisticDatabase`.
* :mod:`repro.prob.formulas` — DNF lineage, one-occurrence-form formulas,
  and exact weighted model counting by memoised Shannon expansion.
* :mod:`repro.prob.lineage` — extraction of per-tuple DNF lineage from
  answer relations that carry ``V``/``P`` columns.
* :mod:`repro.prob.dtree` — the anytime decomposition-tree engine: exact
  when compilation closes, guaranteed lower/upper bounds when stopped
  early, plus the Karp–Luby Monte Carlo fallback.  Its refinement is
  deterministic and resumable, which the top-k/threshold scheduler
  (:mod:`repro.sprout.topk`) relies on.
* :mod:`repro.prob.sharedag` — the shared-lineage DAG: hash-consed
  subformula nodes shared *across* answer tuples, with per-tuple
  :class:`SharedDTree` views whose bounds tighten whenever any tuple
  refines a shared node.  What the serial top-k/threshold scheduler runs
  on by default (``shared_lineage=True``).
* :mod:`repro.prob.delta` — delta updates over the shared DAG: a
  probability update re-seeds exactly the rows carrying the variable and
  repairs their ancestor closure in one multi-source pass; deleted views
  are retired with epoch-based garbage accounting.  The substrate of the
  streaming layer (:mod:`repro.sprout.streaming`).
* :mod:`repro.prob.backend` / :mod:`repro.prob.nodetable` — the columnar
  refinement core: node kinds, child ranges, and bound columns in parallel
  flat arrays, propagated in batched per-level passes (NumPy kernels when
  available, a bit-identical ``array``-module sweep otherwise;
  :func:`backend_info` reports which backend is active).
* :mod:`repro.prob.worlds` — brute-force possible-worlds enumeration, the
  ground truth every other evaluator is differentially tested against.
* :mod:`repro.prob.synthetic` — synthetic lineage generators for stress
  tests and benchmarks.

``docs/confidence.md`` explains how the engine routes between these
evaluators and what the epsilon/bounds semantics guarantee.
"""

from repro.prob.backend import HAS_NUMPY, backend_info
from repro.prob.delta import DeltaReport, apply_probability_update, retire_view
from repro.prob.dtree import (
    ApproxResult,
    DTree,
    DTreeCache,
    MonteCarloResult,
    dtree_probability,
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
    approximate_confidences_from_lineage,
    confidences_from_lineage,
    dtrees_from_lineage,
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

__all__ = [
    "And",
    "ApproxResult",
    "Bottom",
    "ClauseInterner",
    "DNF",
    "DTree",
    "DTreeCache",
    "DeltaReport",
    "Formula",
    "HAS_NUMPY",
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
    "approximate_confidences_from_lineage",
    "backend_info",
    "bipartite_lineage",
    "confidences_by_enumeration",
    "confidences_from_lineage",
    "dnf_probability",
    "dnf_probability_enumeration",
    "dtree_probability",
    "dtrees_from_lineage",
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
