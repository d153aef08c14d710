"""Lineage extraction from answer relations.

After evaluating a conjunctive query plan that copies the ``V``/``P`` columns
along (the standard semantics of Section II-C), the answer relation encodes,
for each distinct data tuple, a DNF formula: one clause per answer row, one
positive literal per contributing base-table variable.  This module turns that
relational encoding back into :class:`repro.prob.formulas.DNF` objects and
computes confidences from them — the reference path every optimised evaluator
is checked against.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ApproximationBudgetError, ProbabilityError
from repro.prob.dtree import (
    DEFAULT_MAX_STEPS,
    ApproxResult,
    DTree,
    DTreeCache,
    dtree_probability,
    karp_luby_probability,
)
from repro.prob.formulas import DNF, dnf_probability
from repro.storage.relation import Relation
from repro.storage.schema import ColumnRole, Schema

__all__ = [
    "split_answer_columns",
    "lineage_by_tuple",
    "interned_dnf",
    "probabilities_from_answer",
    "confidences_from_lineage",
    "approximate_confidences_from_lineage",
    "dtrees_from_dnfs",
    "dtrees_from_lineage",
]

DataTuple = Tuple[object, ...]


def interned_dnf(clauses, interner=None) -> DNF:
    """A :class:`DNF` whose clause frozensets are shared via ``interner``.

    The lineage entry point of streaming inserts
    (:meth:`repro.sprout.streaming.StandingQuery.insert_tuple`): routing a
    new tuple's clauses through the standing store's
    :class:`repro.prob.sharedag.ClauseInterner` means every clause the store
    has seen before comes back as the *same* frozenset object — hashing and
    intern-table lookups on the warm store then hit cached hashes, and a
    tuple built from already-refined subformulas decides in 0–few steps.
    ``interner`` is anything with an ``intern(iterable) -> frozenset``
    method; ``None`` just freezes the clauses.
    """
    if interner is None:
        return DNF(frozenset(clause) for clause in clauses)
    return DNF(interner.intern(clause) for clause in clauses)


def split_answer_columns(schema: Schema) -> Tuple[List[int], List[int], List[int]]:
    """Return (data column indices, variable column indices, probability column indices)."""
    data_indices: List[int] = []
    var_indices: List[int] = []
    prob_indices: List[int] = []
    for index, attribute in enumerate(schema):
        if attribute.role is ColumnRole.DATA:
            data_indices.append(index)
        elif attribute.role is ColumnRole.VAR:
            var_indices.append(index)
        else:
            prob_indices.append(index)
    return data_indices, var_indices, prob_indices


def lineage_by_tuple(answer: Relation) -> Dict[DataTuple, DNF]:
    """Group answer rows by data tuple and collect their DNF lineage.

    Each answer row contributes one clause consisting of the variables in its
    VAR columns.  Rows whose variable columns contain ``None`` (possible after
    outer operations, not produced by the supported query class) are rejected.
    """
    data_indices, var_indices, _ = split_answer_columns(answer.schema)
    clauses: Dict[DataTuple, set] = {}
    for row in answer:
        data = tuple(row[i] for i in data_indices)
        clause = []
        for index in var_indices:
            variable = row[index]
            if variable is None:
                raise ProbabilityError("answer row has a NULL variable column")
            clause.append(int(variable))
        clauses.setdefault(data, set()).add(frozenset(clause))
    return {data: DNF(clause_set) for data, clause_set in clauses.items()}


def probabilities_from_answer(answer: Relation) -> Dict[int, float]:
    """Collect the variable -> probability mapping encoded in the answer rows."""
    _, var_indices, prob_indices = split_answer_columns(answer.schema)
    if len(var_indices) != len(prob_indices):
        raise ProbabilityError("answer relation has unpaired variable/probability columns")
    probabilities: Dict[int, float] = {}
    for row in answer:
        for var_index, prob_index in zip(var_indices, prob_indices):
            variable = row[var_index]
            probability = row[prob_index]
            if variable is None:
                continue
            variable = int(variable)
            existing = probabilities.get(variable)
            if existing is not None and abs(existing - probability) > 1e-12:
                raise ProbabilityError(
                    f"variable {variable} carries two different probabilities "
                    f"({existing} vs {probability})"
                )
            probabilities[variable] = float(probability)
    return probabilities


def confidences_from_lineage(
    answer: Relation,
    probabilities: Optional[Mapping[int, float]] = None,
) -> Dict[DataTuple, float]:
    """Exact confidence of every distinct data tuple in ``answer``.

    Probabilities default to the ones carried in the answer's ``P`` columns.
    This evaluator handles arbitrary DNFs (it does not need a hierarchical
    query); it is the reference implementation used to validate the SPROUT
    operator and the safe-plan baseline.
    """
    if probabilities is None:
        probabilities = probabilities_from_answer(answer)
    return {
        data: dnf_probability(dnf, probabilities)
        for data, dnf in lineage_by_tuple(answer).items()
    }


def approximate_confidences_from_lineage(
    answer: Relation,
    probabilities: Optional[Mapping[int, float]] = None,
    *,
    epsilon: float = 0.0,
    relative: bool = False,
    max_steps: Optional[int] = DEFAULT_MAX_STEPS,
    monte_carlo_samples: Optional[int] = 10_000,
    rng: Optional[random.Random] = None,
    cache: Optional[DTreeCache] = None,
) -> Dict[DataTuple, ApproxResult]:
    """Anytime d-tree confidence of every distinct data tuple in ``answer``.

    Each tuple's DNF lineage is compiled into a decomposition tree until the
    ``epsilon`` budget is met (``epsilon == 0`` compiles to exactness); the
    result maps each tuple to an :class:`repro.prob.dtree.ApproxResult` with
    guaranteed lower/upper bounds.  When compilation exhausts ``max_steps``
    and ``monte_carlo_samples`` is set, the Karp–Luby estimator (drawing from
    ``rng``, for reproducibility across runs) supplies the point estimate
    (clamped into the d-tree's sound bracket) instead of propagating
    :class:`repro.errors.ApproximationBudgetError`.  ``cache`` reuses the
    incrementally compiled trees across evaluations of overlapping candidate
    sets.
    """
    if probabilities is None:
        probabilities = probabilities_from_answer(answer)
    results: Dict[DataTuple, ApproxResult] = {}
    for data, dnf in lineage_by_tuple(answer).items():
        try:
            results[data] = dtree_probability(
                dnf,
                probabilities,
                epsilon=epsilon,
                relative=relative,
                max_steps=max_steps,
                cache=cache,
            )
        except ApproximationBudgetError as error:
            if monte_carlo_samples is None:
                raise
            estimate = karp_luby_probability(
                dnf, probabilities, samples=monte_carlo_samples, rng=rng
            ).estimate
            results[data] = ApproxResult(
                probability=min(max(estimate, error.lower), error.upper),
                lower=error.lower,
                upper=error.upper,
                steps=error.steps,
                exact=False,
            )
    return results


def dtrees_from_dnfs(
    lineage: Mapping[DataTuple, DNF],
    probabilities: Mapping[int, float],
    *,
    cache: Optional[DTreeCache] = None,
) -> Dict[DataTuple, DTree]:
    """One (resumable) decomposition tree per entry of an extracted lineage map.

    The entry point of the top-k/threshold scheduler: it needs live
    :class:`repro.prob.dtree.DTree` handles it can refine selectively, rather
    than results refined to a uniform budget.  With ``cache`` set, tuples seen
    in earlier evaluations come back with their refinement intact; a
    :class:`repro.prob.sharedag.SharedDTreeCache` additionally hash-conses the
    trees into one columnar node table
    (:class:`repro.prob.nodetable.NodeTable`).
    """
    return {
        data: (
            cache.get(dnf, probabilities)
            if cache is not None
            else DTree(dnf, probabilities)
        )
        for data, dnf in lineage.items()
    }


def dtrees_from_lineage(
    answer: Relation,
    probabilities: Optional[Mapping[int, float]] = None,
    *,
    cache: Optional[DTreeCache] = None,
) -> Dict[DataTuple, DTree]:
    """:func:`dtrees_from_dnfs` over the lineage extracted from ``answer``."""
    if probabilities is None:
        probabilities = probabilities_from_answer(answer)
    return dtrees_from_dnfs(lineage_by_tuple(answer), probabilities, cache=cache)
