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

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.errors import ProbabilityError
from repro.prob.formulas import DNF, dnf_probability
from repro.storage.relation import Relation
from repro.storage.schema import ColumnRole, Schema

if TYPE_CHECKING:
    from repro.prob.sharedag import SharedDTree, SharedDTreeCache

__all__ = [
    "split_answer_columns",
    "lineage_by_tuple",
    "interned_dnf",
    "probabilities_from_answer",
    "confidences_from_lineage",
    "dtrees_from_dnfs",
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


def dtrees_from_dnfs(
    lineage: Mapping[DataTuple, DNF],
    probabilities: Mapping[int, float],
    *,
    cache: "SharedDTreeCache",
) -> Dict[DataTuple, "SharedDTree"]:
    """One resumable view of ``cache``'s store per entry of a lineage map.

    The entry point of the top-k/threshold scheduler and of plain d-tree
    evaluation: both need live handles they can refine selectively, rather
    than results refined to a uniform budget.  Tuples seen in earlier
    evaluations come back with their refinement intact, and every tuple is
    hash-consed into the one columnar node table
    (:class:`repro.prob.nodetable.NodeTable`) of the
    :class:`repro.prob.sharedag.SharedDTreeCache`.
    """
    return {data: cache.get(dnf, probabilities) for data, dnf in lineage.items()}
