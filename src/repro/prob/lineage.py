"""Lineage: from answer columns to DNF formulas to shared-store views.

After evaluating a conjunctive query plan that copies the ``V``/``P`` columns
along (the standard semantics of Section II-C), the answer encodes, for each
distinct data tuple, a DNF formula: one clause per answer row, one positive
literal per contributing base-table variable.
:func:`repro.sprout.onescan.columnar_lineage` turns that encoding back into
clause sets (with :func:`split_answer_columns`); this module builds
:class:`repro.prob.formulas.DNF` objects from clauses and hands them to the
shared lineage store as resumable views.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from repro.prob.formulas import DNF
from repro.storage.schema import ColumnRole, Schema

if TYPE_CHECKING:
    from repro.prob.sharedag import SharedDTree, SharedDTreeCache

__all__ = [
    "split_answer_columns",
    "interned_dnf",
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
