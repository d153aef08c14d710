"""Exact weighted model counting on DNF lineage: the ground truth for every plan.

:func:`dnf_probability` computes a positive DNF's probability by memoised
Shannon expansion over independent components; it handles any lineage, so it
needs no hierarchical query, but it is worst-case exponential and has no step
cap — which is why it checks the engine rather than serving requests.
:func:`dnf_probability_enumeration` sums over every assignment and checks
:func:`dnf_probability` on small inputs.  :func:`confidences_from_lineage`
applies the counter to every distinct tuple of an answer relation, and
:func:`lineage_evaluate` runs it over a query's answer: its values are what
every plan style of ``SproutEngine.evaluate`` must return.
"""

from __future__ import annotations

from itertools import product as cartesian_product
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.prob.formulas import DNF, _component_groups
from repro.sprout.planner import JoinOrderPlanner
from repro.storage.relation import Relation

from oracles.rows import lineage_by_tuple, materialize_answer, probabilities_from_answer

__all__ = [
    "confidences_from_lineage",
    "dnf_probability",
    "dnf_probability_enumeration",
    "lineage_evaluate",
]

Clause = FrozenSet[int]
DataTuple = Tuple[object, ...]


def dnf_probability_enumeration(dnf: DNF, probabilities: Mapping[int, float]) -> float:
    """Probability by enumerating all assignments of the DNF's variables.

    Exponential; used only to validate the other evaluators on small inputs.
    """
    variables = sorted(dnf.variables())
    if not variables:
        return 1.0 if dnf.is_true() else 0.0
    total = 0.0
    for values in cartesian_product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if dnf.evaluate(assignment):
            weight = 1.0
            for variable, value in assignment.items():
                p = probabilities[variable]
                weight *= p if value else 1.0 - p
            total += weight
    return total


def _connected_components(dnf: DNF) -> List[DNF]:
    """Split a DNF into sub-DNFs over disjoint variable sets (independent factors)."""
    return [DNF(group) for group in _component_groups(dnf.clauses)]


def dnf_probability(dnf: DNF, probabilities: Mapping[int, float]) -> float:
    """Exact probability of a positive DNF via Shannon expansion.

    The computation decomposes the DNF into independent components (disjoint
    variable sets), memoises cofactors, and picks the most frequent variable
    to branch on.  Worst-case exponential (confidence computation is
    #P-complete in general) but fast for the lineage of hierarchical queries
    and adequate as ground truth for the TPC-H workloads at test scale.
    """
    memo: Dict[FrozenSet[Clause], float] = {}

    def solve(current: DNF) -> float:
        if current.is_true():
            return 1.0
        if current.is_false():
            return 0.0
        key = current.clauses
        cached = memo.get(key)
        if cached is not None:
            return cached

        components = _connected_components(current)
        if len(components) > 1:
            # Components use disjoint variables, hence are independent:
            # P(or of components) = 1 - prod(1 - P(component)).
            none_true = 1.0
            for component in components:
                none_true *= 1.0 - solve(component)
            result = 1.0 - none_true
        else:
            result = _shannon(current)
        memo[key] = result
        return result

    def _shannon(current: DNF) -> float:
        counts: Dict[int, int] = {}
        for clause in current.clauses:
            for variable in clause:
                counts[variable] = counts.get(variable, 0) + 1
        branch_variable = max(sorted(counts), key=lambda v: counts[v])
        p = probabilities[branch_variable]
        positive = solve(current.condition(branch_variable, True))
        negative = solve(current.condition(branch_variable, False))
        return p * positive + (1.0 - p) * negative

    return solve(dnf.minimised())


def confidences_from_lineage(
    answer: Relation,
    probabilities: Optional[Mapping[int, float]] = None,
) -> Dict[DataTuple, float]:
    """Exact confidence of every distinct data tuple in ``answer``.

    Probabilities default to the ones carried in the answer's ``P`` columns.
    This evaluator handles arbitrary DNFs (it does not need a hierarchical
    query).
    """
    if probabilities is None:
        probabilities = probabilities_from_answer(answer)
    return {
        data: dnf_probability(dnf, probabilities)
        for data, dnf in lineage_by_tuple(answer).items()
    }


def lineage_evaluate(database, query) -> Dict[DataTuple, float]:
    """Exact confidences of ``query``'s answer tuples by model counting.

    The answer rows come from the row pipeline in the planner's lazy join
    order, and every tuple's lineage is counted on its own.
    """
    answer, _, _ = materialize_answer(database, JoinOrderPlanner(database), query)
    return confidences_from_lineage(answer)
