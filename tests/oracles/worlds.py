"""Possible-worlds semantics: the brute-force ground truth of every confidence.

``Pr[t ∈ Q(D)]`` is the total probability of the worlds whose query answer
contains ``t`` (Section II-C).  For small databases :func:`worlds`
enumerates every truth assignment of the variables with its probability and
instance, the tests evaluate the query in every world, with the row
operators, and sum world probabilities per answer tuple; every other
confidence computation is checked against it.

Enumerating the worlds is the expensive part of tier-1, and its truth depends
only on the database's contents and the query.  :func:`enumerate_truths`
therefore evaluates several queries over one enumeration, and
:func:`enumerate_truth` memoises each truth for the test session, keyed on
both.  Every query is still evaluated in every world.
"""

from __future__ import annotations

from itertools import product as cartesian_product
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.expressions import TruePredicate
from repro.algebra.joins import HashJoinOp
from repro.algebra.operators import Operator, ProjectOp, ScanOp, SelectOp
from repro.errors import ProbabilityError
from repro.prob.pdb import ProbabilisticDatabase
from repro.query.conjunctive import ConjunctiveQuery
from repro.sprout.planner import needed_data_attributes
from repro.storage.relation import Relation

DataTuple = Tuple[object, ...]
Truth = Dict[DataTuple, float]

#: A deterministic query: maps a world instance (table name -> relation) to an
#: answer relation over data columns only.
DeterministicQuery = Callable[[Dict[str, Relation]], Relation]


class PossibleWorld:
    """One possible world: a truth assignment and its deterministic instance."""

    def __init__(
        self,
        assignment: Dict[int, bool],
        probability: float,
        instance: Dict[str, Relation],
    ):
        self.assignment = assignment
        self.probability = probability
        self.instance = instance

    def __repr__(self) -> str:
        true_count = sum(1 for value in self.assignment.values() if value)
        return f"PossibleWorld(p={self.probability:.6g}, {true_count} true variables)"


def world(database: ProbabilisticDatabase, assignment: Mapping[int, bool]) -> Dict[str, Relation]:
    """The deterministic instance selected by a (total) truth assignment.

    Each table keeps only the tuples whose variable is true, projected onto
    its data columns.
    """
    instance: Dict[str, Relation] = {}
    for table in database.tables():
        data_names = list(table.data_schema.names)
        var_index = table.schema.index_of(table.var_column)
        data_indices = table.schema.indices_of(data_names)
        world_relation = Relation(table.source, table.data_schema)
        for row in table.relation:
            if assignment.get(row[var_index], False):
                world_relation.append(tuple(row[i] for i in data_indices))
        instance[table.source] = world_relation
    return instance


def world_probability(database: ProbabilisticDatabase, assignment: Mapping[int, bool]) -> float:
    """Probability of the world selected by a total assignment."""
    probability = 1.0
    for variable, p in database.probabilities().items():
        if variable not in assignment:
            raise ProbabilityError(f"assignment does not cover variable {variable}")
        probability *= p if assignment[variable] else 1.0 - p
    return probability


def worlds(database: ProbabilisticDatabase, max_variables: int = 22) -> Iterator[PossibleWorld]:
    """Enumerate all possible worlds (guarded against exponential blow-up)."""
    variables = sorted(database.registry)
    if len(variables) > max_variables:
        raise ProbabilityError(
            f"refusing to enumerate 2^{len(variables)} possible worlds "
            f"(limit is 2^{max_variables}); use the exact lineage evaluators instead"
        )
    probabilities = database.probabilities()
    for values in cartesian_product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        probability = 1.0
        for variable, value in assignment.items():
            p = probabilities[variable]
            probability *= p if value else 1.0 - p
        if probability == 0.0:
            continue
        yield PossibleWorld(assignment, probability, world(database, assignment))


def _deterministic_plan(
    query: ConjunctiveQuery, instance: Dict[str, Relation]
) -> Tuple[Dict[str, ScanOp], Operator]:
    """The row plan of ``query`` over ``instance``, and its scans by table.

    Natural joins over the instance relations, the selection condition, and a
    projection onto the head attributes.  The plan depends on the instance's
    schemas only: pointing its scans at another world's relations re-runs
    the same plan there.
    """
    scans: Dict[str, ScanOp] = {}
    plan: Optional[Operator] = None
    for table in query.table_names():
        relation = instance[table]
        table_plan: Operator = ScanOp(relation, alias=table)
        scans[table] = table_plan
        selection = query.selections_on(table)
        if not isinstance(selection, TruePredicate):
            table_plan = SelectOp(table_plan, selection)
        needed = needed_data_attributes(query, table)
        if needed != list(relation.schema.names):
            table_plan = ProjectOp(table_plan, needed)
        plan = table_plan if plan is None else HashJoinOp(plan, table_plan)
    return scans, ProjectOp(plan, [a for a in query.projection if a in plan.schema])


def evaluate_deterministic(query: ConjunctiveQuery, instance: Dict[str, Relation]) -> Relation:
    """Evaluate ``query`` on one deterministic world instance.

    A duplicate-eliminating answer over the head attributes (Boolean queries
    yield a single empty tuple when satisfied).
    """
    _, plan = _deterministic_plan(query, instance)
    return plan.to_relation(query.name).distinct()


def confidences_by_enumeration(
    database: ProbabilisticDatabase,
    query: DeterministicQuery,
    max_variables: int = 22,
) -> Truth:
    """Exact confidences of all distinct answer tuples by world enumeration.

    ``query`` evaluates the query on one deterministic world instance;
    ``max_variables`` guards against exponential blow-up (raise if the
    database has more Boolean variables than this).
    """
    confidences: Truth = {}
    for possible in worlds(database, max_variables=max_variables):
        answer = query(possible.instance)
        for data in {tuple(row) for row in answer}:
            confidences[data] = confidences.get(data, 0.0) + possible.probability
    return confidences


_TRUTHS: Dict[tuple, Truth] = {}


def _contents(database: ProbabilisticDatabase) -> tuple:
    """Everything the truth depends on: each table's schema and rows,
    variables and probabilities included."""
    return tuple(
        (name, tuple(relation.schema.names), tuple(relation.rows))
        for name, relation in ((name, database.relation(name)) for name in database.table_names())
    )


def enumerate_truths(
    database: ProbabilisticDatabase, queries: Sequence[ConjunctiveQuery]
) -> List[Truth]:
    """The possible-worlds truth of each of ``queries``, one enumeration for all.

    Each query's plan is built once and run in every world; the sums are
    those of :func:`confidences_by_enumeration`, world by world in the same
    order.  Truths are memoised for the session on the database's contents
    and the query, and every call returns fresh dicts.
    """
    contents = _contents(database)
    missing = list(dict.fromkeys(q for q in queries if (contents, q) not in _TRUTHS))
    if missing:
        sums: List[Truth] = [{} for _ in missing]
        plans = None
        for possible in worlds(database):
            if plans is None:
                plans = [_deterministic_plan(query, possible.instance) for query in missing]
            for (scans, plan), confidences in zip(plans, sums):
                for table, scan in scans.items():
                    scan.relation = possible.instance[table]
                for data in set(plan):
                    confidences[data] = confidences.get(data, 0.0) + possible.probability
        for query, confidences in zip(missing, sums):
            _TRUTHS[contents, query] = confidences
    return [dict(_TRUTHS[contents, query]) for query in queries]


def enumerate_truth(database: ProbabilisticDatabase, query: ConjunctiveQuery) -> Truth:
    """The possible-worlds truth of ``query`` on ``database`` (memoised)."""
    return enumerate_truths(database, [query])[0]
