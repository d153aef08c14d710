"""The conf() operator's definition: Fig. 5's GRP translation, run literally.

Fig. 5 of the paper defines the probability computation operator by a
translation to SQL: a bottom-up traversal of the signature emits

* for ``α*`` an **aggregation** step ``GRP[a; min(V) as V, prob(P) as P]``
  grouping by all other columns, and
* for ``αβ`` a **propagation** step that multiplies β's probability into α's
  probability column and drops β's variable/probability columns.

:func:`apply_semantics` executes that translation on a materialised answer
relation (Example V.1 / Fig. 6), one independent pass per step over plain
Python rows, recording every step.  It shares no code with the engine's
operators — neither the scan-based evaluator of Section V.C nor the
``reduce_relation`` sequence of the eager/hybrid plans — so it checks both.
:func:`semantics_evaluate` runs it over a query's answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.query.signature import ConcatSig, Signature, StarSig, TableSig
from repro.sprout.planner import JoinOrderPlanner
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, ColumnRole, Schema

from oracles.rows import materialize_answer

__all__ = [
    "ConfOperatorResult",
    "ConfStep",
    "apply_semantics",
    "grp_statements",
    "semantics_evaluate",
]


@dataclass(frozen=True)
class ConfStep:
    """One constituent step of the operator: an aggregation or a propagation."""

    kind: str  # "aggregate" or "propagate"
    description: str
    signature: str
    rows_in: int = 0
    rows_out: int = 0

    def __str__(self) -> str:
        return f"{self.kind}[{self.signature}]: {self.description}"


@dataclass
class ConfOperatorResult:
    """Distinct answer tuples with confidences, plus the executed steps."""

    relation: Relation
    steps: List[ConfStep] = field(default_factory=list)

    @property
    def aggregation_count(self) -> int:
        return sum(1 for step in self.steps if step.kind == "aggregate")

    @property
    def propagation_count(self) -> int:
        return sum(1 for step in self.steps if step.kind == "propagate")

    def confidences(self) -> Dict[Tuple[object, ...], float]:
        """Mapping from distinct data tuple to its confidence."""
        return {tuple(row[:-1]): row[-1] for row in self.relation}


def grp_statements(signature: Signature) -> List[str]:
    """The list of GRP / propagation statements the semantics would execute.

    Purely static (no data): the counts of Example V.1 are five aggregations
    and two propagations for ``(Cust*(Ord*Item*)*)*`` and three aggregations
    for ``(Cust(Ord Item*)*)*``.
    """
    statements: List[str] = []

    def translate(node: Signature) -> str:
        if isinstance(node, TableSig):
            return node.table
        if isinstance(node, StarSig):
            leader = translate(node.inner)
            statements.append(f"aggregate[{node.inner}*] on {leader}")
            return leader
        if isinstance(node, ConcatSig):
            # Fig. 5 evaluates the right part of a concatenation first (Fig. 6:
            # Item is aggregated before Ord), then folds into the left leader.
            leaders = [translate(part) for part in reversed(node.parts)]
            leaders.reverse()
            for other in leaders[1:]:
                statements.append(f"propagate[{leaders[0]} {other}]")
            return leaders[0]
        raise ValueError(f"unknown signature node {node!r}")

    translate(signature)
    return statements


def apply_semantics(answer: Relation, signature: Signature) -> ConfOperatorResult:
    """Execute the Fig. 5 translation on ``answer``.

    ``answer`` must contain the data columns of the (projected) query answer
    plus one variable/probability pair per table in ``signature``.  The result
    relation has the data columns plus a ``conf`` column with the exact
    probability of each distinct data tuple.
    """
    names = [attribute.name for attribute in answer.schema]
    pair_of: Dict[str, Dict[ColumnRole, str]] = {}
    for attribute in answer.schema:
        if attribute.role is not ColumnRole.DATA:
            pair_of.setdefault(attribute.source, {})[attribute.role] = attribute.name
    rows = [list(row) for row in answer]
    steps: List[ConfStep] = []

    def aggregate(table: str, text: str) -> None:
        """GRP by every column except ``table``'s V/P pair: min(V), prob(P)."""
        nonlocal rows
        var_name = pair_of[table][ColumnRole.VAR]
        prob_name = pair_of[table][ColumnRole.PROB]
        var, prob = names.index(var_name), names.index(prob_name)
        # key -> [the group's first row, which becomes its output row, and
        # the product of 1 - P over the group]
        groups: Dict[tuple, list] = {}
        for row in rows:
            key = tuple(value for index, value in enumerate(row) if index not in (var, prob))
            group = groups.get(key)
            if group is None:
                groups[key] = [row, 1.0 - row[prob]]
            else:
                group[0][var] = min(group[0][var], row[var])
                group[1] *= 1.0 - row[prob]
        grouped = []
        for representative, none_true in groups.values():
            representative[prob] = 1.0 - none_true
            grouped.append(representative)
        others = ", ".join(name for name in names if name not in (var_name, prob_name))
        steps.append(
            ConfStep(
                "aggregate",
                f"GRP[{others}; min({var_name}), prob({prob_name})]",
                text,
                len(rows),
                len(grouped),
            )
        )
        rows = grouped

    def propagate(keep: str, drop: str) -> None:
        """Multiply ``drop``'s probability into ``keep``'s and drop its pair."""
        nonlocal rows, names
        keep_name = pair_of[keep][ColumnRole.PROB]
        drop_var_name = pair_of[drop][ColumnRole.VAR]
        drop_prob_name = pair_of[drop][ColumnRole.PROB]
        keep_prob = names.index(keep_name)
        dropped = (names.index(drop_var_name), names.index(drop_prob_name))
        propagated = []
        for row in rows:
            row[keep_prob] = row[keep_prob] * row[dropped[1]]
            propagated.append([value for index, value in enumerate(row) if index not in dropped])
        names = [name for index, name in enumerate(names) if index not in dropped]
        steps.append(
            ConfStep(
                "propagate",
                f"{keep_name} := {keep_name} * {drop_prob_name}; "
                f"drop {drop_var_name}, {drop_prob_name}",
                f"{keep} {drop}",
                len(rows),
                len(propagated),
            )
        )
        rows = propagated

    def translate(node: Signature) -> str:
        """Recursive Fig. 5 translation; returns the leader table of the node."""
        if isinstance(node, TableSig):
            return node.table
        if isinstance(node, StarSig):
            leader = translate(node.inner)
            aggregate(leader, f"{node.inner}*")
            return leader
        if isinstance(node, ConcatSig):
            # Right-to-left evaluation, as in Fig. 5/6, then fold probabilities
            # into the leftmost leader's pair.
            leaders = [translate(part) for part in reversed(node.parts)]
            leaders.reverse()
            for other in leaders[1:]:
                propagate(leaders[0], other)
            return leaders[0]
        raise ValueError(f"unknown signature node {node!r}")

    leader = translate(signature)

    # Final projection: the data columns and the leader's probability as "conf".
    data = [attribute for attribute in answer.schema if attribute.role is ColumnRole.DATA]
    data_indices = [names.index(attribute.name) for attribute in data]
    prob = names.index(pair_of[leader][ColumnRole.PROB])
    final = Relation(answer.name, Schema(data + [Attribute("conf", "float")]))
    seen = set()
    for row in rows:
        values = tuple(row[index] for index in data_indices)
        # The last aggregation groups by exactly the data columns.
        assert values not in seen, f"signature {signature} left duplicates of {values}"
        seen.add(values)
        final.append(values + (row[prob],))
    return ConfOperatorResult(relation=final, steps=steps)


def semantics_evaluate(engine, query) -> ConfOperatorResult:
    """Fig. 5 over ``query``'s answer, under the engine's effective signature.

    The answer rows come from the row pipeline in the planner's lazy join
    order.
    """
    database = engine.database
    answer, _, _ = materialize_answer(database, JoinOrderPlanner(database), query)
    return apply_semantics(answer, engine.signature_for(query))
