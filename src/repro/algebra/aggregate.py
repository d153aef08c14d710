"""Group-by aggregation, the building block of the conf() operator semantics.

Fig. 5 of the paper defines the confidence operator by translation to SQL
``GRP[a; b](Q) = select distinct a, b from Q group by a`` statements whose
aggregate functions are

* ``min`` over a variable column (pick a representative variable), and
* ``prob`` over a probability column (probability of a disjunction of
  independent events: ``1 - prod(1 - p)``).

This module provides the aggregate functions needed by the paper (including
MystiQ's numerically fragile ``log``-based variant of ``prob``, used to
reproduce the runtime failures reported in Section VII) and the output schema
of a group-by; the columnar group-by itself is
:func:`repro.algebra.columnar.group_by_columns`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.errors import NumericalError, QueryError
from repro.storage.relation import sort_key_for
from repro.storage.schema import Attribute, Schema

__all__ = [
    "AggregateSpec",
    "AGGREGATE_FUNCTIONS",
    "aggregate_output_schema",
    "prob_or",
    "mystiq_log_prob_or",
]


def prob_or(probabilities: Sequence[float]) -> float:
    """Probability that at least one of several independent events occurs."""
    result = 1.0
    for p in probabilities:
        result *= 1.0 - p
    return 1.0 - result


def mystiq_log_prob_or(probabilities: Sequence[float]) -> float:
    """MystiQ's aggregation 1 - POWER(10000, SUM(log(1.001 - p))).

    The paper reports that for long disjunctions this formula computes
    logarithms of very small numbers and fails at runtime; we reproduce that
    failure mode by raising :class:`NumericalError` when an intermediate value
    underflows, so benchmarks can mark the corresponding queries as not
    computable by the MystiQ baseline.
    """
    log_sum = 0.0
    for p in probabilities:
        shifted = 1.001 - p
        if shifted <= 0:
            raise NumericalError("MystiQ log-based aggregation: log of non-positive value")
        log_sum += math.log10(shifted)
    if log_sum < -300:  # POWER(10, log_sum) underflows double precision
        raise NumericalError(
            "MystiQ log-based aggregation underflowed "
            f"(sum of logs = {log_sum:.1f} over {len(probabilities)} events)"
        )
    return 1.0 - 10.0 ** log_sum


def _min(values: Sequence[object]) -> object:
    return min(values, key=sort_key_for)


def _max(values: Sequence[object]) -> object:
    return max(values, key=sort_key_for)


def _sum(values: Sequence[object]) -> float:
    return sum(values)


def _count(values: Sequence[object]) -> int:
    return len(values)


def _product(values: Sequence[object]) -> float:
    result = 1.0
    for value in values:
        result *= value
    return result


#: Registry of aggregate functions by name.
AGGREGATE_FUNCTIONS: Dict[str, Callable[[Sequence[object]], object]] = {
    "min": _min,
    "max": _max,
    "sum": _sum,
    "count": _count,
    "product": _product,
    "prob": prob_or,
    "mystiq_prob": mystiq_log_prob_or,
}


def aggregate_output_schema(
    child_schema: Schema, group_by: Sequence[str], aggregates: Sequence["AggregateSpec"]
) -> Schema:
    """Output schema of a group-by: grouping attributes, then one per aggregate.

    Aggregate columns inherit the role/source of their input column (``min``
    over a variable column stays a variable column, etc.); counting yields
    ``int`` and the numeric folds yield ``float`` — this is what keeps the
    relational encoding of partially aggregated lineage well-formed between
    the steps of Fig. 6.
    """
    attributes: List[Attribute] = [child_schema[name] for name in group_by]
    for spec in aggregates:
        source_attribute = child_schema[spec.input_attribute]
        dtype = source_attribute.dtype
        if spec.function in ("count",):
            dtype = "int"
        elif spec.function in ("sum", "product", "prob", "mystiq_prob"):
            dtype = "float"
        attributes.append(
            Attribute(
                spec.output_name,
                dtype,
                role=source_attribute.role,
                source=source_attribute.source,
            )
        )
    return Schema(attributes)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: ``function(input_attribute) AS output_name``."""

    function: str
    input_attribute: str
    output_name: str

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise QueryError(
                f"unknown aggregate function {self.function!r}; "
                f"known: {sorted(AGGREGATE_FUNCTIONS)}"
            )

    def __str__(self) -> str:
        return f"{self.function}({self.input_attribute}) AS {self.output_name}"
