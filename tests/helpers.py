"""Shared, importable test helpers.

These used to live in ``tests/conftest.py``, but importing them with
``from conftest import ...`` is fragile: pytest inserts every conftest's
directory on ``sys.path``, so whichever ``conftest.py`` (tests/ or
benchmarks/) happens to be imported first wins the module name ``conftest``.
Keeping the helpers in a plain module with a unique name makes the imports
deterministic.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the tests from a source checkout without installing the package.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import Atom, ConjunctiveQuery, ProbabilisticDatabase  # noqa: E402
from repro.algebra import Comparison, conjunction_of  # noqa: E402
from repro.storage import Relation, Schema  # noqa: E402

__all__ = [
    "build_paper_database",
    "paper_query",
    "assert_confidences_close",
    "oracle_dnf",
    "oracle_connected_components",
    "oracle_minimised",
]


def build_paper_database() -> ProbabilisticDatabase:
    """The tuple-independent database of Fig. 1 (Cust / Ord / Item)."""
    db = ProbabilisticDatabase("paper-toy")
    cust = Relation(
        "Cust",
        Schema.of("ckey:int", "cname:str"),
        [(1, "Joe"), (2, "Dan"), (3, "Li"), (4, "Mo")],
    )
    ord_ = Relation(
        "Ord",
        Schema.of("okey:int", "ckey:int", "odate:str"),
        [
            (1, 1, "1995-01-10"),
            (2, 1, "1996-01-09"),
            (3, 2, "1994-11-11"),
            (4, 2, "1993-01-08"),
            (5, 3, "1995-08-15"),
            (6, 3, "1996-12-25"),
        ],
    )
    item = Relation(
        "Item",
        Schema.of("okey:int", "discount:float", "ckey:int"),
        [(1, 0.1, 1), (1, 0.2, 1), (3, 0.4, 2), (3, 0.1, 2), (4, 0.4, 2), (5, 0.1, 3)],
    )
    db.add_table(cust, probabilities=[0.1, 0.2, 0.3, 0.4], primary_key=["ckey"])
    db.add_table(ord_, probabilities=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], primary_key=["okey"])
    db.add_table(item, probabilities=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    return db


def paper_query() -> ConjunctiveQuery:
    """The Introduction's query Q: dates of discounted orders shipped to Joe."""
    return ConjunctiveQuery(
        "Q",
        [
            Atom("Cust", ["ckey", "cname"]),
            Atom("Ord", ["okey", "ckey", "odate"]),
            Atom("Item", ["okey", "discount", "ckey"]),
        ],
        projection=["odate"],
        selections=conjunction_of(
            [Comparison("cname", "=", "Joe"), Comparison("discount", ">", 0)]
        ),
    )


def assert_confidences_close(actual, expected, tolerance: float = 1e-9) -> None:
    """Assert two tuple->confidence mappings agree up to ``tolerance``."""
    assert set(actual) == set(expected), (
        f"answer tuples differ: only in actual {set(actual) - set(expected)}, "
        f"only in expected {set(expected) - set(actual)}"
    )
    for key, value in expected.items():
        assert actual[key] == pytest.approx(value, abs=tolerance), f"confidence of {key} differs"


def oracle_dnf(clauses):
    """A DNF frozen the way ``DNF.__init__`` froze at ``f09e991`` (generator
    expression, one add per clause), bypassing the shipped constructor."""
    from repro.prob.formulas import DNF

    dnf = DNF()
    dnf.clauses = frozenset(frozenset(c) for c in clauses)
    return dnf


def oracle_connected_components(dnf):
    """The per-variable union-find that ``repro.prob.formulas`` shipped up to
    commit ``f09e991``, body verbatim (only ``DNF`` → :func:`oracle_dnf`): the
    oracle ``_component_groups`` is held to — same components, same order,
    same clause iteration order inside each."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for clause in dnf.clauses:
        for variable in clause:
            parent.setdefault(variable, variable)
        clause_list = list(clause)
        for first, second in zip(clause_list, clause_list[1:]):
            union(first, second)

    groups = {}
    constant_clauses = set()
    for clause in dnf.clauses:
        if not clause:
            constant_clauses.add(clause)
            continue
        root = find(next(iter(clause)))
        groups.setdefault(root, set()).add(clause)
    components = [oracle_dnf(clauses) for clauses in groups.values()]
    if constant_clauses:
        components.append(oracle_dnf(constant_clauses))
    return components


def oracle_minimised(dnf):
    """``DNF.minimised`` as of ``f09e991``: the full O(n²) subset sweep."""
    clauses = sorted(dnf.clauses, key=len)
    kept = []
    for clause in clauses:
        if not any(other <= clause for other in kept):
            kept.append(clause)
    return oracle_dnf(kept)
