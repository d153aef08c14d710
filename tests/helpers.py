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

__all__ = ["build_paper_database", "paper_query", "assert_confidences_close"]


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
