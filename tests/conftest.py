"""Shared fixtures: the paper's running example and a tiny TPC-H instance.

The reusable helper functions (:func:`build_paper_database`,
:func:`paper_query`, :func:`assert_confidences_close`) live in
``tests/helpers.py`` so that test modules can import them by a unique module
name instead of the ambiguous ``conftest`` (which clashes with
``benchmarks/conftest.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from helpers import build_paper_database, paper_query

from repro import ConjunctiveQuery, ProbabilisticDatabase, SproutEngine

# Tier-1 is a gate that is compared run against run (this commit against its
# parent), so by default every property test draws the same examples each
# time.  ``--hypothesis-profile=explore`` (CI's non-gating step) puts the
# random seed back and multiplies every test's own example budget.
EXPLORE_BUDGET_FACTOR = 5
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False, print_blob=True)


def pytest_configure(config):
    # Profiles must be in force before the test modules are imported: an
    # ``@settings(max_examples=...)`` decorator inherits everything it does
    # not name from the profile current at import time.
    if not config.getoption("hypothesis_profile", None):
        settings.load_profile("tier1")


def pytest_collection_modifyitems(config, items):
    if config.getoption("hypothesis_profile", None) != "explore":
        return
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)  # methods: set it on the function
        # Hypothesis keeps a test's own settings here; no public setter exists.
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None:
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=own.max_examples * EXPLORE_BUDGET_FACTOR
            )


@pytest.fixture
def paper_db() -> ProbabilisticDatabase:
    return build_paper_database()


@pytest.fixture
def paper_q() -> ConjunctiveQuery:
    return paper_query()


@pytest.fixture
def paper_engine(paper_db) -> SproutEngine:
    return SproutEngine(paper_db)


@pytest.fixture(scope="session")
def tpch_db():
    """A tiny probabilistic TPC-H instance shared by the integration tests."""
    from repro.tpch import probabilistic_tpch

    return probabilistic_tpch(scale_factor=0.001, seed=7, probability_seed=11)


@pytest.fixture(scope="session")
def tpch_engine(tpch_db) -> SproutEngine:
    return SproutEngine(tpch_db)
