"""Shared benchmark fixtures: one probabilistic TPC-H instance per session.

Scale factor and repetition count are controlled through environment
variables so that the harness can be dialled up on faster machines:

* ``REPRO_TPCH_SF``        — TPC-H scale factor (default 0.002; the paper uses 1.0)
* ``REPRO_BENCH_ROUNDS``   — rounds per benchmark (default 2)
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# ``src`` for the package, ``tests`` for the reference oracles
# (``tests/oracles``) some benchmarks compare against.
for _path in (Path(__file__).resolve().parents[1] / name for name in ("src", "tests")):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.safeplans import MystiqEngine  # noqa: E402
from repro.sprout import SproutEngine  # noqa: E402
from repro.tpch import probabilistic_tpch  # noqa: E402

SCALE_FACTOR = float(os.environ.get("REPRO_TPCH_SF", "0.002"))
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "2"))


def run_benchmark(benchmark, function, *args, **kwargs):
    """Run ``function`` under pytest-benchmark with a bounded number of rounds."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=ROUNDS, iterations=1)


@pytest.fixture(scope="session")
def tpch_db():
    return probabilistic_tpch(scale_factor=SCALE_FACTOR, seed=7, probability_seed=11)


@pytest.fixture(scope="session")
def engine(tpch_db):
    return SproutEngine(tpch_db)


@pytest.fixture(scope="session")
def mystiq(tpch_db):
    # The log-based aggregation and materialised temporaries reproduce the
    # middleware behaviour described in Section VII.
    return MystiqEngine(tpch_db, use_log_aggregation=True, materialize_temporaries=True)


@pytest.fixture(scope="session")
def mystiq_exact(tpch_db):
    return MystiqEngine(tpch_db, use_log_aggregation=False, materialize_temporaries=True)
