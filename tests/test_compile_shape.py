"""The compile shape of the ``unsafe_cold`` query family, pinned to recorded values.

The lineage compile kernel (``_component_groups``, ``DTree._build``,
``SharedLineageStore.build``, the influence descents) promises results that
are *bit-identical* across rewrites: same nids, same step counts, same
floats.  The differential tests only compare the engines with each other, so
a kernel change that moved both in step would pass them.  This module
compares against numbers recorded at commit ``f09e991`` — before the
structure-aware kernel landed — for the benchmark's unsafe
``part ⋈ partsupp ⋈ supplier`` shape at SF 0.001 (``ps_availqty < 3000``):
table length, store steps, ``refine_steps``, and a digest of the raw bound
columns — and, for exact ``evaluate``, a digest of every confidence and
bracket plus the step and node counts of the per-tuple ``DTree`` oracle.

Exact ``evaluate`` went through per-tuple trees when those numbers were
recorded; since it refines the engine's shared store its confidences are
still the recorded ones bit for bit, while its own shape (``EVALUATE_STORE``,
recorded when the route moved) is a store's: ``p_container`` closes in 266
shared steps where 640 per-tuple expansions were needed.

Each store shape also carries a digest of the sorted ``(kind, lower,
upper)`` rows, which does not depend on the order nids were assigned in.
When exact closure became an unranked post-order sweep (the commit after
``a2990f0``), the same leaves were expanded and the same rows created, in
another order, so every bound-column digest was re-recorded.  The row
digests were recorded at ``a2990f0``, before the sweep, and did not move,
nor did any table length, step count, ``refine_steps`` or answer digest:
the re-record is a pure permutation of nids.

A kernel PR that changes any of these on purpose re-records them here and
says why; one that changes them by accident is caught.  Variable ids are
ints, so none of this depends on ``PYTHONHASHSEED`` (recorded on CPython
3.11; the ``set`` layout the fold orders hang off is the same on 3.12).
"""

import hashlib
import struct

import pytest

from repro import Atom, ConjunctiveQuery
from repro.algebra import Comparison

from oracles.dtree import DTree
from test_differential_matrix import BACKENDS

PROJECTIONS = ("p_brand", "p_type", "p_container")

#: projection -> (table rows, store steps, refine_steps, bound-column digest,
#: sorted-row digest), recorded at f09e991 with a fresh engine per decision;
#: bound-column digests re-recorded for the closure sweep, row digests
#: recorded at a2990f0.
TOPK = {
    "p_brand": (562, 53, 53, "11ba1bf790d9d5dd", "fd2f0e11de842b40"),
    "p_type": (567, 17, 17, "d7168bf345754210", "2b34ac34a1efc7ff"),
    "p_container": (1576, 266, 266, "cfea258fd47bbfc5", "8aa6756d288271b0"),
}
THRESHOLD = {
    "p_brand": (960, 95, 95, "4cc8d0faa5ef32cd", "5a4d90769db1fd3a"),
    "p_type": (592, 20, 20, "0312579d3fb3b377", "a7ac2494e9fe5754"),
    "p_container": (1576, 266, 266, "cfea258fd47bbfc5", "8aa6756d288271b0"),
}
#: projection -> (summed DTree.steps, summed DTree.node_count, answer digest).
EVALUATE = {
    "p_brand": (96, 1200, "78fb92906b442a3b"),
    "p_type": (26, 710, "6938944ed72a8383"),
    "p_container": (640, 8393, "e5c74ab5640c8b70"),
}
#: projection -> the store's shape after a fresh engine's exact ``evaluate``.
EVALUATE_STORE = {
    "p_brand": (960, 95, 95, "daa8cac7491649eb", "5a4d90769db1fd3a"),
    "p_type": (617, 23, 23, "fc6256fc2f5cc509", "97c0c0323ca39e40"),
    "p_container": (1576, 266, 266, "3383ee96c3f8af2e", "8aa6756d288271b0"),
}


def unsafe_query(projection):
    return ConjunctiveQuery(
        "unsafe_" + projection,
        [
            Atom("part", ["partkey", projection]),
            Atom("partsupp", ["partkey", "suppkey", "ps_availqty"]),
            Atom("supplier", ["suppkey"]),
        ],
        projection=[projection],
        selections=Comparison("ps_availqty", "<", 3000),
    )


def fresh_engine(db, backend):
    """A fresh engine: the shape lives in its store.  The engine and the row
    oracle extract the same lineage and the scheduler breaks ties on the
    tuple's ``repr``, so both must reproduce the recorded shape."""
    return BACKENDS[backend](db)


def _digest(*chunks: bytes) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()[:16]


def _rows_digest(table):
    """The table's rows as a multiset: independent of nid assignment order."""
    rows = sorted(zip(table.kind, table.lower, table.upper))
    return _digest(b"".join(struct.pack("<bdd", *row) for row in rows))


def _decision_shape(engine, result):
    store = engine.dtree_cache.store
    return (
        len(store.table),
        store.steps,
        result.refine_steps,
        _digest(store.table.bounds_fingerprint()),
        _rows_digest(store.table),
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("projection", PROJECTIONS)
class TestCompileShape:
    def test_topk(self, tpch_db, projection, backend):
        engine = fresh_engine(tpch_db, backend)
        try:
            result = engine.evaluate_topk(unsafe_query(projection), k=10)
            assert result.decided
            assert _decision_shape(engine, result) == TOPK[projection]
        finally:
            engine.close()

    def test_threshold(self, tpch_db, projection, backend):
        engine = fresh_engine(tpch_db, backend)
        try:
            result = engine.evaluate_threshold(unsafe_query(projection), tau=0.5)
            assert result.decided
            assert _decision_shape(engine, result) == THRESHOLD[projection]
        finally:
            engine.close()

    def test_exact_evaluate(self, tpch_db, projection, backend):
        engine = fresh_engine(tpch_db, backend)
        try:
            query = unsafe_query(projection)
            result = engine.evaluate(query)
            chunks = []
            for data, confidence in sorted(result.confidences().items(), key=repr):
                lower, upper = result.bounds[data]
                chunks.append(repr(data).encode())
                chunks.append(struct.pack("<ddd", confidence, lower, upper))
            assert _decision_shape(engine, result) == EVALUATE_STORE[projection]
            # The per-tuple oracle: same answers from isolated trees.
            answer = engine._answer_lineage(query, None)
            confidences = result.confidences()
            steps = nodes = 0
            for data, dnf in answer.lineage.items():
                tree = DTree(dnf, answer.probabilities)
                steps += tree.refine()
                nodes += tree.node_count
                assert confidences[data] == tree.lower
            assert (steps, nodes, _digest(*chunks)) == EVALUATE[projection]
        finally:
            engine.close()
