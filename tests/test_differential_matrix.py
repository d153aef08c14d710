"""Cross-plan differential matrix: every engine configuration, one truth.

One parametrized harness evaluates a small query corpus (safe and unsafe,
Boolean and projected, with and without selections) across the full
configuration matrix — plan style × row/batch execution × exact/approx
confidence × scan-based/semantics operator — and asserts that every
configuration agrees with brute-force possible-world enumeration (exactly for
exact configurations, within the epsilon budget for approximate ones) and
therefore with every other configuration.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Atom, ConjunctiveQuery, ProbabilisticDatabase, SproutEngine
from repro.algebra import Comparison, conjunction_of
from repro.prob import confidences_by_enumeration
from repro.prob.sharedag import SharedDTreeCache
from repro.sprout import evaluate_deterministic
from repro.storage import Relation, Schema

TOLERANCE = 1e-9
EPSILON = 0.01


# ---------------------------------------------------------------------------
# corpus: (database builder, query) pairs small enough to enumerate
# ---------------------------------------------------------------------------


def _safe_db():
    db = ProbabilisticDatabase("matrix-safe")
    cust = Relation(
        "Cust", Schema.of("ckey:int", "cname:str"), [(1, "Joe"), (2, "Dan"), (3, "Li")]
    )
    ord_ = Relation(
        "Ord",
        Schema.of("okey:int", "ckey:int", "odate:str"),
        [(1, 1, "1995"), (2, 1, "1996"), (3, 2, "1994"), (4, 3, "1995"), (5, 3, "1993")],
    )
    db.add_table(cust, probabilities=[0.6, 0.35, 0.8], primary_key=["ckey"])
    db.add_table(ord_, probabilities=[0.5, 0.25, 0.7, 0.45, 0.9], primary_key=["okey"])
    return db


def _safe_proj_query():
    return ConjunctiveQuery(
        "safe_proj",
        [Atom("Cust", ["ckey", "cname"]), Atom("Ord", ["okey", "ckey", "odate"])],
        projection=["odate"],
    )


def _safe_selection_query():
    return ConjunctiveQuery(
        "safe_sel",
        [Atom("Cust", ["ckey", "cname"]), Atom("Ord", ["okey", "ckey", "odate"])],
        projection=["cname"],
        selections=conjunction_of([Comparison("odate", "=", "1995")]),
    )


def _safe_bool_query():
    return ConjunctiveQuery(
        "safe_bool",
        [Atom("Cust", ["ckey", "cname"]), Atom("Ord", ["okey", "ckey", "odate"])],
        projection=[],
    )


def _unsafe_db():
    db = ProbabilisticDatabase("matrix-unsafe")
    db.add_table(
        Relation("R", Schema.of("a:int", "x:int"), [(0, 0), (0, 1), (1, 1), (2, 0)]),
        probabilities=[0.4, 0.7, 0.55, 0.3],
    )
    db.add_table(
        Relation("S", Schema.of("x:int", "y:int"), [(0, 0), (0, 1), (1, 1), (1, 0)]),
        probabilities=[0.5, 0.2, 0.8, 0.35],
    )
    db.add_table(
        Relation("T", Schema.of("y:int"), [(0,), (1,)]), probabilities=[0.65, 0.45]
    )
    return db


def _unsafe_bool_query():
    return ConjunctiveQuery(
        "unsafe_bool",
        [Atom("R", ["a", "x"]), Atom("S", ["x", "y"]), Atom("T", ["y"])],
        projection=[],
    )


def _unsafe_proj_query():
    return ConjunctiveQuery(
        "unsafe_proj",
        [Atom("R", ["a", "x"]), Atom("S", ["x", "y"]), Atom("T", ["y"])],
        projection=["a"],
    )


def _single_table_db():
    db = ProbabilisticDatabase("matrix-single")
    db.add_table(
        Relation(
            "Obs",
            Schema.of("sensor:str", "value:int"),
            [("s1", 1), ("s1", 2), ("s2", 1), ("s2", 3), ("s3", 2)],
        ),
        probabilities=[0.3, 0.6, 0.55, 0.2, 0.85],
    )
    return db


def _single_table_query():
    # Projecting away `value` makes each sensor's confidence a disjunction.
    return ConjunctiveQuery(
        "single", [Atom("Obs", ["sensor", "value"])], projection=["sensor"]
    )


CORPUS = {
    "safe_proj": (_safe_db, _safe_proj_query),
    "safe_sel": (_safe_db, _safe_selection_query),
    "safe_bool": (_safe_db, _safe_bool_query),
    "unsafe_bool": (_unsafe_db, _unsafe_bool_query),
    "unsafe_proj": (_unsafe_db, _unsafe_proj_query),
    "single": (_single_table_db, _single_table_query),
}

#: (plan, execution, confidence, conf_method) — the exact axis runs every plan
#: style under both backends; the approx axis collapses to the d-tree route
#: (any plan × approx takes it), so lazy/dtree cover it; the literal GRP
#: semantics is exercised on the lazy plan under both backends.
CONFIGURATIONS = [
    *(
        (plan, execution, "exact", "scans")
        for plan in ("lazy", "eager", "hybrid", "lineage", "dtree")
        for execution in ("row", "batch")
    ),
    *(
        (plan, execution, "approx", "scans")
        for plan in ("lazy", "dtree")
        for execution in ("row", "batch")
    ),
    ("lazy", "row", "exact", "semantics"),
    ("lazy", "batch", "exact", "semantics"),
]

_truth_cache = {}


def _truth(case):
    if case not in _truth_cache:
        build_db, make_query = CORPUS[case]
        db = build_db()
        _truth_cache[case] = confidences_by_enumeration(
            db, lambda instance: evaluate_deterministic(make_query(), instance)
        )
    return _truth_cache[case]


@pytest.mark.parametrize("case", sorted(CORPUS))
@pytest.mark.parametrize(
    "plan,execution,confidence,conf_method",
    CONFIGURATIONS,
    ids=["-".join(c) for c in CONFIGURATIONS],
)
def test_configuration_agrees_with_enumeration(case, plan, execution, confidence, conf_method):
    build_db, make_query = CORPUS[case]
    engine = SproutEngine(build_db(), epsilon=EPSILON)
    result = engine.evaluate(
        make_query(),
        plan=plan,
        execution=execution,
        confidence=confidence,
        conf_method=conf_method,
    )
    truth = _truth(case)
    confidences = result.confidences()
    assert set(confidences) == set(truth), (
        f"{case}: answer tuples differ under {plan}/{execution}/{confidence}"
    )
    for data, expected in truth.items():
        actual = confidences[data]
        if confidence == "exact":
            assert actual == pytest.approx(expected, abs=TOLERANCE), (
                f"{case}: confidence of {data} differs under "
                f"{plan}/{execution}/{conf_method}"
            )
        else:
            assert abs(actual - expected) <= EPSILON + TOLERANCE
            lower, upper = result.bounds[data]
            assert lower - TOLERANCE <= expected <= upper + TOLERANCE


#: The shared-lineage axis runs every plan style on the row backend for the
#: exact mode, the d-tree-routed plans for the approx mode, and the columnar
#: backend on the d-tree plan — the configurations whose serial scheduling
#: the ``shared_lineage`` switch could conceivably touch.
SHARED_AXIS = [
    *((plan, "row", "exact") for plan in ("lazy", "eager", "hybrid", "lineage", "dtree")),
    ("dtree", "batch", "exact"),
    *((plan, "row", "approx") for plan in ("lazy", "dtree")),
    ("dtree", "batch", "approx"),
]


@pytest.mark.parametrize("case", sorted(CORPUS))
@pytest.mark.parametrize(
    "plan,execution,confidence", SHARED_AXIS, ids=["-".join(c) for c in SHARED_AXIS]
)
def test_shared_lineage_axis_is_bit_identical(case, plan, execution, confidence):
    """``shared_lineage`` on vs. off: plain evaluation must not move a bit.

    Sharing compiles common subformulas once across tuples, but the
    decomposition arithmetic is identical — so every confidence, bound, and
    answer row must be float-for-float the same under both engines.
    """
    build_db, make_query = CORPUS[case]
    results = {}
    for shared in (False, True):
        engine = SproutEngine(build_db(), epsilon=EPSILON, shared_lineage=shared)
        result = engine.evaluate(
            make_query(), plan=plan, execution=execution, confidence=confidence
        )
        results[shared] = result
    assert results[True].confidences() == results[False].confidences()
    assert results[True].bounds == results[False].bounds
    assert list(results[True].relation.rows) == list(results[False].relation.rows)


@pytest.mark.parametrize("case", sorted(CORPUS))
@pytest.mark.parametrize("confidence", ["exact", "approx"])
def test_topk_and_threshold_shared_axis(case, confidence):
    """Top-k/threshold under ``shared_lineage`` on vs. off: same decided sets,
    and (in exact mode) bit-identical selected confidences.

    The two modes refine along different trajectories, so non-selected
    bounds and step counts may differ — but both stop only on *proven*
    decisions, which pins the answer sets to each other."""
    build_db, make_query = CORPUS[case]
    truth = _truth(case)
    tau = sorted(truth.values())[len(truth) // 2] if truth else 0.5
    top_confidences = {}
    threshold_sets = {}
    for shared in (False, True):
        engine = SproutEngine(build_db(), shared_lineage=shared)
        top = engine.evaluate_topk(make_query(), k=2, plan="dtree", confidence=confidence)
        assert top.decided
        top_confidences[shared] = top.confidences()
        threshold = engine.evaluate_threshold(
            make_query(), tau=tau, plan="dtree", confidence=confidence
        )
        assert threshold.decided
        threshold_sets[shared] = frozenset(threshold.confidences())
    assert set(top_confidences[True]) == set(top_confidences[False])
    assert threshold_sets[True] == threshold_sets[False]
    if confidence == "exact":
        # Exact mode refines the winners to closure: the values themselves
        # must agree to the bit, not just the sets.
        assert top_confidences[True] == top_confidences[False]


@pytest.mark.parametrize("case", sorted(CORPUS))
@pytest.mark.parametrize("confidence", ["exact", "approx"])
def test_execution_axis_is_bit_identical(case, confidence):
    """Row vs. batch pipelines on fresh engines: the bounded APIs must agree
    bit for bit, not just on answer sets.

    Both pipelines extract the same lineage, and the scheduler breaks ties on
    the data tuple's ``repr``, so the refinement trajectory — and with it
    every bound, step count, answer row and, over the shared store, the raw
    bound columns — may not depend on the order the pipeline produced the
    candidates in.  Checked with the shared store on and off.
    """
    build_db, make_query = CORPUS[case]
    truth = _truth(case)
    tau = sorted(truth.values())[len(truth) // 2] if truth else 0.5
    for shared in (False, True):
        fingerprints = {}
        for execution in ("row", "batch"):
            engine = SproutEngine(build_db(), execution=execution, shared_lineage=shared)
            top = engine.evaluate_topk(
                make_query(), k=2, plan="dtree", confidence=confidence
            )
            threshold = engine.evaluate_threshold(
                make_query(), tau=tau, plan="dtree", confidence=confidence
            )
            fingerprints[execution] = (
                list(top.relation.rows),
                sorted(top.bounds.items()),
                top.decided,
                top.refine_steps,
                list(threshold.relation.rows),
                sorted(threshold.bounds.items()),
                threshold.decided,
                threshold.refine_steps,
                engine.dtree_cache.store.table.bounds_fingerprint() if shared else None,
            )
            engine.close()
        assert fingerprints["row"] == fingerprints["batch"], f"shared_lineage={shared}"


@pytest.mark.parametrize("case", sorted(CORPUS))
@pytest.mark.parametrize("confidence", ["exact", "approx"])
def test_restart_axis_is_bit_identical(case, confidence):
    """A restart between two bounded calls must not move a bit.

    One engine answers top-k, then threshold.  Its twin answers the same
    top-k, pickles its cache state (what the query service snapshots), and a
    fresh engine restored from that state answers the threshold.  The
    restored store continues where the exported one stood, so the threshold
    answer, its bounds and step count, the store's step meter and the raw
    bound columns all equal the uninterrupted engine's.
    """
    build_db, make_query = CORPUS[case]
    truth = _truth(case)
    tau = sorted(truth.values())[len(truth) // 2] if truth else 0.5

    def threshold_fingerprint(engine):
        threshold = engine.evaluate_threshold(
            make_query(), tau=tau, plan="dtree", confidence=confidence
        )
        store = engine.dtree_cache.store
        return (
            list(threshold.relation.rows),
            sorted(threshold.bounds.items()),
            threshold.decided,
            threshold.refine_steps,
            store.steps,
            store.table.bounds_fingerprint(),
        )

    with SproutEngine(build_db(), shared_lineage=True) as live:
        live.evaluate_topk(make_query(), k=2, plan="dtree", confidence=confidence)
        expected = threshold_fingerprint(live)
    with SproutEngine(build_db(), shared_lineage=True) as before:
        before.evaluate_topk(make_query(), k=2, plan="dtree", confidence=confidence)
        state = pickle.loads(pickle.dumps(before.dtree_cache.export_state()))
    with SproutEngine(build_db(), shared_lineage=True) as reborn:
        reborn.dtree_cache = SharedDTreeCache.from_state(state)
        assert threshold_fingerprint(reborn) == expected


@pytest.mark.parametrize("case", sorted(CORPUS))
@pytest.mark.parametrize("confidence", ["exact", "approx"])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_any_k_and_tau_decide_the_enumerated_truth(case, confidence, data):
    """Whatever ``k`` and ``tau`` are asked for, the decided sets are the ones
    possible-world enumeration justifies, and every bracket holds the truth.

    Top-k: ``min(k, n)`` tuples, none of them less probable than a tuple left
    out.  Threshold: every tuple clearly above τ is in, every tuple clearly
    below is out.  Exact mode reports the selected confidences themselves.
    """
    build_db, make_query = CORPUS[case]
    truth = _truth(case)
    k = data.draw(st.integers(1, len(truth) + 1), label="k")
    tau = data.draw(st.floats(0.0, 1.0, allow_nan=False), label="tau")
    engine = SproutEngine(build_db())
    top = engine.evaluate_topk(make_query(), k=k, plan="dtree", confidence=confidence)
    threshold = engine.evaluate_threshold(
        make_query(), tau=tau, plan="dtree", confidence=confidence
    )
    assert top.decided and threshold.decided
    selected = set(top.confidences())
    assert len(selected) == min(k, len(truth))
    left_out = set(truth) - selected
    for data_tuple in selected:
        for other in left_out:
            assert truth[data_tuple] >= truth[other] - TOLERANCE
    chosen = set(threshold.confidences())
    for data_tuple, expected in truth.items():
        if expected >= tau + TOLERANCE:
            assert data_tuple in chosen
        elif expected < tau - TOLERANCE:
            assert data_tuple not in chosen
    for result in (top, threshold):
        for data_tuple, confidence_value in result.confidences().items():
            lower, upper = result.bounds[data_tuple]
            assert lower - TOLERANCE <= truth[data_tuple] <= upper + TOLERANCE
            if confidence == "exact":
                assert confidence_value == pytest.approx(truth[data_tuple], abs=TOLERANCE)


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_topk_and_threshold_agree_across_backends(case):
    """The bounded APIs return identical answer sets under row and batch."""
    build_db, make_query = CORPUS[case]
    truth = _truth(case)
    engine = SproutEngine(build_db())
    for confidence in ("exact", "approx"):
        selections = []
        for execution in ("row", "batch"):
            top = engine.evaluate_topk(
                make_query(), k=2, execution=execution, confidence=confidence
            )
            assert top.decided
            selections.append(frozenset(top.confidences()))
        assert selections[0] == selections[1]
    median = sorted(truth.values())[len(truth) // 2] if truth else 0.5
    row = engine.evaluate_threshold(make_query(), tau=median)
    batch = engine.evaluate_threshold(make_query(), tau=median, execution="batch")
    assert set(row.confidences()) == set(batch.confidences())
