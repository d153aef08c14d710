"""Multi-lane data-parallel refinement: the concurrency test battery.

PR 9's tentpole contract, pinned from four sides:

* **engine matrix** — top-k/threshold decisions on fresh engines are
  bit-identical (decided sets, confidences, bounds, step counts, and the
  store's raw bound columns) for ``refine_lanes`` 0/1/4, across the
  6-query differential corpus × exact/approx × vectorize on/off — and the
  same fingerprint whether a view's first frontier is measured lazily at its
  first peek (shipped) or eagerly at construction;
* **Hypothesis, lane counts** — *any* lane count matches the ``lanes=0``
  fingerprint, not just the ones CI happens to run;
* **Hypothesis, round interleavings** — driving the store primitive
  (:meth:`~repro.prob.sharedag.SharedLineageStore.refine_round`) through
  arbitrary view-subset/width interleavings leaves pooled and inline
  execution in bit-identical states *after every round*, not merely at the
  end;
* **plumbing** — the lane pool preserves order and identity, validation
  rejects nonsense, the ``REPRO_LANES`` knob parses like every other knob,
  and engine/standing-query lifecycles release their pools.

The schedule is planned before any lane runs, so none of these tests need
tolerance windows: every comparison is ``==`` on floats, fingerprint bytes,
and step counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SproutEngine
from repro.errors import ConfigurationError, PlanningError
from repro.prob.sharedag import SharedDTree, SharedLineageStore
from repro.sprout.parallel import RefinementLanePool

from test_differential_matrix import CORPUS, _truth
from test_sharedag import lineage_family

LANE_AXIS = (0, 1, 4)


def _tau(case):
    truth = _truth(case)
    return sorted(truth.values())[len(truth) // 2] if truth else 0.5


def _decision_fingerprint(case, confidence, vectorize, lanes):
    """One fresh engine's complete decision state for ``case``, as plain data.

    Covers everything the acceptance criteria name: decided sets (via the
    sorted confidence items), confidences, bounds, per-call step counts —
    plus the shared store's global step meter and its raw IEEE-754 bound
    columns, which subsume every per-tuple bracket.
    """
    build_db, make_query = CORPUS[case]
    # shared_lineage=True pins the shared store against REPRO_SHARED_LINEAGE=0
    # (here and below): lanes, and ``dtree_cache.store``, only exist there.
    engine = SproutEngine(
        build_db(), vectorize=vectorize, refine_lanes=lanes, shared_lineage=True
    )
    try:
        top = engine.evaluate_topk(
            make_query(), k=2, plan="dtree", confidence=confidence
        )
        threshold = engine.evaluate_threshold(
            make_query(), tau=_tau(case), plan="dtree", confidence=confidence
        )
        store = engine.dtree_cache.store
        return (
            sorted(top.confidences().items()),
            sorted(top.bounds.items()),
            top.decided,
            top.refine_steps,
            sorted(threshold.confidences().items()),
            sorted(threshold.bounds.items()),
            threshold.decided,
            threshold.refine_steps,
            store.steps,
            store.table.bounds_fingerprint(),
        )
    finally:
        engine.close()


#: lanes=0 fingerprints, computed once per (case, confidence, vectorize) so
#: the lane-axis matrix and the Hypothesis lane sweep share one baseline.
_baseline_cache = {}


def _baseline(case, confidence, vectorize):
    key = (case, confidence, vectorize)
    if key not in _baseline_cache:
        _baseline_cache[key] = _decision_fingerprint(case, confidence, vectorize, 0)
    return _baseline_cache[key]


# ---------------------------------------------------------------------------
# engine matrix: lanes 0/1/4 across the corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CORPUS))
@pytest.mark.parametrize("confidence", ["exact", "approx"])
@pytest.mark.parametrize("vectorize", [False, True], ids=["scalar", "vectorized"])
def test_lane_axis_is_bit_identical(case, confidence, vectorize):
    """refine_lanes 0/1/4 on fresh engines: nothing may move a bit."""
    baseline = _baseline(case, confidence, vectorize)
    for lanes in LANE_AXIS[1:]:
        assert _decision_fingerprint(case, confidence, vectorize, lanes) == baseline, (
            f"{case}/{confidence}/vectorize={vectorize}: "
            f"refine_lanes={lanes} diverged from lanes=0"
        )


@pytest.mark.parametrize("case", sorted(CORPUS))
@pytest.mark.parametrize("confidence", ["exact", "approx"])
def test_first_peek_frontier_matches_measuring_at_construction(
    case, confidence, monkeypatch
):
    """One-shot engine views: lazy first measurement ≡ eager at construction.

    A view's first frontier is measured at its first peek, possibly against a
    table other views refined since it was built (the threshold call below
    runs over the store the top-k call refined).  Peeking every view the
    moment it is constructed is the eager behaviour; step counts and the raw
    bound columns must not tell the two apart.
    """
    lazy = _baseline(case, confidence, False)
    init = SharedDTree._init_frontier

    def measure_at_construction(view):
        init(view)
        view._peek()

    monkeypatch.setattr(SharedDTree, "_init_frontier", measure_at_construction)
    assert _decision_fingerprint(case, confidence, False, 0) == lazy


# ---------------------------------------------------------------------------
# Hypothesis: any lane count, any round interleaving
# ---------------------------------------------------------------------------


class TestLaneCountProperty:
    @pytest.mark.parametrize("case", sorted(CORPUS))
    @pytest.mark.parametrize("confidence", ["exact", "approx"])
    @given(lanes=st.integers(2, 8), vectorize=st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_any_lane_count_matches_lanes0(self, case, confidence, lanes, vectorize):
        assert (
            _decision_fingerprint(case, confidence, vectorize, lanes)
            == _baseline(case, confidence, vectorize)
        )


class TestRoundInterleavingProperty:
    """The store primitive itself, under arbitrary interleavings.

    Two stores are built from the same lineage family; one executes every
    round inline, the other through a lane pool.  The rounds draw arbitrary
    view subsets (with duplicates — the dedup-by-identity path) and widths,
    and the stores must agree *after every round*: advanced count, global
    step meter, raw bound columns, and each view's bracket and step count.
    """

    @given(lineage_family(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_interleaved_rounds_bit_identical(self, family, data):
        members, probabilities = family

        def build():
            store = SharedLineageStore()
            views = []
            for dnf in members:
                store.add_probabilities(dnf, probabilities)
                views.append(SharedDTree(store, dnf))
            return store, views

        inline_store, inline_views = build()
        pooled_store, pooled_views = build()
        assert (
            inline_store.table.bounds_fingerprint()
            == pooled_store.table.bounds_fingerprint()
        )
        with RefinementLanePool(data.draw(st.integers(2, 4))) as pool:
            for _ in range(data.draw(st.integers(1, 8))):
                chosen = data.draw(
                    st.lists(
                        st.integers(0, len(members) - 1),
                        min_size=1,
                        max_size=2 * len(members),
                    )
                )
                width = data.draw(st.integers(1, 4))
                advanced_inline = inline_store.refine_round(
                    [inline_views[i] for i in chosen], width
                )
                advanced_pooled = pooled_store.refine_round(
                    [pooled_views[i] for i in chosen], width, pool
                )
                assert advanced_inline == advanced_pooled
                assert inline_store.steps == pooled_store.steps
                assert inline_store.node_count == pooled_store.node_count
                assert (
                    inline_store.table.bounds_fingerprint()
                    == pooled_store.table.bounds_fingerprint()
                )
        for inline_view, pooled_view in zip(inline_views, pooled_views):
            assert inline_view.bounds() == pooled_view.bounds()
            assert inline_view.steps == pooled_view.steps

    @given(lineage_family(), st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_width1_round_is_the_legacy_primitive(self, family, lanes):
        """refine_most_valuable ≡ refine_round(width=1), pooled or not."""
        members, probabilities = family

        def drain(step):
            store = SharedLineageStore()
            views = []
            for dnf in members:
                store.add_probabilities(dnf, probabilities)
                views.append(SharedDTree(store, dnf))
            while step(store, views):
                pass
            return store.steps, store.table.bounds_fingerprint()

        legacy = drain(lambda store, views: store.refine_most_valuable(views))
        with RefinementLanePool(lanes) as pool:
            pooled = drain(
                lambda store, views: store.refine_round(views, 1, pool)
            )
        assert pooled == legacy


# ---------------------------------------------------------------------------
# standing queries: lanes ride the refresh path
# ---------------------------------------------------------------------------


class TestStandingQueryLanes:
    def _watch(self, lanes):
        build_db, make_query = CORPUS["unsafe_proj"]
        engine = SproutEngine(build_db(), refine_lanes=lanes, shared_lineage=True)
        return engine, engine.watch_topk(make_query(), k=2)

    def test_delta_stream_is_bit_identical(self):
        """A standing query's refreshes and deltas must not see the lane count."""
        baseline_engine, baseline = self._watch(0)
        pooled_engine, pooled = self._watch(3)
        try:
            assert pooled.refine_lanes == 3
            for variable, probability in ((0, 0.9), (5, 0.05), (3, 0.6)):
                baseline.update_probability(variable, probability)
                pooled.update_probability(variable, probability)
                baseline_result = baseline.refresh()
                pooled_result = pooled.refresh()
                assert pooled.selected == baseline.selected
                assert pooled.decided == baseline.decided
                assert pooled.total_steps == baseline.total_steps
                assert pooled.delta_steps == baseline.delta_steps
                assert pooled_result.bounds == baseline_result.bounds
                assert (
                    pooled_result.confidences() == baseline_result.confidences()
                )
        finally:
            baseline.close()
            pooled.close()
            baseline_engine.close()
            pooled_engine.close()

    def test_close_releases_and_recreates_the_pool(self):
        engine, watch = self._watch(2)
        try:
            watch.refresh()
            assert watch._lane_pool is not None
            watch.close()
            assert watch._lane_pool is None
            watch.close()  # idempotent
            watch.refresh()  # lazily recreated
            assert watch._lane_pool is not None
        finally:
            watch.close()
            engine.close()


# ---------------------------------------------------------------------------
# plumbing: the pool, the knobs, the lifecycles
# ---------------------------------------------------------------------------


class TestRefinementLanePool:
    def test_map_preserves_order_and_covers_every_item(self):
        with RefinementLanePool(3) as pool:
            items = list(range(23))
            assert pool.map(lambda x: x * x, items) == [x * x for x in items]
            assert pool.map(len, []) == []
            assert pool.map(str, [7]) == ["7"]

    def test_map_is_reusable_across_calls(self):
        with RefinementLanePool(2) as pool:
            first = pool.map(lambda x: -x, [1, 2, 3])
            second = pool.map(lambda x: -x, [4, 5])
            assert (first, second) == ([-1, -2, -3], [-4, -5])

    def test_rejects_non_positive_lanes(self):
        with pytest.raises(PlanningError):
            RefinementLanePool(0)

    def test_worker_exception_propagates(self):
        with RefinementLanePool(2) as pool:
            with pytest.raises(ZeroDivisionError):
                pool.map(lambda x: 1 // x, [1, 1, 0, 1])


class TestLaneKnobs:
    def test_engine_rejects_negative_lanes(self):
        build_db, _ = CORPUS["single"]
        with pytest.raises(PlanningError):
            SproutEngine(build_db(), refine_lanes=-1)

    def test_env_default(self, monkeypatch):
        build_db, _ = CORPUS["single"]
        monkeypatch.setenv("REPRO_LANES", "3")
        engine = SproutEngine(build_db())
        assert engine.refine_lanes == 3
        engine.close()
        monkeypatch.delenv("REPRO_LANES")
        engine = SproutEngine(build_db())
        assert engine.refine_lanes == 0
        engine.close()

    @pytest.mark.parametrize("value", ["two", "-1", "1.5"])
    def test_malformed_env_raises_configuration_error(self, monkeypatch, value):
        build_db, _ = CORPUS["single"]
        monkeypatch.setenv("REPRO_LANES", value)
        with pytest.raises(ConfigurationError):
            SproutEngine(build_db())

    def test_engine_close_releases_the_pool(self):
        build_db, make_query = CORPUS["unsafe_bool"]
        # workers=0 pins the in-process route against REPRO_WORKERS: the
        # driver-side pool only exists there (offload is the next test).
        engine = SproutEngine(build_db(), refine_lanes=2, workers=0, shared_lineage=True)
        engine.evaluate_topk(make_query(), k=1, plan="dtree")
        pool = engine._lane_pool
        assert pool is not None
        inner = pool._pool  # the supervised wrapper's live RefinementLanePool
        assert inner is not None
        engine.close()
        assert engine._lane_pool is None
        assert pool._pool is None  # supervision discarded the inner pool...
        assert inner._executor._shutdown  # ...and its threads are released

    def test_engine_close_under_worker_offload(self):
        """Offloaded decisions nest their lanes inside the worker: the driver
        never creates a lane pool, and close() releases the executor."""
        build_db, make_query = CORPUS["unsafe_bool"]
        engine = SproutEngine(build_db(), refine_lanes=2, workers=1, shared_lineage=True)
        result = engine.evaluate_topk(make_query(), k=1, plan="dtree")
        assert result.decided
        assert engine._lane_pool is None
        assert list(engine._executors) == [1]
        engine.close()
        assert engine._lane_pool is None
        assert engine._executors == {}

    def test_explicit_argument_beats_the_env(self, monkeypatch):
        build_db, _ = CORPUS["single"]
        monkeypatch.setenv("REPRO_LANES", "5")
        engine = SproutEngine(build_db(), refine_lanes=1)
        assert engine.refine_lanes == 1
        engine.close()
