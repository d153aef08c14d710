"""The store's variable→rows index is built when first asked for, not before.

Only :func:`repro.prob.delta.apply_probability_update` reads
``SharedLineageStore._var_index``, so a store that is compiled, refined and
dropped — every one-shot ``evaluate``/top-k/threshold — never builds it; the
first ``update_probability`` (or a standing query, once built: it exists to
take deltas) replays it from the three registries that define it
(``_const_vars``, ``_branch_var``, ``_leaf_dnf``) and from then on builders
register incrementally.  The oracle throughout is a store whose index was
forced into existence before its first build — the eager store of old, which
also keeps the stale leaf-era entries of rows expanded since.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SproutEngine
from repro.prob.formulas import DNF
from repro.prob.nodetable import KIND_LEAF
from repro.prob.sharedag import SharedDTree, SharedDTreeCache, SharedLineageStore

from test_compile_shape import unsafe_query
from test_sharedag import lineage_family


def build(family, eager):
    """A store over the family's lineages and one view per member."""
    members, probabilities = family
    store = SharedLineageStore()
    if eager:
        store._var_index = {}
    views = []
    for dnf in members:
        store.add_probabilities(dnf, probabilities)
        views.append(SharedDTree(store, dnf))
    return store, views


def open_leaves(store):
    return [nid for nid in range(len(store.table)) if store.table.kind[nid] == KIND_LEAF]


@st.composite
def family_and_script(draw):
    """A lineage family plus an interleaving of expansions and deltas."""
    members, probabilities = family = draw(lineage_family())
    variables = sorted(probabilities) + [max(probabilities) + 1]  # one unknown
    probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    step = st.one_of(
        st.tuples(st.just("expand"), st.integers(0, 63)),
        st.tuples(st.just("update"), st.sampled_from(variables), probability),
    )
    return family, draw(st.lists(step, min_size=1, max_size=12))


def run(store, script):
    """Play ``script``; what every delta reported."""
    reports = []
    for action, *arguments in script:
        if action == "expand":
            leaves = open_leaves(store)
            if leaves:
                store.expand_leaf(leaves[arguments[0] % len(leaves)])
        else:
            report = store.update_probability(*arguments)
            reports.append((report.reseeded, report.touched, report.is_noop))
    return reports


class TestLazyIndex:
    def test_a_store_that_saw_no_delta_has_no_index(self, tpch_db):
        query = unsafe_query("p_brand")
        with SproutEngine(tpch_db) as engine:
            engine.evaluate_topk(query, k=10)
            engine.evaluate(query, confidence="approx", epsilon=0.01)
            engine.evaluate(query)
            stats = engine.cache_stats()
            store = engine.dtree_cache.store
            assert store.steps > 0 and store._branch_var and store._const_vars
            assert store._var_index is None
            assert stats == engine.cache_stats()  # reading stats builds nothing
            assert store._var_index is None
            # A standing query's private store is no different: its first
            # delta is the one trigger, and the engine's store is not touched.
            watch = engine.watch_topk(query, k=10)
            assert watch._store._var_index is None
            variable = next(iter(watch.probabilities))
            watch.update_probability(variable, 0.5 * watch.probabilities[variable])
            assert watch._store._var_index is not None
            assert store._var_index is None

    def test_the_first_delta_builds_it_and_builders_keep_it_current(self):
        store = SharedLineageStore()
        probabilities = {v: 0.1 * (v + 1) for v in range(6)}
        first = DNF([[0, 1], [1, 2], [2, 3]])
        store.add_probabilities(first, probabilities)
        view = SharedDTree(store, first)
        assert store._var_index is None
        # Setting a marginal to the value it has needs no index.
        assert store.update_probability(1, probabilities[1]).is_noop
        assert store._var_index is None
        report = store.update_probability(1, 0.9)
        assert not report.is_noop and view.root in report.touched
        assert store._var_index is not None
        # Rows built after the index exists are registered as they are built.
        second = DNF([[3, 4], [4, 5]])
        store.add_probabilities(second, probabilities)
        other = SharedDTree(store, second)
        assert any(other.root in store.table.ancestors_of(nid) for nid in store._var_index[5])
        view.expand_once()
        branch = store._branch_var[view.root]
        assert view.root in store._var_index[branch]

    @given(family_and_script())
    @settings(max_examples=60, deadline=None)
    def test_deltas_match_a_store_indexed_from_the_start(self, case):
        family, script = case
        lazy, _ = build(family, eager=False)
        eager, _ = build(family, eager=True)
        assert run(lazy, script) == run(eager, script)
        assert lazy.table.bounds_fingerprint() == eager.table.bounds_fingerprint()
        assert lazy.table.edge_weight == eager.table.edge_weight
        assert lazy.probabilities == eager.probabilities
        # The replay holds every live entry of the eager index (which also
        # keeps stale leaf-era ones) — as sets per variable, once it exists.
        if lazy._var_index is not None:
            for variable, nids in lazy._var_index.items():
                assert set(nids) <= set(eager._var_index[variable])


class TestSegments:
    """``export_segment``/``from_segment`` around a store's first delta."""

    def warm(self, family, deltas):
        store, views = build(family, eager=False)
        for _ in range(3):
            store.refine_round(views, 1)
        for variable, probability in deltas:
            store.update_probability(variable, probability)
        return store

    @staticmethod
    def shipped(store, with_legacy_index=False):
        segment = store.export_segment()
        assert "var_index" not in segment
        if with_legacy_index:
            # What a build before this change wrote: the index verbatim.
            oracle = SharedLineageStore.from_segment(pickle.loads(pickle.dumps(segment)))
            oracle.dependents_index()
            segment["var_index"] = [(v, list(n)) for v, n in oracle._var_index.items()]
        return SharedLineageStore.from_segment(pickle.loads(pickle.dumps(segment)))

    @pytest.mark.parametrize("legacy", (False, True))
    # 0.99 and 0.01 are outside the family's marginals: neither is a no-op
    # on an interned variable.
    @pytest.mark.parametrize("deltas", ((), ((1, 0.99), (2, 0.01))), ids=("before", "after"))
    @given(family=lineage_family())
    @settings(max_examples=25, deadline=None)
    def test_round_trip_before_and_after_the_first_delta(self, family, deltas, legacy):
        store = self.warm(family, deltas)
        # Updating a variable the store never interned is a no-op that does
        # not build the index either.
        interned = any(variable in store.probabilities for variable, _ in deltas)
        assert (store._var_index is None) == (not interned)
        rebuilt = self.shipped(store, with_legacy_index=legacy)
        assert rebuilt._var_index is None  # never shipped, never restored
        assert rebuilt.table.bounds_fingerprint() == store.table.bounds_fingerprint()
        script = [("update", 0, 0.5), ("expand", 1), ("update", 1, 0.25), ("update", 3, 0.75)]
        assert run(rebuilt, script) == run(store, script)
        assert rebuilt.table.bounds_fingerprint() == store.table.bounds_fingerprint()

    def test_cache_state_round_trips_without_an_index(self):
        cache = SharedDTreeCache()
        probabilities = {v: 0.2 + 0.1 * v for v in range(4)}
        view = cache.get(DNF([[0, 1], [1, 2], [2, 3]]), probabilities)
        view.expand_once()
        cache.store.update_probability(2, 0.6)
        state = pickle.loads(pickle.dumps(cache.export_state()))
        assert "var_index" not in state["segment"]
        reborn = SharedDTreeCache.from_state(state)
        assert reborn.store._var_index is None
        expected = cache.store.update_probability(1, 0.33)
        found = reborn.store.update_probability(1, 0.33)
        assert (found.reseeded, found.touched) == (expected.reseeded, expected.touched)
        assert (
            reborn.store.table.bounds_fingerprint() == cache.store.table.bounds_fingerprint()
        )
