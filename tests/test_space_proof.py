"""The probability-space proof: one guard pass per (answer, store, version).

A :class:`SharedLineageStore` is bound to one probability space.  The view
cache guards that per looked-up tuple unless :meth:`SharedDTreeCache.prove`
has checked the whole marginal mapping against the store; the engine keeps
that proof on its answer-memo entry.  The contract under test: the guard's
guarantee is unchanged — a conflicting space still raises
:class:`ProbabilityError` (never a ``KeyError``), through the cache and
through the engine — and a proof stops holding the moment its mapping, its
store (``close()``, a snapshot restore) or the store's ``space_version`` (a
delta) changes.  Answers, ``hits`` and ``misses`` are those of an engine
that guards every tuple.
"""

import pytest

from repro import SproutEngine
from repro.errors import ProbabilityError
from repro.prob.formulas import DNF
from repro.prob.sharedag import SharedDTreeCache, SharedLineageStore

from test_differential_matrix import CORPUS

SPACE = {0: 0.5, 1: 0.4, 2: 0.3, 3: 0.2}
LINEAGE = [DNF([[0, 1], [1, 2]]), DNF([[2, 3]]), DNF([[0, 3], [1, 2]])]


def count_guard_passes(monkeypatch):
    """Count the store guard's passes and the variables it walks."""
    calls = {"passes": 0, "variables": 0}
    original = SharedLineageStore._record

    def counting(store, variables, probabilities):
        variables = list(variables)
        calls["passes"] += 1
        calls["variables"] += len(variables)
        return original(store, variables, probabilities)

    monkeypatch.setattr(SharedLineageStore, "_record", counting)
    return calls


class TestCacheProof:
    def test_a_proven_mapping_is_walked_once(self, monkeypatch):
        calls = count_guard_passes(monkeypatch)
        cache = SharedDTreeCache()
        space = dict(SPACE)
        cache.prove(space)
        for _ in range(3):
            for dnf in LINEAGE:
                cache.get(dnf, space)
        assert calls == {"passes": 1, "variables": len(space)}
        assert (cache.hits, cache.misses) == (6, 3)
        # An equal mapping that is another object is guarded per tuple.
        for dnf in LINEAGE:
            cache.get(dnf, dict(SPACE))
        assert calls["passes"] == 1 + len(LINEAGE)

    def test_a_conflict_raises_through_get_and_prove(self):
        cache = SharedDTreeCache()
        cache.prove(dict(SPACE))
        conflicting = {**SPACE, 1: 0.9}
        with pytest.raises(ProbabilityError, match="one probability space"):
            cache.get(LINEAGE[0], conflicting)
        with pytest.raises(ProbabilityError, match="one probability space"):
            cache.prove(conflicting)

    def test_a_miss_under_a_proof_raises_a_structured_error(self):
        cache = SharedDTreeCache()
        space = dict(SPACE)
        cache.prove(space)
        # Variable 7 is not in the proven mapping, so no marginal is recorded.
        with pytest.raises(ProbabilityError, match="no probability for variable 7"):
            cache.get(DNF([[0, 7]]), space)

    def test_a_bumped_space_version_forces_a_reproof(self, monkeypatch):
        cache = SharedDTreeCache()
        space = dict(SPACE)
        proof = cache.prove(space)
        cache.get(LINEAGE[0], space)
        version = cache.store.space_version
        cache.store.update_probability(2, 0.9)
        assert cache.store.space_version == version + 1
        assert not proof.holds(space, cache.store)
        # The old mapping now conflicts with the moved marginal, and both
        # routes notice it again.
        with pytest.raises(ProbabilityError):
            cache.get(LINEAGE[1], space)
        with pytest.raises(ProbabilityError):
            cache.prove(space, proof)
        moved = {**SPACE, 2: 0.9}
        calls = count_guard_passes(monkeypatch)
        fresh = cache.prove(moved, proof)
        assert fresh.holds(moved, cache.store) and calls["passes"] == 1
        assert cache.prove(moved, fresh) is fresh and calls["passes"] == 1

    def test_a_noop_update_keeps_the_proof(self):
        cache = SharedDTreeCache()
        space = dict(SPACE)
        proof = cache.prove(space)
        cache.get(LINEAGE[0], space)
        assert cache.store.update_probability(0, SPACE[0]).is_noop
        assert cache.store.update_probability(99, 0.5).is_noop
        assert proof.holds(space, cache.store)

    def test_clear_and_restore_do_not_inherit_a_proof(self):
        cache = SharedDTreeCache()
        space = dict(SPACE)
        proof = cache.prove(space)
        views = [cache.get(dnf, space) for dnf in LINEAGE]
        for view in views:
            view.refine()
        restored = SharedDTreeCache.from_state(cache.export_state())
        assert not proof.holds(space, restored.store)
        reproof = restored.prove(space, proof)
        assert reproof.store is restored.store
        assert [restored.get(dnf, space).bounds() for dnf in LINEAGE] == [
            view.bounds() for view in views
        ]
        cache.clear()
        assert not proof.holds(space, cache.store)
        assert cache.store.probabilities == {}
        cache.prove(space, proof)
        assert cache.store.probabilities == SPACE

    def test_an_epoch_reset_leaves_warm_hits_correct(self):
        cache = SharedDTreeCache()
        space = dict(SPACE)
        cache.prove(space)
        exact = []
        for dnf in LINEAGE:
            view = cache.get(dnf, space)
            view.refine()
            exact.append(view.bounds())
        cache.store.reset_nodes()
        again = [cache.get(dnf, space) for dnf in LINEAGE]
        for view in again:
            view.refine()
        assert [view.bounds() for view in again] == exact
        assert cache.evictions == len(LINEAGE)


def unsafe_engine():
    build_db, make_query = CORPUS["unsafe_proj"]
    return SproutEngine(build_db()), make_query()


def memo_entry(engine):
    (entry,) = engine._answer_memo.values()
    return entry


class TestEngineProof:
    def test_an_answer_is_proven_once_per_store_and_version(self, monkeypatch):
        engine, query = unsafe_engine()
        with engine:
            calls = count_guard_passes(monkeypatch)
            first = engine.evaluate_topk(query, k=1)
            proof = memo_entry(engine).proof
            assert proof.store is engine.dtree_cache.store
            assert calls["passes"] == 1
            for _ in range(2):
                assert engine.evaluate_topk(query, k=1).confidences() == first.confidences()
                engine.evaluate(query, confidence="approx", epsilon=0.01)
            assert calls["passes"] == 1
            assert memo_entry(engine).proof is proof

    def test_a_conflicting_space_raises_through_the_engine(self):
        engine, query = unsafe_engine()
        with engine:
            engine.evaluate_topk(query, k=1)
            store = engine.dtree_cache.store
            variable = min(store.probabilities)
            store.update_probability(variable, 1.0 - store.probabilities[variable] / 2)
            with pytest.raises(ProbabilityError, match="one probability space"):
                engine.evaluate_topk(query, k=1)
            with pytest.raises(ProbabilityError, match="one probability space"):
                engine.evaluate(query, confidence="approx", epsilon=0.01)

    def test_close_reproves_against_the_new_store(self):
        engine, query = unsafe_engine()
        with engine:
            cold = engine.evaluate_topk(query, k=2)
            old_store = engine.dtree_cache.store
            engine.close()
            again = engine.evaluate_topk(query, k=2)
            assert engine.dtree_cache.store is not old_store
            assert memo_entry(engine).proof.store is engine.dtree_cache.store
            assert engine.dtree_cache.store.probabilities == old_store.probabilities
            assert again.confidences() == cold.confidences()

    def test_a_restored_cache_is_reproven(self):
        engine, query = unsafe_engine()
        control, _ = unsafe_engine()
        with engine, control:
            cold = engine.evaluate_topk(query, k=2)
            control.evaluate_topk(query, k=2)
            proof = memo_entry(engine).proof
            # What the service does with a snapshot at boot.
            engine.dtree_cache = SharedDTreeCache.from_state(engine.dtree_cache.export_state())
            warm = engine.evaluate_topk(query, k=2)
            assert memo_entry(engine).proof is not proof
            assert memo_entry(engine).proof.store is engine.dtree_cache.store
            assert warm.confidences() == cold.confidences()
            assert warm.refine_steps == 0
            control._answer_memo.clear()
            control.evaluate_topk(query, k=2)
            for key in ("hits", "misses", "evictions", "entries"):
                assert engine.cache_stats()[key] == control.cache_stats()[key]
