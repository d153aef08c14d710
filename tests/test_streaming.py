"""Incremental streaming evaluation: delta updates and standing queries.

Store-level tests pin the delta contract — a probability update re-seeds
exactly the rows carrying the variable and the repaired store is bit-identical
to a from-scratch compilation under the final probability space.  Standing
query tests run scripted and Hypothesis-generated delta interleavings
(updates, inserts, deletes, in any order, refreshed at any point) and assert
the warm answer — decided set, selected exact confidences, decided flag —
equals a fresh :class:`StandingQuery` built from the final state, that a
replayed script reproduces its step counts, and that deferring a
touched view's frontier measurement to its first peek is indistinguishable
from rebuilding it eagerly after every delta.  Engine-level tests
cover the ``watch_topk`` / ``watch_threshold`` entry points and the
``delta_steps`` field on one-shot results.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Atom, ConjunctiveQuery, ProbabilisticDatabase, SproutEngine
from repro.errors import PlanningError, ProbabilityError
from repro.prob.dtree import refine_to_budget
from repro.prob.formulas import DNF
from repro.prob.nodetable import NodeTable
from repro.prob.sharedag import SharedDTree, SharedLineageStore
from repro.sprout.streaming import StandingQuery
from repro.storage import Relation, Schema

from oracles.dtree import DTree, dtree_confidences
from test_differential_matrix import CORPUS

# ---------------------------------------------------------------------------
# strategies: lineage families plus delta scripts against them
# ---------------------------------------------------------------------------


@st.composite
def lineage_family(draw):
    """2–4 DNFs drawing clauses from one shared pool (≤ 10 variables)."""
    nvars = draw(st.integers(4, 10))
    probability = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)
    probabilities = {v: draw(probability) for v in range(nvars)}
    clause = st.sets(st.integers(0, nvars - 1), min_size=1, max_size=3).map(frozenset)
    pool = draw(st.lists(clause, min_size=2, max_size=6, unique=True))
    members = []
    for _ in range(draw(st.integers(2, 4))):
        shared = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True)
        )
        private = draw(st.lists(clause, min_size=0, max_size=3))
        members.append(DNF(shared + private))
    return members, probabilities


@st.composite
def delta_script(draw):
    """A lineage family plus 1–6 deltas (update/insert/delete/refresh)."""
    members, probabilities = draw(lineage_family())
    nvars = len(probabilities)
    probability = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)
    clause = st.sets(st.integers(0, nvars - 1), min_size=1, max_size=3).map(frozenset)
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["update", "insert", "delete", "refresh"]))
        if kind == "update":
            ops.append(("update", draw(st.integers(0, nvars - 1)), draw(probability)))
        elif kind == "insert":
            extra = draw(st.lists(clause, min_size=1, max_size=3, unique=True))
            ops.append(("insert", DNF(extra)))
        elif kind == "delete":
            ops.append(("delete", draw(st.integers(0, 7))))
        else:
            ops.append(("refresh",))
    return members, probabilities, ops


def closed_bounds(view):
    view.refine(epsilon=0.0)
    return view.bounds()


def apply_delta(query: StandingQuery, op, inserted: int) -> None:
    """One scripted delta; delete indices wrap over the live candidates."""
    if op[0] == "update":
        query.update_probability(op[1], op[2])
    elif op[0] == "insert":
        query.insert_tuple((f"new{inserted}",), op[1])
    elif op[0] == "delete" and len(query) > 1:
        data = sorted(query.lineage, key=repr)[op[1] % len(query)]
        query.delete_tuple(data)


def apply_script(query: StandingQuery, ops) -> None:
    """Replay a delta script, refreshing where it says and once at the end."""
    inserted = 0
    for op in ops:
        if op[0] == "refresh":
            query.refresh()
        else:
            apply_delta(query, op, inserted)
            inserted += op[0] == "insert"
    query.refresh()


def selected_confidences(query: StandingQuery):
    """(data, confidence) pairs of the last refresh, in reported order."""
    return [tuple(row) for row in query.result.relation]


# ---------------------------------------------------------------------------
# store-level delta propagation
# ---------------------------------------------------------------------------


class TestStoreDeltas:
    def test_update_validates_range(self):
        store = SharedLineageStore()
        with pytest.raises(ProbabilityError):
            store.update_probability(0, -0.1)
        with pytest.raises(ProbabilityError):
            store.update_probability(0, 1.5)

    def test_noop_and_unknown_variable_updates(self):
        store = SharedLineageStore()
        dnf = DNF([[0, 1], [1, 2]])
        store.add_probabilities(dnf, {0: 0.5, 1: 0.4, 2: 0.3})
        SharedDTree(store, dnf)
        assert store.update_probability(0, 0.5).is_noop  # unchanged value
        assert store.update_probability(99, 0.7).is_noop  # never interned
        # A true no-op: nothing recorded, no proof invalidated.
        assert 99 not in store.probabilities
        assert store.space_version == 0
        assert not store.update_probability(0, 0.25).is_noop
        assert store.space_version == 1

    @given(lineage_family(), st.integers(0, 3), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_closed_update_is_bit_identical_to_cold_compile(self, family, which, p):
        """Refine to closure, update, re-close: equals compiling the final space."""
        members, probabilities = family
        variable = which % len(probabilities)
        store = SharedLineageStore()
        for dnf in members:
            store.add_probabilities(dnf, probabilities)
        views = [SharedDTree(store, dnf) for dnf in members]
        for view in views:
            view.refine(epsilon=0.0)
        store.update_probability(variable, p)
        for view in views:
            view.resync()
        warm = [closed_bounds(view) for view in views]

        final = dict(probabilities)
        final[variable] = p
        cold_store = SharedLineageStore()
        for dnf in members:
            cold_store.add_probabilities(dnf, final)
        cold = [closed_bounds(SharedDTree(cold_store, dnf)) for dnf in members]
        assert warm == cold  # bit-identical, not approximately

    @given(lineage_family(), st.integers(0, 3), st.floats(0.05, 0.95), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_mid_refinement_update_stays_sound_and_exact(self, family, which, p, head):
        """An update landing on a half-refined store still closes to the truth."""
        members, probabilities = family
        variable = which % len(probabilities)
        store = SharedLineageStore()
        for dnf in members:
            store.add_probabilities(dnf, probabilities)
        views = [SharedDTree(store, dnf) for dnf in members]
        for view in views:
            view.refine(head)  # partial work only
        store.update_probability(variable, p)
        final = dict(probabilities)
        final[variable] = p
        for view, dnf in zip(views, members):
            view.resync()
            lower, upper = view.bounds()
            assert lower <= upper + 1e-12
            lower, upper = closed_bounds(view)
            truth = refine_to_budget(
                DTree(dnf, final), epsilon=0.0, max_steps=None
            ).probability
            assert lower == pytest.approx(truth, abs=1e-12)
            assert upper == pytest.approx(truth, abs=1e-12)

    @given(lineage_family(), st.integers(0, 3), st.floats(0.05, 0.95))
    @settings(max_examples=25, deadline=None)
    def test_double_update_is_idempotent(self, family, which, p):
        members, probabilities = family
        variable = which % len(probabilities)
        store = SharedLineageStore()
        for dnf in members:
            store.add_probabilities(dnf, probabilities)
        views = [SharedDTree(store, dnf) for dnf in members]
        for view in views:
            view.refine(3)
        first = store.update_probability(variable, p)
        lower = list(store.table.lower)
        upper = list(store.table.upper)
        second = store.update_probability(variable, p)
        assert second.is_noop
        assert not second.touched
        assert list(store.table.lower) == lower
        assert list(store.table.upper) == upper
        assert first.reseeded >= 0  # the first may or may not have been a no-op

    def test_retire_counts_rows_and_resets_past_budget(self):
        store = SharedLineageStore(max_nodes=10)
        probabilities = {i: 0.5 for i in range(8)}
        dnfs = [DNF([[2 * i, 2 * i + 1]]) for i in range(4)]
        views = []
        for dnf in dnfs:
            store.add_probabilities(dnf, probabilities)
            views.append(SharedDTree(store, dnf))
        epoch = store.reset_epoch
        counted = store.retire_view(views[0])
        assert counted >= 1
        assert store.retired_nodes == counted
        for view in views[1:]:
            counted += store.retire_view(view)
        # enough retirements crossed the node budget: epoch bumped, counter zeroed
        assert store.reset_epoch > epoch or store.retired_nodes == counted
        if store.reset_epoch > epoch:
            assert store.retired_nodes == 0

    def test_retired_view_stays_functional(self):
        store = SharedLineageStore()
        dnf = DNF([[0, 1], [1, 2]])
        store.add_probabilities(dnf, {0: 0.5, 1: 0.4, 2: 0.3})
        view = SharedDTree(store, dnf)
        store.retire_view(view)
        lower, upper = closed_bounds(view)
        truth = refine_to_budget(
            DTree(dnf, store.probabilities), epsilon=0.0, max_steps=None
        ).probability
        assert lower == pytest.approx(truth, abs=1e-12)
        assert upper == pytest.approx(truth, abs=1e-12)

    def test_segment_roundtrip_preserves_delta_registries(self):
        store = SharedLineageStore()
        dnf = DNF([[0, 1], [1, 2], [3]])
        store.add_probabilities(dnf, {0: 0.5, 1: 0.4, 2: 0.3, 3: 0.2})
        view = SharedDTree(store, dnf)
        view.refine(epsilon=0.0)
        restored = SharedLineageStore.from_segment(store.export_segment())
        report = restored.update_probability(1, 0.9)
        assert not report.is_noop
        twin = SharedDTree.from_root(restored, view.root)
        twin.resync()
        truth = refine_to_budget(
            DTree(dnf, {0: 0.5, 1: 0.9, 2: 0.3, 3: 0.2}), epsilon=0.0, max_steps=None
        ).probability
        lower, upper = closed_bounds(twin)
        assert lower == pytest.approx(truth, abs=1e-12)
        assert upper == pytest.approx(truth, abs=1e-12)


# ---------------------------------------------------------------------------
# standing queries
# ---------------------------------------------------------------------------


def standing(members, probabilities, **kwargs) -> StandingQuery:
    lineage = {(i,): dnf for i, dnf in enumerate(members)}
    return StandingQuery(lineage, probabilities, **kwargs)


class TableWithBackendFlag:
    """Pickles as the node table did while it carried a numeric-backend slot."""

    def __init__(self, table):
        self.state = dict(table.__getstate__(), vectorize=True)

    def __reduce__(self):
        return (object.__new__, (NodeTable,), self.state)


def legacy_state(query: StandingQuery) -> dict:
    """``query``'s state as a build with a per-tuple compile exported it: the
    same keys, ``"shared_lineage": False``, and no store."""
    state = query.export_state()
    del state["cache"]
    state["shared_lineage"] = False
    return state


class TestStateCompatibility:
    def test_a_state_carrying_the_old_lane_count_restores_warm(self):
        """States written before the lane pools were removed carry
        ``"refine_lanes"``; new states omit it and restoring ignores it."""
        members = [
            DNF([[i, i + 1] for i in range(0, 6)]),
            DNF([[i, i + 1] for i in range(3, 9)]),
            DNF([[i, i + 1] for i in range(6, 11)]),
        ]
        probabilities = {v: 0.35 + 0.05 * (v % 5) for v in range(12)}
        query = standing(members, probabilities, k=2)
        state = query.export_state()
        assert "refine_lanes" not in state
        state["refine_lanes"] = 2
        restored = StandingQuery.from_state(pickle.loads(pickle.dumps(state)))
        result = restored.refresh()
        assert restored.decided
        assert restored.selected == query.selected
        assert result.confidences() == query.result.confidences()
        assert result.delta_steps <= 1

    @pytest.mark.parametrize("confidence", ("exact", "approx"))
    @pytest.mark.parametrize("goal", ("topk", "threshold"))
    def test_a_state_carrying_the_backend_flag_restores_warm(self, goal, confidence):
        """States written while propagation had a second (vectorized) path
        carry ``"vectorize"`` in the cache state and a ``vectorize`` slot in
        the pickled node table; restoring ignores both, stays warm, and
        answers the next delta as the live query does."""
        members = [
            DNF([[i, i + 1] for i in range(0, 6)]),
            DNF([[i, i + 1] for i in range(3, 9)]),
            DNF([[i, i + 1] for i in range(6, 11)]),
        ]
        probabilities = {v: 0.35 + 0.05 * (v % 5) for v in range(12)}
        options = {"k": 2} if goal == "topk" else {"tau": 0.3}
        query = standing(members, probabilities, confidence=confidence, **options)
        state = query.export_state()
        assert "vectorize" not in state["cache"]
        state["cache"]["vectorize"] = True
        segment = state["cache"]["segment"]
        segment["table"] = TableWithBackendFlag(segment["table"])
        restored = StandingQuery.from_state(pickle.loads(pickle.dumps(state)))
        assert not hasattr(restored._store.table, "vectorize")
        result = restored.refresh()
        assert restored.decided == query.decided
        assert restored.selected == query.selected
        assert result.confidences() == query.result.confidences()
        assert result.delta_steps <= 1
        query.update_probability(4, 0.9)
        restored.update_probability(4, 0.9)
        live_result = query.refresh()
        restored_result = restored.refresh()
        assert restored.selected == query.selected
        assert restored_result.bounds == live_result.bounds
        assert restored_result.confidences() == live_result.confidences()

    @pytest.mark.parametrize("execution", ("row", "batch"))
    @pytest.mark.parametrize("confidence", ("exact", "approx"))
    @pytest.mark.parametrize("goal", ("topk", "threshold"))
    def test_a_per_tuple_state_compiles_cold_into_the_store(
        self, goal, confidence, execution
    ):
        """A state exported while standing queries could compile per tuple
        (``"shared_lineage": False``, no store) restores: it is compiled cold
        from its lineage, marginals and options, decides what a live query
        over the same lineage decides, with the same confidences and result
        rows, and then follows the delta stream through the store like the
        live query."""
        members = [
            DNF([[i, i + 1] for i in range(0, 6)]),
            DNF([[i, i + 1] for i in range(3, 9)]),
            DNF([[i, i + 1] for i in range(6, 11)]),
        ]
        probabilities = {v: 0.35 + 0.05 * (v % 5) for v in range(12)}
        options = {"k": 2} if goal == "topk" else {"tau": 0.3}
        options.update(confidence=confidence, execution=execution)
        live = standing(members, probabilities, **options)
        state = pickle.loads(pickle.dumps(legacy_state(live)))
        restored = StandingQuery.from_state(state)
        control = standing(members, probabilities, **options)
        assert restored.decided and control.decided
        assert restored.selected == control.selected
        assert restored.result.relation.rows == control.result.relation.rows
        assert restored.result.confidences() == control.result.confidences()
        assert restored.result.bounds == control.result.bounds
        for query in (restored, control):
            assert not query.update_probability(4, 0.9).is_noop
        assert restored.refresh().confidences() == control.refresh().confidences()
        assert restored.selected == control.selected

    @pytest.mark.parametrize("state_format", ("store", "per_tuple"))
    @pytest.mark.parametrize("confidence", ("exact", "approx"))
    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_a_restored_state_continues_the_delta_stream(
        self, case, confidence, state_format
    ):
        """Export mid-stream, restore, feed both the same deltas: every later
        refresh agrees with the reference on the answer, its cost and every
        bound — a restart is invisible to the stream's consumers — and exact
        winners carry the per-tuple oracle's confidences for the final
        marginals.  A state with its store restores warm, so the reference
        is the live query; a per-tuple state (no store) compiles cold, so
        the reference is a query compiled cold from the same lineage,
        marginals and options at the moment of export."""
        build_db, make_query = CORPUS[case]
        engine = SproutEngine(build_db())
        live = engine.watch_topk(make_query(), k=2, confidence=confidence)
        variables = sorted(live.probabilities)
        live.update_probability(variables[0], 0.9)
        live.refresh()
        if state_format == "store":
            state = live.export_state()
            reference = live
        else:
            state = legacy_state(live)
            reference = StandingQuery(
                dict(live.lineage),
                dict(live.probabilities),
                k=live.k,
                confidence=live.confidence,
                max_steps=live.max_steps,
                default_cap=live.default_cap,
                cache_nodes=live._cache_nodes,
                schema=live._schema,
                name=live.name,
                execution=live._execution,
            )
            assert set(reference.selected) == set(live.selected)
        restored = StandingQuery.from_state(pickle.loads(pickle.dumps(state)))
        assert restored.selected == reference.selected
        assert restored.decided == reference.decided
        assert restored.result.confidences() == reference.result.confidences()
        for variable, probability in (
            (variables[-1], 0.05),
            (variables[len(variables) // 2], 0.7),
            (variables[0], 0.3),
        ):
            if reference is not live:
                live.update_probability(variable, probability)
            reference.update_probability(variable, probability)
            restored.update_probability(variable, probability)
            reference_result = reference.refresh()
            restored_result = restored.refresh()
            assert restored.selected == reference.selected
            assert restored.decided == reference.decided
            assert restored.delta_steps == reference.delta_steps
            assert restored_result.bounds == reference_result.bounds
            assert restored_result.confidences() == reference_result.confidences()
        if reference is not live:
            live.refresh()
            assert set(restored.selected) == set(live.selected)
        if confidence == "exact":
            oracle = dtree_confidences(live.lineage, live.probabilities)
            for data, value in live.result.confidences().items():
                assert value == oracle[data].probability
        engine.close()


class TestStandingQueryValidation:
    def test_needs_exactly_one_goal(self):
        with pytest.raises(PlanningError):
            StandingQuery({}, {})
        with pytest.raises(PlanningError):
            StandingQuery({}, {}, k=1, tau=0.5)
        with pytest.raises(PlanningError):
            StandingQuery({}, {}, k=0)
        with pytest.raises(PlanningError):
            StandingQuery({}, {}, tau=1.5)
        with pytest.raises(PlanningError):
            StandingQuery({}, {}, k=1, confidence="mystery")

    def test_update_validates_range(self):
        query = StandingQuery({(0,): DNF([[0]])}, {0: 0.5}, k=1)
        with pytest.raises(ProbabilityError):
            query.update_probability(0, 1.5)

    def test_delete_unknown_tuple_raises(self):
        query = StandingQuery({(0,): DNF([[0]])}, {0: 0.5}, k=1)
        with pytest.raises(PlanningError):
            query.delete_tuple((7,))

    def test_insert_cannot_rebind_a_variable(self):
        query = StandingQuery({(0,): DNF([[0]])}, {0: 0.5}, k=1)
        with pytest.raises(ProbabilityError):
            query.insert_tuple((1,), DNF([[0]]), probabilities={0: 0.9})
        query.insert_tuple((1,), DNF([[0, 9]]), probabilities={9: 0.25})
        assert query.probabilities[9] == 0.25

    @pytest.mark.parametrize("goal", ({"k": 1}, {"tau": 0.5}), ids=("topk", "threshold"))
    def test_an_unknown_variable_update_records_nothing(self, goal):
        query = StandingQuery({(0,): DNF([[0]])}, {0: 0.5}, **goal)
        for variable in range(100, 120):
            assert query.update_probability(variable, 0.5).is_noop
        assert query.probabilities == {0: 0.5}
        assert query._store.probabilities == {0: 0.5}

    @pytest.mark.parametrize("goal", ({"k": 2}, {"tau": 0.5}), ids=("topk", "threshold"))
    def test_a_known_variable_not_yet_interned_stays_updatable(self, goal):
        query = StandingQuery({(0,): DNF([[0]])}, {0: 0.5, 7: 0.5}, **goal)
        query.update_probability(7, 0.75)
        assert query.probabilities[7] == 0.75
        query.insert_tuple((1,), DNF([[7]]))
        result = query.refresh()
        assert result.confidences()[(1,)] == 0.75


class TestStandingQueryDeltas:
    def test_initial_refresh_matches_cold_decision(self):
        members = [DNF([[0, 1], [1, 2]]), DNF([[0, 1], [2, 3]]), DNF([[3]])]
        probabilities = {0: 0.8, 1: 0.6, 2: 0.5, 3: 0.3}
        query = standing(members, probabilities, k=2)
        assert query.decided
        assert len(query.selected) == 2
        assert query.last_entered == query.selected  # everything is new on tick 0
        assert query.result.delta_steps == query.result.refine_steps

    def test_update_redecides_and_tracks_transitions(self):
        members = [DNF([[0]]), DNF([[1]]), DNF([[2]])]
        probabilities = {0: 0.9, 1: 0.5, 2: 0.1}
        query = standing(members, probabilities, k=1)
        assert query.selected == [(0,)]
        report = query.update_probability(2, 0.99)
        assert report is not None and not report.is_noop
        query.refresh()
        assert query.selected == [(2,)]
        assert query.last_entered == [(2,)]
        assert query.last_left == [(0,)]

    def test_untouched_decision_costs_zero_delta_steps(self):
        members = [DNF([[0]]), DNF([[1]]), DNF([[2]])]
        probabilities = {0: 0.9, 1: 0.5, 2: 0.1, 7: 0.5}
        query = standing(members, probabilities, k=1)
        report = query.update_probability(7, 0.8)  # gates no candidate
        assert report.is_noop
        result = query.refresh()
        assert result.delta_steps == 0
        assert query.selected == [(0,)]

    def test_delete_all_candidates_is_a_decided_empty_answer(self):
        query = StandingQuery({(0,): DNF([[0]])}, {0: 0.5}, k=1)
        query.delete_tuple((0,))
        result = query.refresh()
        assert query.selected == []
        assert query.decided
        assert len(result.relation) == 0

    @given(delta_script())
    @settings(max_examples=30, deadline=None)
    def test_any_interleaving_matches_fresh_compilation(self, script):
        """The streaming differential: warm end state == from-scratch end state."""
        members, probabilities, ops = script
        k = min(2, len(members))
        query = standing(members, probabilities, k=k)
        apply_script(query, ops)
        fresh = StandingQuery(dict(query.lineage), dict(query.probabilities), k=k)
        assert query.decided == fresh.decided
        assert query.selected == fresh.selected
        assert selected_confidences(query) == selected_confidences(fresh)

    @given(delta_script(), st.floats(0.1, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_threshold_interleaving_matches_fresh_compilation(self, script, tau):
        members, probabilities, ops = script
        query = standing(members, probabilities, tau=tau)
        apply_script(query, ops)
        fresh = StandingQuery(dict(query.lineage), dict(query.probabilities), tau=tau)
        assert query.decided == fresh.decided
        assert set(query.selected) == set(fresh.selected)
        assert sorted(selected_confidences(query), key=repr) == sorted(
            selected_confidences(fresh), key=repr
        )

    @given(delta_script())
    @settings(max_examples=15, deadline=None)
    def test_replays_agree_on_steps_and_answers(self, script):
        members, probabilities, ops = script
        k = min(2, len(members))
        runs = []
        for _ in range(2):
            query = standing(members, probabilities, k=k)
            apply_script(query, ops)
            runs.append(
                (
                    query.selected,
                    selected_confidences(query),
                    query.total_steps,
                    query._store.table.bounds_fingerprint(),
                )
            )
        assert runs[0] == runs[1]

    @given(delta_script())
    @settings(max_examples=15, deadline=None)
    def test_any_interleaving_matches_the_per_tuple_oracle(self, script):
        """After any delta script the warm winners are a top-k of the final
        state by the per-tuple oracle's exact values, and carry them bit for
        bit."""
        members, probabilities, ops = script
        k = min(2, len(members))
        query = standing(members, probabilities, k=k)
        apply_script(query, ops)
        oracle = {
            data: result.probability
            for data, result in dtree_confidences(query.lineage, query.probabilities).items()
        }
        assert query.decided
        assert len(query.selected) == min(k, len(oracle))
        for *data, confidence in selected_confidences(query):
            assert confidence == oracle[tuple(data)]
        weakest = min((oracle[data] for data in query.selected), default=1.0)
        for data in set(oracle) - set(query.selected):
            assert oracle[data] <= weakest

    @given(lineage_family())
    @settings(max_examples=20, deadline=None)
    def test_insert_delete_round_trip_restores_the_answer(self, family):
        members, probabilities = family
        k = min(2, len(members))
        query = standing(members, probabilities, k=k)
        before = (query.selected, selected_confidences(query))
        query.insert_tuple(("extra",), DNF([next(iter(members[0].clauses))]))
        query.refresh()
        query.delete_tuple(("extra",))
        query.refresh()
        assert (query.selected, selected_confidences(query)) == before

    def test_warm_insert_of_compiled_lineage_is_cheap(self):
        members = [DNF([[0, 1], [1, 2]]), DNF([[0, 1], [2, 3]])]
        probabilities = {0: 0.8, 1: 0.6, 2: 0.5, 3: 0.3}
        query = standing(members, probabilities, k=1)
        warmed = query.total_steps
        query.insert_tuple(("twin",), DNF(members[0].clauses))  # already compiled
        result = query.refresh()
        assert result.delta_steps <= max(2, warmed)  # decided on warm rows
        # interned onto the same hash-consed rows as the original tuple
        assert query._candidates[("twin",)].tree.root == query._candidates[(0,)].tree.root


# ---------------------------------------------------------------------------
# lazy frontier: marked at the delta, measured at the first peek
# ---------------------------------------------------------------------------


def measure_marked_views(query: StandingQuery) -> None:
    """Peek every stale view now — the eager twin of the lazy frontier.

    A peek on a marked view is exactly the rebuild the pre-lazy ``resync``
    ran at the delta itself (measure against the current table, restart the
    geometric schedule), so calling this after every delta reproduces the
    eager behaviour on top of the shipped code.
    """
    for candidate in query._candidates.values():
        if candidate.tree._next_rebuild == 0:
            candidate.tree._peek()


def refresh_state(query: StandingQuery):
    result = query.refresh()
    return (
        query.decided,
        query.selected,
        selected_confidences(query),
        result.delta_steps,
        query._store.table.bounds_fingerprint(),
    )


class TestLazyFrontier:
    @pytest.mark.parametrize("confidence", ("exact", "approx"))
    @pytest.mark.parametrize("goal", ("topk", "threshold"))
    @given(delta_script(), st.floats(0.1, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_deferred_measurement_equals_eager_rebuild(
        self, goal, confidence, script, tau
    ):
        """Same script, one twin measuring every marked view right away:
        every refresh must agree on the answer, its cost, and every bound."""
        members, probabilities, ops = script
        options = {"confidence": confidence}
        options.update({"k": min(2, len(members))} if goal == "topk" else {"tau": tau})
        lazy = standing(members, probabilities, **options)
        eager = standing(members, probabilities, **options)
        inserted = 0
        for op in list(ops) + [("refresh",)]:
            measure_marked_views(eager)
            if op[0] == "refresh":
                assert refresh_state(lazy) == refresh_state(eager)
                continue
            apply_delta(lazy, op, inserted)
            apply_delta(eager, op, inserted)
            inserted += op[0] == "insert"

    def test_first_peek_of_a_stale_view_equals_a_fresh_views(self):
        # One dominant tuple decides the top-1 at once; two dense lineages
        # (8+ expansions to close) stay open and get two expansions each, so
        # their frontiers hold several leaves when the five deltas land.
        draw = random.Random(3)
        dense = [DNF([draw.sample(range(12), 3) for _ in range(14)]) for _ in range(2)]
        probabilities = {v: 0.3 + 0.04 * v for v in range(12)}
        probabilities[99] = 0.999
        query = standing([DNF([[99]])] + dense, probabilities, k=1, confidence="approx")
        store = query._store
        views = [query._candidates[(index,)].tree for index in (1, 2)]
        for view in views:
            assert view.refine(2) == 2
        rebuilds = store.frontier_rebuilds
        for variable, probability in ((1, 0.9), (3, 0.15), (2, 0.55), (1, 0.2), (4, 0.05)):
            assert not query.update_probability(variable, probability).is_noop
        assert store.frontier_rebuilds == rebuilds  # five deltas measured nothing
        for view in views:
            fresh = SharedDTree.from_root(store, view.root)
            assert view._peek() == fresh._peek() is not None
            assert len(view._heap) > 1 and sorted(view._heap) == sorted(fresh._heap)
            assert view._next_rebuild == fresh._next_rebuild > 0
        assert store.frontier_rebuilds == rebuilds + 4  # one per first peek, stale or new

    def test_a_batch_rebuilds_no_more_frontiers_than_the_round_peeked(self, monkeypatch):
        members = [
            DNF([[v, v + 1], [v + 1, v + 2], [v + 2, (v + 5) % 12]]) for v in range(10)
        ]
        probabilities = {v: 0.2 + 0.05 * v for v in range(12)}
        query = standing(members, probabilities, k=3, confidence="approx")
        peeked = []
        peek = SharedDTree._peek

        def counting_peek(view):
            peeked.append(view)
            return peek(view)

        monkeypatch.setattr(SharedDTree, "_peek", counting_peek)
        before = query.cache_stats()
        for tick in range(32):
            query.update_probability(tick % 12, 0.1 + 0.025 * tick)
        marked = query.cache_stats()
        assert marked["frontier_rebuilds"] == before["frontier_rebuilds"]
        assert marked["frontier_marks"] - before["frontier_marks"] >= 32
        query.refresh()
        after = query.cache_stats()
        rebuilt = after["frontier_rebuilds"] - marked["frontier_rebuilds"]
        assert 1 <= rebuilt <= len({id(view) for view in peeked})
        assert after["frontier_marks"] == marked["frontier_marks"]


# ---------------------------------------------------------------------------
# engine entry points
# ---------------------------------------------------------------------------


def chain_query():
    return ConjunctiveQuery(
        "chain",
        [Atom("R", ["a", "x"]), Atom("S", ["x", "y"]), Atom("T", ["y"])],
        projection=["a"],
    )


@pytest.fixture
def chain_db():
    db = ProbabilisticDatabase("chain-db")
    db.add_table(
        Relation(
            "R",
            Schema.of("a:int", "x:int"),
            [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2), (3, 1)],
        ),
        probabilities=[0.8, 0.3, 0.6, 0.4, 0.5, 0.7, 0.25],
    )
    db.add_table(
        Relation(
            "S",
            Schema.of("x:int", "y:int"),
            [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 0)],
        ),
        probabilities=[0.45, 0.85, 0.3, 0.6, 0.2, 0.75],
    )
    db.add_table(
        Relation("T", Schema.of("y:int"), [(0,), (1,)]), probabilities=[0.9, 0.35]
    )
    return db


class TestEngineWatch:
    def test_delta_stream_is_bit_identical_across_engines(self, chain_db):
        """Two engines' standing queries fed one delta stream: every refresh
        agrees on the answer, its cost and every bound, bit for bit."""
        first = SproutEngine(chain_db).watch_topk(chain_query(), k=2)
        second = SproutEngine(chain_db).watch_topk(chain_query(), k=2)
        for variable, probability in ((0, 0.9), (5, 0.05), (3, 0.6)):
            first.update_probability(variable, probability)
            second.update_probability(variable, probability)
            first_result = first.refresh()
            second_result = second.refresh()
            assert second.selected == first.selected
            assert second.decided == first.decided
            assert second.total_steps == first.total_steps
            assert second.delta_steps == first.delta_steps
            assert second_result.bounds == first_result.bounds
            assert second_result.confidences() == first_result.confidences()
            assert (
                second._store.table.bounds_fingerprint()
                == first._store.table.bounds_fingerprint()
            )

    def test_watch_topk_matches_one_shot(self, chain_db):
        engine = SproutEngine(chain_db)
        query = chain_query()
        watch = engine.watch_topk(query, k=2)
        one_shot = engine.evaluate_topk(query, k=2)
        assert watch.decided
        expected = [tuple(row)[:-1] for row in one_shot.relation]
        assert watch.selected == expected

    def test_watch_threshold_tracks_updates(self, chain_db):
        engine = SproutEngine(chain_db)
        watch = engine.watch_threshold(chain_query(), tau=0.5)
        baseline = set(watch.selected)
        assert baseline  # the chain instance has tuples above 0.5
        # drive every marginal to zero: the standing answer empties out
        for variable in sorted(watch.probabilities):
            watch.update_probability(variable, 0.0)
        watch.refresh()
        assert watch.selected == []
        assert set(watch.last_left) == baseline

    def test_watch_validation(self, chain_db):
        engine = SproutEngine(chain_db)
        with pytest.raises(PlanningError):
            engine.watch_topk(chain_query(), k=0)
        with pytest.raises(PlanningError):
            engine.watch_threshold(chain_query(), tau=-0.5)

    def test_watch_store_is_private(self, chain_db):
        engine = SproutEngine(chain_db)
        watch = engine.watch_topk(chain_query(), k=1)
        variable = next(iter(watch.probabilities))
        watch.update_probability(variable, 0.0)
        # the engine's own evaluation is untouched by standing-space deltas
        result = engine.evaluate_topk(chain_query(), k=1)
        assert next(iter(result.relation))[-1] > 0.0

    def test_watch_topk_with_fewer_candidates_than_k(self, chain_db):
        # k past the population is a decided full answer, not an error.
        engine = SproutEngine(chain_db)
        watch = engine.watch_topk(chain_query(), k=50)
        assert watch.decided
        assert len(watch.selected) == len(watch)
        result = watch.refresh()
        assert watch.decided
        assert len(result.relation) == len(watch)

    def test_watch_deleted_to_empty_refreshes_to_decided_empty(self, chain_db):
        # Deleting every tuple must leave a decided empty answer; refresh()
        # and update_probability() keep working on the emptied standing set.
        engine = SproutEngine(chain_db)
        watch = engine.watch_topk(chain_query(), k=1)
        variable = next(iter(watch.probabilities))
        for data in list(watch.lineage):
            watch.delete_tuple(data)
        result = watch.refresh()
        assert watch.decided
        assert watch.selected == []
        assert len(result.relation) == 0
        assert result.delta_steps == 0
        watch.update_probability(variable, 0.0)
        assert watch.refresh().decided

    def test_one_shot_results_report_delta_steps(self, chain_db):
        engine = SproutEngine(chain_db)
        result = engine.evaluate_topk(chain_query(), k=2)
        assert result.delta_steps == result.refine_steps
        bounded = engine.evaluate(chain_query(), confidence="approx", epsilon=0.25)
        assert bounded.delta_steps == bounded.refine_steps
