"""The shared-lineage DAG: hash-consing, shared refinement, views, eviction.

Unit tests pin the structural guarantees (dedup idempotence, DTree-compatible
surface, cache statistics); Hypothesis properties assert, on random families
of overlapping lineages, that (a) interning is idempotent, (b) bounds of
*every* view always bracket brute-force enumeration truth no matter which
view performs the refinement, and their upper bounds never rise (lower
bounds may: see ``test_lower_bound_can_drop_but_stays_sound``), (c) the exact
probability a view compiles to is bit-identical to the per-tuple oracle
``oracles.dtree.DTree``'s, (d) views survive cache eviction
fully functional (eviction only forgets sharing, never correctness), and
(e) refinement rounds over arbitrary view subsets and widths count every
view once, however often it is named.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProbabilityError
from repro.prob.dtree import refine_to_budget
from repro.prob import sharedag
from repro.prob.formulas import DNF
from repro.prob.sharedag import (
    ClauseInterner,
    SharedDTree,
    SharedDTreeCache,
    SharedLineageStore,
)
from repro.sprout import RefinementScheduler, TupleCandidate

from oracles.dtree import DTree
from oracles.lineage import dnf_probability_enumeration
from test_differential_matrix import BACKENDS, CORPUS, _truth

TOLERANCE = 1e-9


def exact_value(dnf, probabilities):
    """The per-tuple d-tree's exact probability (the bit-level reference)."""
    tree = DTree(dnf, probabilities)
    return refine_to_budget(tree, epsilon=0.0, max_steps=None).probability


# ---------------------------------------------------------------------------
# strategies: families of lineages sharing clause blocks
# ---------------------------------------------------------------------------


@st.composite
def lineage_family(draw):
    """2–4 DNFs drawing clauses from one shared pool (≤ 7 variables).

    Clauses of two or three variables over few variables overlap, so most
    members are not read-once and their views stay open after construction:
    the refinement properties below then genuinely refine.
    """
    nvars = draw(st.integers(4, 7))
    probability = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)
    probabilities = {v: draw(probability) for v in range(nvars)}
    clause = st.sets(st.integers(0, nvars - 1), min_size=2, max_size=3).map(frozenset)
    pool = draw(st.lists(clause, min_size=3, max_size=6, unique=True))
    members = []
    for _ in range(draw(st.integers(2, 4))):
        shared = draw(
            st.lists(st.sampled_from(pool), min_size=2, max_size=len(pool), unique=True)
        )
        private = draw(st.lists(clause, min_size=0, max_size=3))
        members.append(DNF(shared + private))
    return members, probabilities


# ---------------------------------------------------------------------------
# interner
# ---------------------------------------------------------------------------


class TestClauseInterner:
    def test_interning_shares_one_object_per_clause(self):
        interner = ClauseInterner()
        first = interner.intern([3, 1, 2])
        second = interner.intern((2, 3, 1))
        assert first is second
        assert len(interner) == 1


# ---------------------------------------------------------------------------
# store: hash-consed construction
# ---------------------------------------------------------------------------


class TestStoreDedup:
    def probabilities(self):
        return {v: 0.1 * (v + 1) for v in range(8)}

    def test_same_clause_set_is_one_node(self):
        store = SharedLineageStore()
        dnf = DNF([[0, 1], [1, 2]])
        store.add_probabilities(dnf, self.probabilities())
        first = store.build_root(dnf)
        count = store.node_count
        second = store.build_root(DNF([[2, 1], [1, 0]]))
        assert first == second
        assert store.node_count == count  # dedup is free

    def test_minimisation_equivalent_roots_share(self):
        store = SharedLineageStore()
        probabilities = self.probabilities()
        a = DNF([[0, 1], [1, 2]])
        b = DNF([[0, 1], [1, 2], [0, 1, 2]])  # subsumed third clause
        store.add_probabilities(b, probabilities)
        assert store.build_root(a) == store.build_root(b)

    def test_probability_space_is_guarded(self):
        store = SharedLineageStore()
        store.add_probabilities(DNF([[0, 1]]), {0: 0.5, 1: 0.5})
        with pytest.raises(ProbabilityError):
            store.add_probabilities(DNF([[1, 2]]), {1: 0.9, 2: 0.5})
        with pytest.raises(ProbabilityError):
            store.add_probabilities(DNF([[3]]), {})

    def test_view_requires_probabilities_upfront(self):
        # DTree call-compatibility: a missing marginal is a structured
        # ProbabilityError at construction, never a KeyError from build().
        store = SharedLineageStore()
        store.add_probabilities(DNF([[0, 1]]), {0: 0.5, 1: 0.5})
        with pytest.raises(ProbabilityError):
            SharedDTree(store, DNF([[0, 2]]))

    def test_expand_requires_a_leaf(self):
        store = SharedLineageStore()
        dnf = DNF([[0]])
        store.add_probabilities(dnf, {0: 0.5})
        with pytest.raises(ProbabilityError):
            store.expand_leaf(store.build_root(dnf))

    @given(lineage_family())
    @settings(max_examples=40, deadline=None)
    def test_dedup_is_idempotent(self, family):
        members, probabilities = family
        store = SharedLineageStore()
        for dnf in members:
            store.add_probabilities(dnf, probabilities)
        roots = [store.build_root(dnf) for dnf in members]
        count = store.node_count
        again = [store.build_root(dnf) for dnf in members]
        assert all(a == b for a, b in zip(roots, again))
        assert store.node_count == count


# ---------------------------------------------------------------------------
# shared refinement: sound, upper-monotone, bit-identical at closure
# ---------------------------------------------------------------------------


class TestSharedRefinement:
    @given(lineage_family(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_bounds_monotone_and_sound_under_any_interleaving(self, family, rng):
        """Every bracket contains the truth at every step; no upper bound rises.

        Lower bounds are deliberately not compared step to step: a leaf's
        greedy disjoint-clause pick can get worse after a Shannon step (the
        regression case below), so "the lower bound never drops" is false.
        Upper-bound monotonicity held on 2 000 examples of this strategy.
        """
        members, probabilities = family
        cache = SharedDTreeCache()
        views = [cache.get(dnf, probabilities) for dnf in members]
        truths = [dnf_probability_enumeration(dnf, probabilities) for dnf in members]
        uppers = []
        for truth, view in zip(truths, views):
            lower, upper = view.bounds()
            assert lower - TOLERANCE <= truth <= upper + TOLERANCE
            uppers.append(upper)
        for _ in range(60):
            view = rng.choice(views)
            if not view.expand_once():
                continue
            for index, other in enumerate(views):
                lower, upper = other.bounds()
                assert upper <= uppers[index] + 1e-12, "upper bound widened"
                assert lower - TOLERANCE <= truths[index] <= upper + TOLERANCE
                uppers[index] = upper

    def test_lower_bound_can_drop_but_stays_sound(self):
        """Pinned from PR 17: one Shannon step lowers this root's lower bound.

        The bracket goes [0.6484, 0.7144] -> [0.6094, 0.6924] -> 0.671875.
        What the engine promises, and what is asserted, is soundness at every
        step and exactness at closure — not that the lower bound only rises.
        """
        dnf = DNF([[0, 1, 5], [0, 3], [1, 2], [4, 5]])
        probabilities = {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5, 5: 0.75}
        truth = dnf_probability_enumeration(dnf, probabilities)
        view = SharedDTreeCache().get(dnf, probabilities)
        previous_upper = 1.0
        while True:
            lower, upper = view.bounds()
            assert lower - TOLERANCE <= truth <= upper + TOLERANCE
            assert upper <= previous_upper + 1e-12
            previous_upper = upper
            if not view.expand_once():
                break
        assert view.is_exact
        assert view.bounds() == (truth, truth) == (0.671875, 0.671875)
        assert view.result().probability == exact_value(dnf, probabilities)

    @given(lineage_family())
    @settings(max_examples=40, deadline=None)
    def test_exact_closure_is_bit_identical_to_dtree(self, family):
        members, probabilities = family
        cache = SharedDTreeCache()
        for dnf in members:
            view = cache.get(dnf, probabilities)
            view.refine(None)
            assert view.is_exact
            assert view.result().probability == exact_value(dnf, probabilities)

    def test_refinement_through_one_view_serves_the_other(self):
        probabilities = {v: 0.4 for v in range(12)}
        # a and b share the variable-disjoint clause block `common`, so both
        # roots decompose into an ⊕ over components and the `common`
        # component is one shared node under both.
        common = [[0, 1], [1, 2], [2, 3]]
        a = DNF(common + [[4, 5], [5, 6], [6, 7]])
        b = DNF(common + [[8, 9], [9, 10], [10, 11]])
        cache = SharedDTreeCache()
        view_a = cache.get(a, probabilities)
        view_b = cache.get(b, probabilities)
        before = view_b.bounds()
        view_a.refine(None)  # compile a to exactness through view a only
        assert view_a.is_exact
        # Closing the shared component under a tightened b's root bracket
        # without b spending a single step of its own.
        after = view_b.bounds()
        assert view_b.steps == 0
        assert after[1] - after[0] < before[1] - before[0]
        spent = view_b.refine(None)
        assert view_b.is_exact
        assert view_b.result().probability == exact_value(b, probabilities)
        # ... and b needed fewer expansions than a cold compilation takes.
        cold = DTree(b, probabilities)
        refine_to_budget(cold, epsilon=0.0, max_steps=None)
        assert spent < cold.steps

    def test_width1_rounds_drive_views_to_closure(self):
        probabilities = {v: 0.35 + 0.05 * (v % 5) for v in range(12)}
        members = [
            DNF([[i, i + 1] for i in range(0, 6)]),
            DNF([[i, i + 1] for i in range(3, 9)]),
            DNF([[i, i + 1] for i in range(6, 11)]),
        ]
        cache = SharedDTreeCache()
        views = [cache.get(dnf, probabilities) for dnf in members]
        store = cache.store
        performed = 0
        while any(not view.is_exact for view in views) and performed < 10_000:
            gating = [view for view in views if not view.is_exact]
            advanced = store.refine_round(gating, 1)
            assert advanced == 1, "open views must always yield an expansion"
            performed += advanced
        assert performed == store.steps
        for dnf, view in zip(members, views):
            assert view.result().probability == exact_value(dnf, probabilities)
        assert store.refine_round(views, 1) == 0  # everything closed


# ---------------------------------------------------------------------------
# cache: statistics, LRU, node-count eviction, view isolation
# ---------------------------------------------------------------------------


class TestSharedDTreeCache:
    def test_hit_returns_the_same_view(self):
        cache = SharedDTreeCache()
        probabilities = {v: 0.5 for v in range(4)}
        dnf = DNF([[0, 1], [1, 2], [2, 3]])
        first = cache.get(dnf, probabilities)
        second = cache.get(DNF([[2, 3], [1, 2], [0, 1]]), probabilities)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_max_entries_is_lru(self, monkeypatch):
        monkeypatch.setattr(sharedag, "MAX_ENTRIES", 2)
        cache = SharedDTreeCache()
        probabilities = {v: 0.5 for v in range(9)}
        for start in (0, 3, 6):
            cache.get(DNF([[start, start + 1], [start + 1, start + 2]]), probabilities)
        assert len(cache) == 2

    def test_a_state_with_the_retired_max_entries_key_restores(self):
        """States written while the view-table bound was a constructor
        argument carry ``max_entries``; restore ignores it and stays warm."""
        cache = SharedDTreeCache()
        probabilities = {v: 0.5 for v in range(4)}
        dnf = DNF([[0, 1], [1, 2], [2, 3]])
        cache.get(dnf, probabilities).expand_once()
        state = cache.export_state()
        assert "max_entries" not in state
        state["max_entries"] = 2
        reborn = SharedDTreeCache.from_state(pickle.loads(pickle.dumps(state)))
        assert not hasattr(reborn, "max_entries")
        assert reborn.store.table.bounds_fingerprint() == cache.store.table.bounds_fingerprint()
        view = reborn.get(dnf, probabilities)
        assert (reborn.hits, reborn.misses) == (1, 1)
        assert view.bounds() == cache.get(dnf, probabilities).bounds()

    def test_validation(self):
        with pytest.raises(TypeError):
            SharedDTreeCache(max_entries=2)
        with pytest.raises(ProbabilityError):
            SharedDTreeCache(max_nodes=0)

    def test_clear_resets_everything(self):
        cache = SharedDTreeCache()
        cache.get(DNF([[0, 1]]), {0: 0.5, 1: 0.5})
        cache.clear()
        assert len(cache) == 0 and cache.misses == 0
        assert cache.store.node_count == 0
        cache.get(DNF([[0, 1]]), {0: 0.9, 1: 0.5})  # new space is fine now

    @given(lineage_family())
    @settings(max_examples=40, deadline=None)
    def test_views_stay_isolated_and_correct_after_eviction(self, family):
        members, probabilities = family
        # A node budget small enough that every build overflows it: the
        # store's intern table is reset between gets, so each view loses all
        # sharing with the others — and must still be exactly correct.
        cache = SharedDTreeCache(max_nodes=1)
        views = [cache.get(dnf, probabilities) for dnf in members]
        for dnf, view in zip(members, views):
            spent = view.refine(None)
            assert spent >= 0 and view.is_exact
            assert view.result().probability == exact_value(dnf, probabilities)

    def test_eviction_resets_the_interner_too(self):
        # Regression: the clause interner grows with every distinct clause
        # ever extracted, so the node-budget reset must drop it alongside
        # the intern table or engine memory would not actually be bounded.
        probabilities = {v: 0.45 for v in range(7)}
        cache = SharedDTreeCache(max_nodes=1)
        cache.interner.intern([0, 1])
        before = cache.interner
        # Two independent components: ⊕ root + two closed children = 3
        # interned nodes, overflowing the 1-node budget for the next get.
        cache.get(DNF([[0, 1], [2, 3]]), probabilities)
        assert cache.store.node_count > 1
        cache.get(DNF([[4, 5]]), probabilities)  # triggers the reset
        assert cache.interner is not before
        assert len(cache.interner) == 0

    def test_eviction_forgets_sharing_but_not_live_refinement(self):
        probabilities = {v: 0.45 for v in range(12)}
        # Four chain components: construction alone makes ⊕ + 4 open leaves
        # = 5 interned nodes, overflowing the 4-node budget at the next get.
        dnf = DNF([[i, i + 1] for i in range(0, 11, 3)] + [[i + 1, i + 2] for i in range(0, 11, 3)])
        cache = SharedDTreeCache(max_nodes=4)
        view = cache.get(dnf, probabilities)
        assert cache.store.node_count > 4
        cache.get(DNF([[0, 1]]), probabilities)  # triggers reset + view clear
        fresh = cache.get(dnf, probabilities)  # rebuilt: the view table was reset
        assert fresh is not view
        view.refine(None)
        fresh.refine(None)
        assert view.result().probability == fresh.result().probability
        assert view.result().probability == exact_value(dnf, probabilities)

    def test_node_budget_bounds_the_table_during_refinement(self):
        # Regression: one giant compilation must not grow the intern table
        # arbitrarily far past the budget between cache accesses — the store
        # enforces it after every expansion.
        probabilities = {v: 0.45 for v in range(20)}
        dnf = DNF([[i, i + 1] for i in range(19)])
        cache = SharedDTreeCache(max_nodes=8)
        view = cache.get(dnf, probabilities)
        view.refine(None)
        assert view.is_exact
        assert view.result().probability == exact_value(dnf, probabilities)
        # Far more than 8 nodes were created along the way; the table was
        # reset whenever an expansion overflowed it, so the retained table
        # ends within budget (the expansion check is the last node-creating
        # operation of the refinement).
        assert len(cache.store.table) > 8
        assert len(cache.store._nodes) <= 8


# ---------------------------------------------------------------------------
# scheduler integration: decided sets are the ones enumeration justifies
# ---------------------------------------------------------------------------


class TestSharedScheduling:
    def build_candidates(self, members, probabilities):
        cache = SharedDTreeCache()
        return [
            TupleCandidate((index,), tree=cache.get(dnf, probabilities))
            for index, dnf in enumerate(members)
        ], cache.store

    @given(lineage_family(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_topk_selects_a_set_enumeration_justifies(self, family, k):
        members, probabilities = family
        truths = {
            (index,): dnf_probability_enumeration(dnf, probabilities)
            for index, dnf in enumerate(members)
        }
        candidates, store = self.build_candidates(members, probabilities)
        outcome = RefinementScheduler(candidates, store).run_topk(k)
        assert outcome.decided
        selected = {c.data for c in outcome.selected}
        assert len(selected) == min(k, len(members))
        for data in selected:
            for other in set(truths) - selected:
                assert truths[data] >= truths[other] - TOLERANCE
        for candidate in outcome.candidates:
            truth = truths[candidate.data]
            assert candidate.lower - TOLERANCE <= truth <= candidate.upper + TOLERANCE

    @given(lineage_family(), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_threshold_partitions_like_enumeration(self, family, tau):
        members, probabilities = family
        truths = {
            (index,): dnf_probability_enumeration(dnf, probabilities)
            for index, dnf in enumerate(members)
        }
        candidates, store = self.build_candidates(members, probabilities)
        outcome = RefinementScheduler(candidates, store).run_threshold(tau)
        assert outcome.decided
        selected = {c.data for c in outcome.selected}
        for data, truth in truths.items():
            if truth >= tau + TOLERANCE:
                assert data in selected
            elif truth < tau - TOLERANCE:
                assert data not in selected

    def test_shared_budget_exhaustion_reports_undecided(self):
        probabilities = {v: 0.5 for v in range(20)}
        members = [
            DNF([[i, i + 1] for i in range(0, 8)]),
            DNF([[i, i + 1] for i in range(10, 18)]),
        ]
        candidates, store = self.build_candidates(members, probabilities)
        outcome = RefinementScheduler(candidates, store, max_steps=0).run_topk(1)
        assert not outcome.decided
        assert outcome.steps == 0


# ---------------------------------------------------------------------------
# refinement rounds: view subsets, widths, duplicates, identical lineage
# ---------------------------------------------------------------------------


def build_views(members, probabilities):
    store = SharedLineageStore()
    views = []
    for dnf in members:
        store.add_probabilities(dnf, probabilities)
        views.append(SharedDTree(store, dnf))
    return store, views


class TestRefinementRounds:
    """The store primitive under arbitrary round interleavings.

    Two stores are built from the same lineage family.  Each round draws a
    view subset and a width; one store is handed the subset twice over, the
    other with every repeat removed.  A view named twice must count once, so
    the stores must agree *after every round*: advanced count, global step
    meter, raw bound columns, and each view's bracket and step count.
    """

    @given(lineage_family(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_interleaved_rounds_count_each_view_once(self, family, data):
        members, probabilities = family
        named_store, named_views = build_views(members, probabilities)
        once_store, once_views = build_views(members, probabilities)
        assert (
            named_store.table.bounds_fingerprint()
            == once_store.table.bounds_fingerprint()
        )
        for _ in range(data.draw(st.integers(1, 8))):
            chosen = data.draw(
                st.lists(
                    st.integers(0, len(members) - 1),
                    min_size=1,
                    max_size=2 * len(members),
                )
            )
            width = data.draw(st.integers(1, 4))
            advanced_named = named_store.refine_round(
                [named_views[i] for i in chosen + chosen], width
            )
            advanced_once = once_store.refine_round(
                [once_views[i] for i in dict.fromkeys(chosen)], width
            )
            assert advanced_named == advanced_once
            assert named_store.steps == once_store.steps
            assert named_store.node_count == once_store.node_count
            assert (
                named_store.table.bounds_fingerprint()
                == once_store.table.bounds_fingerprint()
            )
        for named_view, once_view in zip(named_views, once_views):
            assert named_view.bounds() == once_view.bounds()
            assert named_view.steps == once_view.steps

    def test_identical_lineage_candidates_do_not_alias_in_plan_round(self):
        """Two views over one lineage each absorb every expansion once.

        Distinct views of one root both contribute to the round plan (their
        scores add up) and each counts the expansion; the same view named
        twice is processed once, so its step count never runs ahead of the
        store's.
        """
        clauses = [[j, j + 1] for j in range(10)]
        probabilities = {j: 0.4 for j in range(11)}
        store, (twin_a, twin_b) = build_views(
            [DNF(clauses), DNF(clauses)], probabilities
        )
        assert twin_a.root == twin_b.root and twin_a is not twin_b
        assert store.plan_round([twin_a, twin_a], 4) == store.plan_round([twin_a], 4)
        rounds = 0
        while store.refine_round([twin_a, twin_b, twin_a, twin_b], 2):
            rounds += 1
            assert twin_a.steps == twin_b.steps == store.steps
            assert twin_a.bounds() == twin_b.bounds()
        assert rounds > 0
        assert twin_a.is_exact and twin_b.is_exact
        assert twin_a.result().probability == exact_value(DNF(clauses), probabilities)

    def test_identical_lineage_candidates_decide_identically(self):
        """τ=0.7 sits inside the twins' construction bracket (~[0.58, 0.83]),
        so both must genuinely refine before the threshold decides."""
        clauses = [[j, j + 1] for j in range(10)]
        probabilities = {j: 0.4 for j in range(11)}
        cache = SharedDTreeCache()
        candidates = [
            TupleCandidate(data, tree=cache.get(DNF(clauses), probabilities))
            for data in (("twin_a",), ("twin_b",))
        ]
        outcome = RefinementScheduler(candidates, cache.store, max_steps=64).run_threshold(0.7)
        assert outcome.steps > 0
        twin_a, twin_b = outcome.candidates
        assert (twin_a.lower, twin_a.upper) == (twin_b.lower, twin_b.upper)


# ---------------------------------------------------------------------------
# one-shot engine views: first-peek frontier measurement
# ---------------------------------------------------------------------------


def _decision_fingerprint(case, confidence, backend):
    """One fresh engine's complete decision state for ``case``, as plain data:
    decided sets (via the sorted confidence items), confidences, bounds,
    per-call step counts, the store's global step meter and its raw
    IEEE-754 bound columns, which subsume every per-tuple bracket."""
    build_db, make_query = CORPUS[case]
    truth = _truth(case)
    tau = sorted(truth.values())[len(truth) // 2] if truth else 0.5
    engine = BACKENDS[backend](build_db())
    try:
        top = engine.evaluate_topk(make_query(), k=2, plan="dtree", confidence=confidence)
        threshold = engine.evaluate_threshold(
            make_query(), tau=tau, plan="dtree", confidence=confidence
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


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("case", sorted(CORPUS))
@pytest.mark.parametrize("confidence", ["exact", "approx"])
def test_first_peek_frontier_matches_measuring_at_construction(
    case, confidence, backend, monkeypatch
):
    """One-shot engine views: lazy first measurement ≡ eager at construction.

    A view's first frontier is measured at its first peek, possibly against a
    table other views refined since it was built (the threshold call runs
    over the store the top-k call refined).  Peeking every view the moment
    it is constructed is the eager behaviour; step counts and the raw bound
    columns must not tell the two apart, whichever pipeline (the engine's or
    the row oracle's) built the views and in whatever order it handed them over.
    """
    lazy = _decision_fingerprint(case, confidence, backend)
    init = SharedDTree._init_frontier

    def measure_at_construction(view):
        init(view)
        view._peek()

    monkeypatch.setattr(SharedDTree, "_init_frontier", measure_at_construction)
    assert _decision_fingerprint(case, confidence, backend) == lazy
