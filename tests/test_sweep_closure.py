"""Exact closure by sweep against exact closure by ranking.

``SharedDTree.refine(epsilon=0)`` closes a view with one unranked post-order
sweep (:meth:`repro.prob.sharedag.SharedLineageStore.close`); driving
``expand_once()`` until it returns False closes it through the
influence-ranked frontier.  Two fresh stores over the same random family —
lineages sharing clause blocks, so views share nodes — are closed one way
each, and must agree on everything but the nids:

* every view's root bracket, bit for bit, and every view's step count;
* the store's steps, node count and table length;
* the multiset of ``(kind, lower, upper)`` rows.

Marginals are drawn exactly 0 or 1 or within 1e-12 of either besides the
ordinary ones: zero-weight ⊙ edges, zero-gap inner rows and roots made
exact by rounding are where the two orders could part ways.  Further cases
cover a capped sweep (sound brackets, and a resumed sweep lands on the
uncapped one), a node-budget reset during a sweep, and a sibling view that
the sweep of another view tightens.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ApproximationBudgetError
from repro.prob.dtree import refine_to_budget
from repro.prob.formulas import DNF
from repro.prob.sharedag import SharedDTree, SharedLineageStore

from oracles.dtree import DTree
from oracles.lineage import dnf_probability_enumeration

TOLERANCE = 1e-9

MARGINAL = st.one_of(
    st.floats(min_value=0.05, max_value=0.95),
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1e-12),
    st.floats(min_value=1.0 - 1e-12, max_value=1.0),
)


@st.composite
def family(draw, marginal=MARGINAL):
    """2–4 DNFs over ≤ 12 variables, drawing clauses from one shared pool."""
    nvars = draw(st.integers(4, 12))
    probabilities = {v: draw(marginal) for v in range(nvars)}
    clause = st.sets(st.integers(0, nvars - 1), min_size=1, max_size=4).map(frozenset)
    pool = draw(st.lists(clause, min_size=2, max_size=8, unique=True))
    members = []
    for _ in range(draw(st.integers(2, 4))):
        shared = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True)
        )
        private = draw(st.lists(clause, min_size=0, max_size=3))
        members.append(DNF(shared + private))
    return members, probabilities


def fresh(members, probabilities, max_nodes=None):
    store = SharedLineageStore(max_nodes=max_nodes)
    for dnf in members:
        store.add_probabilities(dnf, probabilities)
    return store, [SharedDTree(store, dnf) for dnf in members]


def rank_close(view):
    """The ranked closure: the most influential open leaf, one at a time."""
    while view.expand_once():
        pass


def rows(store):
    table = store.table
    return sorted(zip(table.kind, table.lower, table.upper))


def shape(store, views):
    return (
        [view.bounds() for view in views],
        [view.steps for view in views],
        store.steps,
        store.node_count,
        len(store.table),
        rows(store),
    )


def truth(dnf, probabilities):
    return dnf_probability_enumeration(dnf, probabilities)


def assert_sound(views, members, probabilities):
    for view, dnf in zip(views, members):
        lower, upper = view.bounds()
        exact = truth(dnf, probabilities)
        assert lower - TOLERANCE <= exact <= upper + TOLERANCE


class TestSweepAgainstRanking:
    @given(family())
    @settings(max_examples=150, deadline=None)
    def test_closing_every_view_agrees_bit_for_bit(self, case):
        members, probabilities = case
        swept_store, swept = fresh(members, probabilities)
        ranked_store, ranked = fresh(members, probabilities)
        for sweep_view, rank_view in zip(swept, ranked):
            sweep_view.refine(None)
            rank_close(rank_view)
            assert shape(swept_store, swept) == shape(ranked_store, ranked)

    @given(family())
    @settings(max_examples=100, deadline=None)
    def test_closing_one_view_repairs_its_siblings_alike(self, case):
        members, probabilities = case
        swept_store, swept = fresh(members, probabilities)
        ranked_store, ranked = fresh(members, probabilities)
        swept[-1].refine(None)
        rank_close(ranked[-1])
        assert shape(swept_store, swept) == shape(ranked_store, ranked)
        assert_sound(swept, members, probabilities)

    #: Two components under one ⊕ root; the first is degenerate.  With x0
    #: and x3 impossible the chain's clause weights are (0, p1·p2, 0): a leaf
    #: whose bracket is already a point, left open by both orders.  With x8
    #: impossible the triangle factors into a ⊗ of a zero product and an open
    #: leaf: a zero-gap inner row whose leaf has zero influence, closed by
    #: both orders all the same.
    DEGENERATE = {
        "zero-gap leaf": (
            DNF([[0, 1], [1, 2], [2, 3], [4, 5], [5, 6], [6, 7]]),
            {0: 0.0, 3: 0.0},
        ),
        "zero-gap inner row": (
            DNF([[8, 9, 10], [8, 10, 11], [8, 11, 9], [4, 5], [5, 6], [6, 7]]),
            {8: 0.0},
        ),
    }

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_rows_close_as_the_ranked_frontier_runs_dry(self, name):
        dnf, overrides = self.DEGENERATE[name]
        probabilities = {v: 0.5 for v in range(12)}
        probabilities.update(overrides)
        swept_store, swept = fresh([dnf], probabilities)
        ranked_store, ranked = fresh([dnf], probabilities)
        assert swept[0].refine(None) > 0
        rank_close(ranked[0])
        assert shape(swept_store, swept) == shape(ranked_store, ranked)
        assert swept[0].result().probability == pytest.approx(truth(dnf, probabilities), abs=1e-12)


class TestCappedSweep:
    @given(family(), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_a_cap_leaves_sound_brackets_and_resumes_to_the_same_closure(self, case, cap):
        members, probabilities = case
        store, views = fresh(members, probabilities)
        reference_store, reference = fresh(members, probabilities)
        needed = reference[0].refine(None)
        performed = views[0].refine(cap)
        assert performed == min(cap, needed)
        assert store.steps == views[0].steps == performed
        assert_sound(views, members, probabilities)
        resumed = views[0].refine(None)
        assert performed + resumed == needed
        assert views[0].bounds() == reference[0].bounds()
        assert rows(store) == rows(reference_store)

    def test_refine_to_budget_raises_with_a_bracket_around_the_truth(self):
        probabilities = {v: 0.3 + 0.05 * v for v in range(8)}
        dnf = DNF([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 0]])
        _, (view,) = fresh([dnf], probabilities)
        with pytest.raises(ApproximationBudgetError) as caught:
            refine_to_budget(view, epsilon=0.0, max_steps=2)
        error = caught.value
        assert error.steps == view.steps == 2
        assert error.lower <= truth(dnf, probabilities) <= error.upper
        assert (error.lower, error.upper) == view.bounds()


class TestNodeBudget:
    DNF_ = DNF([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [0, 3]])
    PROBABILITIES = {v: 0.25 + 0.08 * v for v in range(6)}

    def test_a_reset_fires_during_the_sweep_and_the_closure_stays_exact(self):
        store, (view,) = fresh([self.DNF_], self.PROBABILITIES, max_nodes=4)
        epoch = store.reset_epoch
        view.refine(None)
        assert store.reset_epoch > epoch
        reference = refine_to_budget(DTree(self.DNF_, self.PROBABILITIES), epsilon=0.0)
        assert view.is_exact
        assert view.result().probability == reference.probability

    def test_a_pinned_sweep_defers_the_reset_to_the_unpin(self):
        store, (view,) = fresh([self.DNF_], self.PROBABILITIES, max_nodes=4)
        epoch = store.reset_epoch
        with store.pinned():
            view.refine(None)
            assert store.reset_epoch == epoch
        assert store.reset_epoch == epoch + 1
        unbudgeted, (closed,) = fresh([self.DNF_], self.PROBABILITIES)
        closed.refine(None)
        assert view.bounds() == closed.bounds()
        assert store.steps == unbudgeted.steps


class TestSiblingView:
    def test_sweeping_one_view_tightens_the_other_as_ranking_does(self):
        probabilities = {v: 0.4 for v in range(12)}
        common = [[0, 1], [1, 2], [2, 3]]
        members = [
            DNF(common + [[4, 5], [5, 6], [6, 7]]),
            DNF(common + [[8, 9], [9, 10], [10, 11]]),
        ]
        swept_store, swept = fresh(members, probabilities)
        ranked_store, ranked = fresh(members, probabilities)
        before = swept[1].bounds()
        swept[0].refine(None)
        rank_close(ranked[0])
        after = swept[1].bounds()
        assert swept[1].steps == 0
        assert after[1] - after[0] < before[1] - before[0]
        assert after == ranked[1].bounds()
        assert shape(swept_store, swept) == shape(ranked_store, ranked)
