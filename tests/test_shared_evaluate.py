"""D-tree ``evaluate`` on the engine's shared store: one refinement state.

The default in-process engine answers an approximate or exact d-tree
``evaluate`` from views over the same :class:`SharedLineageStore` its
top-k/threshold decisions refine.  The contract under test: refinement is
never redone (a repeat, or an evaluate after a decision that already closed
the lineage, costs zero steps and ``refine_steps`` counts this call only);
an approximate bracket is sound and at most ``2 * epsilon`` wide, but may be
tighter than a cold run's and never widens again; exact confidences are
bit-identical to a fresh engine's whatever ran before; ``close()`` forgets
everything; and the per-call per-tuple step cap, the exact-mode
:class:`ApproximationBudgetError` and the seeded Karp–Luby fallback are
those of the per-tuple oracle (``oracles.dtree``).
"""

import random

import pytest

from repro import SproutEngine
from repro.errors import ApproximationBudgetError
from repro.prob.dtree import canonical_clauses, dnf_from_canonical, karp_luby_probability
from repro.sprout.parallel import budget_confidence, derive_task_seed

from oracles.dtree import DTree
from test_compile_shape import unsafe_query
from test_differential_matrix import BACKENDS, CORPUS

EPSILON = 0.01


def widths(result):
    return {data: upper - lower for data, (lower, upper) in result.bounds.items()}


def assert_brackets(approx, exact, epsilon):
    """Sound (contains the exact confidence) and within the budget."""
    assert approx.bounds.keys() == exact.keys()
    for data, (lower, upper) in approx.bounds.items():
        assert lower <= exact[data] <= upper
        assert upper - lower <= 2 * epsilon
        assert lower <= approx.confidences()[data] <= upper


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("case", sorted(CORPUS))
class TestOneRefinementState:
    def engines(self, case, backend):
        build_db, make_query = CORPUS[case]
        return (
            BACKENDS[backend](build_db()),
            BACKENDS[backend](build_db()),
            make_query(),
        )

    def test_evaluate_after_a_decision_does_not_refine_again(self, case, backend):
        engine, fresh, query = self.engines(case, backend)
        with engine, fresh:
            exact = fresh.evaluate(query, plan="dtree").confidences()
            # A full ranking in exact mode closes every tuple it returns.
            ranked = engine.evaluate_topk(query, k=len(exact), plan="dtree")
            assert ranked.confidences() == exact
            approx = engine.evaluate(query, confidence="approx", epsilon=EPSILON)
            assert approx.refine_steps == approx.delta_steps == 0
            assert_brackets(approx, exact, EPSILON)
            assert engine.cache_stats()["answer_misses"] == 1

    def test_a_partial_decision_leaves_sound_brackets(self, case, backend):
        engine, fresh, query = self.engines(case, backend)
        with engine, fresh:
            exact = fresh.evaluate(query, plan="dtree").confidences()
            engine.evaluate_topk(query, k=1, plan="dtree", confidence="approx")
            approx = engine.evaluate(query, confidence="approx", epsilon=EPSILON)
            assert_brackets(approx, exact, EPSILON)
            repeat = engine.evaluate(query, confidence="approx", epsilon=EPSILON)
            assert repeat.refine_steps == 0
            assert repeat.bounds == approx.bounds
            assert repeat.confidences() == approx.confidences()

    def test_brackets_never_widen(self, case, backend):
        engine, fresh, query = self.engines(case, backend)
        with engine, fresh:
            exact = fresh.evaluate(query, plan="dtree").confidences()
            tightest = None
            for epsilon in (0.1, EPSILON, 0.1):
                result = engine.evaluate(query, confidence="approx", epsilon=epsilon)
                assert result.epsilon == epsilon
                assert_brackets(result, exact, epsilon)
                found = widths(result)
                if tightest is not None:
                    assert all(found[data] <= tightest[data] for data in found)
                tightest = found
            # The last call asked for less than the store already held.
            assert result.refine_steps == 0
            assert all(width <= 2 * EPSILON for width in tightest.values())

    def test_exact_after_anything_equals_a_fresh_engine(self, case, backend):
        engine, fresh, query = self.engines(case, backend)
        with engine, fresh:
            expected = fresh.evaluate(query, plan="dtree")
            engine.evaluate_threshold(query, tau=0.3, plan="dtree", confidence="approx")
            engine.evaluate(query, confidence="approx", epsilon=0.1)
            found = engine.evaluate(query, plan="dtree")
            assert list(found.relation.rows) == list(expected.relation.rows)
            assert found.bounds == expected.bounds
            assert found.refine_steps <= expected.refine_steps
            assert engine.evaluate(query, plan="dtree").refine_steps == 0

    def test_close_makes_the_next_evaluate_cold(self, case, backend):
        engine, fresh, query = self.engines(case, backend)
        with engine, fresh:
            cold = fresh.evaluate(query, confidence="approx", epsilon=EPSILON)
            first = engine.evaluate(query, confidence="approx", epsilon=EPSILON)
            engine.evaluate(query, plan="dtree")  # closes every tuple
            engine.close()
            again = engine.evaluate(query, confidence="approx", epsilon=EPSILON)
            for result in (first, again):
                assert result.refine_steps == cold.refine_steps
                assert result.bounds == cold.bounds
                assert result.confidences() == cold.confidences()


class TestStepCap:
    """``dtree_max_steps`` caps every tuple's expansions per call, as before."""

    def capped(self, **options):
        build_db, make_query = CORPUS["unsafe_bool"]
        return SproutEngine(build_db(), dtree_max_steps=1, **options), make_query()

    def test_exact_mode_raises(self):
        engine, query = self.capped()
        with engine, pytest.raises(ApproximationBudgetError) as caught:
            engine.evaluate(query, plan="dtree")
        assert caught.value.steps == 1
        assert caught.value.lower < caught.value.upper

    def test_no_sampling_raises_in_approx_mode_too(self):
        engine, query = self.capped(monte_carlo_samples=None)
        with engine, pytest.raises(ApproximationBudgetError):
            engine.evaluate(query, confidence="approx", epsilon=EPSILON)

    @pytest.mark.parametrize("seed", (0, 7))
    def test_approx_mode_falls_back_to_the_seeded_karp_luby_estimate(self, seed):
        engine, query = self.capped(seed=seed)
        with engine:
            result = engine.evaluate(query, confidence="approx", epsilon=EPSILON)
            assert result.refine_steps == 1
            answer = engine._answer_lineage(query, None)
            for data, (lower, upper) in result.bounds.items():
                assert upper - lower > 2 * EPSILON  # the cap really ran out
                clauses = canonical_clauses(answer.lineage[data])
                estimate = karp_luby_probability(
                    dnf_from_canonical(clauses),
                    answer.probabilities,
                    samples=engine.monte_carlo_samples,
                    rng=random.Random(derive_task_seed(seed, clauses)),
                ).estimate
                assert result.confidences()[data] == min(max(estimate, lower), upper)
                # One tuple, one step: nothing was shared, so this is the
                # per-tuple oracle's answer bit for bit.
                dnf = dnf_from_canonical(clauses)
                restricted = {v: answer.probabilities[v] for c in clauses for v in c}
                oracle = budget_confidence(
                    DTree(dnf, restricted),
                    dnf,
                    restricted,
                    epsilon=EPSILON,
                    relative=False,
                    max_steps=1,
                    monte_carlo_samples=engine.monte_carlo_samples,
                    base_seed=seed,
                )
                assert (lower, upper) == (oracle.lower, oracle.upper)
                assert result.confidences()[data] == oracle.probability
            # The cap is per call: the next call gets one more step.
            again = engine.evaluate(query, confidence="approx", epsilon=EPSILON)
            assert again.refine_steps == 1


class TestTpchLineage:
    """The same contract where sharing across tuples actually happens."""

    def test_decision_then_evaluates(self, tpch_db):
        query = unsafe_query("p_brand")
        with SproutEngine(tpch_db) as engine, SproutEngine(tpch_db) as fresh:
            exact = fresh.evaluate(query)
            cold = exact.refine_steps
            topk = engine.evaluate_topk(query, k=10)
            approx = engine.evaluate(query, confidence="approx", epsilon=EPSILON)
            assert_brackets(approx, exact.confidences(), EPSILON)
            assert 0 < approx.refine_steps < cold  # the decision paid for the rest
            repeat = engine.evaluate(query, confidence="approx", epsilon=EPSILON)
            assert repeat.refine_steps == 0
            finished = engine.evaluate(query)
            assert finished.confidences() == exact.confidences()
            assert finished.bounds == exact.bounds
            # Every step the store took was reported by exactly one call.
            spent = topk.refine_steps + approx.refine_steps + finished.refine_steps
            assert spent == engine.dtree_cache.store.steps
            stats = engine.cache_stats()
            assert (stats["answer_misses"], stats["answer_hits"]) == (1, 3)
            # Nothing here sent a delta: the store never built its index.
            assert engine.dtree_cache.store._var_index is None

    def test_an_evaluate_past_the_node_budget_leaves_decisions_correct(self, tpch_db):
        """Exact evaluates now spend the store's ``dtree_cache_size`` budget:
        one that overruns it resets the epoch and evicts the warm decision
        views.  That costs later decisions their warmth, never their answer."""
        query = unsafe_query("p_brand")
        with SproutEngine(tpch_db) as fresh:
            topk = fresh.evaluate_topk(query, k=10)
            roomy = len(fresh.dtree_cache.store.table)
        with SproutEngine(tpch_db) as fresh:
            threshold = fresh.evaluate_threshold(query, tau=0.5)
        with SproutEngine(tpch_db) as fresh:
            exact = fresh.evaluate(query)
        # Room for the decision's views, not for the exact evaluate's rows.
        with SproutEngine(tpch_db, dtree_cache_size=roomy + 50) as engine:
            store = engine.dtree_cache.store
            assert engine.evaluate_topk(query, k=10).refine_steps == topk.refine_steps
            assert store.reset_epoch == 0
            finished = engine.evaluate(query)
            assert finished.confidences() == exact.confidences()
            assert finished.bounds == exact.bounds
            assert store.reset_epoch > 0  # the evaluate overran the budget
            again = engine.evaluate_topk(query, k=10)
            assert engine.cache_stats()["evictions"] > 0  # ... and the views went
            assert again.decided and again.confidences() == topk.confidences()
            above = engine.evaluate_threshold(query, tau=0.5)
            assert above.decided and above.confidences() == threshold.confidences()
            for data, (lower, upper) in above.bounds.items():
                assert lower <= exact.confidences()[data] <= upper
            repeat = engine.evaluate(query)
            assert repeat.confidences() == exact.confidences()
