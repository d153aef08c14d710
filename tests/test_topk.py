"""The bound-driven top-k/threshold subsystem.

Unit tests pin the scheduler's decision rules on hand-built candidates;
engine-level tests check both routes (exact operator short-circuit for
tractable queries, multi-tuple d-tree refinement otherwise) against
brute-force world enumeration; Hypothesis properties assert that on random
small tuple-independent databases ``evaluate_topk(k)`` returns exactly the k
most probable tuples and ``evaluate_threshold(tau)`` partitions correctly,
for every k and a spread of τ.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Atom, ConjunctiveQuery, PlanningError, ProbabilisticDatabase, SproutEngine
from repro.errors import ProbabilityError
from repro.prob.dtree import canonical_clauses
from repro.prob.formulas import DNF
from repro.prob.sharedag import SharedDTreeCache, SharedLineageStore
from repro.sprout import RefinementScheduler, TupleCandidate
from repro.sprout.parallel import compute_confidences, derive_task_seed
from repro.storage import Relation, Schema

from oracles.rows import RowEngine
from oracles.worlds import enumerate_truth

TOLERANCE = 1e-9


def chain_query(projection=("a",)):
    """q(a) :- R(a, x), S(x, y), T(y): unsafe (x and y cross atoms)."""
    return ConjunctiveQuery(
        "chain",
        [Atom("R", ["a", "x"]), Atom("S", ["x", "y"]), Atom("T", ["y"])],
        projection=list(projection),
    )


def build_chain_database(r_rows, r_probs, s_rows, s_probs, t_probs):
    db = ProbabilisticDatabase("chain-db")
    db.add_table(Relation("R", Schema.of("a:int", "x:int"), r_rows), probabilities=r_probs)
    db.add_table(Relation("S", Schema.of("x:int", "y:int"), s_rows), probabilities=s_probs)
    t_rows = [(i,) for i in range(len(t_probs))]
    db.add_table(Relation("T", Schema.of("y:int"), t_rows), probabilities=t_probs)
    return db


@pytest.fixture
def chain_db():
    return build_chain_database(
        [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2), (3, 1)],
        [0.8, 0.3, 0.6, 0.4, 0.5, 0.7, 0.25],
        [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 0)],
        [0.45, 0.85, 0.3, 0.6, 0.2, 0.75],
        [0.9, 0.35],
    )


def assert_valid_topk(selected_confidences, truth, k):
    """``selected`` must be *a* valid top-k set of ``truth`` (tie-tolerant)."""
    assert len(selected_confidences) == min(k, len(truth))
    if not selected_confidences:
        return
    rest = sorted(
        (conf for data, conf in truth.items() if data not in selected_confidences),
        reverse=True,
    )
    weakest_in = min(truth[data] for data in selected_confidences)
    if rest:
        assert rest[0] <= weakest_in + TOLERANCE, (
            f"excluded tuple with confidence {rest[0]} beats selected {weakest_in}"
        )


class TestScheduler:
    def test_candidate_needs_tree_xor_value(self):
        with pytest.raises(PlanningError):
            TupleCandidate((1,))
        with pytest.raises(PlanningError):
            TupleCandidate((1,), tree=SharedDTreeCache().get(DNF([[0]]), {0: 0.5}), value=0.5)

    def test_exact_candidates_decide_without_refinement(self):
        candidates = [
            TupleCandidate((i,), value=p) for i, p in enumerate([0.9, 0.5, 0.1])
        ]
        outcome = RefinementScheduler(candidates, SharedLineageStore()).run_topk(2)
        assert outcome.decided
        assert outcome.steps == 0
        assert [c.data for c in outcome.selected] == [(0,), (1,)]

    def test_k_at_least_population_selects_everything(self):
        candidates = [TupleCandidate((i,), value=0.5) for i in range(3)]
        outcome = RefinementScheduler(candidates, SharedLineageStore()).run_topk(5)
        assert outcome.decided
        assert len(outcome.selected) == 3

    def test_threshold_partitions_exact_candidates(self):
        candidates = [
            TupleCandidate((i,), value=p) for i, p in enumerate([0.9, 0.5, 0.1])
        ]
        outcome = RefinementScheduler(candidates, SharedLineageStore()).run_threshold(0.5)
        assert outcome.decided
        assert {c.data for c in outcome.selected} == {(0,), (1,)}  # conf >= tau is in

    def test_budget_exhaustion_reports_undecided(self):
        # Two path-shaped DNFs (adjacent clauses share a variable): neither
        # decomposes at construction, so their identical brackets overlap.
        clauses_a = [[i, i + 1] for i in range(0, 8)]
        clauses_b = [[i, i + 1] for i in range(10, 18)]
        probabilities = {i: 0.5 for i in range(20)}
        cache = SharedDTreeCache()
        candidates = [
            TupleCandidate(("a",), tree=cache.get(DNF(clauses_a), probabilities)),
            TupleCandidate(("b",), tree=cache.get(DNF(clauses_b), probabilities)),
        ]
        outcome = RefinementScheduler(candidates, cache.store, max_steps=0).run_topk(1)
        assert not outcome.decided
        assert outcome.steps == 0
        assert len(outcome.selected) == 1

    def test_validation(self):
        candidate = [TupleCandidate((0,), value=0.5)]
        store = SharedLineageStore()
        with pytest.raises(PlanningError):
            RefinementScheduler(candidate, store, max_steps=-1)
        with pytest.raises(PlanningError):
            RefinementScheduler(candidate, store).run_topk(0)
        with pytest.raises(PlanningError):
            RefinementScheduler(candidate, store).run_threshold(1.5)


class TestEngineTopK:
    def test_unsafe_query_routes_to_scheduler(self, chain_db):
        engine = SproutEngine(chain_db)
        query = chain_query()
        assert not engine.is_tractable(query)
        truth = enumerate_truth(chain_db, query)
        result = engine.evaluate_topk(query, k=2)
        assert result.plan_style == "dtree"
        assert result.decided
        assert result.k == 2 and result.tau is None
        selected = result.confidences()
        assert_valid_topk(selected, truth, 2)
        # Exact mode refines the selected tuples all the way.
        for data, confidence in selected.items():
            assert confidence == pytest.approx(truth[data], abs=TOLERANCE)
        # Brackets cover every candidate, not just the winners.
        assert set(result.bounds) == set(truth)
        for data, (lower, upper) in result.bounds.items():
            assert lower - TOLERANCE <= truth[data] <= upper + TOLERANCE

    def test_result_is_sorted_most_probable_first(self, chain_db):
        engine = SproutEngine(chain_db)
        result = engine.evaluate_topk(chain_query(), k=3)
        confidences = [row[-1] for row in result.relation]
        assert confidences == sorted(confidences, reverse=True)

    def test_engine_matches_the_row_oracle(self, chain_db):
        row = RowEngine(chain_db).evaluate_topk(chain_query(), k=2)
        batch = SproutEngine(chain_db).evaluate_topk(chain_query(), k=2)
        assert set(batch.confidences()) == set(row.confidences())

    def test_threshold_partition(self, chain_db):
        engine = SproutEngine(chain_db)
        query = chain_query()
        truth = enumerate_truth(chain_db, query)
        tau = 0.35
        result = engine.evaluate_threshold(query, tau=tau)
        assert result.decided
        assert result.tau == tau and result.k is None
        expected = {data for data, conf in truth.items() if conf >= tau - TOLERANCE}
        ambiguous = {
            data for data, conf in truth.items() if abs(conf - tau) <= TOLERANCE
        }
        assert expected - ambiguous <= set(result.confidences()) <= expected | ambiguous

    def test_threshold_bounds_clear_tau(self, chain_db):
        engine = SproutEngine(chain_db)
        tau = 0.35
        result = engine.evaluate_threshold(chain_query(), tau=tau)
        selected = set(result.confidences())
        for data, (lower, upper) in result.bounds.items():
            if data in selected:
                assert lower >= tau - TOLERANCE
            else:
                assert upper < tau + TOLERANCE

    def test_safe_query_short_circuits(self, chain_db):
        engine = SproutEngine(chain_db)
        safe = ConjunctiveQuery(
            "safe", [Atom("R", ["a", "x"])], projection=["a"]
        )
        truth = enumerate_truth(chain_db, safe)
        result = engine.evaluate_topk(safe, k=2)
        assert result.plan_style == "lazy"
        assert result.decided
        assert result.refine_steps == 0
        assert_valid_topk(result.confidences(), truth, 2)
        threshold = engine.evaluate_threshold(safe, tau=0.5, plan="eager")
        assert threshold.plan_style == "eager"
        expected = {data for data, conf in truth.items() if conf >= 0.5}
        assert set(threshold.confidences()) == expected

    def test_forced_dtree_plan_matches_short_circuit(self, chain_db):
        engine = SproutEngine(chain_db)
        safe = ConjunctiveQuery(
            "safe2", [Atom("R", ["a", "x"]), Atom("S", ["x", "y"])], projection=["a"]
        )
        assert engine.is_tractable(safe)
        fast = engine.evaluate_topk(safe, k=2)
        scheduled = engine.evaluate_topk(safe, k=2, plan="dtree")
        assert fast.plan_style != "dtree" and scheduled.plan_style == "dtree"
        assert set(fast.confidences()) == set(scheduled.confidences())

    def test_exact_ties_resolve_identically_on_every_route(self):
        # Three identically probable candidates fight for k=2: the winner of
        # the tie must not depend on answer-row order (engine vs row oracle) or on
        # the route (scheduler vs exact short-circuit) — all tie-break on the
        # data tuple's repr.
        db = ProbabilisticDatabase("ties")
        db.add_table(
            Relation("Obs", Schema.of("sensor:str"), [("a",), ("b",), ("c",)]),
            probabilities=[0.5, 0.5, 0.5],
        )
        query = ConjunctiveQuery("tied", [Atom("Obs", ["sensor"])], projection=["sensor"])
        engines = {"engine": SproutEngine(db), "rows": RowEngine(db)}
        selections = {
            (plan, backend): frozenset(
                engine.evaluate_topk(query, k=2, plan=plan).confidences()
            )
            for plan in ("lazy", "dtree")
            for backend, engine in engines.items()
        }
        assert len(set(selections.values())) == 1

    def test_approx_mode_reports_midpoints_within_bounds(self, chain_db):
        engine = SproutEngine(chain_db)
        result = engine.evaluate_topk(chain_query(), k=2, confidence="approx")
        assert result.decided
        truth = enumerate_truth(chain_db, chain_query())
        assert_valid_topk(result.confidences(), truth, 2)
        for data, confidence in result.confidences().items():
            lower, upper = result.bounds[data]
            assert lower - TOLERANCE <= confidence <= upper + TOLERANCE

    def test_budget_exhaustion_is_reported_not_raised(self, chain_db):
        engine = SproutEngine(chain_db)
        result = engine.evaluate_topk(
            chain_query(), k=1, confidence="approx", max_steps=0
        )
        assert isinstance(result.decided, bool)
        assert result.refine_steps == 0

    def test_shared_cache_reuses_refinement(self, chain_db):
        engine = SproutEngine(chain_db)
        first = engine.evaluate_topk(chain_query(), k=2)
        assert engine.dtree_cache.misses > 0
        hits_before = engine.dtree_cache.hits
        second = engine.evaluate_topk(chain_query(), k=2)
        assert engine.dtree_cache.hits > hits_before
        # Trees arrive already refined: the repeat decision costs no new steps.
        assert second.refine_steps == 0
        assert set(second.confidences()) == set(first.confidences())

    def test_validation(self, chain_db):
        engine = SproutEngine(chain_db)
        with pytest.raises(PlanningError):
            engine.evaluate_topk(chain_query(), k=0)
        with pytest.raises(PlanningError):
            engine.evaluate_threshold(chain_query(), tau=-0.1)
        with pytest.raises(PlanningError):
            engine.evaluate_threshold(chain_query(), tau=1.5)
        with pytest.raises(TypeError):
            engine.evaluate_topk(chain_query(), k=1, execution="warp")

    @pytest.mark.parametrize("epsilon", (float("nan"), float("inf"), float("-inf"), -0.5))
    def test_epsilon_must_be_finite_and_non_negative(self, chain_db, epsilon):
        with pytest.raises(PlanningError, match="epsilon"):
            SproutEngine(chain_db, epsilon=epsilon)
        with SproutEngine(chain_db) as engine:
            with pytest.raises(PlanningError, match="epsilon"):
                engine.evaluate(chain_query(), confidence="approx", epsilon=epsilon)
            # Rejected before any lineage was looked at, let alone refined.
            assert engine.cache_stats()["answer_misses"] == 0
            assert engine.dtree_cache.store.steps == 0


class TestSeedDerivation:
    """The Karp–Luby fallback's per-tuple seed (shared by every route)."""

    def test_stable_and_distinct(self):
        clauses_a = canonical_clauses(DNF([[1, 2], [3]]))
        clauses_b = canonical_clauses(DNF([[1, 2], [4]]))
        assert derive_task_seed(7, clauses_a) == derive_task_seed(7, clauses_a)
        assert derive_task_seed(7, clauses_a) != derive_task_seed(7, clauses_b)
        assert derive_task_seed(7, clauses_a) != derive_task_seed(8, clauses_a)
        assert derive_task_seed(None, clauses_a) is None

    def test_canonical_form_is_order_independent(self):
        assert canonical_clauses(DNF([[2, 1], [3]])) == canonical_clauses(
            DNF([[3], [1, 2]])
        )


def test_missing_probability_is_a_probability_error():
    """A lineage variable without a marginal is a structured error, raised
    before anything is compiled into the store."""
    cache = SharedDTreeCache()
    with pytest.raises(ProbabilityError):
        compute_confidences({(1,): DNF([[0, 1]])}, {0: 0.5}, cache)
    assert len(cache.store.table) == 0


@st.composite
def chain_database(draw):
    """A random small R(a,x) ⋈ S(x,y) ⋈ T(y) instance (≤ 13 variables)."""
    probability = st.floats(min_value=0.05, max_value=0.95)
    r_rows = sorted(
        {
            (draw(st.integers(0, 2)), draw(st.integers(0, 1)))
            for _ in range(draw(st.integers(1, 5)))
        }
    )
    s_rows = sorted(
        {
            (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
            for _ in range(draw(st.integers(1, 4)))
        }
    )
    t_size = draw(st.integers(1, 2))
    return build_chain_database(
        r_rows,
        [draw(probability) for _ in r_rows],
        s_rows,
        [draw(probability) for _ in s_rows],
        [draw(probability) for _ in range(t_size)],
    )


class TestTopKProperties:
    @given(chain_database(), st.integers(1, 4), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_topk_matches_brute_force(self, db, k, approx):
        engine = SproutEngine(db)
        query = chain_query()
        truth = enumerate_truth(db, query)
        result = engine.evaluate_topk(
            query, k=k, confidence="approx" if approx else "exact"
        )
        assert result.decided
        assert_valid_topk(result.confidences(), truth, k)
        for data, (lower, upper) in result.bounds.items():
            assert lower - TOLERANCE <= truth[data] <= upper + TOLERANCE

    @given(chain_database(), st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=25, deadline=None)
    def test_threshold_matches_brute_force(self, db, tau):
        engine = SproutEngine(db)
        query = chain_query()
        truth = enumerate_truth(db, query)
        result = engine.evaluate_threshold(query, tau=tau)
        assert result.decided
        selected = set(result.confidences())
        for data, confidence in truth.items():
            if confidence >= tau + TOLERANCE:
                assert data in selected
            elif confidence < tau - TOLERANCE:
                assert data not in selected

    @given(chain_database(), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_scheduled_route_agrees_with_exact_selection(self, db, k):
        """Forcing the scheduler on any query matches its exact selection."""
        engine = SproutEngine(db)
        query = chain_query()
        truth = enumerate_truth(db, query)
        result = engine.evaluate_topk(query, k=k, plan="dtree")
        assert_valid_topk(result.confidences(), truth, k)
        for data, confidence in result.confidences().items():
            assert confidence == pytest.approx(truth[data], abs=TOLERANCE)
