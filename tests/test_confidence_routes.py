"""The in-process confidence route and its determinism contract.

Plain d-tree evaluation (:mod:`repro.sprout.parallel`) refines views of the
engine's shared store, and bound-driven decisions (top-k, threshold) run the
one serial scheduler of :mod:`repro.sprout.topk` over the same views.  The
per-tuple oracle (``oracles.dtree``) compiles one fresh, isolated d-tree per
answer tuple.  Pinned here:

* evaluation is reproducible across fresh engines, on the engine and on the
  row oracle (``oracles.rows``), returns
  the oracle's exact confidences bit for bit — also over a store an
  approximate call warmed first — and keeps its brackets in budget; the
  oracle itself matches possible-world enumeration;
* the Karp–Luby fallback of a capped evaluation is seeded per tuple, so it
  is reproducible and always inside the sound bracket;
* decisions are bit-identical on the engine and the row oracle and across
  fresh engines, agree with enumerated truth, and report — never raise —
  an exhausted budget;
* multi-round refinement over heavy lineage replays the same trajectory.
"""

import pytest

from repro import Atom, ConjunctiveQuery, ProbabilisticDatabase, SproutEngine
from repro.prob import DNF
from repro.prob.sharedag import SharedDTreeCache
from repro.sprout import RefinementScheduler, TupleCandidate
from repro.storage import Relation, Schema

from oracles.dtree import oracle_evaluate
from oracles.worlds import enumerate_truth
from test_differential_matrix import BACKENDS, CORPUS, _truth

TOLERANCE = 1e-9
EPSILON = 0.01


def unsafe_chain_query(projection=("a",)):
    return ConjunctiveQuery(
        "chain",
        [Atom("R", ["a", "x"]), Atom("S", ["x", "y"]), Atom("T", ["y"])],
        projection=list(projection),
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


def result_fingerprint(result):
    """Everything that must be bit-identical between equivalent runs."""
    return (
        tuple(result.relation.rows),
        tuple(sorted(result.confidences().items(), key=lambda i: repr(i[0]))),
        tuple(sorted(result.bounds.items(), key=lambda i: repr(i[0]))),
        result.refine_steps,
        result.decided,
    )


# ---------------------------------------------------------------------------
# plain evaluation: the shared store against the per-tuple oracle and the truth
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_evaluate_is_reproducible_and_matches_the_oracle(case):
    """Fresh engines return the same bits, engine and row oracle alike, and their
    exact confidences are the per-tuple oracle's; over a store an
    approximate call warmed first, the exact call still returns the oracle's
    bits, and the approximate brackets hold them within the budget."""
    build_db, make_query = CORPUS[case]
    oracle = {d: r.probability for d, r in oracle_evaluate(build_db(), make_query()).items()}
    fingerprints = {}
    for _ in range(2):
        for backend, make_engine in BACKENDS.items():
            for confidence in ("exact", "approx"):
                with make_engine(build_db(), epsilon=EPSILON) as engine:
                    result = engine.evaluate(make_query(), plan="dtree", confidence=confidence)
                fingerprint = result_fingerprint(result)
                fingerprints.setdefault((backend, confidence), fingerprint)
                assert fingerprints[backend, confidence] == fingerprint
            assert dict(fingerprints[backend, "exact"][1]) == oracle
    for make_engine in BACKENDS.values():
        # Approximate first: after the exact call the store would be closed.
        with make_engine(build_db(), epsilon=EPSILON) as engine:
            approx = engine.evaluate(make_query(), plan="dtree", confidence="approx")
            exact = engine.evaluate(make_query(), plan="dtree")
        assert exact.confidences() == oracle
        assert approx.bounds.keys() == oracle.keys()
        for data, (lower, upper) in approx.bounds.items():
            assert lower <= oracle[data] <= upper
            assert upper - lower <= 2 * EPSILON


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_per_tuple_oracle_matches_enumeration(case):
    """The isolated per-tuple trees stay pinned to possible-world truth."""
    build_db, make_query = CORPUS[case]
    truth = _truth(case)
    exact = oracle_evaluate(build_db(), make_query())
    assert set(exact) == set(truth)
    for data, expected in truth.items():
        assert exact[data].probability == pytest.approx(expected, abs=TOLERANCE)
    approx = oracle_evaluate(build_db(), make_query(), epsilon=EPSILON)
    for data, expected in truth.items():
        assert abs(approx[data].probability - expected) <= EPSILON + TOLERANCE
        assert approx[data].lower - TOLERANCE <= expected <= approx[data].upper + TOLERANCE


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("case", sorted(CORPUS))
def test_capped_evaluation_falls_back_reproducibly(case, backend):
    """Where one expansion per tuple is too few for a tight budget, the point
    estimate is the seeded Karp–Luby fallback clamped into the bracket: a
    fresh engine with the same seed reports the same bits, and every
    estimate lies within its sound bracket."""
    build_db, make_query = CORPUS[case]
    truth = _truth(case)
    options = {
        "dtree_max_steps": 1,
        "monte_carlo_samples": 400,
        "seed": 3,
    }
    fingerprints = []
    for _ in range(2):
        with BACKENDS[backend](build_db(), **options) as engine:
            result = engine.evaluate(
                make_query(), plan="dtree", confidence="approx", epsilon=1e-6
            )
        fingerprints.append(result_fingerprint(result))
        assert set(result.confidences()) == set(truth)
        for data, estimate in result.confidences().items():
            lower, upper = result.bounds[data]
            assert lower <= estimate <= upper
            assert lower - TOLERANCE <= truth[data] <= upper + TOLERANCE
    assert fingerprints[0] == fingerprints[1]


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_decisions_over_a_warm_store_agree_with_fresh_engines(case):
    """Evaluating first leaves a refined store behind; the decisions taken
    over it must select what fresh engines select, with the same exact
    confidences for the top-k winners."""
    build_db, make_query = CORPUS[case]
    truth = _truth(case)
    tau = sorted(truth.values())[len(truth) // 2] if truth else 0.5
    with SproutEngine(build_db()) as warm:
        warm.evaluate(make_query(), plan="dtree", confidence="approx", epsilon=0.05)
        warm_top = warm.evaluate_topk(make_query(), k=2, plan="dtree")
        warm_threshold = warm.evaluate_threshold(make_query(), tau=tau, plan="dtree")
    with SproutEngine(build_db()) as cold:
        cold_top = cold.evaluate_topk(make_query(), k=2, plan="dtree")
    with SproutEngine(build_db()) as cold:
        cold_threshold = cold.evaluate_threshold(make_query(), tau=tau, plan="dtree")
    assert warm_top.decided and warm_threshold.decided
    assert set(warm_top.confidences()) == set(cold_top.confidences())
    for data, confidence in warm_top.confidences().items():
        assert confidence == pytest.approx(cold_top.confidences()[data], abs=TOLERANCE)
    assert set(warm_threshold.confidences()) == set(cold_threshold.confidences())


# ---------------------------------------------------------------------------
# decisions: the serial scheduler over the shared store
# ---------------------------------------------------------------------------


class TestDecisions:
    # 2^19 possible worlds: enumerate_truth keeps the truth for the session.

    def test_topk_is_identical_on_the_engine_and_the_row_oracle(self, chain_db):
        fingerprints = set()
        for make_engine in BACKENDS.values():
            with make_engine(chain_db) as engine:
                result = engine.evaluate_topk(unsafe_chain_query(), k=2)
            assert result.decided
            fingerprints.add(result_fingerprint(result))
        assert len(fingerprints) == 1

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_topk_agrees_with_truth(self, chain_db, backend):
        query = unsafe_chain_query()
        truth = enumerate_truth(chain_db, query)
        with BACKENDS[backend](chain_db) as engine:
            result = engine.evaluate_topk(query, k=2)
        assert result.decided
        assert set(result.confidences()) == set(
            sorted(truth, key=lambda data: (-truth[data], repr(data)))[:2]
        )
        # Exact mode refines the winners all the way.
        for data, confidence in result.confidences().items():
            assert confidence == pytest.approx(truth[data], abs=TOLERANCE)
        for data, (lower, upper) in result.bounds.items():
            assert lower - TOLERANCE <= truth[data] <= upper + TOLERANCE

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_threshold_agrees_with_truth(self, chain_db, backend):
        query = unsafe_chain_query()
        truth = enumerate_truth(chain_db, query)
        tau = 0.35
        with BACKENDS[backend](chain_db) as engine:
            result = engine.evaluate_threshold(query, tau=tau)
        assert result.decided
        selected = set(result.confidences())
        for data, confidence in truth.items():
            if confidence >= tau + TOLERANCE:
                assert data in selected
            elif confidence < tau - TOLERANCE:
                assert data not in selected

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_approx_mode_reports_midpoints_within_bounds(self, chain_db, backend):
        with BACKENDS[backend](chain_db) as engine:
            result = engine.evaluate_topk(
                unsafe_chain_query(), k=2, confidence="approx"
            )
        assert result.decided
        for data, confidence in result.confidences().items():
            lower, upper = result.bounds[data]
            assert lower - TOLERANCE <= confidence <= upper + TOLERANCE

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_budget_exhaustion_is_reported_not_raised(self, chain_db, backend):
        with BACKENDS[backend](chain_db) as engine:
            result = engine.evaluate_topk(
                unsafe_chain_query(), k=1, confidence="approx", max_steps=0
            )
        assert isinstance(result.decided, bool)
        assert result.refine_steps == 0

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("confidence", ("exact", "approx"))
    def test_decisions_are_reproducible_across_fresh_engines(
        self, chain_db, confidence, backend
    ):
        """The full fingerprint — confidences, bounds, decided sets and step
        counts — of a top-k and a threshold decision on fresh engines."""
        query = unsafe_chain_query()
        prints = []
        for _ in range(2):
            with BACKENDS[backend](chain_db) as engine:
                top = engine.evaluate_topk(query, k=2, confidence=confidence)
            with BACKENDS[backend](chain_db) as engine:
                threshold = engine.evaluate_threshold(
                    query, tau=0.35, confidence=confidence
                )
            assert top.decided and threshold.decided
            prints.append((result_fingerprint(top), result_fingerprint(threshold)))
        assert prints[0] == prints[1]


class TestSchedulerRuns:
    def heavy_lineage(self):
        """Candidates whose path-shaped DNFs need many Shannon cobranches.

        Adjacent clauses share a variable, so nothing decomposes at
        construction and the scheduler must run genuine refinement rounds.
        """
        lineage = {}
        probabilities = {}
        for index in range(6):
            base = index * 12
            lineage[(index,)] = DNF([[base + j, base + j + 1] for j in range(10)])
            for j in range(12):
                probabilities[base + j] = 0.3 + 0.04 * ((index + j) % 10)
        return lineage, probabilities

    def scheduler_fingerprint(self, outcome):
        return (
            tuple((c.data, c.lower, c.upper, c.tree.steps) for c in outcome.candidates),
            tuple(c.data for c in outcome.selected),
            outcome.decided,
            outcome.steps,
        )

    def run(self, goal):
        lineage, probabilities = self.heavy_lineage()
        cache = SharedDTreeCache()
        candidates = [
            TupleCandidate(data, tree=cache.get(dnf, probabilities))
            for data, dnf in lineage.items()
        ]
        scheduler = RefinementScheduler(candidates, cache.store, max_steps=600)
        return scheduler.run_topk(3) if goal == "topk" else scheduler.run_threshold(0.87)

    @pytest.mark.parametrize("goal", ("topk", "threshold"))
    def test_multi_round_refinement_replays_the_same_trajectory(self, goal):
        """A budget-capped top-k or threshold decision over non-closing
        trees, run twice from scratch: bounds, per-candidate step counts,
        total steps and decidedness must be identical."""
        first = self.run(goal)
        assert first.steps > 0, "the check needs real refinement rounds"
        second = self.run(goal)
        assert self.scheduler_fingerprint(first) == self.scheduler_fingerprint(second)
