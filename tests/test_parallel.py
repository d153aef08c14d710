"""The parallel confidence executor and its determinism contract.

The headline guarantee: on a fresh engine, the executor routes — the serial
backend (``workers=0`` with ``shared_lineage=False``), ``workers=1`` and
``workers=4`` (process pools) — produce *bit-identical* results — same tuple
sets, same confidences, same bounds, same step counts — across the
differential corpus, for exact and approximate confidence, under both the
row and the columnar backend; the default in-process engine, which refines
its shared store instead, agrees with them on every exact confidence and
keeps approximate brackets sound and within budget.  Plus: executor units,
round-based top-k/threshold scheduling, and the regression tests that a
worker failure surfaces a structured
:class:`repro.errors.ParallelExecutionError` instead of hanging the engine.
"""

import os
import time

import pytest

from repro import (
    Atom,
    ConjunctiveQuery,
    PlanningError,
    ProbabilisticDatabase,
    SproutEngine,
)
from repro.errors import ParallelExecutionError, ProbabilityError
from repro.prob import DNF, confidences_by_enumeration
from repro.prob.dtree import canonical_clauses
from repro.sprout import evaluate_deterministic
from repro.sprout.parallel import (
    ConfidenceExecutor,
    ConfidenceTask,
    ParallelRefinementScheduler,
    ProcessExecutor,
    SerialExecutor,
    compute_confidences,
    derive_task_seed,
    partition_tasks,
)
from repro.storage import Relation, Schema

from test_differential_matrix import CORPUS

TOLERANCE = 1e-9
EPSILON = 0.01
WORKER_COUNTS = (0, 1, 4)


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
    """Everything that must be bit-identical across worker counts."""
    return (
        tuple(result.relation.rows),
        tuple(sorted(result.confidences().items(), key=lambda i: repr(i[0]))),
        tuple(sorted(result.bounds.items(), key=lambda i: repr(i[0]))),
        result.refine_steps,
        result.decided,
    )


# ---------------------------------------------------------------------------
# executor units
# ---------------------------------------------------------------------------


class TestSeedDerivation:
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


class TestExecutors:
    def make_tasks(self):
        return [
            ConfidenceTask(
                key=key,
                clauses=canonical_clauses(dnf),
                probabilities={v: 0.1 * (v + 1) for v in dnf.variables()},
            )
            for key, dnf in enumerate(
                [DNF([[0]]), DNF([[0, 1], [1, 2]]), DNF([[3], [4]])]
            )
        ]

    def test_create_dispatch(self):
        assert isinstance(ConfidenceExecutor.create(0), SerialExecutor)
        assert isinstance(ConfidenceExecutor.create(2), ProcessExecutor)
        with pytest.raises(PlanningError):
            ConfidenceExecutor.create(-1)
        with pytest.raises(PlanningError):
            ProcessExecutor(0)

    def test_serial_and_process_agree(self):
        tasks = self.make_tasks()
        serial = SerialExecutor().run(tasks)
        with ProcessExecutor(2) as executor:
            parallel = executor.run(tasks)
        assert [
            (o.key, o.lower, o.upper, o.probability, o.steps, o.exact) for o in serial
        ] == [
            (o.key, o.lower, o.upper, o.probability, o.steps, o.exact) for o in parallel
        ]

    def test_partitioning_is_contiguous_and_complete(self):
        tasks = self.make_tasks() * 4
        partitions = partition_tasks(tasks, 5)
        assert [t.key for p in partitions for t in p] == [t.key for t in tasks]
        assert len(partitions) == 5
        assert max(len(p) for p in partitions) - min(len(p) for p in partitions) <= 1
        assert partition_tasks(tasks, 100) == [[t] for t in tasks]

    def test_missing_probability_is_a_probability_error(self):
        with pytest.raises(ProbabilityError):
            compute_confidences({(1,): DNF([[0, 1]])}, {0: 0.5}, SerialExecutor())


class TestWorkerFailure:
    """A failing or dying worker must surface structured errors, not hang.

    The failures are injected by monkeypatching ``execute_task`` *before*
    the (lazily created) pool exists: the fork start method hands the
    patched module to every worker.
    """

    def healthy_task(self):
        return ConfidenceTask(key=0, clauses=((0,),), probabilities={0: 0.5})

    def test_worker_exception_is_structured(self, monkeypatch):
        import repro.sprout.parallel as parallel

        def explode(task):
            raise RuntimeError(f"injected worker failure for task {task.key}")

        monkeypatch.setattr(parallel, "execute_task", explode)
        with ProcessExecutor(2) as executor:
            outcome = executor.run([self.healthy_task()])[0]
            assert outcome.kind == "error"
            assert "injected worker failure" in outcome.error

    def test_engine_raises_parallel_execution_error(self, chain_db, monkeypatch):
        # Inject the failure at the task layer the engine drives through.
        import repro.sprout.parallel as parallel

        def explode(task):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(parallel, "execute_task", explode)
        # The serial backend drives the same layer (the per-tuple route).
        engine = SproutEngine(chain_db, workers=0, shared_lineage=False)
        with pytest.raises(ParallelExecutionError) as caught:
            engine.evaluate(unsafe_chain_query(), plan="dtree")
        assert caught.value.worker_error is not None

    def test_dead_worker_raises_promptly_and_pool_recovers(self, monkeypatch):
        import repro.sprout.parallel as parallel

        original = parallel.execute_task

        def die(task):
            os._exit(3)

        monkeypatch.setattr(parallel, "execute_task", die)
        executor = ProcessExecutor(2)
        try:
            started = time.time()
            with pytest.raises(ParallelExecutionError) as caught:
                executor.run([self.healthy_task()])
            assert time.time() - started < 60, "worker death must not hang"
            assert caught.value.worker_error is not None
            # The broken pool was discarded: with the sabotage removed, the
            # next run forks a fresh pool and works again.
            monkeypatch.setattr(parallel, "execute_task", original)
            outcome = executor.run([self.healthy_task()])[0]
            assert outcome.exact and outcome.probability == pytest.approx(0.5)
        finally:
            executor.close()


# ---------------------------------------------------------------------------
# engine-level differential matrix: workers=0/1/4 bit-identical
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_evaluate_bit_identical_across_worker_counts(case):
    """The 6-query corpus, exact and approx, row and batch: the executor
    routes return the same bits; the shared in-process route the same exact
    confidences, and brackets that hold them within the budget."""
    build_db, make_query = CORPUS[case]
    fingerprints = {}
    for workers in WORKER_COUNTS:
        options = {"epsilon": EPSILON, "workers": workers, "shared_lineage": False}
        with SproutEngine(build_db(), **options) as engine:
            for execution in ("row", "batch"):
                for confidence in ("exact", "approx"):
                    result = engine.evaluate(
                        make_query(),
                        plan="dtree",
                        execution=execution,
                        confidence=confidence,
                    )
                    key = (execution, confidence)
                    fingerprint = result_fingerprint(result)
                    if key in fingerprints:
                        assert fingerprints[key] == fingerprint, (
                            f"{case}/{execution}/{confidence}: workers={workers} "
                            f"diverged from a smaller worker count"
                        )
                    else:
                        fingerprints[key] = fingerprint
    for execution in ("row", "batch"):
        exact = dict(fingerprints[execution, "exact"][1])
        options = {"epsilon": EPSILON, "workers": 0, "shared_lineage": True}
        # Approximate first: after the exact call the store would be closed.
        with SproutEngine(build_db(), execution=execution, **options) as engine:
            approx = engine.evaluate(make_query(), plan="dtree", confidence="approx")
            shared = engine.evaluate(make_query(), plan="dtree")
        assert shared.confidences() == exact
        assert approx.bounds.keys() == exact.keys()
        for data, (lower, upper) in approx.bounds.items():
            assert lower <= exact[data] <= upper
            assert upper - lower <= 2 * EPSILON


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_evaluate_matches_enumeration_in_parallel(case):
    """Parallel results stay pinned to brute-force possible-world truth."""
    build_db, make_query = CORPUS[case]
    truth = confidences_by_enumeration(
        build_db(), lambda instance: evaluate_deterministic(make_query(), instance)
    )
    with SproutEngine(build_db(), epsilon=EPSILON, workers=2) as engine:
        exact = engine.evaluate(make_query(), plan="dtree")
        assert set(exact.confidences()) == set(truth)
        for data, expected in truth.items():
            assert exact.confidences()[data] == pytest.approx(expected, abs=TOLERANCE)
        approx = engine.evaluate(make_query(), plan="dtree", confidence="approx")
        for data, expected in truth.items():
            assert abs(approx.confidences()[data] - expected) <= EPSILON + TOLERANCE
            lower, upper = approx.bounds[data]
            assert lower - TOLERANCE <= expected <= upper + TOLERANCE


# ---------------------------------------------------------------------------
# round-based top-k / threshold
# ---------------------------------------------------------------------------


class TestParallelTopK:
    def enumerate_truth(self, db, query):
        return confidences_by_enumeration(
            db, lambda instance: evaluate_deterministic(query, instance)
        )

    def test_topk_identical_across_pool_sizes(self, chain_db):
        query = unsafe_chain_query()
        fingerprints = []
        for workers in (1, 4):
            with SproutEngine(chain_db, workers=workers) as engine:
                for execution in ("row", "batch"):
                    result = engine.evaluate_topk(query, k=2, execution=execution)
                    assert result.decided
                    fingerprints.append(result_fingerprint(result))
        assert len(set(fingerprints)) == 1

    def test_topk_agrees_with_serial_scheduler_and_truth(self, chain_db):
        query = unsafe_chain_query()
        truth = self.enumerate_truth(chain_db, query)
        with SproutEngine(chain_db, workers=2) as engine:
            parallel = engine.evaluate_topk(query, k=2)
        serial = SproutEngine(chain_db, workers=0).evaluate_topk(query, k=2)
        assert parallel.decided and serial.decided
        assert set(parallel.confidences()) == set(serial.confidences())
        # Exact mode refines the winners all the way, on both routes.
        for data, confidence in parallel.confidences().items():
            assert confidence == pytest.approx(truth[data], abs=TOLERANCE)
        for data, (lower, upper) in parallel.bounds.items():
            assert lower - TOLERANCE <= truth[data] <= upper + TOLERANCE

    def test_threshold_identical_across_pool_sizes(self, chain_db):
        query = unsafe_chain_query()
        truth = self.enumerate_truth(chain_db, query)
        tau = 0.35
        fingerprints = []
        for workers in (1, 4):
            with SproutEngine(chain_db, workers=workers) as engine:
                result = engine.evaluate_threshold(query, tau=tau)
                assert result.decided
                fingerprints.append(result_fingerprint(result))
                selected = set(result.confidences())
                for data, confidence in truth.items():
                    if confidence >= tau + TOLERANCE:
                        assert data in selected
                    elif confidence < tau - TOLERANCE:
                        assert data not in selected
        assert len(set(fingerprints)) == 1

    def test_approx_mode_reports_midpoints_within_bounds(self, chain_db):
        with SproutEngine(chain_db, workers=2) as engine:
            result = engine.evaluate_topk(
                unsafe_chain_query(), k=2, confidence="approx"
            )
        assert result.decided
        for data, confidence in result.confidences().items():
            lower, upper = result.bounds[data]
            assert lower - TOLERANCE <= confidence <= upper + TOLERANCE

    def test_budget_exhaustion_is_reported_not_raised(self, chain_db):
        with SproutEngine(chain_db, workers=2) as engine:
            result = engine.evaluate_topk(
                unsafe_chain_query(), k=1, confidence="approx", max_steps=0
            )
        assert isinstance(result.decided, bool)
        assert result.refine_steps == 0

    def test_shared_parallel_bit_identical_to_serial(self, chain_db):
        """Shared lineage + workers 0/1/4: one decision, bit-for-bit.

        The shared-parallel route ships the whole compiled store segment to
        one worker, which runs the very same ``run_decision`` routine the
        serial route runs — so on fresh engines the *full* fingerprint
        (confidences, bounds, decided sets, and step counts) must match
        exactly, not just the answer sets."""
        query = unsafe_chain_query()
        for confidence in ("exact", "approx"):
            topk_prints = []
            threshold_prints = []
            for workers in WORKER_COUNTS:
                with SproutEngine(
                    chain_db, workers=workers, shared_lineage=True
                ) as engine:
                    top = engine.evaluate_topk(query, k=2, confidence=confidence)
                    assert top.decided
                    topk_prints.append(result_fingerprint(top))
                with SproutEngine(
                    chain_db, workers=workers, shared_lineage=True
                ) as engine:
                    threshold = engine.evaluate_threshold(
                        query, tau=0.35, confidence=confidence
                    )
                    assert threshold.decided
                    threshold_prints.append(result_fingerprint(threshold))
            assert len(set(topk_prints)) == 1, confidence
            assert len(set(threshold_prints)) == 1, confidence

    def test_shared_parallel_budget_exhaustion_is_reported(self, chain_db):
        with SproutEngine(chain_db, workers=2, shared_lineage=True) as engine:
            result = engine.evaluate_topk(
                unsafe_chain_query(), k=1, confidence="approx", max_steps=0
            )
            assert result.refine_steps == 0
        with SproutEngine(chain_db, workers=0, shared_lineage=True) as engine:
            serial = engine.evaluate_topk(
                unsafe_chain_query(), k=1, confidence="approx", max_steps=0
            )
        assert result_fingerprint(result) == result_fingerprint(serial)

    def test_per_tuple_parallel_route_still_selectable(self, chain_db):
        """``shared_lineage=False`` keeps the round-based frontier scheduler
        reachable from the engine (the pre-shared parallel behaviour)."""
        query = unsafe_chain_query()
        fingerprints = []
        for workers in (1, 4):
            with SproutEngine(
                chain_db, workers=workers, shared_lineage=False
            ) as engine:
                result = engine.evaluate_topk(query, k=2)
                assert result.decided
                fingerprints.append(result_fingerprint(result))
        assert len(set(fingerprints)) == 1

    def test_scheduler_validation(self, chain_db):
        scheduler = lambda **kw: ParallelRefinementScheduler(  # noqa: E731
            {(1,): DNF([[0]])}, {0: 0.5}, SerialExecutor(), **kw
        )
        with pytest.raises(PlanningError):
            scheduler(chunk=0)
        with pytest.raises(PlanningError):
            scheduler(frontier=0)
        with pytest.raises(PlanningError):
            scheduler(max_steps=-1)
        with pytest.raises(PlanningError):
            scheduler().run_topk(0)
        with pytest.raises(PlanningError):
            scheduler().run_threshold(1.5)

    def test_k_at_least_population_selects_everything(self):
        scheduler = ParallelRefinementScheduler(
            {(i,): DNF([[i]]) for i in range(3)},
            {i: 0.2 * (i + 1) for i in range(3)},
            SerialExecutor(),
        )
        outcome = scheduler.run_topk(5)
        assert outcome.decided and len(outcome.selected) == 3

    def heavy_lineage(self):
        """Candidates whose path-shaped DNFs need many Shannon cobranches.

        Adjacent clauses share a variable, so nothing decomposes at
        construction and the scheduler must run genuine refinement rounds —
        the regime where warm-vs-cold worker placement once leaked into the
        step accounting.
        """
        lineage = {}
        probabilities = {}
        for index in range(6):
            base = index * 12
            lineage[(index,)] = DNF(
                [[base + j, base + j + 1] for j in range(10)]
            )
            for j in range(12):
                probabilities[base + j] = 0.3 + 0.04 * ((index + j) % 10)
        return lineage, probabilities

    def scheduler_fingerprint(self, outcome):
        return (
            tuple((c.data, c.lower, c.upper, c.steps) for c in outcome.candidates),
            tuple(c.data for c in outcome.selected),
            outcome.decided,
            outcome.steps,
        )

    def test_multi_round_refinement_is_placement_independent(self):
        """Regression: steps/bounds must not depend on which worker was warm.

        Runs the same budget-capped top-k three times on a 4-worker pool and
        once serially; with non-closing trees the pool's task placement
        varies run to run, and every fingerprint (bounds, per-candidate step
        counts, total steps, decidedness) must still be identical.
        """
        lineage, probabilities = self.heavy_lineage()
        fingerprints = set()
        serial = ParallelRefinementScheduler(
            lineage, probabilities, SerialExecutor(), max_steps=600
        ).run_topk(3)
        fingerprints.add(self.scheduler_fingerprint(serial))
        assert serial.steps > 0, "the regression needs real refinement rounds"
        for _ in range(3):
            with ProcessExecutor(4) as executor:
                outcome = ParallelRefinementScheduler(
                    lineage, probabilities, executor, max_steps=600
                ).run_topk(3)
            fingerprints.add(self.scheduler_fingerprint(outcome))
        assert len(fingerprints) == 1, "scheduler diverged across runs/pools"

    def test_identical_lineage_candidates_do_not_alias(self):
        """Regression: two tuples with the same DNF must refine independently.

        The worker tree cache is keyed by candidate, not by clauses: were it
        clause-keyed, the second twin could come back with bounds refined
        past its granted target on whichever worker was warm.
        """
        clauses = [[j, j + 1] for j in range(10)]
        lineage = {("twin_a",): DNF(clauses), ("twin_b",): DNF(clauses)}
        probabilities = {j: 0.4 for j in range(11)}
        fingerprints = set()
        for executor in (SerialExecutor(), ProcessExecutor(2), ProcessExecutor(2)):
            with executor:
                # τ=0.7 sits inside the construction bracket (~[0.58, 0.83]),
                # so both twins must genuinely refine before deciding.
                outcome = ParallelRefinementScheduler(
                    lineage, probabilities, executor, max_steps=64
                ).run_threshold(0.7)
            assert outcome.steps > 0
            fingerprints.add(self.scheduler_fingerprint(outcome))
            twins = {c.data: c for c in outcome.candidates}
            assert (
                twins[("twin_a",)].lower,
                twins[("twin_a",)].upper,
                twins[("twin_a",)].steps,
            ) == (
                twins[("twin_b",)].lower,
                twins[("twin_b",)].upper,
                twins[("twin_b",)].steps,
            ), "identical lineage must yield identical (independent) brackets"
        assert len(fingerprints) == 1


# ---------------------------------------------------------------------------
# engine-level plumbing
# ---------------------------------------------------------------------------


class TestEngineKnobs:
    def test_workers_validation(self, chain_db):
        with pytest.raises(PlanningError):
            SproutEngine(chain_db, workers=-1)
        engine = SproutEngine(chain_db)
        with pytest.raises(PlanningError):
            engine.evaluate(unsafe_chain_query(), workers=-2)

    def test_env_var_default(self, chain_db, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert SproutEngine(chain_db).workers == 3
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert SproutEngine(chain_db).workers == 0
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(PlanningError):
            SproutEngine(chain_db)
        monkeypatch.delenv("REPRO_WORKERS")
        assert SproutEngine(chain_db).workers == 0

    def test_per_call_override_beats_engine_default(self, chain_db):
        with SproutEngine(chain_db, workers=2) as engine:
            serial = engine.evaluate(unsafe_chain_query(), plan="dtree", workers=0)
            pooled = engine.evaluate(unsafe_chain_query(), plan="dtree")
            assert result_fingerprint(serial) == result_fingerprint(pooled)

    def test_close_is_idempotent_and_reentrant(self, chain_db):
        engine = SproutEngine(chain_db, workers=2)
        engine.evaluate(unsafe_chain_query(), plan="dtree")
        engine.close()
        engine.close()
        # An executor is re-created on demand after close().
        engine.evaluate(unsafe_chain_query(), plan="dtree")
        engine.close()

    @pytest.mark.skipif(os.cpu_count() is None, reason="cpu_count unavailable")
    def test_tractable_exact_topk_ignores_workers(self, chain_db):
        safe = ConjunctiveQuery("safe", [Atom("R", ["a", "x"])], projection=["a"])
        with SproutEngine(chain_db, workers=2) as engine:
            result = engine.evaluate_topk(safe, k=2)
        assert result.plan_style == "lazy"
        assert result.refine_steps == 0
