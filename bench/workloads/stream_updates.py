"""``stream_updates``: one warm standing top-10 fed with deltas.

A standing top-10 over ``p_type`` at SF 0.01 (150 candidates, 10 100
variables), rebuilt untimed before each pass.  One operation is a tick: 32
``update_probability`` calls and one ``refresh``; every 8th tick also deletes
and re-inserts a candidate.  It uses the shared store for writes where
``unsafe_cold`` uses it for cold reads: ``prob.delta``, node-table
propagation and ``sprout.streaming`` do the work, planner and operators do
none.

The seed orders a fixed set of updates; it does not draw them.  Drawing
variables and values from the seed moved tick p50 by 40 % between seeds,
which is workload, not noise.  With the set fixed, every seed moves the same
variables to the same values and ends a pass in the same state.
"""

from __future__ import annotations

import random
from time import perf_counter

from harness import Workload, digest, probe
from repro import Atom, ConjunctiveQuery
from repro.sprout import SproutEngine
from repro.sprout.streaming import StandingQuery
from repro.tpch import probabilistic_tpch
from workloads.unsafe_cold import SWEEP_METRICS, sweep_metrics

K = 10
UPDATES_PER_TICK = 32
RESHAPE_EVERY = 8


def type_query():
    return ConjunctiveQuery(
        "standing_types",
        [
            Atom("part", ["partkey", "p_type"]),
            Atom("partsupp", ["partkey", "suppkey"]),
            Atom("supplier", ["suppkey"]),
        ],
        projection=["p_type"],
    )


class StreamUpdates(Workload):
    name = "stream_updates"

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.scale = 0.001 if smoke else 0.01
        self.ticks = 16 if smoke else 160
        self.engine = self.watch = None

    def build_watch(self):
        return self.engine.watch_topk(type_query(), k=K)

    def setup(self):
        self.db = probabilistic_tpch(self.scale, seed=7, probability_seed=11)
        self.engine = SproutEngine(self.db, execution="batch")
        self.watch = self.build_watch()

    def begin_pass(self):
        self.watch = self.build_watch()

    def schedule(self, seed):
        fixed = random.Random(0)
        variables = sorted(self.watch.probabilities)
        count = min(len(variables), self.ticks * UPDATES_PER_TICK)
        updates = [(v, fixed.uniform(0.01, 1.0)) for v in fixed.sample(variables, count)]
        candidates = sorted(self.watch.lineage, key=repr)
        reshapes = fixed.sample(candidates, min(len(candidates), self.ticks // RESHAPE_EVERY))
        order = random.Random(seed)
        order.shuffle(updates)
        order.shuffle(reshapes)
        per_tick = len(updates) // self.ticks
        ticks = []
        for tick in range(self.ticks):
            reshape = None
            if tick % RESHAPE_EVERY == RESHAPE_EVERY - 1 and reshapes:
                reshape = reshapes.pop()
            ticks.append((updates[tick * per_tick : (tick + 1) * per_tick], reshape))
        return ticks

    def run_op(self, op):
        updates, reshape = op
        watch = self.watch
        for variable, probability in updates:
            watch.update_probability(variable, probability)
        if reshape is not None:
            lineage = watch.lineage[reshape]
            watch.delete_tuple(reshape)
            watch.insert_tuple(reshape, lineage)
        return watch.refresh()

    def digest(self, op, result):
        return digest(([tuple(row) for row in result.relation], result.decided))

    def cross_check(self, ops, results):
        """From-scratch recompute: a fresh standing query compiled from the
        post-delta state must give the warm one's answer bit for bit."""
        watch = self.watch
        fresh = StandingQuery(dict(watch.lineage), dict(watch.probabilities), k=K)
        same = watch.selected == fresh.selected and [
            tuple(row) for row in watch.result.relation
        ] == [tuple(row) for row in fresh.result.relation]
        return [] if same else ["warm answer differs from a fresh standing query's"]

    def probes(self, recorder, ops, values, absent):
        def cold_build():
            started = perf_counter()
            self.build_watch()
            return {"sprout.streaming.cold_build_ms": (perf_counter() - started) * 1000.0}

        probe(values, absent, ["sprout.streaming.cold_build_ms"], cold_build)
        probe(values, absent, SWEEP_METRICS, lambda: sweep_metrics(self.watch._store.table))


WORKLOAD = StreamUpdates
