"""``service_mix``: a real ``python -m repro.service`` under a closed loop.

The server is a subprocess at ``--dataset tpch --scale 0.01``.  Two client
connections in one generator process each run a fixed schedule and wait for
every reply before sending the next request: callers of this service wait
for answers, and the machine has two cores.  Per client and pass: 50 % warm
repeat top-k and threshold over four SQL texts, 20 % approximate evaluate,
10 % safe evaluate, 20 % updates on the client's own subscription, each
update followed later in the pass by its inverse, so a pass ends in the
state it started from.  This is the only workload where ``service.http``,
admission and queue wait in ``service.core``, JSON payloads and warm-store
hits carry the cost.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from harness import ROOT, Workload, digest, probe, scrubbed_env, span_metrics
from repro.service.client import RetryPolicy, ServiceClient
from repro.tpch import probabilistic_tpch

CLIENTS = 2
TEXTS = [
    f"SELECT {columns}, conf() FROM part, partsupp, supplier WHERE ps_availqty < 1000"
    for columns in ("p_brand", "p_type", "p_container", "p_brand, p_size")
]
SAFE_TEXTS = [
    "SELECT n_name, conf() FROM nation, region WHERE r_name = 'EUROPE'",
    "SELECT c_mktsegment, conf() FROM customer, orders WHERE o_orderdate < '1993-01-01'",
]
SUBSCRIPTION = "SELECT p_type, conf() FROM part, partsupp, supplier WHERE ps_availqty < 3000"
K = 10
TAU = 0.5
# Requests per client and pass, by kind: 30 warm, 12 approximate, 6 safe and
# 6 update/inverse pairs make the 50/20/10/20 mix over 60 requests.
MIX = {"warm": 30, "approx": 12, "safe": 6, "update_pairs": 6}


def send(client, subscription, kind, argument):
    """One request through the client's route helpers."""
    if kind == "topk":
        return client.topk(argument, K)
    if kind == "threshold":
        return client.threshold(argument, TAU)
    if kind == "approx":
        return client.evaluate(argument, confidence="approx", epsilon=0.01)
    if kind == "safe":
        return client.evaluate(argument)
    variable, probability = argument
    return client.update(subscription, variable, probability)


def execute(service, subscription, kind, argument):
    """The same request on an in-process ``QueryService``."""
    if kind == "topk":
        return service.execute("topk", {"sql": argument, "k": K})
    if kind == "threshold":
        return service.execute("threshold", {"sql": argument, "tau": TAU})
    if kind == "approx":
        return service.execute(
            "evaluate", {"sql": argument, "confidence": "approx", "epsilon": 0.01}
        )
    if kind == "safe":
        return service.execute("evaluate", {"sql": argument})
    variable, probability = argument
    return service.execute(
        "subscription_update",
        {"subscription": subscription, "variable": variable, "probability": probability},
    )


class ServiceMix(Workload):
    name = "service_mix"

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.scale = 0.001 if smoke else 0.01
        self.server = None
        self.local = None
        self.cold_errors = None

    # -- set-up ----------------------------------------------------------------

    def setup(self):
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--dataset", "tpch",
             "--scale", str(self.scale)],
            stdout=subprocess.PIPE,
            env=scrubbed_env(),
            cwd=ROOT,
            text=True,
        )
        ready = self.server.stdout.readline().split()
        if ready[:2] != ["SERVICE", "READY"]:
            raise RuntimeError(f"service did not start: {ready!r}")
        host, port = ready[2], int(ready[3])
        self.clients = [
            ServiceClient(host, port, retry=RetryPolicy(retries=0)) for _ in range(CLIENTS)
        ]
        subscribed = [client.subscribe(SUBSCRIPTION, k=K) for client in self.clients]
        self.subscriptions = [payload["subscription"] for payload in subscribed]
        self.variables = subscribed[0]["variables"]

    def teardown(self):
        server, self.server = self.server, None
        if server is not None:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()
        local, self.local = self.local, None
        if local is not None:
            local.close()

    def peak_rss_mb(self):
        with open(f"/proc/{self.server.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def local_service(self):
        """An in-process service over the same data, in the server's state
        right after set-up: the independent route, and the probes' baseline."""
        if self.local is None:
            from repro.service import QueryService

            started = perf_counter()
            self.db = probabilistic_tpch(self.scale, seed=7, probability_seed=11)
            self.generate_s = perf_counter() - started
            self.local = QueryService(self.db).start()
            for _ in range(CLIENTS):
                self.local.execute("subscribe", {"sql": SUBSCRIPTION, "k": K})
        return self.local

    # -- schedule --------------------------------------------------------------

    def schedule(self, seed):
        self.local_service()
        base = self.db.probabilities()
        fixed = random.Random(0)
        scale = 6 if self.smoke else 1
        ops = []
        for client in range(CLIENTS):
            order = random.Random(seed * CLIENTS + client)
            requests = []
            for index in range(MIX["warm"] // scale):
                kind = "topk" if index % 2 == 0 else "threshold"
                requests.append((kind, TEXTS[index // 2 % len(TEXTS)]))
            requests += [("approx", TEXTS[i % len(TEXTS)]) for i in range(MIX["approx"] // scale)]
            requests += [("safe", SAFE_TEXTS[i % 2]) for i in range(MIX["safe"] // scale)]
            pairs = [
                (variable, fixed.uniform(0.01, 1.0))
                for variable in fixed.sample(self.variables, MIX["update_pairs"] // scale)
            ]
            # Each pair occupies two slots of the shuffled order: the earlier
            # slot moves the marginal, the later one puts it back.
            slots = [("update", pair) for pair in pairs for _ in range(2)]
            requests += slots
            order.shuffle(requests)
            moved = set()
            for kind, argument in requests:
                if kind == "update":
                    variable, probability = argument
                    if variable in moved:
                        argument = (variable, base[variable])
                    moved.add(variable)
                ops.append((client, kind, argument))
        return ops

    # -- passes ----------------------------------------------------------------

    def begin_pass(self):
        if self.cold_errors is None:
            self.cold_errors = self.compare_with_in_process()

    def client_loop(self, client, ops, outcomes):
        recorder = self.recorder
        for index, (_, kind, argument) in ops:
            span = recorder.start("op", op=index, kind=kind) if recorder else None
            started = perf_counter()
            try:
                payload = send(self.clients[client], self.subscriptions[client], kind, argument)
                found = self.digest(None, payload)
            except Exception as error:  # 429, 5xx and transport errors are failures
                found = f"!{type(error).__name__}: {error}"
            outcomes[index] = (perf_counter() - started, found)
            if span is not None:
                recorder.stop(span)

    def run_pass(self, ops, keep=None, concurrent=True):
        outcomes = [None] * len(ops)
        indexed = list(enumerate(ops))
        per_client = [[item for item in indexed if item[1][0] == c] for c in range(CLIENTS)]
        if not concurrent:
            for client, mine in enumerate(per_client):
                self.client_loop(client, mine, outcomes)
            return outcomes
        threads = [
            threading.Thread(target=self.client_loop, args=(client, mine, outcomes))
            for client, mine in enumerate(per_client)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes

    def digest(self, op, payload):
        """What must repeat across passes: rows and decisions.  Step counts
        and bounds of non-selected tuples legitimately move as the store
        warms, and ``seq`` counts requests."""
        rows = payload.get("rows", payload.get("result", {}).get("rows"))
        return digest((rows, payload.get("decided"), payload.get("selected")))

    # -- checks ----------------------------------------------------------------

    def compare_with_in_process(self):
        """Right after set-up, server and in-process service have seen the
        same requests, so every payload must match apart from ``seq``."""
        service = self.local_service()
        variable = self.variables[0]
        restore = (variable, self.db.probabilities()[variable])
        sample = [(kind, text) for text in TEXTS for kind in ("topk", "threshold")]
        sample += [("approx", TEXTS[0]), ("approx", TEXTS[1])]
        sample += [("safe", text) for text in SAFE_TEXTS]
        sample += [("update", (variable, 0.5)), ("update", restore)]
        errors = []
        for kind, argument in sample:
            remote = send(self.clients[0], self.subscriptions[0], kind, argument)
            local = execute(service, self.subscriptions[0], kind, argument)
            remote.pop("seq", None)
            local.pop("seq", None)
            # The in-process payload holds tuples where JSON holds lists.
            if remote != json.loads(json.dumps(local)):
                errors.append(f"{kind} {argument!r}: HTTP and in-process payloads differ")
        return errors

    def cross_check(self, ops, results):
        return self.cold_errors

    # -- traced run ------------------------------------------------------------

    def probes(self, recorder, ops, values, absent):
        client = self.clients[0]

        def p50(outcomes):
            return statistics.median(seconds for seconds, _ in outcomes) * 1000.0

        def healthz():
            samples = []
            for _ in range(30):
                started = perf_counter()
                client.healthz()
                samples.append((perf_counter() - started) * 1000.0)
            return {"service.http.healthz_ms": statistics.median(samples)}

        probe(values, absent, ["service.http.healthz_ms"], healthz)
        two = p50(self.run_pass(ops))
        one = p50(self.run_pass(ops, concurrent=False))
        values["service.core.queue_wait_ms"] = two - one

        def in_process():
            """The same requests, one at a time, on the in-process service
            with the wrappers on: what the server does without HTTP."""
            service = self.local_service()
            for who, kind, argument in ops:  # warm it like the server is
                execute(service, self.subscriptions[who], kind, argument)
            first = len(recorder.spans)
            recorder.install()
            try:
                seconds, dumps, sizes = [], [], []
                for index, (who, kind, argument) in enumerate(ops):
                    span = recorder.start("op", op=f"local{index}", kind=kind)
                    started = perf_counter()
                    payload = execute(service, self.subscriptions[who], kind, argument)
                    seconds.append(perf_counter() - started)
                    recorder.stop(span)
                    started = perf_counter()
                    sizes.append(len(json.dumps(payload)))
                    dumps.append(perf_counter() - started)
            finally:
                recorder.uninstall()
            layers = recorder.summary(first)
            found, gone = span_metrics(recorder, layers)
            absent.update(gone)
            local_p50 = statistics.median(seconds) * 1000.0
            payload_layer = layers.get("service.core.payload", {"ms": 0.0})
            found.update(
                {
                    "service.core.execute_ms": local_p50,
                    "service.http.overhead_ms": one - local_p50,
                    "service.core.payload_ms": (payload_layer["ms"] + sum(dumps) * 1000.0)
                    / len(ops),
                    "service.core.response_bytes": statistics.fmean(sizes),
                    "tpch.generate_s": self.generate_s,
                }
            )
            return found

        probe(
            values,
            absent,
            ["service.core.execute_ms", "service.http.overhead_ms", "service.core.payload_ms",
             "service.core.response_bytes"],
            in_process,
        )

        def stats():
            found = client.stats()
            cache = found["cache"]
            return {
                "service.core.rejected": found["rejected"],
                "service.core.failed": found["failed"],
                "prob.sharedag.cache_hit_ratio": cache["hits"]
                / max(1, cache["hits"] + cache["misses"]),
            }

        probe(
            values,
            absent,
            ["service.core.rejected", "service.core.failed", "prob.sharedag.cache_hit_ratio"],
            stats,
        )


WORKLOAD = ServiceMix
