"""Cross-request warm-state reuse through the query service (the PR 8 claim).

The service multiplexes every client over ONE engine and ONE shared-lineage
store, so refinement work done for any request is standing capital for all
later ones.  This benchmark drives the *full* stack — asyncio HTTP server,
JSON round trip, execution on the event-loop thread — on the unsafe TPC-H
brand top-10 of ``bench_shared_lineage.py`` at pinned SF 0.001, and asserts
the acceptance contract:

* the first (cold) top-10 request pays the d-tree compilation; a repeat of
  the same request over HTTP re-decides in **at most 1 logical step** —
  the decided frontier survives in the shared store between requests;
* N concurrent clients asking the same question cost the store *zero*
  additional logical steps once one of them has paid — sharing is
  per-store, not per-connection;
* a standing-query subscription served over HTTP absorbs a probability
  update and re-decides warm, far below its own cold build cost.

Wall times cover the HTTP stack and are machine-dependent; the asserted
quantities are logical step counts read from the service's responses and
``/stats``, which are deterministic for this pinned workload.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import QueryService, ServiceClient, ServiceServer, arequest
from repro.tpch import probabilistic_tpch

from conftest import run_benchmark

K = 10
CLIENTS = 4
BRAND_SQL = "SELECT p_brand, conf() FROM part, partsupp, supplier WHERE ps_availqty < 3000"


@pytest.fixture(scope="module")
def service_db():
    # Pinned independently of REPRO_TPCH_SF: the step-count contract is a
    # property of this exact instance.
    return probabilistic_tpch(scale_factor=0.001, seed=7, probability_seed=11)


@pytest.fixture
def server(service_db):
    with ServiceServer(QueryService(service_db)) as srv:
        yield srv


def test_topk_over_http_is_warm_after_first(benchmark, server):
    """The headline: a repeated top-10 request costs <= 1 logical step."""
    client = ServiceClient(server.host, server.port)
    cold = client.topk(BRAND_SQL, k=K)
    assert cold["decided"] and len(cold["rows"]) == K
    assert cold["refine_steps"] > 0

    warm = client.topk(BRAND_SQL, k=K)
    assert warm["rows"] == cold["rows"]
    assert warm["refine_steps"] <= 1  # the cross-request warm-reuse contract

    run_benchmark(benchmark, client.topk, BRAND_SQL, k=K)

    benchmark.extra_info["k"] = K
    benchmark.extra_info["candidates"] = len(cold["bounds"])
    benchmark.extra_info["cold_steps"] = cold["refine_steps"]
    benchmark.extra_info["warm_steps"] = warm["refine_steps"]


def test_concurrent_clients_share_warm_state(benchmark, server):
    """N clients, one store: the N-1 followers pay zero store steps."""
    client = ServiceClient(server.host, server.port)

    def storm():
        async def run():
            return await asyncio.gather(
                *(
                    arequest(server.host, server.port, "POST", "/topk",
                             {"sql": BRAND_SQL, "k": K})
                    for _ in range(CLIENTS)
                )
            )

        return asyncio.run(run())

    before = client.stats()["store"]["steps"]
    responses = storm()
    cold_storm_steps = client.stats()["store"]["steps"] - before
    rows = [payload["rows"] for status, payload in responses if status == 200]
    assert len(rows) == CLIENTS
    assert all(r == rows[0] for r in rows)  # every client got the same answer
    assert cold_storm_steps > 0  # exactly one of them paid the compilation

    warm_before = client.stats()["store"]["steps"]
    storm()
    warm_storm_steps = client.stats()["store"]["steps"] - warm_before
    assert warm_storm_steps == 0  # the whole warm storm is free at the store

    run_benchmark(benchmark, storm)

    benchmark.extra_info["clients"] = CLIENTS
    benchmark.extra_info["cold_storm_steps"] = cold_storm_steps
    benchmark.extra_info["warm_storm_steps"] = warm_storm_steps


def test_subscription_update_over_http(benchmark, server):
    """A served standing query absorbs a delta far below its build cost."""
    client = ServiceClient(server.host, server.port)
    sub = client.subscribe(BRAND_SQL, k=K)
    assert sub["decided"] and len(sub["selected"]) == K
    cold_steps = sub["total_steps"]
    assert cold_steps > 0
    variable = sub["variables"][0]

    state = {"low": False}

    def update_cycle():
        # Alternate between two values so every round applies a real delta.
        state["low"] = not state["low"]
        return client.update(
            sub["subscription"], variable, 0.2 if state["low"] else 0.3
        )

    first = update_cycle()
    assert first["decided"]
    assert first["report"]["noop"] is False
    update_delta_steps = first["delta_steps"]
    assert update_delta_steps < cold_steps  # warm re-decide, not a rebuild

    run_benchmark(benchmark, update_cycle)

    benchmark.extra_info["k"] = K
    benchmark.extra_info["cold_steps"] = cold_steps
    benchmark.extra_info["update_delta_steps"] = update_delta_steps
