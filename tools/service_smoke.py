#!/usr/bin/env python3
"""Boot a real query-service process and run a scripted client against it.

CI's ``service-smoke`` job runs this: it launches ``python -m repro.service``
as a subprocess (the demo smoke-monitor dataset), waits for the ``SERVICE
READY <host> <port>`` line, and then exercises every route over real
sockets — health, top-k (cold and warm), evaluate (approximate twice, then
exact), threshold, and a full standing-query round trip (subscribe,
probability update that moves the decided set, re-read, an update of an
unknown variable that must change nothing, unsubscribe), and two
mismatched-type queries that must answer 400 with ``QueryError``.  The
script fails loudly on any deviation, including the warm-reuse contract (a
repeated top-k or approximate evaluate must cost zero additional logical
steps, whichever request refined the lineage first).  Run locally from the
repository root:

    python tools/service_smoke.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.service import ServiceClient  # noqa: E402

SQL = "SELECT room, conf() FROM alarm, uplink, zone_ok"
TAU = 0.5


class SmokeError(RuntimeError):
    """The served behaviour deviated from the scripted expectation."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeError(message)


def run_script(client: ServiceClient) -> None:
    check(client.healthz() == {"ok": True}, "healthz did not answer ok")

    cold = client.topk(SQL, k=2)
    check(cold["decided"], "cold top-k did not decide")
    check(cold["refine_steps"] > 0, "cold top-k reported zero steps")
    warm = client.topk(SQL, k=2)
    check(warm["rows"] == cold["rows"], "warm top-k changed the answer")
    check(
        warm["refine_steps"] == 0,
        f"warm top-k cost {warm['refine_steps']} steps; cross-request reuse broken",
    )

    # Evaluates refine the store the top-k refined: the approximate repeat
    # finds every bracket already within budget, and the exact one that
    # follows closes what is left (after it a top-k would be free, too —
    # which is why it does not run before the cold one above).
    approx = client.evaluate(SQL, confidence="approx", epsilon=0.01)
    again = client.evaluate(SQL, confidence="approx", epsilon=0.01)
    check(
        again["refine_steps"] == 0,
        f"warm approximate evaluate cost {again['refine_steps']} steps",
    )
    check(again["rows"] == approx["rows"], "warm approximate evaluate changed the answer")
    evaluated = client.evaluate(SQL)
    check(len(evaluated["rows"]) == 5, f"expected 5 rooms, got {evaluated['rows']}")

    threshold = client.threshold(SQL, tau=TAU)
    check(
        all(row[-1] >= TAU for row in threshold["rows"]),
        "threshold returned a row below tau",
    )

    # The standing-query round trip: subscribe, kill the strongest alarm
    # event's marginal, and watch the decided set move — all over HTTP.
    sub = client.subscribe(SQL, tau=TAU)
    sid = sub["subscription"]
    check(sub["decided"], "subscription did not decide on build")
    before = sub["selected"]
    check(before, "subscription decided an empty answer on the demo data")

    update = client.update(sid, variable=sub["variables"][0], probability=0.01)
    check(update["report"]["noop"] is False, "the probability update was a no-op")
    check(update["left"] != [] or update["selected"] != before,
          "the delta did not move the decided set")

    reread = client.subscription(sid)
    check(reread["selected"] == update["selected"], "re-read disagrees with update")

    # An update of a variable outside the space is a true no-op: it must not
    # grow the subscription's state.
    unknown = client.update(sid, variable=max(sub["variables"]) + 1, probability=0.5)
    check(unknown["report"]["noop"] is True, "an unknown-variable update was not a no-op")
    check(
        client.subscription(sid)["variables"] == reread["variables"],
        "an unknown-variable update grew the subscription's variables",
    )
    client.unsubscribe(sid)
    status, _ = client.request("GET", f"/subscriptions/{sid}")
    check(status == 400, f"deleted subscription still answers (status {status})")

    # An ordered comparison whose literal the column cannot order against is
    # the client's mistake: a 400 naming QueryError, not a 500 TypeError.
    for condition in ("room < 5", "sensor < 'x'"):
        status, payload = client.request(
            "POST", "/evaluate", {"sql": f"SELECT room, conf() FROM alarm WHERE {condition}"}
        )
        check(
            status == 400 and payload.get("type") == "QueryError",
            f"mismatched-type SQL {condition!r} answered {status} {payload}",
        )

    stats = client.stats()
    # Three failed requests: the deliberate probe of the deleted subscription
    # and the two mismatched-type queries above (requests that raise count
    # as failed).
    check(stats["failed"] == 3, f"unexpected failure count: {stats}")
    check(stats["store"]["steps"] > 0, "the shared store did no refinement work")

    print(
        f"service smoke OK: cold={cold['refine_steps']} steps, warm=0, "
        f"approx={approx['refine_steps']} then 0, "
        f"update moved {len(update['left'])} row(s) out, "
        f"store steps={stats['store']['steps']}"
    )


def main() -> int:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--dataset", "demo"],
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = process.stdout.readline().split()
        if len(ready) != 4 or ready[:2] != ["SERVICE", "READY"]:
            raise SmokeError(f"server did not come up; first line: {ready}")
        host, port = ready[2], int(ready[3])
        run_script(ServiceClient(host, port))
        return 0
    finally:
        process.terminate()
        process.wait(timeout=30)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeError as error:
        print(f"service smoke FAILED: {error}", file=sys.stderr)
        sys.exit(1)
