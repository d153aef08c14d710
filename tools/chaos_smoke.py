#!/usr/bin/env python3
"""SIGKILL and SIGTERM a real query-service process; the snapshot revives it.

CI's ``tests-chaos`` job runs this: it launches ``python -m repro.service``
with ``--snapshot PATH --snapshot-every 1`` (a checkpoint after every
completed request), warms the shared store over real sockets, then sends
the process SIGKILL — no shutdown hook, no atexit, nothing graceful.  A
second server over the *same* snapshot path must restore the checkpoint at
boot and re-decide the warm query in at most one logical step with exactly
the same rows.  Finally the snapshot is stomped (truncated mid-payload) and
a third server must boot **cold with a warning, not a crash**, and still
serve.  Last, a server without periodic checkpoints is warmed and sent
SIGTERM, the signal process managers stop services with: it must exit 0
having finished its request and written its snapshot on the way out, and a fourth server
over that snapshot must re-decide warm.  The script fails loudly on any
deviation.  Run locally from the repository root:

    python tools/chaos_smoke.py
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.service import ServiceClient  # noqa: E402

SQL = "SELECT room, conf() FROM alarm, uplink, zone_ok"


class SmokeError(RuntimeError):
    """The served behaviour deviated from the scripted expectation."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeError(message)


def launch(snapshot: str, every: bool = True) -> tuple[subprocess.Popen, ServiceClient]:
    command = [sys.executable, "-m", "repro.service", "--snapshot", snapshot]
    if every:
        command += ["--snapshot-every", "1"]
    process = subprocess.Popen(
        command,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    ready = process.stdout.readline().split()
    if len(ready) != 4 or ready[:2] != ["SERVICE", "READY"]:
        process.kill()
        process.wait(timeout=30)
        raise SmokeError(f"server did not come up; first line: {ready}")
    return process, ServiceClient(ready[2], int(ready[3]))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro_chaos_") as scratch:
        snapshot = str(Path(scratch) / "service.snap")

        # Phase 1: warm the store, then SIGKILL mid-flight.  The periodic
        # checkpoint is written before each response, so once a request has
        # returned its checkpoint is durably on disk — the kill cannot race it.
        process, client = launch(snapshot)
        try:
            cold = client.topk(SQL, k=2)
            check(cold["decided"], "cold top-k did not decide")
            check(cold["refine_steps"] > 0, "cold top-k reported zero steps")
            warm = client.topk(SQL, k=2)
            check(warm["refine_steps"] == 0, "warm top-k cost steps before the kill")
        finally:
            process.kill()  # SIGKILL: no graceful shutdown, no close() snapshot
            process.wait(timeout=30)
        check(Path(snapshot).exists(), "no checkpoint survived the kill")

        # Phase 2: a reborn server over the same snapshot path must come up
        # warm — the decision replays from restored bounds in at most one
        # logical step, with bit-identical rows.
        process, client = launch(snapshot)
        try:
            stats = client.stats()
            check(stats["snapshot"]["restored"], "reborn server did not restore")
            revived = client.topk(SQL, k=2)
            check(
                revived["refine_steps"] <= 1,
                f"reborn top-k cost {revived['refine_steps']} steps; recovery is cold",
            )
            check(revived["rows"] == cold["rows"], "recovery changed the answer")
            check(revived["decided"], "reborn top-k did not decide")
        finally:
            process.terminate()
            process.wait(timeout=30)

        # Phase 3: stomp the snapshot (truncate mid-payload).  Boot must
        # degrade to cold — structured warning, correct answers, no crash.
        blob = Path(snapshot).read_bytes()
        Path(snapshot).write_bytes(blob[: len(blob) - 10])
        process, client = launch(snapshot)
        try:
            stats = client.stats()
            check(not stats["snapshot"]["restored"], "corrupt snapshot claimed restored")
            check(stats["snapshot"]["failed"] == 1, "corrupt snapshot was not counted")
            cold_again = client.topk(SQL, k=2)
            check(cold_again["refine_steps"] > 0, "corrupt-boot top-k was not cold")
            check(cold_again["rows"] == cold["rows"], "corrupt-boot answer changed")
        finally:
            process.terminate()
            process.wait(timeout=30)

        # Phase 4: no periodic checkpoint, so only a graceful shutdown can
        # write the snapshot.  SIGTERM must snapshot and exit 0.
        snapshot = str(Path(scratch) / "terminated.snap")
        process, client = launch(snapshot, every=False)
        try:
            warmed = client.topk(SQL, k=2)
            check(warmed["refine_steps"] > 0, "pre-SIGTERM top-k was not cold")
            check(not Path(snapshot).exists(), "snapshot written before shutdown")
        finally:
            process.terminate()  # SIGTERM
            code = process.wait(timeout=30)
        check(code == 0, f"SIGTERM exit code {code}, expected a graceful 0")
        check(Path(snapshot).exists(), "SIGTERM shutdown wrote no snapshot")
        process, client = launch(snapshot, every=False)
        try:
            check(client.stats()["snapshot"]["restored"], "post-SIGTERM server did not restore")
            after_term = client.topk(SQL, k=2)
            check(
                after_term["refine_steps"] <= 1,
                f"post-SIGTERM top-k cost {after_term['refine_steps']} steps; recovery is cold",
            )
            check(after_term["rows"] == warmed["rows"], "SIGTERM recovery changed the answer")
        finally:
            process.terminate()
            process.wait(timeout=30)

        print(
            f"chaos smoke OK: cold={cold['refine_steps']} steps, "
            f"post-SIGKILL={revived['refine_steps']} step(s), "
            f"corrupt snapshot booted cold and served, "
            f"post-SIGTERM={after_term['refine_steps']} step(s)"
        )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeError as error:
        print(f"chaos smoke FAILED: {error}", file=sys.stderr)
        sys.exit(1)
