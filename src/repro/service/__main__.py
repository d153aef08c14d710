"""Run a query service from the command line: ``python -m repro.service``.

Boots one :class:`repro.service.core.QueryService` over a chosen dataset and
serves it on an asyncio HTTP/JSON socket until interrupted.  Two datasets
are built in:

* ``--dataset demo`` (default) — the smoke-monitor database from
  ``examples/streaming_monitor.py``: alarm events, sensor uplinks, and zone
  controllers, whose chain join ``alarm ⋈ uplink ⋈ zone_ok`` is *unsafe*, so
  every request exercises the shared d-tree refinement path (the workload
  the service exists for);
* ``--dataset tpch`` — the probabilistic TPC-H generator at ``--scale``.

The process prints ``SERVICE READY <host> <port>`` on stdout once the
socket is bound — tools (``tools/service_smoke.py``, CI's service-smoke
job) wait for that line before connecting.  SIGINT and SIGTERM both shut it
down gracefully: the request executing finishes, then ``--snapshot`` is
written.  Try::

    python -m repro.service --port 8080 &
    curl -s localhost:8080/healthz
    curl -s localhost:8080/topk \
        -d '{"sql": "SELECT room, conf() FROM alarm, uplink, zone_ok", "k": 2}'
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.prob.pdb import ProbabilisticDatabase
from repro.storage import Relation, Schema

from .core import QueryService, ServiceConfig
from .http import serve

__all__ = ["demo_database", "main"]


def demo_database() -> ProbabilisticDatabase:
    """The smoke-monitor database: an unsafe chain join to refine against.

    Same data as ``examples/streaming_monitor.py`` — rooms are alarmed when
    any of their alarm events reached a live zone controller, and the chain
    through ``sensor`` and ``zone`` makes the per-room lineage unsafe.
    """
    db = ProbabilisticDatabase("smoke-monitor")
    alarms = Relation(
        "alarm",
        Schema.of("room:str", "sensor:int"),
        [
            ("kitchen", 1), ("kitchen", 2), ("lab", 2), ("lab", 3),
            ("lab", 4), ("archive", 4), ("archive", 5), ("lobby", 5),
            ("lobby", 1), ("server-room", 3), ("server-room", 6),
        ],
    )
    db.add_table(
        alarms,
        probabilities=[0.80, 0.55, 0.70, 0.60, 0.55, 0.45, 0.50, 0.40, 0.35, 0.65, 0.75],
    )
    uplinks = Relation(
        "uplink",
        Schema.of("sensor:int", "zone:str"),
        [
            (1, "east"), (2, "east"), (2, "west"), (3, "west"),
            (4, "east"), (4, "west"), (5, "west"), (6, "east"),
        ],
    )
    db.add_table(uplinks, probabilities=[0.9, 0.8, 0.6, 0.85, 0.7, 0.75, 0.8, 0.95])
    zones = Relation("zone_ok", Schema.of("zone:str"), [("east",), ("west",)])
    db.add_table(zones, probabilities=[0.95, 0.9])
    return db


def _build_database(dataset: str, scale: float) -> ProbabilisticDatabase:
    if dataset == "demo":
        return demo_database()
    from repro.tpch import probabilistic_tpch

    return probabilistic_tpch(scale_factor=scale, seed=7, probability_seed=11)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve a SPROUT query service over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default %(default)s)")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port; 0 picks a free one (default)"
    )
    parser.add_argument(
        "--dataset",
        choices=("demo", "tpch"),
        default="demo",
        help="database to serve: the smoke-monitor demo or probabilistic TPC-H",
    )
    parser.add_argument(
        "--scale", type=float, default=0.001, help="TPC-H scale factor (default %(default)s)"
    )
    parser.add_argument(
        "--max-steps-ceiling",
        type=int,
        default=None,
        help="reject requests asking for a larger max_steps budget (default: no ceiling)",
    )
    parser.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="default wall-clock deadline per decision request; expired requests "
        "return their current sound bounds with degraded=deadline (default: none)",
    )
    parser.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="crash-recovery snapshot file: restored at boot, written on shutdown "
        "(and periodically with --snapshot-every)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="N",
        help="also write the snapshot after every N completed requests",
    )
    args = parser.parse_args(argv)

    database = _build_database(args.dataset, args.scale)
    service = QueryService(
        database,
        config=ServiceConfig(
            max_steps_ceiling=args.max_steps_ceiling,
            default_timeout_ms=args.timeout_ms,
            snapshot_path=args.snapshot,
            snapshot_every=args.snapshot_every,
        ),
    )

    async def run() -> None:
        server = await serve(service, host=args.host, port=args.port)
        # SIGTERM, what process managers send, stops serving the way SIGINT
        # does: the main task is cancelled, and ``service.close()`` below
        # writes the snapshot.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        host, port = server.sockets[0].getsockname()[:2]
        print(f"SERVICE READY {host} {port}", flush=True)
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
