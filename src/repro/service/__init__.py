"""A concurrent query service over one shared SPROUT engine.

The library so far is single-caller: one thread owns the engine, the shared
:class:`~repro.prob.sharedag.SharedLineageStore`, and the d-tree cache.
This package turns that warm state into a *served* resource — an asyncio
HTTP/JSON front end (:mod:`repro.service.http`) serving ``evaluate`` /
``topk`` / ``threshold`` requests and standing-query subscriptions from
many clients over **one** engine (:mod:`repro.service.core`), so every
client benefits from every other client's refinement work.

One thread serves: the event loop reads a request and executes it on the
spot against the shared store, one request at a time, each tagged with the
next sequence number ``seq`` — which is exactly why the service is
deterministic: an interleaved request sequence produces bit-identical
decided sets, bounds, and step counts to a serial replay in ``seq`` order.
See ``docs/service.md``.

Run one with ``python -m repro.service`` (see :mod:`repro.service.__main__`)
or embed :class:`QueryService` / :class:`ServiceServer` directly.
"""

from .client import RetryPolicy, ServiceClient, arequest
from .core import QueryService, ServiceConfig, result_payload
from .http import ServiceServer, serve
from .snapshot import read_snapshot, write_snapshot

__all__ = [
    "QueryService",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceClient",
    "ServiceServer",
    "arequest",
    "read_snapshot",
    "result_payload",
    "serve",
    "write_snapshot",
]
