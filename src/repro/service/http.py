"""Asyncio HTTP/JSON transport for :class:`repro.service.core.QueryService`.

Standard library only — the loop is ``asyncio.start_server``, the protocol a
deliberately small HTTP/1.1 subset (request line, headers, ``Content-Length``
bodies, keep-alive): enough for the bundled client, ``curl``, and any HTTP
library, without pulling a web framework into the repro.

The transport is intentionally thin: a connection handler reads one
request, decodes the JSON body and calls
:meth:`~repro.service.core.QueryService.execute` right there, on the event
loop's thread — one thread serves every socket, and requests execute in
the order the loop read them.  While one request executes the loop reads
nothing else, so ``/healthz`` and ``/stats`` answer once it finishes;
``timeout_ms`` bounds decision requests.  Nothing queues inside the server,
so there is no overload status: request mistakes (bad SQL, bad parameters,
unknown subscription) map to 400, everything else to 500.

Routes::

    GET    /healthz                     -> {"ok": true}
    GET    /stats                       -> service + engine + store counters
    POST   /evaluate                    {"sql": ..., "epsilon"?: ...}
    POST   /topk                        {"sql": ..., "k": ..., "max_steps"?: ...}
    POST   /threshold                   {"sql": ..., "tau": ..., "max_steps"?: ...}
    POST   /subscribe                   {"sql": ..., "k"|"tau": ...}
    GET    /subscriptions               -> {"subscriptions": [...]}
    GET    /subscriptions/<id>          -> current decided set
    POST   /subscriptions/<id>/update   {"variable": ..., "probability": ...}
    DELETE /subscriptions/<id>          -> unsubscribe
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, Optional, Tuple

from repro.errors import InjectedFault, ReproError, ServiceError
from repro.faults import fault_point

from .core import QueryService

__all__ = ["serve", "ServiceServer"]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024


class _BadRequest(Exception):
    """A malformed HTTP request (protocol level, before the service sees it)."""


async def _read_request(
    reader: "asyncio.StreamReader",
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """One HTTP request as ``(method, path, headers, body)``; None at EOF."""
    # Fault seam: an injected failure here behaves exactly like a client
    # whose socket died mid-request — the connection handler drops it.
    fault_point("http.read")
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest(f"malformed request line {request_line!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    total = len(request_line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise _BadRequest("headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length") or "0"
    # Digits only, and few enough that int() converts them (it refuses
    # strings of thousands of digits, which the header limit would admit).
    if not (declared.isascii() and declared.isdigit() and len(declared) <= 18):
        raise _BadRequest(f"Content-Length {declared[:32]!r} is not a plain byte count")
    length = int(declared)
    if length > _MAX_BODY_BYTES:
        raise _BadRequest(f"body of {length} bytes exceeds the {_MAX_BODY_BYTES} limit")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def _json_body(body: bytes) -> Dict[str, Any]:
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"request body is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ServiceError(f"request body must be a JSON object, got {type(payload).__name__}")
    return payload


def _response(status: int, payload: Dict[str, Any], keep_alive: bool) -> bytes:
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              405: "Method Not Allowed", 500: "Internal Server Error"}.get(status, "OK")
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def _dispatch(
    service: QueryService, method: str, path: str, body: bytes
) -> Tuple[int, Dict[str, Any]]:
    """Route and execute one request; returns ``(status, payload)``."""
    if path == "/healthz" and method == "GET":
        return 200, {"ok": True}
    if path == "/stats" and method == "GET":
        return 200, service.stats()
    if path == "/subscriptions" and method == "GET":
        return 200, {"subscriptions": service.subscriptions()}

    kind: Optional[str] = None
    params = _json_body(body)
    if path in ("/evaluate", "/topk", "/threshold", "/subscribe"):
        if method != "POST":
            return 405, {"error": f"{path} requires POST"}
        kind = path.lstrip("/")
    elif path.startswith("/subscriptions/"):
        remainder = path[len("/subscriptions/"):]
        if remainder.endswith("/update") and method == "POST":
            params["subscription"] = remainder[: -len("/update")]
            kind = "subscription_update"
        elif "/" not in remainder and method == "GET":
            params["subscription"] = remainder
            kind = "subscription_get"
        elif "/" not in remainder and method == "DELETE":
            params["subscription"] = remainder
            kind = "subscription_delete"
    if kind is None:
        return 404, {"error": f"no route for {method} {path}"}

    return 200, service.execute(kind, params)


async def _handle_connection(
    service: QueryService,
    reader: "asyncio.StreamReader",
    writer: "asyncio.StreamWriter",
) -> None:
    """Serve one client socket: a keep-alive loop of request/response turns."""
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _BadRequest as error:
                writer.write(_response(400, {"error": str(error)}, keep_alive=False))
                await writer.drain()
                return
            if request is None:
                return
            method, path, headers, body = request
            keep_alive = headers.get("connection", "keep-alive").lower() != "close"
            try:
                status, payload = _dispatch(service, method, path, body)
            except ReproError as error:
                # ServiceError, QueryError, PlanningError, ProbabilityError ...
                # — the request was wrong, not the server.
                status, payload = 400, {"error": str(error), "type": type(error).__name__}
            except Exception as error:  # noqa: BLE001 - report, keep serving
                status, payload = 500, {"error": str(error), "type": type(error).__name__}
            writer.write(_response(status, payload, keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionError, asyncio.IncompleteReadError):
        return  # client went away mid-request
    except InjectedFault:
        return  # scripted connection drop (the http.read fault seam)
    finally:
        try:
            writer.close()
        except Exception:  # pragma: no cover - socket already torn down
            pass


async def serve(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> "asyncio.AbstractServer":
    """Bind the service to ``host:port`` (0 picks a free port) and start it.

    Returns the :class:`asyncio.AbstractServer`; the caller owns the loop
    (``async with server: await server.serve_forever()``), and every request
    executes on it.
    """

    async def handler(reader, writer):
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(handler, host=host, port=port)


class ServiceServer:
    """A :func:`serve` loop hosted on a background thread, for tests and tools.

    ``with ServiceServer(service) as server:`` boots the event loop + HTTP
    server on a daemon thread, blocks until the socket is bound (or raises
    the startup error), and exposes the bound address as ``server.host`` /
    ``server.port``.  Exit stops the loop and closes the service.
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._ready = threading.Event()
        self._stop: Optional["asyncio.Event"] = None
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-http", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if not self._ready.is_set():
            raise ServiceError("the HTTP server did not come up within 30s")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_event_loop()
        self._stop = asyncio.Event()
        try:
            server = await serve(self.service, self.host, self.port)
        except BaseException as error:  # bind failure, bad host, ...
            self._error = error
            self._ready.set()
            return
        self.host, self.port = server.sockets[0].getsockname()[:2]
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()

    def stop(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.service.close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
