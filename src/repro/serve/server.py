"""The asyncio HTTP server in front of :class:`~repro.serve.engine.ServeEngine`.

Endpoints (all JSON unless noted):

``GET /healthz``
    Liveness plus a stats snapshot (epoch, cache, admission state).
``GET /metrics``
    Prometheus text exposition — the same
    :func:`repro.obs.metrics.prometheus_text` that backs
    ``repro metrics --format prom``; there is exactly one exposition
    function in the codebase.
``GET/POST /query``
    One point query.  Parameters (query string on GET, JSON body on POST):
    ``program``, ``source``, ``target`` (ppsp), ``vertex`` (which entry of
    the output vector to return; defaults to ``target``/``source``),
    ``full`` (return the whole vector), ``schedule`` (knob object, or
    ``knob=value,...`` text on GET).
``POST /mutate``
    Body is a mutation script (``add/remove/update`` lines, ``flush``
    separators) — either raw text or JSON ``{"script": "..."}``.

Failure mapping: :class:`Backpressure` → ``429`` with ``Retry-After``
(the admission queue is full; accepted requests are never dropped),
:class:`~repro.errors.GraphItError` → ``400`` (the request was wrong),
anything else → ``500`` with a crash-forensics dump
(:func:`repro.obs.flight.dump_forensics`) so ``repro last-run`` can
explain a dead handler after the fact.
"""

from __future__ import annotations

import asyncio
import threading
import time

from ..errors import GraphItError
from ..obs import dump_forensics, metrics, span
from ..obs.metrics import prometheus_text
from .engine import Backpressure, QuerySpec, ServeEngine
from .http import (
    HTTPError,
    HTTPRequest,
    format_response,
    json_response,
    read_request,
)

__all__ = ["QueryServer", "ServerHandle", "start_in_thread"]

#: Idle keep-alive connections are dropped after this many seconds.
IDLE_TIMEOUT = 120.0


class QueryServer:
    """One listening socket dispatching into a shared :class:`ServeEngine`."""

    def __init__(self, engine: ServeEngine, host: str = "127.0.0.1", port: int = 0):
        self.engine = engine
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._handlers: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Kick idle keep-alive connections: closing the transport feeds EOF
        # into their pending read, which ends the handler loop cleanly.
        for writer in list(self._writers):
            writer.close()
        if self._handlers:
            await asyncio.wait(list(self._handlers), timeout=10)
        self.engine.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader), timeout=IDLE_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    writer.write(
                        json_response(408, {"error": "idle timeout"}, close=True)
                    )
                    break
                except HTTPError as error:
                    writer.write(
                        json_response(
                            error.status, {"error": error.message}, close=True
                        )
                    )
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if request.close:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: HTTPRequest) -> bytes:
        start = time.perf_counter()
        head_only = request.method == "HEAD"
        with span("serve.request", "serve", method=request.method, path=request.path):
            try:
                response = await self._route(request, head_only)
            except Backpressure as error:
                response = json_response(
                    429,
                    {
                        "error": str(error),
                        "pending": error.pending,
                        "limit": error.limit,
                    },
                    extra_headers={"Retry-After": str(error.retry_after)},
                    close=request.close,
                    head_only=head_only,
                )
            except HTTPError as error:
                response = json_response(
                    error.status,
                    {"error": error.message},
                    close=request.close,
                    head_only=head_only,
                )
            except GraphItError as error:
                response = json_response(
                    400, {"error": str(error)}, close=request.close, head_only=head_only
                )
            except Exception as error:  # noqa: BLE001 — keep the server up
                metrics.counter("serve.errors").inc()
                dump_forensics(error, ["serve", request.method, request.path])
                response = json_response(
                    500,
                    {"error": f"{type(error).__name__}: {error}"},
                    close=request.close,
                    head_only=head_only,
                )
        metrics.histogram("serve.latency_us").observe(
            (time.perf_counter() - start) * 1e6
        )
        return response

    async def _route(self, request: HTTPRequest, head_only: bool) -> bytes:
        method, path = request.method, request.path
        if path == "/healthz":
            if method not in ("GET", "HEAD"):
                raise HTTPError(405, f"{method} not allowed on {path}")
            document = {"status": "ok", **self.engine.stats()}
            return json_response(
                200, document, close=request.close, head_only=head_only
            )
        if path == "/metrics":
            if method not in ("GET", "HEAD"):
                raise HTTPError(405, f"{method} not allowed on {path}")
            body = prometheus_text().encode("utf-8")
            return format_response(
                200,
                body,
                content_type="text/plain; version=0.0.4",
                close=request.close,
                head_only=head_only,
            )
        if path == "/query":
            if method == "GET":
                params: dict = dict(request.query)
            elif method == "POST":
                params = request.json()
            else:
                raise HTTPError(405, f"{method} not allowed on {path}")
            return await self._handle_query(request, params)
        if path == "/mutate":
            if method != "POST":
                raise HTTPError(405, f"{method} not allowed on {path}")
            return await self._handle_mutate(request)
        raise HTTPError(404, f"no route for {path}")

    async def _handle_query(self, request: HTTPRequest, params: dict) -> bytes:
        spec = QuerySpec.from_params(params)
        full = str(params.get("full", "")).lower() in ("1", "true", "yes")
        vertex = params.get("vertex")
        if vertex is not None:
            try:
                vertex = int(vertex)
            except (TypeError, ValueError):
                raise HTTPError(400, f"'vertex' must be an integer, got {vertex!r}")
            n = self.engine.graph.num_vertices
            if not 0 <= vertex < n:
                raise HTTPError(
                    400, f"vertex {vertex} out of range for a {n}-vertex graph"
                )
        entry, how = await self.engine.query(spec)
        values = entry.vectors[spec.vector]
        read_at = vertex
        if read_at is None:
            read_at = spec.target if spec.target is not None else spec.source
        document = {
            "program": spec.program,
            "source": spec.source,
            "target": spec.target,
            "vector": spec.vector,
            "engine": entry.engine,
            "execution": entry.execution,
            "served": how,
            "epoch": self.engine.epoch,
        }
        if read_at is not None:
            document["vertex"] = read_at
            document["value"] = int(values[read_at])
        if full or read_at is None:
            document["values"] = [int(value) for value in values]
        if entry.stats:
            document["stats"] = {
                key: int(value) for key, value in entry.stats.items()
            }
        return json_response(200, document, close=request.close)

    async def _handle_mutate(self, request: HTTPRequest) -> bytes:
        content_type = request.headers.get("content-type", "")
        if "json" in content_type:
            document = request.json()
            script = document.get("script")
            if not isinstance(script, str):
                raise HTTPError(400, 'JSON mutate body needs a "script" string')
        else:
            script = request.text()
        summary = await self.engine.mutate(script)
        return json_response(200, {"status": "ok", **summary}, close=request.close)


class ServerHandle:
    """A server running on a daemon thread (used by the serve tests)."""

    def __init__(self, server: QueryServer, loop: asyncio.AbstractEventLoop, thread):
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def address(self) -> tuple[str, int]:
        return (self.server.host, self.server.port)

    def stop(self, timeout: float = 10.0) -> None:
        if self.loop.is_running():
            asyncio.run_coroutine_threadsafe(self.server.close(), self.loop).result(
                timeout
            )
            self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout)


def start_in_thread(
    graph,
    graph_name: str = "<served>",
    host: str = "127.0.0.1",
    port: int = 0,
    **engine_kwargs,
) -> ServerHandle:
    """Boot a :class:`QueryServer` on a background event-loop thread."""
    engine = ServeEngine(graph, graph_name=graph_name, **engine_kwargs)
    server = QueryServer(engine, host=host, port=port)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # noqa: BLE001 — surfaced to the caller
            failure.append(error)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="serve-loop", daemon=True)
    thread.start()
    started.wait(timeout=30)
    if failure:
        raise failure[0]
    return ServerHandle(server, loop, thread)
