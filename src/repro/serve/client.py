"""A small blocking client for the query service.

Built on :mod:`http.client` (stdlib), used by the ``serve_mixed``
benchmark workload, the concurrency test suite, and anything that
wants to talk to ``repro serve`` without hand-writing HTTP.  One
:class:`ServeClient` holds one keep-alive connection and is **not**
thread-safe — give each closed-loop client thread its own instance.
"""

from __future__ import annotations

import http.client
import json

__all__ = ["ServeClient", "ServeResponse"]


class ServeResponse:
    """Status, headers, and decoded body of one exchange."""

    def __init__(self, status: int, headers: dict[str, str], body: bytes):
        self.status = status
        self.headers = headers
        self.body = body

    def json(self) -> dict:
        return json.loads(self.body.decode("utf-8"))

    @property
    def retry_after(self) -> int | None:
        value = self.headers.get("retry-after")
        return int(value) if value is not None else None

    def raise_for_status(self) -> "ServeResponse":
        if self.status >= 400:
            raise RuntimeError(
                f"server returned {self.status}: {self.body.decode('utf-8', 'replace')!r}"
            )
        return self


class ServeClient:
    """One keep-alive connection to a running query server."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        body: bytes | str | None = None,
        content_type: str = "application/json",
    ) -> ServeResponse:
        if isinstance(body, str):
            body = body.encode("utf-8")
        headers = {"Content-Type": content_type} if body is not None else {}
        for attempt in (1, 2):
            connection = self._connect()
            try:
                connection.request(method, path, body=body, headers=headers)
                raw = connection.getresponse()
                payload = raw.read()
                return ServeResponse(
                    raw.status,
                    {name.lower(): value for name, value in raw.getheaders()},
                    payload,
                )
            except (
                http.client.RemoteDisconnected,
                BrokenPipeError,
                ConnectionResetError,
            ):
                # The server closed the keep-alive connection (idle timeout,
                # restart); reconnect once before giving up.
                self.close()
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # Endpoint helpers
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self.request("GET", "/healthz").raise_for_status().json()

    def metrics_text(self) -> str:
        response = self.request("GET", "/metrics").raise_for_status()
        return response.body.decode("utf-8")

    def query(
        self,
        program: str,
        source: int | None = None,
        target: int | None = None,
        vertex: int | None = None,
        schedule: dict | None = None,
        full: bool = False,
    ) -> ServeResponse:
        """POST one query; returns the raw response (may be 4xx/429)."""
        document: dict = {"program": program}
        if source is not None:
            document["source"] = source
        if target is not None:
            document["target"] = target
        if vertex is not None:
            document["vertex"] = vertex
        if schedule:
            document["schedule"] = schedule
        if full:
            document["full"] = True
        return self.request("POST", "/query", body=json.dumps(document))

    def mutate(self, script: str) -> dict:
        response = self.request(
            "POST", "/mutate", body=script, content_type="text/plain"
        )
        return response.raise_for_status().json()
