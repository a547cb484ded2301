"""Hand-rolled HTTP/1.1 framing for the query service.

The service deliberately depends on nothing beyond the standard library
(``asyncio.start_server`` gives us sockets; this module gives us wire
framing), so ``repro serve`` runs wherever the interpreter does.  Only the
subset the service needs is implemented:

* request line + headers + ``Content-Length``-framed bodies (no chunked
  transfer encoding, no trailers, no multipart);
* ``GET``/``POST``/``HEAD`` methods; anything else earns a 405 at routing;
* keep-alive by default (HTTP/1.1 semantics), ``Connection: close``
  honoured in both directions.

Hard limits bound every read so a malicious or confused client cannot balloon
server memory: request line and header block are capped, as is the body.
Violations raise :class:`HTTPError`, which the server turns into a 4xx
response instead of a connection reset.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Mapping
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HTTPError",
    "HTTPRequest",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "REASONS",
    "format_response",
    "json_response",
    "read_request",
]

#: Upper bound on the request line plus the whole header block.
MAX_HEADER_BYTES = 16 * 1024
#: Upper bound on a request body (mutation scripts and query JSON are tiny).
MAX_BODY_BYTES = 4 * 1024 * 1024

REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """A malformed or over-limit request; maps to a 4xx response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HTTPRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    close: bool = field(default=False)

    def json(self) -> dict:
        """The body parsed as a JSON object (raises :class:`HTTPError`)."""
        if not self.body:
            return {}
        try:
            document = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HTTPError(400, f"body is not valid JSON: {error}")
        if not isinstance(document, dict):
            raise HTTPError(400, "JSON body must be an object")
        return document

    def text(self) -> str:
        """The body decoded as UTF-8 text (raises :class:`HTTPError`)."""
        try:
            return self.body.decode("utf-8")
        except UnicodeDecodeError as error:
            raise HTTPError(400, f"body is not valid UTF-8: {error}")


async def read_request(reader) -> HTTPRequest | None:
    """Read one request off ``reader``; ``None`` on a clean EOF.

    The header block is read with a hard byte cap; the body is framed by
    ``Content-Length`` (chunked encoding is rejected — no client of this
    service uses it).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between requests (keep-alive close)
        raise HTTPError(400, "connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise HTTPError(413, f"header block exceeds {MAX_HEADER_BYTES} bytes")
    if len(head) > MAX_HEADER_BYTES:
        raise HTTPError(413, f"header block exceeds {MAX_HEADER_BYTES} bytes")

    lines = head.decode("latin-1").split("\r\n")
    request_line = lines[0]
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HTTPError(400, f"malformed request line: {request_line!r}")
    method, target, version = parts

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HTTPError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    if headers.get("transfer-encoding"):
        raise HTTPError(400, "chunked transfer encoding is not supported")
    length_text = headers.get("content-length", "0")
    # Digits only: int() would also take "+5", "1_0" and non-ASCII digits.
    if not (length_text.isascii() and length_text.isdigit()):
        raise HTTPError(400, f"bad Content-Length: {length_text!r}")
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        raise HTTPError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as error:
        raise HTTPError(
            400, f"connection closed mid-body ({len(error.partial)} of {length} bytes)"
        )

    try:
        split = urlsplit(target)
    except ValueError as error:  # e.g. an unbalanced IPv6 bracket
        raise HTTPError(400, f"malformed request target {target!r}: {error}")
    query = {
        key: value for key, value in parse_qsl(split.query, keep_blank_values=True)
    }
    connection = headers.get("connection", "").lower()
    close = connection == "close" or version == "HTTP/1.0"
    return HTTPRequest(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
        close=close,
    )


def format_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Mapping[str, str] | None = None,
    close: bool = False,
    head_only: bool = False,
) -> bytes:
    """Serialize one HTTP/1.1 response with explicit framing headers."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    if extra_headers:
        for name, value in extra_headers.items():
            lines.append(f"{name}: {value}")
    payload = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
    return payload if head_only else payload + body


def json_response(
    status: int,
    document: dict,
    extra_headers: Mapping[str, str] | None = None,
    close: bool = False,
    head_only: bool = False,
) -> bytes:
    """A JSON response body with framing (sorted keys, trailing newline)."""
    body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
    return format_response(
        status,
        body,
        content_type="application/json",
        extra_headers=extra_headers,
        close=close,
        head_only=head_only,
    )
