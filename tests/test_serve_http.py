"""HTTP/1.1 framing for the query service: parsing, limits, responses.

The wire layer is hand-rolled on the standard library, so every framing
rule it relies on is pinned here: request-line/header parsing,
``Content-Length`` body framing, the header/body size caps, keep-alive
vs ``Connection: close`` semantics, and response serialization.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.http import (
    HTTPError,
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    format_response,
    json_response,
    read_request,
)


def parse(raw: bytes):
    """Feed raw bytes through a StreamReader into read_request."""

    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(_run())


class TestRequestParsing:
    def test_get_with_query_string(self):
        request = parse(
            b"GET /query?program=sssp&source=3&schedule=delta%3D4 HTTP/1.1\r\n"
            b"Host: x\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/query"
        assert request.query == {
            "program": "sssp",
            "source": "3",
            "schedule": "delta=4",
        }
        assert request.body == b""
        assert not request.close  # HTTP/1.1 defaults to keep-alive

    def test_post_with_content_length_body(self):
        body = json.dumps({"program": "kcore"}).encode()
        request = parse(
            b"POST /query HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        assert request.method == "POST"
        assert request.json() == {"program": "kcore"}

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_header_names_are_case_insensitive(self):
        request = parse(b"GET / HTTP/1.1\r\nCoNNecTion: Close\r\n\r\n")
        assert request.close

    def test_http10_implies_close(self):
        request = parse(b"GET / HTTP/1.0\r\n\r\n")
        assert request.close

    def test_path_is_percent_decoded(self):
        request = parse(b"GET /a%20b HTTP/1.1\r\n\r\n")
        assert request.path == "/a b"

    def test_malformed_request_line_rejected(self):
        with pytest.raises(HTTPError) as excinfo:
            parse(b"GARBAGE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_non_http_version_rejected(self):
        with pytest.raises(HTTPError) as excinfo:
            parse(b"GET / SPDY/3\r\n\r\n")
        assert excinfo.value.status == 400

    def test_truncated_request_rejected(self):
        with pytest.raises(HTTPError) as excinfo:
            parse(b"GET / HTTP/1.1\r\nHost: x")  # no terminator, then EOF
        assert excinfo.value.status == 400

    def test_bad_content_length_rejected(self):
        with pytest.raises(HTTPError) as excinfo:
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("length", ["1_0", "+5", "\u0663", " 5x"])
    def test_non_digit_content_length_rejected(self, length):
        raw = f"POST /q HTTP/1.1\r\nContent-Length: {length}\r\n\r\n0123456789"
        with pytest.raises(HTTPError) as caught:
            parse(raw.encode("utf-8"))
        assert caught.value.status == 400

    def test_body_shorter_than_content_length_rejected(self):
        with pytest.raises(HTTPError) as caught:
            parse(b"POST /q HTTP/1.1\r\nContent-Length: 5\r\n\r\n{")
        assert caught.value.status == 400

    def test_chunked_transfer_encoding_rejected(self):
        with pytest.raises(HTTPError) as excinfo:
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert excinfo.value.status == 400


class TestLimits:
    def test_oversized_header_block_rejected(self):
        padding = b"X-Pad: " + b"a" * MAX_HEADER_BYTES + b"\r\n"
        with pytest.raises(HTTPError) as excinfo:
            parse(b"GET / HTTP/1.1\r\n" + padding + b"\r\n")
        assert excinfo.value.status == 413

    def test_oversized_body_rejected_before_reading(self):
        with pytest.raises(HTTPError) as excinfo:
            parse(
                b"POST / HTTP/1.1\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
        assert excinfo.value.status == 413

    def test_negative_content_length_rejected(self):
        with pytest.raises(HTTPError) as excinfo:
            parse(b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        assert excinfo.value.status == 400


class TestBodyDecoding:
    def test_json_non_object_rejected(self):
        request = parse(
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]"
        )
        with pytest.raises(HTTPError) as excinfo:
            request.json()
        assert excinfo.value.status == 400

    def test_json_garbage_rejected(self):
        request = parse(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\n{{{")
        with pytest.raises(HTTPError) as excinfo:
            request.json()
        assert excinfo.value.status == 400

    def test_empty_body_is_empty_object(self):
        request = parse(b"POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
        assert request.json() == {}


class TestResponses:
    def test_framing_headers_present(self):
        raw = format_response(200, b"hello", content_type="text/plain")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b"hello"
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert "Content-Length: 5" in lines
        assert "Connection: keep-alive" in lines

    def test_close_and_extra_headers(self):
        raw = format_response(
            429, b"{}", extra_headers={"Retry-After": "1"}, close=True
        )
        head = raw.split(b"\r\n\r\n")[0].decode()
        assert "429 Too Many Requests" in head
        assert "Retry-After: 1" in head
        assert "Connection: close" in head

    def test_head_only_omits_body_keeps_length(self):
        raw = format_response(200, b"hello", head_only=True)
        assert raw.endswith(b"\r\n\r\n")
        assert b"Content-Length: 5" in raw

    def test_json_response_round_trips(self):
        raw = json_response(200, {"b": 2, "a": 1})
        body = raw.split(b"\r\n\r\n", 1)[1]
        assert json.loads(body) == {"a": 1, "b": 2}
        # sorted keys: deterministic bytes for bit-match assertions
        assert body == b'{"a": 1, "b": 2}\n'
