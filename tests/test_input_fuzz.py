"""Every input boundary answers with a coded diagnostic, never a crash.

Hypothesis (derandomized) feeds each boundary inputs it was not written
for: DSL text mutated token by token, token soup, arbitrary bytes as a
graph file in every format, arbitrary mutation-script text, and arbitrary
bytes on the HTTP socket.  The only exceptions allowed out are the
boundary's own: :class:`~repro.errors.GraphItError` (the CLI's and the
server's 4xx) and, on the wire, :class:`~repro.serve.http.HTTPError`.
The ``@example`` cases are inputs that used to escape.
"""

from __future__ import annotations

import asyncio
import os
import re
import subprocess

import pytest
import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.backend import compile_program
from repro.errors import GraphItError
from repro.graph.io import load_dimacs, load_edge_list, load_npz
from repro.graph.mutations import parse_mutation_script
from repro.lang import ALL_PROGRAMS
from repro.midend import Schedule
from repro.midend.lint import lint_program
from repro.serve.http import HTTPError, read_request

from .oracle_matrix import GXX, _standalone_binary

pytestmark = pytest.mark.slow

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,  # tmp_path is rewritten per input
    ],
)

_TOKEN = re.compile(r"\s+|[A-Za-z_]\w*|\d+|\"[^\"]*\"|#\w+#|==|!=|<=|>=|.")
_PROGRAM_TOKENS = {name: _TOKEN.findall(text) for name, text in ALL_PROGRAMS.items()}
_VOCABULARY = sorted({t for tokens in _PROGRAM_TOKENS.values() for t in tokens if t.strip()})


def _edit(tokens: list[str], edits) -> str:
    tokens = list(tokens)
    for kind, index, token in edits:
        index %= len(tokens)
        if kind == "delete":
            del tokens[index]
        elif kind == "repeat":
            tokens.insert(index, tokens[index])
        elif kind == "swap":
            j = (index + 1) % len(tokens)
            tokens[index], tokens[j] = tokens[j], tokens[index]
        else:
            tokens.insert(index, token)
    return "".join(tokens)


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["delete", "repeat", "swap", "insert"]),
        st.integers(0, 10**6),
        st.sampled_from(_VOCABULARY),
    ),
    min_size=1,
    max_size=4,
)
_DSL = st.one_of(
    st.builds(_edit, st.sampled_from(sorted(_PROGRAM_TOKENS)).map(_PROGRAM_TOKENS.get), _EDITS),
    st.lists(st.sampled_from([*_VOCABULARY, " ", "\n", "99999999999999999999999"]),
             max_size=60).map("".join),
)


@FUZZ
@given(source=_DSL)
def test_dsl_text_yields_diagnostics(source):
    """``repro lint`` never raises; compiling raises only coded errors."""
    assert all(d.code for d in lint_program(source))
    try:
        compile_program(source)
    except GraphItError:
        pass


_WORDS = ["add", "remove", "update", "flush", "#", "0", "1", "-1", "2.5", "p sp",
          "a", "v", "c", "99999999999999999999999", "x", "\n", " ", "\t", "nan", "\x00"]
_TEXT = st.one_of(st.text(max_size=80), st.lists(st.sampled_from(_WORDS), max_size=20).map("".join))
_LOADERS = {"edge list": load_edge_list, "dimacs": load_dimacs, "npz": load_npz}
_GRAPH_BYTES = st.one_of(
    st.binary(max_size=120), _TEXT.map(lambda t: t.encode("utf-8", "replace"))
)


@FUZZ
@given(content=_GRAPH_BYTES, loader=st.sampled_from(sorted(_LOADERS)))
@example(content=b"0 1\n2 x\n", loader="edge list")
@example(content=b"0 1\n\xf7\x90\n", loader="edge list")
@example(content=b"0 1 99999999999999999999999\n", loader="edge list")
@example(content=b"p sp 2 1\na 1 2 w\n", loader="dimacs")
@example(content=b"p sp 2 1\na 1 2 99999999999999999999999\n", loader="dimacs")
@example(content=b"p sp 99999999999999999999999 0\n", loader="dimacs")
@example(content=b"not a zip", loader="npz")
@example(content=b"", loader="npz")
def test_graph_files_yield_graph_errors(tmp_path, content, loader):
    path = tmp_path / "graph"
    path.write_bytes(content)
    try:
        _LOADERS[loader](path)
    except GraphItError:
        pass


_KCORE = Schedule(priority_update="lazy_constant_sum")


@pytest.mark.skipif(GXX is None, reason="g++ not available")
@FUZZ
@given(content=_GRAPH_BYTES)
@example(content=b"1_0 2\n")
@example(content=b"0 \xd9\xa1\n")
@example(content=b"# \xff vertices=3\n0 1\r2 0\n")
def test_edge_list_loaders_agree(tmp_path, content):
    """``load_edge_list`` (here under ``repro run kcore``'s interpreter) and
    the standalone k-core program read every edge-list file alike: the same
    core numbers, or both refuse.  No number may exceed 10^4, so that no
    example asks either loader for a huge vertex count (a huge ``vertices=``
    header is still allocated by both); weights past int64 are in
    ``TestGraphFileContract``'s fixed list."""
    assume(all(int(run) <= 10**4 for run in re.findall(rb"[0-9]+", content)))
    path = tmp_path / "g.el"
    path.write_bytes(content)
    program = compile_program(ALL_PROGRAMS["kcore"], _KCORE)
    try:
        interpreted = program.run(["kcore", str(path)]).globals["D"]
    except GraphItError:
        interpreted = None
    env = dict(os.environ, REPRO_OUTPUT=str(tmp_path / "out.txt"))
    done = subprocess.run(
        [str(_standalone_binary("kcore", _KCORE, False)), str(path)],
        env=env,
        capture_output=True,
        text=True,
        errors="replace",
    )
    if interpreted is None:
        assert done.returncode == 1 and "error: " in done.stderr, done.stderr
        return
    assert done.returncode == 0, done.stderr
    label, *values = (tmp_path / "out.txt").read_text().split()
    assert label == "D"
    np.testing.assert_array_equal(np.array(values, dtype=np.int64), interpreted)


@FUZZ
@given(text=_TEXT)
def test_mutation_scripts_yield_graph_errors(text):
    try:
        parse_mutation_script(text)
    except GraphItError:
        pass


def _read(raw: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


_HTTP_PIECES = [b"GET", b"POST", b" ", b"/query?program=sssp&source", b"HTTP/1.1",
                b"HTTP/1.0", b"\r\n", b":", b"Content-Length", b"-1", b"5", b"1_0",
                b"http://[x", b"%zz", b"\xff\xfe", b"{", b"Transfer-Encoding: chunked"]


@FUZZ
@given(raw=st.one_of(
    st.binary(max_size=300), st.lists(st.sampled_from(_HTTP_PIECES), max_size=25).map(b"".join)
))
@example(raw=b"POST /mutate HTTP/1.1\r\nContent-Length: 5\r\n\r\n{")
@example(raw=b"GET http://[x/ HTTP/1.1\r\n\r\n")
@example(raw=b"POST /query HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789")
def test_http_bytes_yield_4xx(raw):
    try:
        request = _read(raw)
    except HTTPError as error:
        assert 400 <= error.status < 500
        return
    if request is not None:
        for decode in (request.json, request.text):
            try:
                decode()
            except HTTPError as error:
                assert error.status == 400
