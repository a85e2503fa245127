"""The HTTP front's framing: split streams, head limits, 100-continue, threads.

The front parses HTTP/1.1 itself on the Gateway's loop, so these tests
pin its framing at the byte level: a pipelined keep-alive stream gets the
same response bytes however it is cut into writes, the head limits and
``Content-Length`` rules hold on the REST front (not only on the
``--metrics-port`` one), ``Expect: 100-continue`` is answered before the
body is sent, and serving keep-alive connections starts no thread.
"""

from __future__ import annotations

import http.client
import itertools
import json
import re
import socket
import threading
import time
from http import HTTPStatus

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import UnknownSessionError
from repro.gateway import GatewayServer
from repro.service import SpecRegistry

from tests.gateway.conftest import DOC, EVENT, live_gateway

_DATE = re.compile(rb"\r\nDate: [^\r]*")
_STATUS = re.compile(rb"HTTP/1\.1 (\d{3}) ")


@pytest.fixture(scope="module")
def stack():
    """One live server, Gateway and REST front: ``(port, gateway)``."""
    with live_gateway(SpecRegistry.from_text(DOC)) as (api, gateway):
        yield api.conn.port, gateway


def _request(
    method: str,
    path: str,
    body: bytes | None = None,
    *,
    headers: tuple[str, ...] = (),
    version: str = "HTTP/1.1",
) -> bytes:
    lines = [f"{method} {path} {version}", "Host: 127.0.0.1", *headers]
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    head = "".join(f"{line}\r\n" for line in lines) + "\r\n"
    return head.encode("latin-1") + (body or b"")


def _exchange(port: int, writes, *, pause: float = 0.0) -> bytes:
    """Write each chunk in turn, end the stream, read all the answers."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for data in writes:
                sock.sendall(data)
                if pause:
                    time.sleep(pause)
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # the front closed; read what it answered
            pass
        chunks = []
        while True:
            try:
                chunk = sock.recv(1 << 16)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _head(raw: bytes) -> bytes:
    return raw.partition(b"\r\n\r\n")[0]


def _content_length(head: bytes) -> int:
    return next(
        int(line.split(b":")[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )


# -- the split-stream property -------------------------------------------

#: Requests that keep the connection open, by kind.
_MIDDLE = ["post", "bad_json", "status", "not_found", "not_allowed", "expect"]

#: Requests after which the front closes the connection, by kind.
_CLOSERS = ["unread_404", "unread_405", "close", "http10", "too_long"]

_keys = itertools.count()


def _stream(kinds: list[str], key: str) -> tuple[list[bytes], list[int]]:
    """The requests of ``kinds`` for session ``key``, and the statuses due."""
    post = json.dumps({"spec": "A", "events": [EVENT, EVENT]}).encode()
    requests, statuses = [], []
    opened = False
    for kind in kinds:
        if kind == "post":
            requests.append(_request("POST", f"/v1/sessions/{key}/events", post))
            statuses.append(200)
            opened = True
        elif kind == "bad_json":
            requests.append(
                _request("POST", f"/v1/sessions/{key}/events", b"{not json")
            )
            statuses.append(400)
        elif kind == "status":
            requests.append(_request("GET", f"/v1/sessions/{key}"))
            statuses.append(200 if opened else 404)
        elif kind == "not_found":
            requests.append(_request("GET", "/v1/nope"))
            statuses.append(404)
        elif kind == "not_allowed":
            requests.append(_request("DELETE", "/v1/documents"))
            statuses.append(405)
        elif kind == "expect":
            requests.append(
                _request(
                    "POST",
                    f"/v1/sessions/{key}/events",
                    post,
                    headers=("Expect: 100-continue",),
                )
            )
            statuses += [100, 200]
            opened = True
        elif kind == "unread_404":
            requests.append(_request("POST", "/v1/nope", post))
            statuses.append(404)
        elif kind == "unread_405":
            requests.append(_request("PUT", "/v1/sessions", post))
            statuses.append(405)
        elif kind == "close":
            requests.append(
                _request("GET", "/v1/documents", headers=("Connection: close",))
            )
            statuses.append(200)
        elif kind == "http10":
            requests.append(_request("GET", "/v1/documents", version="HTTP/1.0"))
            statuses.append(200)
        else:  # "too_long"
            requests.append(_request("GET", "/" + "x" * 70_000))
            statuses.append(414)
    return requests, statuses


def _end(gateway, key: str) -> None:
    try:
        gateway.end_session(key)
    except UnknownSessionError:
        pass


@settings(max_examples=40, deadline=None)
@given(
    middle=st.lists(st.sampled_from(_MIDDLE), min_size=1, max_size=8),
    closer=st.sampled_from(_CLOSERS),
    cuts=st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=12),
)
def test_split_stream_gets_the_same_responses(stack, middle, closer, cuts):
    """Response bytes do not depend on how the requests are cut into writes.

    The stream is pipelined on one keep-alive connection and ends with
    the one request after which the front closes; ``Date`` is masked.
    """
    port, gateway = stack
    key = f"split-{next(_keys)}"
    requests, statuses = _stream([*middle, closer], key)
    stream = b"".join(requests)
    points = sorted({cut % len(stream) for cut in cuts} - {0})
    chunks = [
        stream[a:b] for a, b in zip([0, *points], [*points, len(stream)])
    ]

    whole = _DATE.sub(b"\r\nDate: -", _exchange(port, requests, pause=0.001))
    _end(gateway, key)
    split = _DATE.sub(b"\r\nDate: -", _exchange(port, chunks, pause=0.001))
    _end(gateway, key)

    assert split == whole
    assert [int(s) for s in _STATUS.findall(whole)] == statuses
    last = whole[whole.rindex(b"HTTP/1.1 ") :]
    assert b"Connection: close" in _head(last).split(b"\r\n")
    assert len(last) == len(_head(last)) + 4 + _content_length(_head(last))


@settings(max_examples=200, deadline=None)
@given(head=st.binary(max_size=120), fields=st.binary(max_size=120))
def test_any_request_line_gets_an_answer(stack, head, fields):
    """Whatever the head, a request line with a word in it is answered.

    Only a blank request line or the end of the stream closes the
    connection silently; nothing the client sends may end it unanswered.
    """
    port, _ = stack
    line = head.replace(b"\n", b"")
    raw = _exchange(port, [line + b"\r\n" + fields + b"\r\n\r\n"])
    if line.decode("iso-8859-1").split():
        assert raw, line


# -- head limits and Content-Length on the REST front ----------------------


class TestHeadLimits:
    def test_request_line_over_64_kib_is_414(self, stack):
        port, _ = stack
        raw = _exchange(port, [_request("GET", "/" + "x" * 100_000)])
        head = _head(raw)
        phrase = HTTPStatus.REQUEST_URI_TOO_LONG.phrase.encode()
        assert head.startswith(b"HTTP/1.1 414 " + phrase + b"\r\n")
        assert b"Connection: close" in head.split(b"\r\n")
        assert _content_length(head) == len(raw) - len(head) - 4

    @pytest.mark.parametrize("size, status", [(65536, 404), (65537, 414)])
    @pytest.mark.parametrize("newline", [True, False])
    def test_request_line_limit_is_64_kib(self, stack, size, status, newline):
        """``size`` bytes with the newline, or ending the stream without one."""
        port, _ = stack
        end = "\r\n" if newline else ""
        pre, post = "GET /", " HTTP/1.0" + end
        line = pre + "x" * (size - len(pre) - len(post)) + post
        raw = _exchange(port, [(line + end).encode("latin-1")])
        assert raw.startswith(b"HTTP/1.1 %d " % status)

    @pytest.mark.parametrize("size, status", [(65536, 200), (65537, 431)])
    def test_header_line_limit_is_64_kib(
        self, stack, size, status
    ):
        port, _ = stack
        field = "X-Filler: " + "y" * (size - 12)  # and "\r\n"
        request = _request(
            "GET", "/v1/documents", headers=(field,), version="HTTP/1.0"
        )
        raw = _exchange(port, [request])
        assert raw.startswith(b"HTTP/1.1 %d " % status)

    @pytest.mark.parametrize("lines, status", [(99, 200), (100, 431)])
    def test_header_lines_stop_at_100(self, stack, lines, status):
        """100 lines follow the request line at most, the blank included."""
        port, _ = stack
        # ``_request`` adds the ``Host`` line
        fillers = tuple(f"X-Filler-{i}: y" for i in range(lines - 1))
        raw = _exchange(
            port,
            [_request("GET", "/v1/documents", headers=fillers, version="HTTP/1.0")],
        )
        assert raw.startswith(b"HTTP/1.1 %d " % status)

    def test_missing_content_length_is_400_and_keeps_the_connection(
        self, stack
    ):
        port, _ = stack
        head = b"POST /v1/sessions/k/events HTTP/1.1\r\nHost: h\r\n\r\n"
        then = _request("GET", "/v1/documents", version="HTTP/1.0")
        raw = _exchange(port, [head + then])
        assert [int(s) for s in _STATUS.findall(raw)] == [400, 200]
        first = raw[: raw.index(b"HTTP/1.1 200")]
        assert b"Connection: close" not in first
        body = json.loads(first.partition(b"\r\n\r\n")[2])
        assert body["error"]["kind"] == "BadRequestError"
        assert "Content-Length" in body["error"]["message"]

    @pytest.mark.parametrize(
        "framing",
        ["Content-Length: abc", "Content-Length: -1", "Transfer-Encoding: chunked"],
    )
    def test_unusable_body_framing_is_400_and_closes(self, stack, framing):
        port, _ = stack
        head = (
            f"POST /v1/sessions/k/events HTTP/1.1\r\nHost: h\r\n{framing}"
            "\r\n\r\n"
        ).encode()
        then = _request("GET", "/v1/documents")
        raw = _exchange(port, [head + then])
        assert [int(s) for s in _STATUS.findall(raw)] == [400]
        assert b"Connection: close" in _head(raw).split(b"\r\n")
        body = json.loads(raw.partition(b"\r\n\r\n")[2])
        assert body["error"]["kind"] == "BadRequestError"

    def test_unsupported_method_is_501(self, stack):
        port, _ = stack
        raw = _exchange(port, [_request("PATCH", "/v1/documents")])
        assert raw.startswith(b"HTTP/1.1 501 Unsupported method ('PATCH')\r\n")
        assert b"Connection: close" in _head(raw).split(b"\r\n")


class TestExpectContinue:
    def test_100_continue_comes_before_the_body_is_sent(self, stack):
        port, gateway = stack
        body = json.dumps({"spec": "A", "event": EVENT}).encode()
        head = _request(
            "POST",
            "/v1/sessions/expect/events",
            headers=(
                "Expect: 100-continue",
                f"Content-Length: {len(body)}",
                "Connection: close",
            ),
        )
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            reply = b""
            while chunk := sock.recv(1 << 16):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert json.loads(reply.partition(b"\r\n\r\n")[2])["events"] == 1
        gateway.end_session("expect")

    def test_http10_gets_no_interim_response(self, stack):
        port, _ = stack
        raw = _exchange(
            port,
            [
                _request(
                    "GET",
                    "/v1/documents",
                    headers=("Expect: 100-continue",),
                    version="HTTP/1.0",
                )
            ],
        )
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")


# -- no thread per connection or request -----------------------------------


def test_keep_alive_requests_start_no_thread(stack):
    """50 requests over 5 keep-alive connections: the thread set is unchanged."""
    port, gateway = stack
    conns = [http.client.HTTPConnection("127.0.0.1", port) for _ in range(5)]
    for conn in conns:
        conn.connect()
    socks = [conn.sock for conn in conns]
    before = set(threading.enumerate())
    body = json.dumps({"spec": "A", "events": [EVENT]}).encode()
    for i in range(50):
        conn = conns[i % 5]
        if i >= 5 and i % 2:
            conn.request("GET", f"/v1/sessions/threads-{i % 5}")
        else:
            conn.request(
                "POST",
                f"/v1/sessions/threads-{i % 5}/events",
                body,
                {"Content-Type": "application/json"},
            )
        response = conn.getresponse()
        response.read()
        assert response.status == 200
    assert set(threading.enumerate()) == before
    assert [conn.sock for conn in conns] == socks  # kept alive throughout
    for conn in conns:
        conn.close()
    for i in range(5):
        gateway.end_session(f"threads-{i}")


def test_accepted_sockets_disable_nagle(stack):
    """Small keep-alive replies must not wait out Nagle + delayed ACK."""
    _, gateway = stack
    with GatewayServer(gateway, host="127.0.0.1", port=0) as front:
        with socket.create_connection(("127.0.0.1", front.port), timeout=30):
            deadline = time.monotonic() + 10
            while not front._conns and time.monotonic() < deadline:
                time.sleep(0.01)
            (conn,) = front._conns.values()
            sock = conn.writer.get_extra_info("socket")
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_close_ends_idle_keep_alive_connections(stack):
    """Closing the front ends a connection that waits for its next request."""
    _, gateway = stack
    front = GatewayServer(gateway, host="127.0.0.1", port=0).start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=30)
        conn.request("GET", "/v1/documents")
        assert conn.getresponse().read()
        began = time.monotonic()
    finally:
        front.close()
    assert time.monotonic() - began < 5  # well inside CLOSE_TIMEOUT
    assert conn.sock.recv(1) == b""  # the front hung up
    conn.close()
