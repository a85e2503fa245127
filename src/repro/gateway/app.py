"""The HTTP/JSON gateway: asyncio streams on :class:`repro.api.Gateway`'s loop.

This module is *routing only*.  Every handler body is a line or two that
awaits one :class:`repro.api.Gateway` coroutine and serialises its dict —
no protocol knowledge, no service imports (the lint test
tests/gateway/test_lint.py keeps it that way).  The endpoint surface,
status codes, and error envelope are specified normatively in
``docs/http-api.md``:

========  ==============================  =================================
method    path                            meaning
========  ==============================  =================================
GET       ``/v1/healthz``                 liveness + backend reachability
GET       ``/v1/documents``               served specification names
PUT       ``/v1/documents/{name}``        register / hot-swap a document
GET       ``/v1/sessions``                open gateway session keys
POST      ``/v1/sessions/{key}/events``   send one event or a batch
GET       ``/v1/sessions/{key}``          status + violation
DELETE    ``/v1/sessions/{key}``          close, returning final status
GET       ``/v1/metrics`` (``/metrics``)  Prometheus text (fan-in merged)
========  ==============================  =================================

The front is an :func:`asyncio.start_server` on the Gateway's own
private loop: one task per connection, no thread, and every request
awaits the Gateway's coroutine in place (its per-key locks serialise
same-key requests).  The HTTP/1.1 framing is ``http.server``'s, byte for
byte: the request line is read at most 64 KiB deep (``414``), at most
100 lines follow it, the blank one included (``431``), ``Expect:
100-continue`` is answered with ``100 Continue``, HTTP/1.1 keeps the
connection alive and HTTP/1.0 closes it, and an error response whose
request body was never read says ``Connection: close`` and closes.
Requests that cannot be parsed as HTTP get ``http.server``'s HTML error
page.  Every accepted socket gets ``TCP_NODELAY``.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import html
import json
import re
import socket
import sys
import time
from email.utils import formatdate
from http import HTTPStatus
from json.encoder import encode_basestring_ascii as _quote
from urllib.parse import parse_qs, unquote, urlsplit

from repro import api
from repro.core.errors import ReproError
from repro.gateway.errors import (
    BadRequestError,
    MethodNotAllowedError,
    NotFoundError,
    error_envelope,
)

__all__ = ["GatewayServer", "MetricsServer"]

#: Upper bound on request bodies (documents, event batches): plenty for
#: any real OUN document, small enough to shrug off garbage.
MAX_BODY = 8 * 1024 * 1024

#: Longest request line or header line, newline included.
MAX_LINE = 65536

#: Most lines after the request line, the blank one included.
MAX_HEADERS = 100

_ROUTES = [
    ("GET", re.compile(r"^/v1/healthz$"), "_get_health"),
    ("GET", re.compile(r"^/v1/documents$"), "_get_documents"),
    ("PUT", re.compile(r"^/v1/documents/(?P<name>[^/]+)$"), "_put_document"),
    ("GET", re.compile(r"^/v1/sessions$"), "_get_sessions"),
    (
        "POST",
        re.compile(r"^/v1/sessions/(?P<key>[^/]+)/events$"),
        "_post_events",
    ),
    ("GET", re.compile(r"^/v1/sessions/(?P<key>[^/]+)$"), "_get_session"),
    (
        "DELETE",
        re.compile(r"^/v1/sessions/(?P<key>[^/]+)$"),
        "_delete_session",
    ),
    ("GET", re.compile(r"^/v1/metrics$"), "_get_metrics"),
    ("GET", re.compile(r"^/metrics$"), "_get_metrics"),
]

#: The ``--metrics-port`` front's whole surface: the Prometheus scrape.
_METRICS_ROUTES = [route for route in _ROUTES if route[2] == "_get_metrics"]

#: Methods with a handler; any other gets ``501``.
_METHODS = frozenset(("GET", "PUT", "POST", "DELETE"))

_SERVER = f"repro-gateway/{api.API_VERSION} Python/{sys.version.split()[0]}"

_PHRASES = {status.value: status.phrase for status in HTTPStatus}

#: Seconds :meth:`GatewayServer.close` lets requests in flight finish.
CLOSE_TIMEOUT = 10.0

#: Seconds the sender of an over-long head gets to read the refusal.
_LINGER_S = 1.0

#: The most one socket read takes: 64 KiB comes from the heap, where 256
#: KiB can cost an mmap per read (see the service's ``RECV_BYTES``).
_RECV_BYTES = 1 << 16

#: A header line's start: a field name and its colon, or a continuation.
_FIELD = re.compile(r"[\041-\071\073-\176]*:|[\t ]")

_ERROR_PAGE = """\
<!DOCTYPE HTML>
<html lang="en">
    <head>
        <meta charset="utf-8">
        <title>Error response</title>
    </head>
    <body>
        <h1>Error response</h1>
        <p>Error code: %(code)d</p>
        <p>Message: %(message)s.</p>
        <p>Error code explanation: %(code)s - %(explain)s.</p>
    </body>
</html>
"""

@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The RFC 7231 ``Date`` value of a Unix second."""
    return formatdate(second, usegmt=True)


def _version_number(version: str) -> tuple[int, int] | None:
    """``HTTP/<major>.<minor>`` as two ints, or None if malformed."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(p.isdigit() and len(p) <= 10 for p in parts):
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:  # a digit int() does not read, such as "²"
        return None


def _fields(lines: list[bytes]) -> dict[str, str]:
    """Header name (lower case) → its first value.

    As ``http.server`` reads them: a line opening with a space or tab
    continues the field before it, and the first line that is neither a
    field nor a continuation ends the fields.
    """
    fields: dict[str, str] = {}
    name = None
    value: list[str] = []
    for raw in lines:
        line = raw.decode("iso-8859-1")
        match = _FIELD.match(line)
        if match is None:
            break
        if match.end() == 1 and line[0] in " \t":
            if name is not None:
                value.append(line)
            continue
        if name is not None:
            fields.setdefault(name, "".join(value).rstrip("\r\n"))
            name = None
        colon = match.end() - 1
        if colon:
            name = line[:colon].lower()
            value = [line[colon + 1 :].lstrip(" \t")]
    if name is not None:
        fields.setdefault(name, "".join(value).rstrip("\r\n"))
    return fields


_INF = float("inf")


class _NotPlainJson(Exception):
    """A value :func:`_render` leaves to ``json.dumps`` (not plain JSON)."""


def _json_body(payload) -> bytes:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline.

    The same bytes, but strings go through the C string encoder: any
    ``indent`` turns ``json.dumps`` onto its pure-Python encoder.  A
    value other than plain JSON (a non-string key, a set, …) is left to
    ``json.dumps`` itself.
    """
    parts: list[str] = []
    try:
        _render(payload, "\n", parts)
    except _NotPlainJson:
        return json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n"
    parts.append("\n")
    return "".join(parts).encode()


def _render(value, newline: str, parts: list[str]) -> None:
    """Append ``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it.

    The type tests run in ``json.encoder``'s order; ``newline`` is the
    line break plus the indent of the line ``value`` starts on.
    """
    if isinstance(value, str):
        parts.append(_quote(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            parts.append("NaN")
        elif value == _INF:
            parts.append("Infinity")
        elif value == -_INF:
            parts.append("-Infinity")
        else:
            parts.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in value:
            parts.append(opener)
            _render(item, inner, parts)
            opener = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise _NotPlainJson()
            parts.append(opener)
            parts.append(_quote(key))
            parts.append(": ")
            _render(item, inner, parts)
            opener = "," + inner
        parts.append(newline + "}")
    else:
        raise _NotPlainJson()


class _Connection:
    """One client connection: read a request, route it, answer; repeat."""

    def __init__(self, front: "GatewayServer", reader, writer) -> None:
        self.front = front
        self.gateway: api.Gateway = front.gateway
        self.reader = reader
        self.writer = writer
        self.method: str | None = None
        self.version = "HTTP/0.9"
        self.close = True
        self.headers: dict[str, str] = {}
        #: Waiting for a request line: no request is in progress.
        self.idle = True
        #: An over-long head was refused with its rest unread.
        self.linger = False

    async def serve(self) -> None:
        while await self._one_request() and not self.front._closing:
            await self.writer.drain()
        await self.writer.drain()
        if self.linger:
            # Closing on unread input would reset the connection, which
            # can discard the refusal before the client reads it.
            self.writer.write_eof()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._discard(), _LINGER_S)

    async def _discard(self) -> None:
        while await self.reader.read(_RECV_BYTES):
            pass

    async def _one_request(self) -> bool:
        """Answer one request; True while the connection stays open."""
        self.idle = True
        raw = await self._readline()
        self.idle = False
        if raw is None:
            self.method, self.version = "", ""
            self._refuse(HTTPStatus.REQUEST_URI_TOO_LONG)
            return False
        if not raw or not await self._read_head(raw):
            return False
        if self.method not in _METHODS:
            self._refuse(
                HTTPStatus.NOT_IMPLEMENTED,
                f"Unsupported method ({self.method!r})",
            )
            return False
        await self._dispatch()
        return not self.close

    async def _readline(self) -> bytes | None:
        """The next line, or None if it runs past :data:`MAX_LINE` bytes."""
        try:
            line = await self.reader.readline()
        except ValueError:  # no newline within the stream's limit
            return None
        return None if len(line) > MAX_LINE else line

    async def _read_head(self, raw: bytes) -> bool:
        """Parse the request line and header fields; False if refused."""
        self.method, self.version, self.close = None, "HTTP/0.9", True
        requestline = str(raw, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self._refuse(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad request version ({version!r})",
                )
                return False
            if number >= (1, 1):
                self.close = False
            if number >= (2, 0):
                self._refuse(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
                return False
            self.version = version
        if not 2 <= len(words) <= 3:
            self._refuse(
                HTTPStatus.BAD_REQUEST,
                f"Bad request syntax ({requestline!r})",
            )
            return False
        method, path = words[:2]
        if len(words) == 2:
            self.close = True
            if method != "GET":
                self._refuse(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad HTTP/0.9 request type ({method!r})",
                )
                return False
        self.method = method
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        lines = []
        while True:
            line = await self._readline()
            if line is None:
                self._refuse(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {MAX_LINE} bytes when reading header line",
                )
                return False
            lines.append(line)
            if len(lines) > MAX_HEADERS:
                self._refuse(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {MAX_HEADERS} headers",
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
        self.headers = _fields(lines)
        conntype = self.headers.get("connection", "").lower()
        if conntype == "close":
            self.close = True
        elif conntype == "keep-alive":
            self.close = False
        if (
            self.headers.get("expect", "").lower() == "100-continue"
            and self.version >= "HTTP/1.1"
        ):
            self.writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    # -- dispatch --------------------------------------------------------

    async def _dispatch(self) -> None:
        self._body_read = False
        method = self.method
        try:
            split = urlsplit(self.path)
            path = unquote(split.path)
            self._query = parse_qs(split.query)
            path_known = False
            for verb, pattern, attr in self.front.routes:
                match = pattern.match(path)
                if match is None:
                    continue
                path_known = True
                if verb != method:
                    continue
                await getattr(self, attr)(**match.groupdict())
                return
            if path_known:
                raise MethodNotAllowedError(
                    f"{method} is not supported on {path}"
                )
            raise NotFoundError(f"no such resource: {path}")
        except Exception as exc:  # uniform envelope, never a stack trace
            status, payload = error_envelope(exc)
            # A body the route never read would parse as the next request.
            if not self._body_read and (
                "content-length" in self.headers
                or "transfer-encoding" in self.headers
            ):
                self.close = True
            self._send_json(status, payload)

    # -- request plumbing ------------------------------------------------

    def _flag(self, name: str) -> bool:
        values = self._query.get(name, [])
        return bool(values) and values[-1].lower() not in (
            "",
            "0",
            "false",
            "no",
        )

    async def _read_body(self) -> bytes:
        length = self.headers.get("content-length")
        if length is None:
            raise BadRequestError("request needs a Content-Length header")
        try:
            size = int(length)
        except ValueError:
            raise BadRequestError(f"bad Content-Length: {length!r}") from None
        if size < 0 or size > MAX_BODY:
            raise BadRequestError(
                f"body of {size} bytes exceeds the {MAX_BODY} byte limit"
            )
        try:
            body = await self.reader.readexactly(size)
        except asyncio.IncompleteReadError as exc:  # the client hung up
            body = exc.partial
        self._body_read = True
        return body

    async def _read_json(self) -> dict:
        raw = await self._read_body()
        try:
            body = json.loads(raw.decode("utf-8"))
            if b"\\u" in raw:  # a lone surrogate escape has no UTF-8 form
                json.dumps(body, ensure_ascii=False).encode("utf-8")
        except ValueError as exc:  # Unicode errors are ValueErrors too
            raise BadRequestError(f"body is not valid JSON: {exc}") from exc
        except RecursionError:
            raise BadRequestError("JSON body is nested too deeply") from None
        if not isinstance(body, dict):
            raise BadRequestError("JSON body must be an object")
        return body

    @staticmethod
    def _bool_field(body: dict, name: str, default: bool) -> bool:
        value = body.get(name, default)
        if not isinstance(value, bool):
            raise BadRequestError(f'"{name}" must be a boolean')
        return value

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_bytes(status, _json_body(payload), "application/json")

    def _send_bytes(self, status: int, body: bytes, ctype: str) -> None:
        if self.version == "HTTP/0.9":  # no status line, no headers
            self.writer.write(body)
            return
        head = (
            f"HTTP/1.1 {status} {_PHRASES.get(status, '')}\r\n"
            f"Server: {_SERVER}\r\n"
            f"Date: {_http_date(int(time.time()))}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if self.close:
            head += "Connection: close\r\n"
        self.writer.write((head + "\r\n").encode("latin-1") + body)

    def _refuse(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Refuse a request that is not HTTP, and close: ``send_error``'s page."""
        status = HTTPStatus(code)
        message = status.phrase if message is None else message
        explain = status.description if explain is None else explain
        body = (
            _ERROR_PAGE
            % {
                "code": code,
                "message": html.escape(message, quote=False),
                "explain": html.escape(explain, quote=False),
            }
        ).encode("utf-8", "replace")
        self.close = True
        self.linger = code in (
            HTTPStatus.REQUEST_URI_TOO_LONG,
            HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
        )
        head = b""
        if self.version != "HTTP/0.9":
            head = (
                f"HTTP/1.1 {code} {message}\r\n"
                f"Server: {_SERVER}\r\n"
                f"Date: {_http_date(int(time.time()))}\r\n"
                "Connection: close\r\n"
                "Content-Type: text/html;charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1", "strict")
        self.writer.write(head if self.method == "HEAD" else head + body)

    # -- endpoints -------------------------------------------------------

    async def _get_health(self) -> None:
        self._send_json(200, await self.gateway.ahealth())

    async def _get_documents(self) -> None:
        self._send_json(200, {"documents": await self.gateway.adocuments()})

    async def _put_document(self, name: str) -> None:
        ctype = (
            self.headers.get("content-type", "").split(";")[0].strip().lower()
        )
        force = self._flag("force")
        if ctype == "application/json":
            body = await self._read_json()
            text = body.get("text")
            if not isinstance(text, str):
                raise BadRequestError(
                    'JSON document bodies need a string "text" field'
                )
            force = self._bool_field(body, "force", force)
        else:
            raw = await self._read_body()
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise BadRequestError(
                    f"document body is not UTF-8: {exc}"
                ) from exc
        report = await self.gateway.aupdate_from_text(
            text, force=force, declares=name
        )
        report["document"] = name
        self._send_json(200, report)

    async def _get_sessions(self) -> None:
        self._send_json(200, {"sessions": await self.gateway.asessions()})

    async def _post_events(self, key: str) -> None:
        body = await self._read_json()
        if ("event" in body) == ("events" in body):
            raise BadRequestError(
                'body needs exactly one of "event" or "events"'
            )
        if "event" in body:
            events = [body["event"]]
        else:
            events = body["events"]
            if not isinstance(events, list):
                raise BadRequestError(
                    '"events" must be an array of trace lines'
                )
        for event in events:
            if not isinstance(event, str):
                raise BadRequestError("event lines must be strings")
        spec = body.get("spec")
        if spec is not None and not isinstance(spec, str):
            raise BadRequestError('"spec" must be a string')
        durable = self._bool_field(body, "durable", False)
        self._send_json(
            200,
            await self.gateway.asend_events(
                key, events, spec=spec, durable=durable
            ),
        )

    async def _get_session(self, key: str) -> None:
        self._send_json(200, await self.gateway.asession_status(key))

    async def _delete_session(self, key: str) -> None:
        self._send_json(200, await self.gateway.aend_session(key))

    async def _get_metrics(self) -> None:
        self._send_bytes(
            200,
            (await self.gateway.ametrics_text()).encode("utf-8"),
            "text/plain; version=0.0.4",
        )


class GatewayServer:
    """Bind the HTTP front; serve it on the Gateway's loop once started.

    ``port=0`` picks an ephemeral port; :attr:`port` holds the real one
    after construction (binding happens in ``__init__``, so a caller can
    print/advertise the address before the first request).  The gateway
    must be open by :meth:`start`.  :meth:`start` and :meth:`close`
    block until the loop has started or stopped serving, so neither may
    be called on that loop.
    """

    routes = _ROUTES

    def __init__(
        self, gateway: api.Gateway, *, host: str = "127.0.0.1", port: int = 8080
    ) -> None:
        self.gateway = gateway
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._server: asyncio.AbstractServer | None = None
        self._conns: dict[asyncio.Task, _Connection] = {}
        #: Set by :meth:`close`: connections end after their request.
        self._closing = False

    def start(self) -> "GatewayServer":
        """Start serving on the gateway's loop; returns self."""
        if self._server is None:
            self._server = self._on_loop(
                # readline raises ValueError past MAX_LINE + 1 bytes, and
                # ``_readline`` refuses a line of exactly that length too
                asyncio.start_server(
                    self._accept, sock=self._sock, limit=MAX_LINE
                )
            )
        return self

    def close(self) -> None:
        """Stop listening and end every connection.

        Idle connections end at once; a request in flight gets up to
        :data:`CLOSE_TIMEOUT` seconds to finish, so no session is left
        halfway through an exchange with the service.
        """
        if self._server is not None and self.gateway.loop is not None:
            self._on_loop(self._stop())
        self._server = None
        self._sock.close()

    def _on_loop(self, coro):
        loop = self.gateway.loop
        if loop is None:
            coro.close()
            raise ReproError("the gateway is not open")
        return asyncio.run_coroutine_threadsafe(coro, loop).result()

    def _accept(self, reader, writer) -> None:
        # asyncio disables Nagle only on sockets that say IPPROTO_TCP,
        # and those accepted from ``create_server``'s listener say 0
        sock = writer.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        writer.transport.max_size = _RECV_BYTES
        conn = _Connection(self, reader, writer)
        task = asyncio.get_running_loop().create_task(self._serve(conn))
        self._conns[task] = conn
        task.add_done_callback(self._conns.pop)

    async def _serve(self, conn: _Connection) -> None:
        try:
            await conn.serve()
        except (ConnectionError, OSError):
            pass  # the client went away; nothing to answer
        finally:
            conn.writer.close()

    async def _stop(self) -> None:
        self._closing = True
        self._server.close()
        for task, conn in self._conns.items():
            if conn.idle:
                task.cancel()
        if self._conns:
            _, late = await asyncio.wait(
                list(self._conns), timeout=CLOSE_TIMEOUT
            )
            for task in late:
                task.cancel()
            await asyncio.gather(*late, return_exceptions=True)
        await self._server.wait_closed()

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


class MetricsServer(GatewayServer):
    """The ``--metrics-port`` front: ``GET /metrics`` and ``GET /v1/metrics``.

    Every other path gets the JSON 404, so the port an operator opens to
    a scraper cannot hot-swap documents or feed sessions.
    """

    routes = _METRICS_ROUTES
