"""The HTTP/JSON gateway: stdlib ``http.server`` over :class:`repro.api.Gateway`.

This module is *routing only*.  Every handler body is a line or two that
calls the synchronous :class:`repro.api.Gateway` facade and serialises
its dict — no protocol knowledge, no service imports (the lint test
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

:class:`http.server.ThreadingHTTPServer` gives one thread per in-flight
request; the :class:`~repro.api.Gateway` facade is thread-safe (its
per-session asyncio locks serialise same-key requests), so the handlers
need no locking of their own.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from repro import api
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


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = f"repro-gateway/{api.API_VERSION}"
    # headers and body go out as two writes; without TCP_NODELAY that
    # pattern hits Nagle + delayed-ACK (~40ms) on every keep-alive request
    disable_nagle_algorithm = True
    routes = _ROUTES

    @property
    def gateway(self) -> api.Gateway:
        return self.server.gateway

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the service process owns stderr; metrics count requests

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        self._body_read = False
        try:
            split = urlsplit(self.path)
            path = unquote(split.path)
            self._query = parse_qs(split.query)
            path_known = False
            for verb, pattern, attr in self.routes:
                match = pattern.match(path)
                if match is None:
                    continue
                path_known = True
                if verb != method:
                    continue
                getattr(self, attr)(**match.groupdict())
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
                "Content-Length" in self.headers
                or "Transfer-Encoding" in self.headers
            ):
                self.close_connection = True
            try:
                self._send_json(status, payload)
            except (BrokenPipeError, ConnectionResetError):
                pass

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_PUT(self) -> None:
        self._dispatch("PUT")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    # -- request plumbing ------------------------------------------------

    def _flag(self, name: str) -> bool:
        values = self._query.get(name, [])
        return bool(values) and values[-1].lower() not in (
            "",
            "0",
            "false",
            "no",
        )

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
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
        body = self.rfile.read(size)
        self._body_read = True
        return body

    def _read_json(self) -> dict:
        raw = self._read_body()
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
        body = (
            json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
            + b"\n"
        )
        self._send_bytes(status, body, "application/json")

    def _send_bytes(self, status: int, body: bytes, ctype: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    # -- endpoints -------------------------------------------------------

    def _get_health(self) -> None:
        self._send_json(200, self.gateway.health())

    def _get_documents(self) -> None:
        self._send_json(200, {"documents": self.gateway.documents()})

    def _put_document(self, name: str) -> None:
        ctype = (
            (self.headers.get("Content-Type") or "")
            .split(";")[0]
            .strip()
            .lower()
        )
        force = self._flag("force")
        if ctype == "application/json":
            body = self._read_json()
            text = body.get("text")
            if not isinstance(text, str):
                raise BadRequestError(
                    'JSON document bodies need a string "text" field'
                )
            force = self._bool_field(body, "force", force)
        else:
            raw = self._read_body()
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise BadRequestError(
                    f"document body is not UTF-8: {exc}"
                ) from exc
        report = self.gateway.update_from_text(text, force=force, declares=name)
        report["document"] = name
        self._send_json(200, report)

    def _get_sessions(self) -> None:
        self._send_json(200, {"sessions": self.gateway.sessions()})

    def _post_events(self, key: str) -> None:
        body = self._read_json()
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
            self.gateway.send_events(key, events, spec=spec, durable=durable),
        )

    def _get_session(self, key: str) -> None:
        self._send_json(200, self.gateway.session_status(key))

    def _delete_session(self, key: str) -> None:
        self._send_json(200, self.gateway.end_session(key))

    def _get_metrics(self) -> None:
        self._send_bytes(
            200,
            self.gateway.metrics_text().encode("utf-8"),
            "text/plain; version=0.0.4",
        )


class _MetricsHandler(_Handler):
    routes = _METRICS_ROUTES


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class GatewayServer:
    """Bind the HTTP front and serve — on a daemon thread or blocking.

    ``port=0`` picks an ephemeral port; :attr:`port` holds the real one
    after construction (binding happens in ``__init__``, so a caller can
    print/advertise the address before the first request).
    """

    handler = _Handler

    def __init__(
        self, gateway: api.Gateway, *, host: str = "127.0.0.1", port: int = 8080
    ) -> None:
        self._httpd = _HTTPServer((host, port), self.handler)
        self._httpd.gateway = gateway
        self.host = self._httpd.server_address[0]
        self.port = self._httpd.server_address[1]
        self._thread: threading.Thread | None = None

    def start(self) -> "GatewayServer":
        """Serve on a background daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="repro-gateway-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close`."""
        self._httpd.serve_forever(poll_interval=0.1)

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


class MetricsServer(GatewayServer):
    """The ``--metrics-port`` front: ``GET /metrics`` and ``GET /v1/metrics``.

    Every other path gets the JSON 404, so the port an operator opens to
    a scraper cannot hot-swap documents or feed sessions.
    """

    handler = _MetricsHandler
