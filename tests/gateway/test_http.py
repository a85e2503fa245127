"""The REST surface end-to-end: documents, sessions, metrics, health."""

from __future__ import annotations

import contextlib
import re
import socket
import struct
import threading

from repro.api import Gateway
from repro.gateway import GatewayServer
from repro.obs.registry import use_registry
from repro.service import SpecRegistry

from tests.gateway.conftest import (
    DOC,
    EVENT,
    EXTRA_DOC,
    HttpApi,
    live_gateway,
    live_server,
)


@contextlib.contextmanager
def _resetting_listener(port: int):
    """Listen on ``port`` and reset every accepted connection at once."""
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", port))
    listener.listen()

    def serve() -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:  # the listener was closed
                return
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield
    finally:
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        thread.join(timeout=30)


class TestHealthAndDocuments:
    def test_healthz_reports_surface(self):
        with live_gateway(SpecRegistry.from_text(DOC)) as (api, _gw):
            status, body = api.request("GET", "/v1/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["version"].count(".") == 2
            assert set(body["specs"]) == {"A", "B", "One"}
            assert body["sessions"] == 0

    def test_health_probes_count_as_health(self):
        # The gateway's own start-up probe is not a request: it is not
        # counted, and a health probe is not a documents request.
        with use_registry() as registry:
            with live_gateway(SpecRegistry.from_text(DOC)) as (api, _gw):
                for _ in range(3):
                    assert api.request("GET", "/v1/healthz")[0] == 200
            requests = registry.snapshot()["repro_gateway_requests_total"]
        assert requests == {"op=health": 3}

    def test_documents_lists_served_specs(self):
        with live_gateway(SpecRegistry.from_text(DOC)) as (api, _gw):
            status, body = api.request("GET", "/v1/documents")
            assert status == 200
            assert body == {"documents": ["A", "B", "One"]}

    def test_put_document_registers_new_spec(self):
        with live_gateway(SpecRegistry.from_text(DOC)) as (api, _gw):
            status, body = api.request(
                "PUT", "/v1/documents/Extra", EXTRA_DOC
            )
            assert status == 200
            assert body["document"] == "Extra"
            assert body["added"] == 1
            assert "Extra" in body["specs"]
            _, docs = api.request("GET", "/v1/documents")
            assert "Extra" in docs["documents"]

    def test_put_document_json_body_and_force(self):
        with live_gateway(SpecRegistry.from_text(DOC)) as (api, _gw):
            # same text, force=true: every spec swaps to a fresh machine
            status, body = api.request(
                "PUT", "/v1/documents/A", {"text": DOC, "force": True}
            )
            assert status == 200
            assert body["changed"] == 3 and body["unchanged"] == 0

    def test_put_document_unchanged_without_force(self):
        with live_gateway(SpecRegistry.from_text(DOC)) as (api, _gw):
            status, body = api.request("PUT", "/v1/documents/A", DOC)
            assert status == 200
            assert body["changed"] == 0 and body["unchanged"] == 3


class TestSessions:
    def test_event_flow_and_status(self):
        with live_gateway(SpecRegistry.from_text(DOC)) as (api, _gw):
            status, body = api.request(
                "POST",
                "/v1/sessions/s1/events",
                {"spec": "A", "event": EVENT},
            )
            assert status == 200
            assert body["spec"] == "A" and body["events"] == 1
            assert body["ok"] is True and body["violation"] is None
            # follow-up posts may omit the spec: the session is bound
            status, body = api.request(
                "POST", "/v1/sessions/s1/events", {"events": [EVENT, EVENT]}
            )
            assert status == 200 and body["events"] == 3
            status, body = api.request("GET", "/v1/sessions/s1")
            assert status == 200 and body["events"] == 3
            status, body = api.request("GET", "/v1/sessions")
            assert body == {"sessions": ["s1"]}

    def test_violation_is_reported_with_index_and_event(self):
        with live_gateway(SpecRegistry.from_text(DOC)) as (api, _gw):
            status, body = api.request(
                "POST",
                "/v1/sessions/v/events",
                {"spec": "One", "events": [EVENT, EVENT]},
            )
            assert status == 200
            assert body["ok"] is False
            assert body["violation"] == {"index": 1, "event": EVENT}

    def test_delete_returns_final_status_then_404(self):
        with live_gateway(SpecRegistry.from_text(DOC)) as (api, _gw):
            api.request(
                "POST",
                "/v1/sessions/gone/events",
                {"spec": "A", "event": EVENT},
            )
            status, body = api.request("DELETE", "/v1/sessions/gone")
            assert status == 200
            assert body["closed"] is True and body["events"] == 1
            status, body = api.request("GET", "/v1/sessions/gone")
            assert status == 404
            assert body["error"]["kind"] == "UnknownSessionError"

    def test_durable_session_reports_applied_watermark(self, tmp_path):
        with live_gateway(
            SpecRegistry.from_text(DOC),
            server_kwargs={"data_dir": tmp_path},
        ) as (api, _gw):
            status, body = api.request(
                "POST",
                "/v1/sessions/d1/events",
                {"spec": "A", "events": [EVENT, EVENT, EVENT], "durable": True},
            )
            assert status == 200
            assert body["durable"] is True
            assert body["applied"] == 3
            status, body = api.request(
                "POST", "/v1/sessions/d1/events", {"event": EVENT}
            )
            assert body["applied"] == 4

    def test_durable_session_whose_backend_stays_down_gets_503(self, tmp_path):
        # The backend dies and its port then resets every connection (a
        # crash-looping worker): the resume runs out of retries and the
        # front answers 503 ServiceUnavailable, not 502 for a raw reset.
        server = live_server(SpecRegistry.from_text(DOC), data_dir=tmp_path)
        port = server.__enter__()
        with Gateway("127.0.0.1", port, connect_retries=2) as gateway:
            with GatewayServer(gateway, host="127.0.0.1", port=0) as front:
                api = HttpApi(front.port)
                try:
                    status, body = api.request(
                        "POST",
                        "/v1/sessions/d/events",
                        {"spec": "A", "event": EVENT, "durable": True},
                    )
                    assert status == 200 and body["durable"] is True
                    server.__exit__(None, None, None)
                    with _resetting_listener(port):
                        status, body = api.request(
                            "POST", "/v1/sessions/d/events", {"event": EVENT}
                        )
                finally:
                    api.close()
        assert status == 503
        assert body["error"]["kind"] == "ServiceUnavailable"

    def test_plain_session_has_null_applied(self):
        with live_gateway(SpecRegistry.from_text(DOC)) as (api, _gw):
            _, body = api.request(
                "POST",
                "/v1/sessions/p/events",
                {"spec": "A", "event": EVENT, "durable": True},
            )
            # durable was *requested* but the server has no data dir:
            # the truth (not the wish) is passed through
            assert body["durable"] is False and body["applied"] is None


class TestMetrics:
    def test_metrics_exposition_and_alias(self):
        with live_gateway(SpecRegistry.from_text(DOC)) as (api, _gw):
            api.request(
                "POST",
                "/v1/sessions/m/events",
                {"spec": "A", "event": EVENT},
            )
            status, text = api.request("GET", "/v1/metrics", raw=True)
            assert status == 200
            exposition = text.decode("utf-8")
            assert "# TYPE repro_sessions_opened_total counter" in exposition
            assert "repro_gateway_requests_total" in exposition
            status, alias = api.request("GET", "/metrics", raw=True)
            assert status == 200 and alias.decode("utf-8")

    def test_control_connections_are_not_sessions(self):
        # Probes, listings and scrapes open connections that never send
        # SPEC; only a bound event stream is a monitoring session.
        def opened(text: str) -> int:
            match = re.search(r"^repro_sessions_opened_total (\S+)$", text, re.M)
            assert match, text
            return int(float(match.group(1)))

        with use_registry():
            with live_server(SpecRegistry.from_text(DOC)) as port:
                with Gateway("127.0.0.1", port) as gateway:
                    for _ in range(3):
                        gateway.health()
                    gateway.documents()
                    assert opened(gateway.metrics_text()) == 0
                    gateway.send_events("s", [EVENT], spec="A")
                    assert opened(gateway.metrics_text()) == 1
