"""The uniform JSON error envelope, table-driven across failure modes."""

from __future__ import annotations

import pytest

from repro.core.errors import ReproError
from repro.gateway.errors import status_for
from repro.service import SpecRegistry
from repro.service.client import ServiceUnavailable

from tests.gateway.conftest import DOC, EVENT, live_gateway

BAD_DOC = "specification Broken {\n  traces prs \"<\"\n"

#: (label, method, path, body, expected status, expected kind)
CASES = [
    (
        "syntax error in a PUT document",
        "PUT",
        "/v1/documents/Broken",
        BAD_DOC,
        400,
        "OUNSyntaxError",
    ),
    (
        "PUT text that does not declare the path name",
        "PUT",
        "/v1/documents/NotInThere",
        DOC,
        400,
        "SpecificationError",
    ),
    (
        "events for a spec the server does not serve",
        "POST",
        "/v1/sessions/x/events",
        {"spec": "Nope", "event": EVENT},
        404,
        "UnknownSpecificationError",
    ),
    (
        "first post without naming a spec",
        "POST",
        "/v1/sessions/x/events",
        {"event": EVENT},
        404,
        "UnknownSessionError",
    ),
    (
        "status of an unknown session",
        "GET",
        "/v1/sessions/ghost",
        None,
        404,
        "UnknownSessionError",
    ),
    (
        "closing an unknown session",
        "DELETE",
        "/v1/sessions/ghost",
        None,
        404,
        "UnknownSessionError",
    ),
    (
        "malformed JSON body",
        "POST",
        "/v1/sessions/x/events",
        b"{not json",
        400,
        "BadRequestError",
    ),
    (
        "JSON body that is not an object",
        "POST",
        "/v1/sessions/x/events",
        b'["just", "an", "array"]',
        400,
        "BadRequestError",
    ),
    (
        "JSON body nested too deeply to parse",
        "POST",
        "/v1/sessions/x/events",
        b"[" * 100_000 + b"]" * 100_000,
        400,
        "BadRequestError",
    ),
    (
        "non-boolean durable",
        "POST",
        "/v1/sessions/x/events",
        {"spec": "A", "event": EVENT, "durable": "no"},
        400,
        "BadRequestError",
    ),
    (
        "non-boolean force in a JSON document body",
        "PUT",
        "/v1/documents/A",
        {"text": DOC, "force": "no"},
        400,
        "BadRequestError",
    ),
    (
        "both event and events given",
        "POST",
        "/v1/sessions/x/events",
        {"spec": "A", "event": EVENT, "events": [EVENT]},
        400,
        "BadRequestError",
    ),
    (
        "neither event nor events given",
        "POST",
        "/v1/sessions/x/events",
        {"spec": "A"},
        400,
        "BadRequestError",
    ),
    (
        "non-string event line",
        "POST",
        "/v1/sessions/x/events",
        {"spec": "A", "events": [42]},
        400,
        "BadRequestError",
    ),
    (
        "unknown path",
        "GET",
        "/v1/nope",
        None,
        404,
        "NotFoundError",
    ),
    (
        "known path, wrong verb",
        "POST",
        "/v1/healthz",
        {},
        405,
        "MethodNotAllowedError",
    ),
]


class TestEnvelope:
    @pytest.mark.parametrize(
        "method,path,body,status,kind",
        [case[1:] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_failure_renders_the_envelope(
        self, gateway_stack, method, path, body, status, kind
    ):
        api, _gw = gateway_stack
        got_status, got = api.request(
            method,
            path,
            body,
            content_type="application/json" if isinstance(body, bytes) else None,
        )
        assert got_status == status
        assert set(got) == {"error"}
        assert set(got["error"]) == {"kind", "message", "detail"}
        assert got["error"]["kind"] == kind
        assert got["error"]["message"]

    @pytest.mark.parametrize(
        "method,path,status",
        [("POST", "/v1/nope", 404), ("POST", "/v1/healthz", 405)],
    )
    def test_unread_body_does_not_poison_keep_alive(
        self, gateway_stack, method, path, status
    ):
        api, _gw = gateway_stack
        assert api.request(method, path, {"event": EVENT})[0] == status
        assert api.request("GET", "/v1/healthz")[0] == 200

    def test_syntax_error_detail_has_position(self, gateway_stack):
        api, _gw = gateway_stack
        _, got = api.request("PUT", "/v1/documents/Broken", BAD_DOC)
        detail = got["error"]["detail"]
        assert isinstance(detail, dict)
        assert isinstance(detail.get("line"), int)

    def test_spec_switch_is_a_conflict(self, gateway_stack):
        api, _gw = gateway_stack
        api.request(
            "POST", "/v1/sessions/sw/events", {"spec": "A", "event": EVENT}
        )
        status, got = api.request(
            "POST", "/v1/sessions/sw/events", {"spec": "B", "event": EVENT}
        )
        assert status == 409
        assert got["error"]["kind"] == "SessionStateError"


@pytest.fixture()
def gateway_stack():
    with live_gateway(SpecRegistry.from_text(DOC)) as stack:
        yield stack


class TestStatusFor:
    def test_transport_and_library_classes(self):
        assert status_for(ServiceUnavailable("down")) == 503
        assert status_for(ConnectionRefusedError()) == 502
        assert status_for(TimeoutError()) == 504
        assert status_for(ReproError("generic")) == 400
        assert status_for(ValueError("unmapped")) == 500
