"""Property: no JSON body, and no byte string, makes the gateway answer 500.

Every body a client can send to the two JSON-reading endpoints —
``POST /v1/sessions/{key}/events`` and ``PUT /v1/documents/{name}`` as
``application/json`` — gets a status from the table in
``docs/http-api.md`` other than 500, and every failure is the uniform
error envelope.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.app import _json_body
from repro.service import SpecRegistry

from tests.gateway.conftest import DOC, EVENT, live_gateway

#: 200 for an accepted body, then the error table of docs/http-api.md
#: without 500 ("anything unmapped").
ALLOWED = {200, 400, 404, 405, 409, 502, 503, 504}

# lone surrogates too: "\ud800" is a valid JSON string escape
_text = st.text(st.characters() | st.characters(categories=["Cs"]))
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | _text
    | st.sampled_from(["A", "B", "One", "Nope", EVENT, DOC])
)
_json = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
#: Objects over the fields the endpoints read, so bodies get past the
#: "must be an object" check and exercise field validation.
_fields = st.dictionaries(
    st.sampled_from(["spec", "event", "events", "durable", "text", "force"]),
    _json,
    max_size=5,
)
#: Well-formed posts to a served spec, so their lines reach the session.
_lines = _text | st.just(EVENT)
_spec = st.sampled_from(["A", "B"])
_posts = st.fixed_dictionaries(
    {"spec": _spec, "event": _lines}, optional={"durable": _json}
) | st.fixed_dictionaries(
    {"spec": _spec, "events": st.lists(_lines, max_size=4)},
    optional={"durable": _json},
)
_bodies = (
    st.one_of(_json, _fields, _posts).map(
        lambda v: json.dumps(v).encode("utf-8")
    )
    | st.binary(max_size=64)
)

_SETTINGS = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def gateway_stack():
    with live_gateway(SpecRegistry.from_text(DOC)) as stack:
        yield stack


def _check(api, method: str, path: str, body: bytes) -> None:
    status, payload = api.request(
        method, path, body, content_type="application/json", raw=True
    )
    assert status in ALLOWED, (status, payload[:200])
    if status != 200:
        got = json.loads(payload)
        assert set(got) == {"error"}
        assert set(got["error"]) == {"kind", "message", "detail"}


@_SETTINGS
@given(body=_bodies)
def test_post_events_body_never_500(gateway_stack, body):
    api, _gw = gateway_stack
    _check(api, "POST", "/v1/sessions/prop/events", body)


@_SETTINGS
@given(body=_bodies)
def test_put_document_json_body_never_500(gateway_stack, body):
    api, _gw = gateway_stack
    _check(api, "PUT", "/v1/documents/Prop", body)


_objects = st.dictionaries(
    _text,
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | _text,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(_text, children, max_size=4),
        max_leaves=16,
    ),
    max_size=6,
)


@settings(max_examples=500, deadline=None)
@given(payload=_objects)
def test_response_body_is_json_dumps_byte_for_byte(payload):
    """The C-speed renderer writes what ``json.dumps`` writes, on any object.

    Nested dicts and lists, unicode and lone-surrogate strings, ints,
    floats (NaN and infinities included), booleans and null.
    """
    expected = json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n"
    assert _json_body(payload) == expected
