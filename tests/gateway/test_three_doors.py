"""Three front doors, one verdict, also on letter lines that do not read back.

A letter whose caller is a fresh object formats as ``#Obj0 -> o : CR``,
which the text door reads as a comment.  The binary client must not turn
that line into the letter's id, or proto=2 (and the HTTP gateway, which
drives proto=2) would step an event that proto=1 never sees.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import MonitorClient, SpecRegistry

from tests.gateway.conftest import live_gateway, live_server

#: (spec, lines): a non-round-tripping letter line, then a plain event.
CASES = [
    ("RW", ["#Obj0 -> o : CR", "x1 -> o : OR"]),
    ("WriteAcc", ["#Obj0 -> o : CW", "c -> o : OW"]),
]


def _registry(cast):
    return SpecRegistry([cast.rw(), cast.write_acc()])


def _tcp_status(port, spec, lines, proto):
    async def drive():
        async with MonitorClient("127.0.0.1", port, spec=spec, proto=proto) as client:
            assert client.proto == proto
            for line in lines:
                await client.send_event(line)
            status = await client.status()
        return (
            status.events,
            status.skipped,
            status.errors,
            status.violation_index,
            status.violation_event,
        )

    return asyncio.run(drive())


@pytest.mark.parametrize("spec,lines", CASES)
def test_text_binary_and_http_give_the_same_status(cast, spec, lines):
    with live_server(_registry(cast)) as port:
        text = _tcp_status(port, spec, lines, proto=1)
        binary = _tcp_status(port, spec, lines, proto=2)
    with live_gateway(_registry(cast)) as (api, _gateway):
        status, body = api.request(
            "POST", "/v1/sessions/doors/events", {"spec": spec, "events": lines}
        )
    assert status == 200
    violation = body["violation"] or {}
    http = (
        body["events"],
        body["skipped"],
        body["errors"],
        violation.get("index"),
        violation.get("event"),
    )
    # The '#' line is a comment on every door: only the plain event counts.
    assert text[0] == 1
    assert binary == text
    assert http == text
