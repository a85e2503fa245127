"""The service's accounting has one source: the metrics registry.

A stream that exercises every counter (a table hit, an event outside the
alphabet, a malformed line, an out-of-range letter id and a violation)
must read the same from three places: ``server.metrics.snapshot()``, the
``METRICS`` exposition and the sum of the sessions' ``STATUS`` replies.
Text sessions carry no letter ids, so only the binary stream holds the
out-of-range one.
"""

import asyncio

import pytest

from repro.obs.registry import use_registry
from repro.service import MonitorServer, wire
from repro.service.protocol import parse_reply
from repro.workload.scenarios import get_scenario
from tests.service.test_binary import BAD_DONE, HAPPY, SPEC
from tests.service.test_metrics_verb import parse_prometheus

OUTSIDE = "x9 -> q9 : NOPE"  # parses, but is no letter of the spec
MALFORMED = "not an event"

#: snapshot key → exposition family
FAMILIES = {
    "events_observed": "repro_monitor_events_total",
    "events_skipped": "repro_monitor_skipped_total",
    "events_malformed": "repro_monitor_malformed_total",
    "violations": "repro_monitor_violations_total",
    "sessions_opened": "repro_sessions_opened_total",
    "sessions_closed": "repro_sessions_closed_total",
}


async def _text_session(server: MonitorServer, metrics: bool):
    """One proto=1 stream: its STATUS and, if asked, METRICS and snapshot."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

    async def verb(line: str) -> str:
        writer.write(line.encode() + b"\n")
        await writer.drain()
        return (await reader.readline()).decode().rstrip("\n")

    await verb("HELLO")
    await verb(f"SPEC {SPEC}")
    events = [HAPPY[0], OUTSIDE, MALFORMED, *HAPPY[1:], BAD_DONE]
    writer.write(b"".join(f"EVENT {line}\n".encode() for line in events))
    status = parse_reply(await verb("STATUS")).status
    views = None
    if metrics:
        head = await verb("METRICS")
        count = int(head.rpartition("lines=")[2])
        text = "".join([(await reader.readline()).decode() for _ in range(count)])
        views = text, server.metrics.snapshot()
    writer.close()
    await writer.wait_closed()
    return status, views


async def _binary_session(server: MonitorServer, metrics: bool):
    """One proto=2 stream: its STATUS and, if asked, METRICS and snapshot."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(b"HELLO proto=2\n")
    await reader.readline()
    writer.write(wire.encode_frame(wire.OP_SPEC, SPEC.encode()))
    await wire.read_frame(reader)
    _op, table = await wire.read_frame(reader)
    letters = wire.unpack_letters(table)
    hit, *rest = [letters.index(line) for line in HAPPY]
    writer.write(
        wire.encode_frame(wire.OP_EVENTS, wire.pack_event_ids([hit]))
        + wire.encode_frame(wire.OP_EVENT, OUTSIDE.encode())
        + wire.encode_frame(wire.OP_EVENT, MALFORMED.encode())
        + wire.encode_frame(
            wire.OP_EVENTS, wire.pack_event_ids([len(letters) + 7, *rest])
        )
        + wire.encode_frame(
            wire.OP_EVENTS, wire.pack_event_ids([letters.index(BAD_DONE)])
        )
        + wire.encode_frame(wire.OP_STATUS)
    )
    opcode, payload = await wire.read_frame(reader)
    keyword = "OK " if opcode == wire.OP_OK else "VIOLATION "
    status = parse_reply(keyword + payload.decode()).status
    views = None
    if metrics:
        writer.write(wire.encode_frame(wire.OP_METRICS))
        _op, payload = await wire.read_frame(reader)
        views = payload.decode().partition("\n")[2], server.metrics.snapshot()
    writer.close()
    await writer.wait_closed()
    return status, views


@pytest.mark.parametrize("proto", [1, 2])
def test_snapshot_exposition_and_status_agree(proto):
    session = _text_session if proto == 1 else _binary_session

    async def go():
        registry = get_scenario("two_phase_dynamic").registry()
        async with MonitorServer(registry) as server:
            first, _ = await session(server, metrics=False)
            # The snapshot is read right after the METRICS reply, while
            # the session is open and the server idle: one moment.
            second, (text, snap) = await session(server, metrics=True)
            return [first, second], text, snap

    with use_registry():
        statuses, text, snap = asyncio.run(go())

    exposed = parse_prometheus(text)
    for key, family in FAMILIES.items():
        assert snap[key] == exposed[family][""], key
    checks = exposed["repro_event_check_seconds_count"][""]
    assert snap["latency"]["count"] == checks

    assert snap["events_observed"] == sum(s.events for s in statuses)
    assert snap["events_skipped"] == sum(s.skipped for s in statuses)
    assert snap["events_malformed"] == sum(s.errors for s in statuses)
    assert snap["violations"] == sum(not s.ok for s in statuses)
    # every kind of input happened, in both sessions
    for status in statuses:
        assert status.events == len(HAPPY) + 2  # + OUTSIDE + BAD_DONE
        assert status.skipped == 1
        assert status.errors == (1 if proto == 1 else 2)
        assert status.violation_index is not None
