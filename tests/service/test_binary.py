"""End-to-end tests of the proto=2 binary framing and cross-version interop.

Everything here is written against the normative docs/wire-protocol.md:
negotiation over a text ``HELLO proto=N`` line, the per-connection letter
table synced after ``SPEC``, ``EVENTS`` id batches with batch-relative
violation resolution, and the interop guarantees (mixed-version peers
degrade to text, unknown verbs/opcodes answer a clean ``ERR`` without
dropping the connection).
"""

import asyncio

import pytest

from repro.core.errors import ReproError
from repro.obs.registry import use_registry
from repro.service import MonitorClient, MonitorServer, wire
from repro.workload.scenarios import get_scenario

SPEC = "DynamicCoordinator"

# A valid two-phase round (walker seed 1) — every line is a letter of the
# instantiated table, so a binary client ships all of them as EVENTS ids.
HAPPY = [
    "cl2 -> co : BEGIN",
    "co -> p1 : PREPARE(Data:#Data0)",
    "co -> p2 : PREPARE(Data:#Data0)",
    "p1 -> co : YES",
    "p2 -> co : NO",
    "co -> p1 : ABORT",
    "co -> p2 : ABORT",
    "co -> cl2 : DONE",
    "cl1 -> co : BEGIN",
    "co -> p1 : PREPARE(Data:#Data0)",
]
#: HAPPY + this violates: DONE to a client whose round never began.
BAD_DONE = "co -> cl2 : DONE"


@pytest.fixture(scope="module")
def registry():
    return get_scenario("two_phase_dynamic").registry()


def _run(coro):
    return asyncio.run(coro)


async def _binary_client(port: int, **kwargs) -> MonitorClient:
    client = MonitorClient("127.0.0.1", port, spec=SPEC, proto=2, **kwargs)
    await client.connect()
    return client


class TestNegotiation:
    def test_proto2_agreed_and_letter_table_synced(self, registry):
        async def go():
            async with MonitorServer(registry) as server:
                client = await _binary_client(server.port)
                try:
                    return client.proto, client.letters
                finally:
                    await client.close()

        proto, letters = _run(go())
        assert proto == 2
        assert letters == registry.get(SPEC).letter_lines

    def test_proto4_request_degrades_to_3(self, registry):
        async def go(requested):
            async with MonitorServer(registry) as server:
                client = MonitorClient(
                    "127.0.0.1", server.port, spec=SPEC, proto=requested
                )
                await client.connect()
                try:
                    for line in HAPPY:
                        await client.send_event(line)
                    return client.proto, await client.status()
                finally:
                    await client.close()
                    await client.disconnect()

        # min(requested, server max 3); a proto-2 request still gets 2
        for requested, agreed in ((4, 3), (2, 2)):
            proto, status = _run(go(requested))
            assert proto == agreed
            assert status.ok and status.events == len(HAPPY)

    def test_text_client_against_proto2_server(self, registry):
        async def go():
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec=SPEC
                ) as client:
                    for line in HAPPY + [BAD_DONE]:
                        await client.send_event(line)
                    return client.proto, await client.status()

        proto, status = _run(go())
        assert proto == 1
        assert status.violation_index == len(HAPPY)

    def test_pre_negotiation_server_triggers_text_fallback(self, registry):
        """A server that grants version 1 keeps a binary client on text."""
        received = []

        async def stub(reader, writer):
            while raw := await reader.readline():
                line = raw.decode().rstrip("\n")
                received.append(line)
                if line.startswith("HELLO"):
                    writer.write(b"OK repro-service 1 specs=Old\n")
                elif line.startswith("SPEC "):
                    writer.write(b"OK spec Old\n")
                elif line == "BYE":
                    writer.write(b"OK bye events=0\n")
                    await writer.drain()
                    break
                await writer.drain()
            writer.close()

        async def go():
            server = await asyncio.start_server(stub, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                client = MonitorClient("127.0.0.1", port, spec="Old", proto=2)
                await client.connect()
                try:
                    for line in HAPPY:
                        await client.send_event(line)
                    return client.proto, client.letters, client.server_specs
                finally:
                    await client.close()

        proto, letters, specs = _run(go())
        assert proto == 1 and letters == ()  # degraded, no table sync
        assert specs == ("Old",)
        # min(requested 2, granted 1): every line after HELLO is text,
        # and close() ends the session with STATUS and BYE in one write.
        assert received == [
            "HELLO proto=2",
            "SPEC Old",
            *(f"EVENT {line}" for line in HAPPY),
            "STATUS",
            "BYE",
        ]


class TestBinarySession:
    def test_clean_stream_batches(self, registry):
        async def go():
            async with MonitorServer(registry) as server:
                client = await _binary_client(server.port, batch=4)
                try:
                    for line in HAPPY:
                        await client.send_event(line)
                    status = await client.status()
                finally:
                    await client.close()
                return status, server.metrics.snapshot()

        with use_registry():
            status, snap = _run(go())
        assert status.ok and status.events == len(HAPPY)
        assert status.errors == 0 and status.skipped == 0
        assert snap["events_observed"] == len(HAPPY)

    def test_violation_index_is_global_across_batches(self, registry):
        async def go():
            async with MonitorServer(registry) as server:
                client = await _binary_client(server.port, batch=3)
                try:
                    for line in HAPPY + [BAD_DONE]:
                        await client.send_event(line)
                    return await client.status()
                finally:
                    await client.close()

        status = _run(go())
        assert status.violation_index == len(HAPPY)  # not batch-relative
        assert status.violation_event == BAD_DONE
        assert status.events == len(HAPPY) + 1

    def test_out_of_table_events_fall_back_in_order(self, registry):
        # an event outside the spec's universe travels as an EVENT frame
        # between the id batches and keeps its stream position
        async def go():
            async with MonitorServer(registry) as server:
                client = await _binary_client(server.port, batch=4)
                try:
                    for line in HAPPY[:5]:
                        await client.send_event(line)
                    await client.send_event("zz -> co : UNRELATED")
                    for line in HAPPY[5:]:
                        await client.send_event(line)
                    return await client.status()
                finally:
                    await client.close()

        status = _run(go())
        assert status.ok
        assert status.events == len(HAPPY) + 1
        assert status.skipped == 1  # the out-of-alphabet event

    @pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
    @pytest.mark.parametrize("proto", [1, 2])
    def test_send_trace_writes_what_send_event_writes(
        self, registry, tmp_path, proto, durable
    ):
        """One ``send_trace`` writes the per-event path's very frames.

        The stream mixes table hits (``EVENTS`` batches of 4), an
        out-of-table line (an ``EVENT`` frame that flushes the batch
        first) and a tail that stays pending until ``STATUS``.
        """
        trace = [*HAPPY[:5], "zz -> co : UNRELATED", *HAPPY, *HAPPY[:3]]

        async def record(per_event: bool, data_dir):
            async with MonitorServer(registry, data_dir=data_dir) as server:
                client = MonitorClient(
                    "127.0.0.1",
                    server.port,
                    spec=SPEC,
                    proto=proto,
                    batch=4,
                    session="k" if durable else None,
                )
                await client.connect()
                writes = []
                write = client._writer.write
                client._writer.write = lambda data: (
                    writes.append(bytes(data)),
                    write(data),
                )
                try:
                    if per_event:
                        for line in trace:
                            await client.send_event(line)
                    else:
                        await client.send_trace(iter(trace))
                    status = await client.status()
                    return list(writes), status, client.events_sent, client.durable
                finally:
                    await client.close()

        per_event = _run(record(True, tmp_path / "a" if durable else None))
        batched = _run(record(False, tmp_path / "b" if durable else None))
        assert batched == per_event
        writes, status, sent, was_durable = batched
        assert was_durable is durable and sent == len(trace)
        assert status.events == len(trace) and status.skipped == 1
        if proto == 2:
            opcodes = [w[0] for w in writes]  # a frame opens with its opcode
            assert opcodes.count(wire.OP_EVENT) == 1
            assert opcodes[-1] == wire.OP_STATUS

    def test_reset_clears_verdict(self, registry):
        async def go():
            async with MonitorServer(registry) as server:
                client = await _binary_client(server.port, batch=4)
                try:
                    for line in HAPPY + [BAD_DONE]:
                        await client.send_event(line)
                    violated = await client.status()
                    await client.reset()
                    for line in HAPPY:
                        await client.send_event(line)
                    clean = await client.status()
                    return violated, clean
                finally:
                    await client.close()

        violated, clean = _run(go())
        assert not violated.ok
        assert clean.ok and clean.events == len(HAPPY)

    def test_metrics_single_frame(self, registry):
        async def go():
            async with MonitorServer(registry) as server:
                client = await _binary_client(server.port, batch=4)
                try:
                    for line in HAPPY:
                        await client.send_event(line)
                    await client.status()
                    return await client.metrics()
                finally:
                    await client.close()

        text = _run(go())
        assert "repro_monitor_batches_total" in text
        assert "repro_monitor_batched_events_total" in text
        batched = next(
            int(float(line.rpartition(" ")[2]))
            for line in text.splitlines()
            if line.startswith("repro_monitor_batched_events_total")
        )
        assert batched >= len(HAPPY)

    def test_unknown_spec_err_keeps_connection(self, registry):
        async def go():
            async with MonitorServer(registry) as server:
                client = MonitorClient("127.0.0.1", server.port, proto=2)
                await client.connect()
                try:
                    with pytest.raises(ReproError):
                        await client.use_spec("NoSuchSpec")
                    await client.use_spec(SPEC)  # still usable
                    for line in HAPPY:
                        await client.send_event(line)
                    return await client.status()
                finally:
                    await client.close()

        status = _run(go())
        assert status.ok and status.events == len(HAPPY)


class TestRawFrames:
    """Server behaviour a well-behaved client never exercises."""

    async def _handshake(self, port: int):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"HELLO proto=2\n")
        await writer.drain()
        hello = (await reader.readline()).decode()
        assert hello.startswith("OK repro-service 2 ")
        writer.write(wire.encode_frame(wire.OP_SPEC, SPEC.encode()))
        await writer.drain()
        opcode, payload = await wire.read_frame(reader)
        assert opcode == wire.OP_OK and payload.startswith(b"spec ")
        opcode, payload = await wire.read_frame(reader)
        assert opcode == wire.OP_LETTERS
        return reader, writer

    def test_out_of_range_ids_counted_as_errors(self, registry):
        async def go():
            async with MonitorServer(registry) as server:
                reader, writer = await self._handshake(server.port)
                k = len(registry.get(SPEC).letter_lines)
                good = registry.get(SPEC).letter_lines.index(HAPPY[0])
                writer.write(
                    wire.encode_frame(
                        wire.OP_EVENTS, wire.pack_event_ids([good, k + 7, -1])
                    )
                )
                writer.write(wire.encode_frame(wire.OP_STATUS))
                await writer.drain()
                opcode, payload = await wire.read_frame(reader)
                writer.close()
                return opcode, payload.decode()

        opcode, payload = _run(go())
        assert opcode == wire.OP_OK
        assert "events=1" in payload and "errors=2" in payload

    def test_malformed_events_payload_err_keeps_connection(self, registry):
        async def go():
            async with MonitorServer(registry) as server:
                reader, writer = await self._handshake(server.port)
                # count says 2, carries one id
                writer.write(
                    wire.encode_frame(
                        wire.OP_EVENTS,
                        (2).to_bytes(4, "little") + (0).to_bytes(4, "little"),
                    )
                )
                await writer.drain()
                op_err, msg = await wire.read_frame(reader)
                writer.write(wire.encode_frame(wire.OP_STATUS))
                await writer.drain()
                op_status, status = await wire.read_frame(reader)
                writer.close()
                return op_err, msg.decode(), op_status, status.decode()

        op_err, msg, op_status, status = _run(go())
        assert op_err == wire.OP_ERR and "declares 2 ids" in msg
        assert op_status == wire.OP_OK and "events=0" in status

    def test_unknown_opcode_err_keeps_connection(self, registry):
        async def go():
            async with MonitorServer(registry) as server:
                reader, writer = await self._handshake(server.port)
                writer.write(wire.encode_frame(0x7F, b"???"))
                writer.write(wire.encode_frame(wire.OP_STATUS))
                await writer.drain()
                op_err, msg = await wire.read_frame(reader)
                op_status, _ = await wire.read_frame(reader)
                writer.close()
                return op_err, msg.decode(), op_status

        op_err, msg, op_status = _run(go())
        assert op_err == wire.OP_ERR and "0x7f" in msg
        assert op_status == wire.OP_OK

    def test_over_cap_frame_closes_connection(self, registry):
        async def go():
            async with MonitorServer(registry) as server:
                reader, writer = await self._handshake(server.port)
                writer.write(
                    bytes([wire.OP_EVENT])
                    + (wire.MAX_FRAME + 1).to_bytes(4, "little")
                )
                await writer.drain()
                op_err, msg = await wire.read_frame(reader)
                eof = await reader.read()  # server must close: unsyncable
                writer.close()
                return op_err, msg.decode(), eof

        op_err, msg, eof = _run(go())
        assert op_err == wire.OP_ERR and "cap" in msg
        assert eof == b""

    def test_text_events_verb_gets_clean_err(self, registry):
        """EVENTS exists only as a binary opcode: text sessions get ERR."""

        async def go():
            async with MonitorServer(registry) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"HELLO\nEVENTS 0 1 2\nSTATUS\n")
                await writer.drain()
                hello = (await reader.readline()).decode()
                err = (await reader.readline()).decode()
                status = (await reader.readline()).decode()
                writer.close()
                return hello, err, status

        hello, err, status = _run(go())
        assert hello.startswith("OK repro-service 1 ")
        assert err.startswith("ERR") and "EVENTS" in err
        assert status.startswith("OK status")  # the connection survived
