"""End-to-end service tests: concurrent sessions over real sockets.

The acceptance scenario: an in-process asyncio server, ≥ 8 concurrent
client sessions feeding interleaved readers/writers events; the violating
session is flagged at the correct event index, clean sessions report ok,
and the metrics counters account for every event sent.
"""

import asyncio

import pytest

from repro.obs.registry import use_registry
from repro.service import (
    MonitorClient,
    MonitorServer,
    SessionStatus,
    SpecRegistry,
    wire,
)

WRITER_SCRIPT = [
    "{w} -> o : OW",
    "{w} -> o : W(Data:d1)",
    "{w} -> o : W(Data:d2)",
    "{w} -> o : CW",
    "{w} -> o : UNRELATED",  # outside Write's alphabet: skipped
    "{w} -> o : OW",
    "{w} -> o : W(Data:d1)",
    "{w} -> o : CW",
]

READER_SCRIPT = [
    "{r} -> o : OR",
    "{r} -> o : R(Data:d1)",
    "{r} -> o : R(Data:d2)",
    "{r} -> o : CR",
]

# the second W is issued by an intruder that never opened a session:
# Write's binding operator makes index 2 the violating event
VIOLATING_SCRIPT = [
    "w9 -> o : OW",
    "w9 -> o : W(Data:d1)",
    "intruder -> o : W(Data:d1)",
    "w9 -> o : CW",
]
VIOLATION_INDEX = 2

# the same violation among events to callees outside Write's alphabet
# (only ``o`` is in it): skipped, yet counted in the global index
MULTI_CALLEE_SCRIPT = [
    "w9 -> o : OW",
    "w9 -> p1 : OW",
    "w9 -> o : W(Data:d1)",
    "w9 -> p2 : W(Data:d1)",
    "intruder -> o : W(Data:d1)",
    "w9 -> p3 : CW",
    "w9 -> o : CW",
    "w9 -> p4 : OW",
]
MULTI_CALLEE_VIOLATION_INDEX = 4


@pytest.fixture(scope="module")
def registry(cast) -> SpecRegistry:
    return SpecRegistry([cast.write(), cast.read2()])


async def _session(
    port: int, spec: str, lines: list[str], proto: int = 1
) -> SessionStatus:
    async with MonitorClient("127.0.0.1", port, spec=spec, proto=proto) as client:
        for line in lines:
            await client.send_event(line)
        return await client.status()


class TestEndToEnd:
    def test_concurrent_interleaved_sessions(self, registry):
        async def run():
            async with MonitorServer(registry) as server:
                writers = [
                    _session(
                        server.port,
                        "Write",
                        [l.format(w=f"w{i}") for l in WRITER_SCRIPT],
                    )
                    for i in range(4)
                ]
                readers = [
                    _session(
                        server.port,
                        "Read2",
                        [l.format(r=f"r{i}") for l in READER_SCRIPT],
                    )
                    for i in range(4)
                ]
                rogue = _session(server.port, "Write", VIOLATING_SCRIPT)
                statuses = await asyncio.gather(*writers, *readers, rogue)
                return statuses, server.metrics.snapshot()

        with use_registry():
            statuses, snap = asyncio.run(run())
        clean, violated = statuses[:-1], statuses[-1]

        # (a) the violating session is flagged at the correct event index
        assert not violated.ok
        assert violated.violation_index == VIOLATION_INDEX
        assert violated.violation_event == "intruder -> o : W(Data:d1)"

        # (b) clean sessions report ok with full accounting
        for status in clean[:4]:  # writers
            assert status.ok and status.errors == 0
            assert status.events == len(WRITER_SCRIPT)
            assert status.skipped == 1  # the UNRELATED event
        for status in clean[4:]:  # readers
            assert status.ok and status.errors == 0
            assert status.events == len(READER_SCRIPT)
            assert status.skipped == 0

        # (c) metrics counters equal the number of events sent
        total_sent = (
            4 * len(WRITER_SCRIPT) + 4 * len(READER_SCRIPT) + len(VIOLATING_SCRIPT)
        )
        assert snap["events_observed"] == total_sent
        assert snap["events_skipped"] == 4
        assert snap["violations"] == 1
        assert snap["events_malformed"] == 0
        assert snap["sessions_opened"] == 9 == snap["sessions_closed"]
        assert snap["latency"]["count"] == total_sent

    @pytest.mark.parametrize("sessions", [1, 2, 8])
    def test_verdicts_independent_of_shard_count(self, registry, sessions):
        """The server has one session queue; the verdicts do not depend on
        how many concurrent sessions share it."""

        async def group(port):
            return [
                await _session(port, "Write", script, proto)
                for script in (VIOLATING_SCRIPT, MULTI_CALLEE_SCRIPT)
                for proto in (1, 2)
            ]

        async def run():
            async with MonitorServer(registry) as server:
                return await asyncio.gather(
                    *(group(server.port) for _ in range(sessions))
                )

        groups = asyncio.run(run())
        assert len(groups) == sessions
        assert all(g == groups[0] for g in groups)
        plain, plain_binary, multi, multi_binary = groups[0]
        assert plain.violation_index == VIOLATION_INDEX
        assert multi.violation_index == MULTI_CALLEE_VIOLATION_INDEX
        assert multi.skipped == 4 and multi.events == len(MULTI_CALLEE_SCRIPT)
        # text and the binary framing agree on the same stream
        assert plain_binary == plain
        assert multi_binary == multi

    def test_one_monitor_per_session(self, cast):
        """One bind, one monitor per session."""
        registry = SpecRegistry([cast.write()])
        created = []
        new_monitor_for = registry.new_monitor_for

        def counting(compiled):
            created.append(compiled.name)
            return new_monitor_for(compiled)

        registry.new_monitor_for = counting

        async def run():
            async with MonitorServer(registry) as server:
                async with MonitorClient("127.0.0.1", server.port) as client:
                    statuses = []
                    for _ in range(2):  # SPEC on a plain session rebinds
                        await client.use_spec("Write")
                        for line in MULTI_CALLEE_SCRIPT:
                            await client.send_event(line)
                        statuses.append(await client.status())
                    return statuses

        statuses = asyncio.run(run())
        assert len({line.split()[2] for line in MULTI_CALLEE_SCRIPT}) >= 4
        assert created == ["Write", "Write"]
        for status in statuses:
            assert status.violation_index == MULTI_CALLEE_VIOLATION_INDEX
            assert status.skipped == 4

    @pytest.mark.parametrize(
        "head", [b"EVENT ", b"UPDATE lines=1\n"], ids=["event", "update-body"]
    )
    def test_over_long_line_is_refused_and_closes(self, registry, head):
        async def run():
            async with MonitorServer(registry) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(head + b"x" * 100_000 + b"\nSTATUS\n")
                await writer.drain()
                reply = await reader.readline()
                rest = await reader.read()
                writer.close()
                await writer.wait_closed()
                return reply, rest

        reply, rest = asyncio.run(run())
        assert reply == b"ERR line too long\n"
        assert rest == b""  # closed: the line's tail never ran as commands


    @pytest.mark.parametrize(
        "length,reply",
        [
            (65_536, b"OK status spec=Write events=1 skipped=0 errors=0\n"),
            (65_537, b"ERR line too long\n"),
        ],
        ids=["at-limit", "one-past"],
    )
    def test_line_limit_is_65536_bytes_without_the_newline(
        self, registry, length, reply
    ):
        # Padding between the verb and its argument is stripped, so the
        # at-limit line is one valid event.
        event = b"w1 -> o : OW"
        line = b"EVENT" + b" " * (length - 5 - len(event)) + event
        assert len(line) == length

        async def run():
            async with MonitorServer(registry) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"SPEC Write\n" + line + b"\nSTATUS\n")
                await writer.drain()
                await reader.readline()  # the SPEC reply
                got = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return got

        assert asyncio.run(run()) == reply

    def test_lines_before_an_over_long_line_apply_and_are_logged(
        self, registry, tmp_path
    ):
        """One write: an event, then an over-long line.

        The event applies and is logged before the refusal, so a
        re-attach counts it in ``applied=``.
        """

        async def run():
            async with MonitorServer(
                registry, data_dir=tmp_path
            ) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"HELLO session=k\nSPEC Write\n")
                await writer.drain()
                for _ in range(2):
                    await reader.readline()
                writer.write(
                    b"EVENT w1 -> o : OW\nEVENT " + b"x" * 100_000 + b"\n"
                )
                await writer.drain()
                refusal = await reader.readline()
                rest = await reader.read()
                writer.close()
                await writer.wait_closed()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"HELLO session=k\nSPEC Write\nSTATUS\n")
                await writer.drain()
                replies = [await reader.readline() for _ in range(3)]
                writer.close()
                await writer.wait_closed()
                return refusal, rest, replies[1:]

        refusal, rest, (attach, status) = asyncio.run(run())
        assert (refusal, rest) == (b"ERR line too long\n", b"")
        assert attach == b"OK spec Write applied=1\n"
        assert status == (
            b"OK status spec=Write events=1 skipped=0 errors=0 applied=1\n"
        )

    def test_binary_frames_in_the_hello_write_are_served(self, registry):
        """``HELLO proto=2`` and frames in one write, past 64 KiB unbroken.

        The text door has already read the frames' bytes with the
        ``HELLO`` line; the binary loop must get them back, whatever
        the text line limit.
        """
        compiled = registry.get("Write")
        ow = compiled.letter_lines.index("#Obj0 -> o : OW")
        cw = compiled.letter_lines.index("#Obj0 -> o : CW")
        ids = [ow, cw] * 10_000
        batch = wire.pack_event_ids(ids)
        assert len(batch) > 1 << 16 and b"\n" not in batch

        async def run():
            async with MonitorServer(registry) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"HELLO proto=2\n"
                    + wire.encode_frame(wire.OP_SPEC, b"Write")
                    + wire.encode_frame(wire.OP_EVENTS, batch)
                    + wire.encode_frame(wire.OP_EVENT, b"w1 -> o : OW")
                    + wire.encode_frame(wire.OP_STATUS)
                )
                await writer.drain()
                hello = await reader.readline()
                frames = [await wire.read_frame(reader) for _ in range(3)]
                writer.close()
                await writer.wait_closed()
                return hello, frames

        hello, (spec, letters, status) = asyncio.run(run())
        assert hello.startswith(b"OK repro-service 2 ")
        assert spec[0] == wire.OP_OK and letters[0] == wire.OP_LETTERS
        assert status == (
            wire.OP_OK,
            b"status spec=Write events=20001 skipped=0 errors=0",
        )


class TestProtocolBehaviour:
    def _roundtrip(self, registry, lines, spec="Write"):
        async def run():
            async with MonitorServer(registry) as server:
                return await _session(server.port, spec, lines)

        return asyncio.run(run())

    def test_unknown_spec_rejected(self, registry):
        async def run():
            async with MonitorServer(registry) as server:
                client = MonitorClient("127.0.0.1", server.port)
                await client.connect()
                with pytest.raises(Exception, match="Nope"):
                    await client.use_spec("Nope")
                await client.close()

        asyncio.run(run())

    def test_malformed_events_counted_not_fatal(self, registry):
        status = self._roundtrip(
            registry, ["not an event line", "w1 -> o : OW", "o -> o : SELF"]
        )
        assert status.ok
        assert status.events == 1 and status.errors == 2

    def test_events_before_spec_are_errors(self, registry):
        async def run():
            async with MonitorServer(registry) as server:
                client = MonitorClient("127.0.0.1", server.port)
                await client.connect()
                await client.send_event("w1 -> o : OW")
                status = await client.status()
                await client.close()
                return status

        status = asyncio.run(run())
        assert status.spec is None
        assert status.events == 0 and status.errors == 1

    def test_reset_forgets_violation(self, registry):
        async def run():
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Write"
                ) as client:
                    for line in VIOLATING_SCRIPT:
                        await client.send_event(line)
                    before = await client.status()
                    await client.reset()
                    await client.send_event("w1 -> o : OW")
                    after = await client.status()
                    return before, after

        before, after = asyncio.run(run())
        assert not before.ok
        assert after.ok and after.events == 1

    def test_rebinding_spec_resets_session(self, registry):
        async def run():
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Write"
                ) as client:
                    for line in VIOLATING_SCRIPT:
                        await client.send_event(line)
                    await client.use_spec("Read2")
                    status = await client.status()
                    return status

        status = asyncio.run(run())
        assert status.ok and status.spec == "Read2" and status.events == 0

    def test_hello_lists_specs(self, registry):
        async def run():
            async with MonitorServer(registry) as server:
                async with MonitorClient("127.0.0.1", server.port) as client:
                    return client.server_specs

        assert asyncio.run(run()) == ("Read2", "Write")
