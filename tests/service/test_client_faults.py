"""Client behaviour under injected faults: retries, disconnects,
duplicated replies, and transport backpressure.

The misbehaving peers are scripted ``asyncio`` servers speaking just
enough of the wire protocol to reach the fault under test — the client
must turn each into a precise, typed failure rather than hanging or
silently desynchronising.
"""

import asyncio
import random
import socket
import struct

import pytest

from repro.core.errors import ReproError
from repro.obs.registry import use_registry
from repro.service import MonitorClient, MonitorServer, ServiceUnavailable, SpecRegistry


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def _stub_server(handler):
    """Start a scripted server; returns (server, port)."""
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestRetryAccounting:
    def test_failed_connect_counts_every_attempt(self):
        port = _free_port()  # nothing listens here

        async def run():
            with use_registry() as registry:
                client = MonitorClient(
                    "127.0.0.1",
                    port,
                    connect_retries=3,
                    backoff_base=0.001,
                    backoff_cap=0.002,
                    rng=random.Random(0),
                )
                with pytest.raises(ServiceUnavailable):
                    await client.connect()
                assert client.connect_attempts == 4
                snapshot = registry.snapshot()
            assert snapshot["repro_client_connect_retries_total"][""] == 3

        asyncio.run(run())

    def test_late_server_still_counts_retries(self, cast):
        registry_specs = SpecRegistry([cast.write()])
        port = _free_port()

        async def run():
            with use_registry() as registry:
                client = MonitorClient(
                    "127.0.0.1",
                    port,
                    spec="Write",
                    connect_retries=8,
                    backoff_base=0.05,
                    backoff_cap=0.2,
                    rng=random.Random(3),
                )

                async def late_server():
                    while client.connect_attempts < 2:
                        await asyncio.sleep(0)
                    server = MonitorServer(registry_specs, port=port)
                    await server.start()
                    return server

                server_task = asyncio.create_task(late_server())
                await client.connect()
                attempts = client.connect_attempts
                await client.close()
                await (await server_task).stop()
                retried = registry.snapshot()[
                    "repro_client_connect_retries_total"
                ][""]
            assert attempts > 1
            assert retried == attempts - 1

        asyncio.run(run())

    def test_first_try_success_touches_no_counter(self, cast):
        registry_specs = SpecRegistry([cast.write()])

        async def run():
            with use_registry() as registry:
                async with MonitorServer(registry_specs) as server:
                    async with MonitorClient(
                        "127.0.0.1", server.port
                    ) as client:
                        assert client.connect_attempts == 1
                return registry.snapshot()

        snapshot = asyncio.run(run())
        assert "repro_client_connect_retries_total" not in snapshot


class TestDisconnects:
    def test_server_closing_after_hello_breaks_sync(self):
        async def handler(reader, writer):
            await reader.readline()  # HELLO
            writer.write(b"OK hello specs=Write\n")
            await writer.drain()
            writer.close()

        async def run():
            server, port = await _stub_server(handler)
            client = MonitorClient("127.0.0.1", port, connect_retries=0)
            await client.connect()
            with pytest.raises(ConnectionError, match="closed"):
                await client.status()
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())

    def test_connection_reset_mid_trace_surfaces(self):
        hung_up = asyncio.Event()

        async def handler(reader, writer):
            await reader.readline()  # HELLO
            writer.write(b"OK hello specs=Write\n")
            await writer.drain()
            await reader.readline()  # first EVENT
            writer.close()  # hang up without a word
            hung_up.set()

        async def run():
            server, port = await _stub_server(handler)
            client = MonitorClient("127.0.0.1", port, connect_retries=0)
            await client.connect()
            await client.send_event("x -> o : PING")
            await hung_up.wait()
            # A dead link fails no send: each one returns ...
            for i in range(5000):
                await client.send_event(f"x{i} -> o : PING")
            # ... and the next synchronising verb reports it.
            with pytest.raises(ConnectionError):
                await client.status()
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())


def _reset(writer) -> None:
    """Drop the link with a TCP RST (``SO_LINGER`` 0), not a FIN."""
    writer.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    writer.transport.abort()


class _DurablePeer:
    """A scripted peer for one durable session, resetting at chosen cuts.

    Like the server, it applies every ``EVENT`` line it reads and answers
    ``SPEC`` and ``STATUS`` with ``applied=`` (inputs applied so far); a
    ``HELLO`` that carries ``session=`` is confirmed ``durable=1``.
    ``cuts[n]`` says where connection ``n`` (0 = the first) is reset: a
    verb (``"HELLO"``, ``"SPEC"``, ``"STATUS"``) is reset on arrival,
    before its reply; an integer ``k`` right after the connection's
    ``k``-th ``EVENT`` line; ``cuts[None]`` holds for any other
    connection, which otherwise runs clean.
    """

    def __init__(self, cuts=None):
        self.cuts = cuts or {}
        self.requests: list[list[str]] = []  # request lines, per connection
        self.applied: list[str] = []

    async def __call__(self, reader, writer):
        conn = len(self.requests)
        seen = []
        self.requests.append(seen)
        cut = self.cuts.get(conn, self.cuts.get(None))
        events = 0
        while raw := await reader.readline():
            line = raw.decode().rstrip("\n")
            seen.append(line)
            verb, _, arg = line.partition(" ")
            if verb == "EVENT":
                self.applied.append(arg)
                events += 1
                if cut == events:
                    return _reset(writer)
                continue
            if cut == verb:
                return _reset(writer)
            applied = len(self.applied)
            if verb == "HELLO":
                durable = " durable=1" if "session=" in arg else ""
                reply = f"OK repro-service 1{durable} specs=Write"
            elif verb == "SPEC":
                reply = f"OK spec {arg} applied={applied}"
            elif verb == "STATUS":
                reply = (
                    f"OK status spec=Write events={applied} skipped=0 "
                    f"errors=0 applied={applied}"
                )
            else:  # BYE
                reply = f"OK bye events={applied}"
            writer.write(f"{reply}\n".encode())
            await writer.drain()
        writer.close()


_LINES = [f"x{i} -> o : PING" for i in range(4)]


async def _drive_durable(peer: _DurablePeer, **kwargs):
    """Stream ``_LINES`` to ``peer`` on a durable session, then STATUS."""
    server, port = await _stub_server(peer)
    client = MonitorClient(
        "127.0.0.1",
        port,
        spec="Write",
        session="k",
        backoff_base=0.001,
        backoff_cap=0.002,
        rng=random.Random(0),
        **kwargs,
    )
    try:
        await client.connect()
        assert client.durable
        for line in _LINES:
            await client.send_event(line)
        return client, await client.status()
    finally:
        await client.close()
        server.close()
        await server.wait_closed()


class TestResetCuts:
    """A reset at each point of a durable resume: resume once, or give up.

    Connection 0 is reset after two events, so the ``STATUS`` that
    follows must resume; the resume's first attempt is then reset at
    one cut.  Whatever the cut, each input is applied exactly once, or
    the client raises ``ServiceUnavailable`` — never a raw socket error.
    """

    @pytest.mark.parametrize(
        "cut",
        ["HELLO", "SPEC", 1, "STATUS"],
        ids=[
            "before-hello-reply",
            "between-hello-and-spec",
            "during-resend",
            "before-verb-reply",
        ],
    )
    def test_one_cut_resumes_exactly_once(self, cut):
        peer = _DurablePeer({0: 2, 1: cut})

        async def run():
            with use_registry() as registry:
                client, status = await _drive_durable(peer)
                return client.connect_attempts, status, registry.snapshot()

        attempts, status, snapshot = asyncio.run(run())
        assert peer.applied == _LINES
        assert status.events == status.applied == len(_LINES)
        assert snapshot["repro_client_resumes_total"][""] == 1
        assert attempts == 2 and len(peer.requests) == 3
        assert snapshot["repro_client_connect_retries_total"][""] == 1

    def test_a_cut_on_every_attempt_spends_the_budget(self):
        peer = _DurablePeer({0: 2, None: "HELLO"})

        async def run():
            with pytest.raises(ServiceUnavailable, match="4 attempts"):
                await _drive_durable(peer, connect_retries=3)

        asyncio.run(run())
        assert peer.applied == _LINES[:2]
        assert len(peer.requests) == 1 + 4

    @pytest.mark.parametrize("session", [None, "k"], ids=["plain", "durable"])
    def test_connect_sends_one_hello_then_spec(self, session):
        peer = _DurablePeer()

        async def run():
            server, port = await _stub_server(peer)
            client = MonitorClient(
                "127.0.0.1", port, spec="Write", session=session
            )
            await client.connect()
            sent = list(peer.requests[0])
            await client.close()
            server.close()
            await server.wait_closed()
            return client.durable, sent

        durable, sent = asyncio.run(run())
        hello = "HELLO" if session is None else f"HELLO session={session}"
        assert sent == [hello, "SPEC Write"]
        assert durable == (session is not None)


class TestDuplicatedReplies:
    def test_duplicated_hello_reply_desyncs_next_verb(self):
        # A peer that answers HELLO twice leaves a stale line in the
        # stream; the next STATUS must fail loudly, not return nonsense.
        async def handler(reader, writer):
            await reader.readline()  # HELLO
            writer.write(b"OK hello specs=Write\nOK hello specs=Write\n")
            await writer.drain()
            await reader.readline()  # STATUS (answered by the stale line)
            writer.close()

        async def run():
            server, port = await _stub_server(handler)
            client = MonitorClient("127.0.0.1", port, connect_retries=0)
            await client.connect()
            with pytest.raises(ReproError, match="malformed status reply"):
                await client.status()
            await client.close()
            server.close()

        asyncio.run(run())

    def test_garbage_reply_rejected(self):
        async def handler(reader, writer):
            await reader.readline()
            writer.write(b"BANANA\n")
            await writer.drain()
            writer.close()

        async def run():
            server, port = await _stub_server(handler)
            client = MonitorClient("127.0.0.1", port, connect_retries=0)
            with pytest.raises(ReproError, match="malformed reply"):
                await client.connect()
            await client.close()
            server.close()

        asyncio.run(run())


class TestBackpressure:
    def test_send_blocks_when_the_transport_is_full(self):
        # A peer that stops reading fills the socket, then the transport
        # buffer: past its high-water mark the producer waits, and the
        # buffer never grows by more than one write beyond that mark.
        release = asyncio.Event()

        async def handler(reader, writer):
            await reader.readline()  # HELLO
            writer.write(b"OK hello specs=Write\n")
            await writer.drain()
            await release.wait()  # read nothing more
            writer.close()

        async def run():
            server, port = await _stub_server(handler)
            client = MonitorClient("127.0.0.1", port, connect_retries=0)
            await client.connect()
            transport = client._writer.transport
            high = transport.get_write_buffer_limits()[1]
            line = "a -> o : " + "M" * 16384
            bound = high + len(f"EVENT {line}\n")  # the mark plus one write
            blocked = False
            for _ in range(10_000):
                try:
                    await asyncio.wait_for(client.send_event(line), timeout=0.2)
                except asyncio.TimeoutError:
                    blocked = True
                    break
                assert transport.get_write_buffer_size() <= bound
            assert blocked
            assert transport.get_write_buffer_size() <= bound
            release.set()
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())

    def test_slow_reader_throttles_but_loses_nothing(self, cast):
        # The server's one queue still checks every event the client
        # pushed, however the socket throttled it — end-to-end
        # conservation.
        registry = SpecRegistry([cast.write()])

        async def run():
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Write"
                ) as client:
                    for i in range(300):
                        await client.send_event(f"w{i % 5} -> o : NOISE")
                    return await client.status()

        status = asyncio.run(run())
        assert status.events == 300 and status.skipped == 300

    def test_events_sent_matches_server_events(self, cast):
        # A send before connect() is refused, not counted as sent and
        # lost; once connected, every counted event reaches the server.
        registry = SpecRegistry([cast.write()])

        async def run():
            async with MonitorServer(registry) as server:
                client = MonitorClient("127.0.0.1", server.port, spec="Write")
                for _ in range(2):
                    with pytest.raises(ReproError, match="not connected"):
                        await client.send_event("a -> o : M")
                async with client:
                    for _ in range(5):
                        await client.send_event("a -> o : M")
                    status = await client.status()
                return client.events_sent, status.events

        assert asyncio.run(run()) == (5, 5)
