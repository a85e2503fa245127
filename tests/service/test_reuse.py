"""Wire proto 3: a connection outlives its session.

The reuse law: sessions run back to back on one proto-3 connection give,
session by session, what the same sessions give on fresh proto-2
connections of their own (the one-connection-per-session protocol), and
the dense oracle's verdicts.  Beside it, the framing facts the law rests
on: at proto 1 and 2 ``BYE`` still closes the connection, at proto 3 the
``BYE`` reply leaves it in its just-accepted state, and a proto-3 client
against a proto-2 server agrees 2 and closes.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import get_registry, use_registry
from repro.service import MonitorClient, MonitorServer, SpecRegistry, wire
from repro.workload.generator import FaultSpec, StreamSession, generate_stream
from repro.workload.scenarios import get_scenario

SPECS = ("DynamicCoordinator", "FanOutBroker")
FAULTS = FaultSpec(reorder=0.05, dup=0.05, drop=0.05)


@pytest.fixture(scope="module")
def registry():
    return SpecRegistry(
        [
            *get_scenario("two_phase_dynamic").specifications(),
            *get_scenario("pubsub_fanout").specifications(),
        ]
    )


@pytest.fixture(scope="module")
def violating(registry) -> int:
    """A seed whose faulted 40-event DynamicCoordinator stream violates."""
    compiled = registry.get(SPECS[0])
    return next(
        seed
        for seed in range(1000)
        if generate_stream(
            compiled, events=40, faults=FAULTS, seed=seed
        ).expected_violation
        is not None
    )


def _lines(registry, spec, seed, events, faulted):
    """A seeded segment's lines and the dense oracle's verdict on them."""
    stream = StreamSession(
        registry.get(spec), FAULTS if faulted else None, seed=seed
    )
    return stream.next_batch_lines(events), stream.expected_violation


def _summary(status):
    return (
        status.spec,
        status.events,
        status.skipped,
        status.errors,
        status.violation_index,
        status.violation_event,
        status.applied,
    )


def _open_sessions() -> int:
    registry = get_registry()
    return (
        registry.counter("repro_sessions_opened_total").value
        - registry.counter("repro_sessions_closed_total").value
    )


async def _run(port, plan, *, reuse: bool):
    """Drive ``plan``; per session, its replies and its oracle verdicts.

    ``reuse``: one proto-3 client carries every session; otherwise each
    session has a fresh proto-2 client.  A plain witness session stays
    open throughout, so the server always has exactly one other session.
    """
    witness = MonitorClient("127.0.0.1", port, spec=SPECS[1], proto=2)
    await witness.connect()
    shared = MonitorClient("127.0.0.1", port, proto=3, batch=16)
    results = []
    for number, session in enumerate(plan):
        if reuse:
            client = shared
        else:
            client = MonitorClient("127.0.0.1", port, proto=2, batch=16)
        client.session = session["key"]
        client.spec = session["spec"]
        await client.connect()
        assert client.proto == (3 if reuse else 2)
        assert client.reused == (reuse and number > 0)
        assert client.durable == (session["key"] is not None)
        replies, oracle = [], []
        for j, (lines, expected) in enumerate(session["segments"]):
            if j:
                await client.reset()
            if j == 0 and session["reattach"]:
                # end the session mid-stream and open its key again
                half = len(lines) // 2
                await client.send_trace(lines[:half])
                replies.append(_summary(await client.close()))
                await client.connect()
                assert client.reused == reuse
                await client.send_trace(lines[half:])
            else:
                await client.send_trace(lines)
            replies.append(_summary(await client.status()))
            oracle.append(expected)
        final = await client.close()
        replies.append(_summary(final))
        assert client.idle == reuse
        assert _open_sessions() == 1  # the witness
        results.append((replies, oracle))
    await shared.disconnect()
    await witness.close()
    return results


_segment = st.tuples(
    st.integers(0, 10**6), st.integers(1, 60), st.booleans()
)
_session = st.fixed_dictionaries(
    {
        "spec": st.sampled_from(SPECS),
        "durable": st.booleans(),
        "segments": st.lists(_segment, min_size=1, max_size=2),
        "reattach": st.booleans(),
    }
)


@settings(max_examples=25, deadline=None)
@given(sessions=st.lists(_session, min_size=1, max_size=4))
def test_reused_connection_is_fresh_connections(registry, violating, sessions):
    plan = []
    for index, session in enumerate(
        [
            *sessions,
            # one session that surely violates
            {
                "spec": SPECS[0],
                "durable": True,
                "segments": [(violating, 40, True)],
                "reattach": True,
            },
        ]
    ):
        durable = session["durable"]
        plan.append(
            {
                "spec": session["spec"],
                "key": f"k{index}" if durable else None,
                "reattach": durable and session["reattach"],
                "segments": [
                    _lines(registry, session["spec"], *segment)
                    for segment in session["segments"]
                ],
            }
        )

    async def run(reuse: bool):
        with tempfile.TemporaryDirectory() as data_dir, use_registry():
            async with MonitorServer(registry, data_dir=data_dir) as server:
                return await _run(server.port, plan, reuse=reuse)

    reused = asyncio.run(run(True))
    fresh = asyncio.run(run(False))
    assert reused == fresh
    for replies, oracle in reused:
        # the status after each segment carries the oracle's verdict
        per_segment = replies[-len(oracle) - 1:-1]
        assert [r[4] for r in per_segment] == oracle
        assert replies[-1] == replies[-2]  # the close's status is the last
    assert any(v is not None for _, oracle in reused for v in oracle)


# -- the framing facts the law rests on ---------------------------------------


def _raw(port: int, data: bytes, *, replies: int) -> tuple[bytes, bool]:
    """Write ``data``; read ``replies`` replies' worth, then whether EOF came."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        buf = b""
        while buf.count(b"\n") < replies:
            chunk = sock.recv(65536)
            if not chunk:
                return buf, True
            buf += chunk
        sock.settimeout(0.3)
        try:
            return buf, sock.recv(65536) == b""
        except socket.timeout:
            return buf, False


class TestByeFraming:
    def test_text_bye_closes(self, registry):
        async def go():
            async with MonitorServer(registry) as server:
                return await asyncio.to_thread(
                    _raw, server.port, b"HELLO\nSPEC FanOutBroker\nBYE\n",
                    replies=3,
                )

        buf, eof = asyncio.run(go())
        assert buf.endswith(b"OK bye events=0\n") and eof

    @pytest.mark.parametrize("proto", [2, 3])
    def test_framed_bye(self, registry, proto):
        """proto 2: BYE closes; proto 3: the connection reads HELLO again."""

        def exchange(port):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                reader = sock.makefile("rb")
                sock.sendall(f"HELLO proto={proto}\n".encode())
                assert reader.readline().startswith(b"OK repro-service")
                # BYE and the next HELLO in one write: the bytes after the
                # BYE frame are text again at proto 3
                sock.sendall(wire.encode_frame(wire.OP_BYE) + b"HELLO\n")
                opcode, length = struct.unpack("<BI", reader.read(5))
                assert opcode == wire.OP_OK
                assert reader.read(length).startswith(b"bye events=0")
                return reader.readline()

        async def go():
            async with MonitorServer(registry) as server:
                return await asyncio.to_thread(exchange, server.port)

        after = asyncio.run(go())
        if proto == 2:
            assert after == b""  # closed
        else:
            assert after.startswith(b"OK repro-service 1 ")

    def test_proto3_client_against_proto2_server_closes(
        self, registry, monkeypatch
    ):
        monkeypatch.setattr(wire, "WIRE_VERSION", 2)

        async def go():
            async with MonitorServer(registry) as server:
                client = MonitorClient(
                    "127.0.0.1", server.port, spec=SPECS[1], proto=3
                )
                await client.connect()
                agreed = client.proto
                status = await client.close()
                return agreed, status, client.idle, client._writer

        agreed, status, idle, writer = asyncio.run(go())
        assert agreed == 2 and status.events == 0
        assert not idle and writer is None

    def test_reused_connection_whose_server_went_away_connects_at_once(
        self, registry
    ):
        """A kept connection the server closed costs no backoff sleep."""

        async def go():
            async with MonitorServer(registry) as first:
                client = MonitorClient(
                    "127.0.0.1", first.port, spec=SPECS[1], proto=3,
                    backoff_base=30.0,
                )
                await client.connect()
                await client.close()
                assert client.idle
                port = first.port
            # the server (and the idle connection) is gone; a new one
            # listens on the same port
            async with MonitorServer(registry, port=port) as second:
                loop = asyncio.get_running_loop()
                began = loop.time()
                await client.connect()
                took = loop.time() - began
                status = await client.status()
                await client.close()
                await client.disconnect()
                return took, client.reused, client.connect_attempts, status

        took, reused, attempts, status = asyncio.run(go())
        # one attempt: the fresh connect came without a backoff sleep
        assert not reused and attempts == 1 and took < 1.0
        assert status.spec == SPECS[1]
