"""Tests for the client: backoff schedule, retries, backpressure."""

import asyncio
import random
import socket

import pytest

from repro.core.events import Event
from repro.core.values import DataVal, ObjectId
from repro.obs.registry import use_registry
from repro.service import (
    MonitorClient,
    MonitorServer,
    ServiceUnavailable,
    SpecRegistry,
    backoff_delays,
)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestBackoff:
    def test_exponential_envelope_with_cap(self):
        delays = list(backoff_delays(6, base=0.1, cap=0.5, rng=random.Random(7)))
        assert len(delays) == 6
        for i, delay in enumerate(delays):
            assert 0.0 <= delay <= min(0.5, 0.1 * 2**i)

    def test_jitter_is_seedable(self):
        a = list(backoff_delays(4, rng=random.Random(42)))
        b = list(backoff_delays(4, rng=random.Random(42)))
        assert a == b

    def test_zero_retries_yields_nothing(self):
        assert list(backoff_delays(0)) == []


class TestConnect:
    def test_unreachable_raises_after_retries(self):
        port = _free_port()  # nothing is listening there

        async def run():
            client = MonitorClient(
                "127.0.0.1",
                port,
                connect_retries=2,
                backoff_base=0.001,
                backoff_cap=0.002,
                rng=random.Random(1),
            )
            with pytest.raises(ServiceUnavailable, match="3 attempts"):
                await client.connect()

        asyncio.run(run())

    def test_retry_succeeds_once_server_appears(self, cast):
        registry = SpecRegistry([cast.write()])
        port = _free_port()

        async def run():
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
                server = MonitorServer(registry, port=port)
                await server.start()
                return server

            with use_registry() as metrics:
                server_task = asyncio.create_task(late_server())
                await client.connect()
                status = await client.status()
                await client.close()
                await (await server_task).stop()
                retried = metrics.snapshot()[
                    "repro_client_connect_retries_total"
                ][""]
            return status, client.connect_attempts, retried

        status, attempts, retried = asyncio.run(run())
        assert status.ok
        assert attempts > 1
        assert retried == attempts - 1

    def test_sync_before_connect_rejected(self):
        async def run():
            client = MonitorClient("127.0.0.1", 1)
            with pytest.raises(Exception, match="not connected"):
                await client.status()

        asyncio.run(run())


class TestSending:
    def test_event_objects_and_raw_lines_equivalent(self, cast, x1):
        registry = SpecRegistry([cast.write()])
        d = DataVal("Data", "d1")

        async def run():
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Write"
                ) as client:
                    await client.send_event(Event(x1, cast.o, "OW"))
                    await client.send_event(f"{x1.name} -> o : W(Data:d1)")
                    await client.send_event(Event(x1, cast.o, "CW", ()))
                    return await client.status()

        status = asyncio.run(run())
        assert status.ok and status.events == 3 and status.errors == 0

    def test_every_event_arrives_on_both_framings(self, cast):
        """Written inline, every sent event is checked, text or binary."""
        registry = SpecRegistry([cast.write()])

        async def run(proto):
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Write", proto=proto, batch=8
                ) as client:
                    for i in range(100):
                        await client.send_event(f"w{i % 3} -> o : UNRELATED")
                    return client.proto, client.events_sent, await client.status()

        for proto in (1, 2):
            agreed, sent, status = asyncio.run(run(proto))
            assert agreed == proto and sent == 100
            assert status.events == 100 and status.skipped == 100
