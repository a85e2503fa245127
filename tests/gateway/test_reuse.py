"""The Gateway's idle list: ended sessions' connections carry new keys.

At proto 3 a ``DELETE`` leaves its backend connection open, and the next
key opens on it.  The list is bounded, it survives a worker that dies
under an idle connection, and a durable key whose link died still ends
with its final status.
"""

from __future__ import annotations

import asyncio
import os
import time

from repro import api
from repro.api import Gateway
from repro.obs.registry import get_registry, use_registry
from repro.service import SpecRegistry
from repro.workload.generator import FaultSpec, StreamSession
from repro.workload.scenarios import get_scenario

from tests.gateway.conftest import DOC, EVENT, live_server
from tests.gateway.test_scaleout_metrics import live_scaleout

SPEC = "DynamicCoordinator"


def _connects(reused: bool) -> int:
    return get_registry().counter(
        "repro_gateway_backend_connects_total",
        (("reused", "1" if reused else "0"),),
    ).value


def test_a_thousand_keys_make_one_fresh_connect():
    with use_registry(), live_server(SpecRegistry.from_text(DOC)) as port:
        with Gateway("127.0.0.1", port) as gateway:
            for i in range(1000):
                gateway.send_events(f"k{i}", [EVENT], spec="A")
                assert gateway.end_session(f"k{i}")["events"] == 1
            assert (_connects(False), _connects(True)) == (1, 999)
            assert len(gateway._idle) == 1
            scrape = gateway.metrics_text()
    assert 'repro_gateway_backend_connects_total{reused="1"} 999' in scrape


def test_idle_connections_stay_within_the_bound():
    bound = api._IDLE_CONNECTIONS
    keys = [f"k{i}" for i in range(2 * bound + 3)]
    with live_server(SpecRegistry.from_text(DOC)) as port:
        with Gateway("127.0.0.1", port) as gateway:

            async def open_all():
                await asyncio.gather(
                    *(gateway.asend_events(k, [EVENT], spec="A") for k in keys)
                )

            asyncio.run_coroutine_threadsafe(open_all(), gateway.loop).result(60)
            clients = list(gateway._clients.values())
            assert len(clients) == len(keys)
            for key in keys:
                gateway.end_session(key)
            assert len(gateway._idle) == bound
            assert sum(c._writer is not None for c in clients) == bound
            # a new key takes the most recently idled connection
            last = gateway._idle[-1]
            gateway.send_events("new", [EVENT], spec="A")
            assert gateway._clients["new"] is last


def _holder(server, client) -> int:
    """The index of the worker that holds ``client``'s connection.

    Workers share one port, so this reads which worker process owns the
    socket whose peer is the client's local port.
    """
    local = client._writer.get_extra_info("sockname")[1]
    inodes = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        with open(table, encoding="ascii") as fh:
            next(fh)
            for row in fh:
                fields = row.split()
                here = int(fields[1].rsplit(":", 1)[1], 16)
                peer = int(fields[2].rsplit(":", 1)[1], 16)
                if here == server.port and peer == local:
                    inodes.add(f"socket:[{fields[9]}]")
    for index, pid in enumerate(server.worker_pids):
        try:
            fds = os.listdir(f"/proc/{pid}/fd")
        except FileNotFoundError:
            continue  # a killed worker not yet respawned
        for fd in fds:
            try:
                if os.readlink(f"/proc/{pid}/fd/{fd}") in inodes:
                    return index
            except OSError:
                continue
    raise AssertionError("no worker holds the connection")


def _violating_stream(registry):
    """A faulted 40-line stream and the dense oracle's violation index."""
    faults = FaultSpec(reorder=0.05, dup=0.05, drop=0.05)
    for seed in range(1000):
        stream = StreamSession(registry.get(SPEC), faults, seed=seed)
        lines = stream.next_batch_lines(40)
        if stream.expected_violation is not None:
            return lines, stream.expected_violation
    raise AssertionError("no violating seed")


def test_a_dead_workers_idle_connection_is_replaced(tmp_path):
    registry = get_scenario("two_phase_dynamic").registry()
    lines, expected = _violating_stream(registry)
    with use_registry(), live_scaleout(
        document=None, scenario="two_phase_dynamic", procs=2, data_dir=tmp_path
    ) as server:
        with Gateway("127.0.0.1", server.port) as gateway:
            gateway.send_events("first", lines[:5], spec=SPEC)
            gateway.end_session("first")
            (idle,) = gateway._idle
            server.kill_worker(_holder(server, idle))
            began = time.monotonic()
            body = gateway.send_events("second", lines, spec=SPEC)
            assert time.monotonic() - began < 1.0
            assert body["violation"]["index"] == expected
            assert (_connects(False), _connects(True)) == (2, 0)

            # a durable key whose link dies still ends with its status
            gateway.send_events("d", lines[:20], spec=SPEC, durable=True)
            body = gateway.send_events("d", lines[20:])
            assert body["durable"] and body["violation"]["index"] == expected
            server.kill_worker(_holder(server, gateway._clients["d"]))
            final = gateway.end_session("d")
            assert final["closed"] and final["durable"]
            assert final["events"] == len(lines)
            assert final["violation"]["index"] == expected
