"""Multi-process serving topology: construction, lifecycle failures, chaos.

The spawned-worker tests are real multi-process integration tests: each
worker re-imports the package and compiles its own registry, so they
cost seconds, not milliseconds.  The document under test is kept tiny
and verdicts are always compared against an in-process single-server
baseline rather than hand-computed.
"""

import asyncio
import multiprocessing
from dataclasses import replace

import pytest

from repro.core.errors import ReproError
from repro.service import MonitorClient, MonitorServer, SpecRegistry
from repro.service import topology
from repro.service.topology import ScaleOutServer, WorkerConfig

DOC = """
object o
object c
specification Cap {
  objects o
  method M(Data)
  alphabet { <c, o, M(_)> ; }
  traces prs "<c,o,M(_)> <c,o,M(_)>"
}
"""

EVENT = "c -> o : M(Data:d)"


class TestConstruction:
    def test_needs_exactly_one_source(self):
        with pytest.raises(ReproError, match="exactly one"):
            ScaleOutServer(procs=2)
        with pytest.raises(ReproError, match="exactly one"):
            ScaleOutServer(scenario="pubsub_fanout", document=DOC)

    def test_requires_so_reuseport(self, monkeypatch):
        monkeypatch.setattr(topology, "reuseport_available", lambda: False)
        with pytest.raises(ReproError, match="SO_REUSEPORT"):
            ScaleOutServer(document=DOC, procs=2)

    def test_worker_config_is_frozen(self):
        config = WorkerConfig(
            worker_index=0, host="127.0.0.1", port=1,
            scenario=None, document=DOC,
        )
        with pytest.raises(AttributeError):
            config.port = 2


def _live_workers():
    return [
        proc
        for proc in multiprocessing.active_children()
        if proc.name.startswith("repro-worker-")
    ]


class TestLifecycleFailures:
    def test_failed_respawn_is_retried_and_stop_tears_down(self):
        """A respawn that fails must not end supervision or break stop()."""

        async def run():
            server = ScaleOutServer(document=DOC, procs=1)
            await server.start()
            spawn, calls = server._spawn, []

            async def flaky_spawn(index):
                calls.append(index)
                if len(calls) == 1:
                    raise ReproError(f"worker {index} failed to start")
                return await spawn(index)

            server._spawn = flaky_spawn
            try:
                server.kill_worker(0)
                restarts = await server.wait_restarts(1)  # the retried respawn
                respawns = len(calls)
            finally:
                await server.stop()
            return restarts, respawns, server

        restarts, respawns, server = asyncio.run(run())
        assert restarts == 1
        assert respawns >= 2
        assert server.worker_pids == ()
        assert server._reserve_sock is None
        assert _live_workers() == []

    def test_partial_start_stops_the_started_workers(self):
        """Worker 1 dies on boot: worker 0 is stopped, the port freed."""

        async def run():
            server = ScaleOutServer(document=DOC, procs=2)
            spawn, started = server._spawn, []

            async def spawn_breaking_worker_1(index):
                if index == 1:  # a document the worker cannot compile
                    server._template = replace(
                        server._template, document="specification {"
                    )
                proc, conn = await spawn(index)
                started.append(proc)
                return proc, conn

            server._spawn = spawn_breaking_worker_1
            try:
                with pytest.raises(ReproError, match="worker 1 failed"):
                    await server.start()
            finally:
                for proc in started:  # never leak a worker, even on failure
                    if proc.is_alive():
                        proc.kill()
            return server, started

        server, started = asyncio.run(run())
        assert len(started) == 1
        assert started[0].exitcode is not None  # terminated and joined
        assert server.worker_pids == ()
        assert server._reserve_sock is None
        assert _live_workers() == []


async def _baseline(lines_per_session):
    """The same sessions against one in-process server."""
    registry = SpecRegistry.from_text(DOC)
    out = []
    async with MonitorServer(registry) as server:
        for lines in lines_per_session:
            async with MonitorClient(
                "127.0.0.1", server.port, spec="Cap"
            ) as client:
                for line in lines:
                    await client.send_event(line)
                out.append(await client.status())
    return out


def _verdict(status):
    return (
        status.ok,
        status.events,
        status.violation_index,
        status.violation_event,
    )


class TestScaleOut:
    # Cap admits exactly two M events (plus prefixes): three violate.
    SESSIONS = [[EVENT] * 2, [EVENT] * 3, [EVENT] * 1, [EVENT] * 4]

    def test_verdicts_match_single_process(self):
        async def run():
            server = ScaleOutServer(document=DOC, procs=2)
            await server.start()
            try:
                statuses = []
                for lines in self.SESSIONS:
                    async with MonitorClient(
                        "127.0.0.1", server.port, spec="Cap"
                    ) as client:
                        for line in lines:
                            await client.send_event(line)
                        statuses.append(await client.status())
            finally:
                await server.stop()
            return statuses, await _baseline(self.SESSIONS)

        statuses, baseline = asyncio.run(run())
        assert [_verdict(s) for s in statuses] == [
            _verdict(s) for s in baseline
        ]

    def test_kill_and_restart_keeps_verdicts(self, tmp_path):
        """SIGKILL a worker mid-stream; durable sessions ride it out."""

        async def run():
            server = ScaleOutServer(
                document=DOC,
                procs=2,
                data_dir=tmp_path,
                fsync_every=1,
                snapshot_every=4,
            )
            await server.start()
            try:
                clients = [
                    MonitorClient(
                        "127.0.0.1",
                        server.port,
                        spec="Cap",
                        session=f"chaos:{i}",
                        connect_retries=10,
                    )
                    for i in range(len(self.SESSIONS))
                ]
                for client in clients:
                    await client.connect()
                    assert client.durable
                # first event of every session, then kill both workers in
                # turn so every session's worker dies at least once
                for client, lines in zip(clients, self.SESSIONS):
                    await client.send_event(lines[0])
                    await client.status()
                pids = server.worker_pids
                for index in range(server.procs):
                    server.kill_worker(index)
                assert await server.wait_restarts(server.procs) == server.procs
                assert set(server.worker_pids).isdisjoint(pids)
                statuses = []
                for client, lines in zip(clients, self.SESSIONS):
                    try:
                        for line in lines[1:]:
                            await client.send_event(line)
                        statuses.append(await client.status())
                    finally:
                        await client.close()
            finally:
                await server.stop()
            return statuses, await _baseline(self.SESSIONS)

        statuses, baseline = asyncio.run(run())
        assert [_verdict(s) for s in statuses] == [
            _verdict(s) for s in baseline
        ]


#: DOC plus one more spec: what a ``--watch`` edit adds.
EDITED_DOC = DOC + """
specification Extra {
  objects o
  method M(Data)
  alphabet { <c, o, M(_)> ; }
  traces prs "<c,o,M(_)>*"
}
"""


async def _lists_spec(server, index, name, *, tries=100, pause=0.05):
    """Whether worker ``index``'s direct port comes to list ``name``."""
    for _ in range(tries):
        async with MonitorClient(
            "127.0.0.1", server.worker_ports[index]
        ) as client:
            if name in client.server_specs:
                return True
        await asyncio.sleep(pause)
    return False


class TestWatchRespawn:
    def test_respawned_worker_serves_every_edit_since_start(self, tmp_path):
        """A ``--watch`` edit survives a worker's SIGKILL and respawn."""
        doc = tmp_path / "spec.oun"
        doc.write_text(DOC, encoding="utf-8")

        async def run():
            server = ScaleOutServer(document=DOC, procs=2, watch=doc)
            await server.start()
            try:
                doc.write_text(EDITED_DOC, encoding="utf-8")
                for index in range(server.procs):
                    assert await _lists_spec(server, index, "Extra")
                server.kill_worker(0)
                assert await server.wait_restarts(1) == 1
                return [
                    await _lists_spec(server, index, "Extra")
                    for index in range(server.procs)
                ]
            finally:
                await server.stop()

        assert asyncio.run(run()) == [True, True]
