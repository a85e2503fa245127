"""Multi-process serving topology: construction, lifecycle failures, chaos.

The spawned-worker tests are real multi-process integration tests: each
worker re-imports the package and compiles its own registry, so they
cost seconds, not milliseconds.  The document under test is kept tiny
and verdicts are always compared against an in-process single-server
baseline rather than hand-computed.
"""

import asyncio
import multiprocessing
import os
import re
import signal
import urllib.request
from dataclasses import replace

import pytest

from repro import cli
from repro.api import _http_fronts
from repro.core.errors import ReproError
from repro.obs.registry import use_registry
from repro.service import MonitorClient, MonitorServer, SpecRegistry
from repro.service import topology
from repro.service.chain import CHAIN_FILE, decode_chain
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


async def _baseline(lines_per_session, doc=DOC, spec="Cap"):
    """The same sessions, uninterrupted, against one in-process server."""
    registry = SpecRegistry.from_text(doc)
    out = []
    async with MonitorServer(registry) as server:
        for lines in lines_per_session:
            async with MonitorClient(
                "127.0.0.1", server.port, spec=spec
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


#: DOC plus one more spec: what an update adds.
EDITED_DOC = DOC + """
specification Extra {
  objects o
  method M(Data)
  alphabet { <c, o, M(_)> ; }
  traces prs "<c,o,M(_)>*"
}
"""

#: Two more versions of Cap: each step of the law's sequence changes it,
#: whichever order the racing pair lands in.
CAP_ONE = EDITED_DOC.replace('"<c,o,M(_)> <c,o,M(_)>"', '"<c,o,M(_)>"')
CAP_THREE = EDITED_DOC.replace(
    '"<c,o,M(_)> <c,o,M(_)>"', '"<c,o,M(_)> <c,o,M(_)> <c,o,M(_)>"'
)

#: A document whose constraint nests past the parser's recursion limit.
DEEP_DOC = DOC.replace(
    'traces prs "<c,o,M(_)> <c,o,M(_)>"', "traces " + "not " * 2000 + "true"
)


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


async def _pairs(port):
    """The ``(name, version)`` pairs a server lists on ``port``."""
    async with MonitorClient("127.0.0.1", port) as client:
        text = await client.metrics()
        names = sorted(client.server_specs)
    pairs = sorted(
        (name, int(version))
        for name, version in re.findall(
            r'^repro_spec_version\{spec="([^"]+)"\} (\d+)', text, re.M
        )
    )
    assert [name for name, _ in pairs] == names, (pairs, names)
    return pairs


async def _update(port, *, proto=1, **request):
    """One ``UPDATE`` over ``port``: ``("OK", fields)`` or ``("ERR", why)``."""
    async with MonitorClient("127.0.0.1", port, proto=proto) as client:
        try:
            return "OK", await client.update_document(**request)
        except ReproError as exc:
            return "ERR", str(exc)


def _put(port, name, text):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/documents/{name}",
        data=text.encode("utf-8"),
        method="PUT",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status


class TestCrossWorkerLaw:
    """After an ``UPDATE``'s OK, every worker lists the same versions.

    Each step's pairs also equal one process's after the same updates,
    and a rejected update gives one process's reason and changes nothing:
    no worker's pairs, no byte of the chain file.
    """

    @pytest.mark.parametrize("procs", [2, 3])
    def test_every_worker_lists_the_same_versions(self, procs, tmp_path):
        chain = tmp_path / CHAIN_FILE
        sequential = [
            (1, {"text": EDITED_DOC}),  # the text door
            (2, {"text": CAP_ONE}),  # the binary door
            (1, {"text": CAP_ONE, "force": True}),
        ]
        rejected = [{"text": "specification {"}, {"scenario": "no_such"}]

        async def run():
            server = ScaleOutServer(document=DOC, procs=procs, data_dir=tmp_path)
            await server.start()
            steps, reasons = [], []

            async def agreed():
                pairs = [await _pairs(port) for port in server.worker_ports]
                assert all(p == pairs[0] for p in pairs), pairs
                steps.append(pairs[0])

            try:
                for proto, request in sequential:
                    assert (await _update(server.port, proto=proto, **request))[0] == "OK"
                    # on disk before the OK reached the client
                    entry = decode_chain(chain.read_bytes())[1][-1]
                    assert entry == (None, request["text"], bool(request.get("force")))
                    await agreed()
                # two at once, to two workers' direct ports
                both = await asyncio.gather(
                    _update(server.worker_ports[0], text=CAP_THREE),
                    _update(server.worker_ports[1], text=EDITED_DOC),
                )
                assert [keyword for keyword, _ in both] == ["OK", "OK"]
                await agreed()
                # PUT /v1/documents/{name} through a Gateway on the topology
                async with _http_fronts(
                    "127.0.0.1", server.port, host="127.0.0.1", http_port=0
                ) as (http, _):
                    status = await asyncio.get_running_loop().run_in_executor(
                        None, _put, http.port, "Cap", CAP_ONE
                    )
                assert status == 200
                await agreed()
                before, stored = steps[-1], chain.read_bytes()
                for request in rejected:
                    reasons.append(await _update(server.port, **request))
                    await agreed()
                    assert steps.pop() == before
                    assert chain.read_bytes() == stored
                assert len(decode_chain(stored)[1]) == 6
            finally:
                await server.stop()
            return steps, reasons

        async def one_process():
            steps, reasons = [], []
            async with MonitorServer(SpecRegistry.from_text(DOC)) as server:
                for _, request in [
                    *sequential,
                    (1, {"text": CAP_THREE}),
                    (1, {"text": EDITED_DOC}),
                    (1, {"text": CAP_ONE}),  # the PUT
                ]:
                    await _update(server.port, **request)
                    steps.append(await _pairs(server.port))
                for request in rejected:
                    reasons.append(await _update(server.port, **request))
            del steps[3]  # the racing pair is checked once, after both
            return steps, reasons

        with use_registry():
            got = asyncio.run(run())
        with use_registry():
            assert got == asyncio.run(one_process())
        assert [keyword for keyword, _ in got[1]] == ["ERR", "ERR"]

    def test_a_bad_or_stuck_update_holds_up_nothing(
        self, tmp_path, monkeypatch
    ):
        """A rejected, unrecorded or unanswered update stops no later one.

        Too deep a document is one process's ``ERR``; a chain that cannot
        be written refuses the update on every worker; a worker that does
        not answer is killed and rebuilt from the chain, and respawns and
        updates go on.
        """
        blocker = tmp_path / (CHAIN_FILE + ".tmp")

        async def one_process():
            async with MonitorServer(SpecRegistry.from_text(DOC)) as server:
                return await _update(server.port, text=DEEP_DOC)

        async def run():
            server = ScaleOutServer(document=DOC, procs=2, data_dir=tmp_path)
            await server.start()

            async def agreed():
                pairs = [await _pairs(port) for port in server.worker_ports]
                assert all(p == pairs[0] for p in pairs), pairs
                return pairs[0]

            try:
                before = await agreed()
                deep = await _update(server.port, text=DEEP_DOC)
                assert await agreed() == before
                blocker.mkdir()
                unrecorded = await _update(server.port, text=EDITED_DOC)
                assert await agreed() == before
                assert not (tmp_path / CHAIN_FILE).exists()
                blocker.rmdir()
                # worker 0 stops answering; worker 1 takes the update
                os.kill(server.worker_pids[0], signal.SIGSTOP)
                monkeypatch.setattr(topology, "_SPAWN_TIMEOUT_S", 1.0)
                stuck = await _update(server.worker_ports[1], text=EDITED_DOC)
                monkeypatch.undo()
                assert await server.wait_restarts(1) == 1
                after_stuck = await agreed()
                server.kill_worker(1)
                assert await server.wait_restarts(2) == 2
                assert await agreed() == after_stuck
                last = await _update(server.port, text=CAP_ONE)
                return deep, unrecorded, stuck, after_stuck, last
            finally:
                await server.stop()

        with use_registry():
            expected = asyncio.run(one_process())
        with use_registry():
            deep, unrecorded, stuck, after_stuck, last = asyncio.run(run())
        assert deep == expected
        assert deep[0] == "ERR" and "nests too deeply" in deep[1]
        assert unrecorded[0] == "ERR" and "cannot record" in unrecorded[1]
        assert stuck[0] == "OK"
        assert ("Extra", 0) in after_stuck
        assert last[0] == "OK"
        assert len(decode_chain((tmp_path / CHAIN_FILE).read_bytes())[1]) == 2


class TestWatchRespawn:
    def test_respawned_worker_serves_every_edit_since_start(
        self, tmp_path, monkeypatch
    ):
        """A ``--watch`` edit survives a worker's SIGKILL and respawn."""
        monkeypatch.setattr(cli, "_WATCH_INTERVAL_S", 0.02)
        doc = tmp_path / "spec.oun"
        doc.write_text(DOC, encoding="utf-8")

        async def run():
            server = ScaleOutServer(document=DOC, procs=2)
            await server.start()
            watching = asyncio.create_task(
                cli._watch_document(
                    doc, "127.0.0.1", server.port, cli._stamp(doc)
                )
            )
            try:
                bumped = doc.stat().st_mtime_ns + 1_000_000_000
                doc.write_text(EDITED_DOC, encoding="utf-8")
                os.utime(doc, ns=(bumped, bumped))
                for index in range(server.procs):
                    assert await _lists_spec(server, index, "Extra")
                server.kill_worker(0)
                assert await server.wait_restarts(1) == 1
                return [
                    await _lists_spec(server, index, "Extra", tries=1)
                    for index in range(server.procs)
                ]
            finally:
                watching.cancel()
                await server.stop()

        assert asyncio.run(run()) == [True, True]


class TestChainRespawn:
    def test_durable_session_on_an_updated_spec_rides_out_a_respawn(
        self, tmp_path
    ):
        """A respawned worker is built from the chain, updates included."""
        lines = [EVENT, "c -> o : N(Data:d)", EVENT, EVENT]

        async def run():
            server = ScaleOutServer(
                document=DOC, procs=1, data_dir=tmp_path, fsync_every=1
            )
            await server.start()
            try:
                assert (await _update(server.port, text=EDITED_DOC))[0] == "OK"
                client = MonitorClient(
                    "127.0.0.1",
                    server.port,
                    spec="Extra",
                    session="k1",
                    connect_retries=10,
                )
                await client.connect()
                try:
                    for line in lines[:3]:
                        await client.send_event(line)
                    await client.status()
                    server.kill_worker(0)
                    assert await server.wait_restarts(1) == 1
                    listed = await _lists_spec(server, 0, "Extra", tries=1)
                    for line in lines[3:]:
                        await client.send_event(line)
                    status = await client.status()
                finally:
                    await client.close()
            finally:
                await server.stop()
            return listed, status

        listed, status = asyncio.run(run())
        assert listed
        (oracle,) = asyncio.run(_baseline([lines], EDITED_DOC, "Extra"))
        assert _verdict(status) == _verdict(oracle)
