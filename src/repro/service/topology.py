"""Multi-process serving topology: N monitor workers behind one port.

One :class:`~repro.service.server.MonitorServer` is a single asyncio
process — its session queue is a task on one event loop, so one core
bounds it.  This module scales that design out to N worker *processes*,
each running its own ``MonitorServer`` over its own slice of a shared data
directory (``data-dir/worker-<i>/`` — see
:mod:`~repro.service.durability`), behind one advertised ``host:port``.

Every worker binds its own listening socket with ``SO_REUSEPORT`` and
the kernel load-balances accepted connections across them; without
``SO_REUSEPORT`` :class:`ScaleOutServer` refuses to run.  The parent
binds (but never listens on) one extra reservation socket so an
ephemeral ``port=0`` resolves to a concrete port before workers start.

Any spread of connections over workers is correct: one connection is
one session, checked alone against its spec by one monitor, and lands
on exactly one worker.  Durable session keys do not need
sticky routing either: recovery indexes every worker's logs
incrementally and opens the key's snapshot by name in every worker
directory, so a resumed session replays its history no matter which
worker the reconnect lands on.

A supervisor task respawns dead workers with their original index —
same ``worker-<i>/`` directory — which is what makes SIGKILL an event
the durability log absorbs rather than an outage.

The parent owns the document chain (:mod:`repro.service.chain`) that
builds every worker and applies each ``UPDATE`` on every worker before
it answers, so all list the same ``(name, version)`` pairs.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import os
from collections import deque
import signal
import socket
import multiprocessing
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.errors import ReproError
from repro.service.chain import ChainStore, Entry, apply_update
from repro.service.chain import build_registry, load_update
from repro.service.server import MonitorServer

__all__ = ["ScaleOutServer", "WorkerConfig", "reuseport_available"]

#: How long a spawned worker may take to report ready.
_SPAWN_TIMEOUT_S = 60.0


def reuseport_available() -> bool:
    return hasattr(socket, "SO_REUSEPORT")


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to rebuild its server.

    Plain picklable data (the spawn start method re-imports everything):
    the spec source travels as a scenario *name* or raw document *text*,
    never as compiled objects.
    """

    worker_index: int
    host: str
    port: int  # concrete port (every worker binds it itself)
    scenario: str | None = None
    document: str | None = None
    history_limit: int | None = 4096
    data_dir: str | None = None
    fsync_every: int = 64
    snapshot_every: int = 1024
    #: The chain's updates when the worker is spawned, in order.
    updates: tuple[Entry, ...] = ()
    #: Requested per-worker direct port (0 = ephemeral, None = off).
    #: The *resolved* port travels back in the worker's ready message so
    #: the parent can publish :attr:`ScaleOutServer.worker_ports` for
    #: metrics fan-in (workers share the advertised port, so they are
    #: not individually addressable through it).
    direct_port: int | None = 0


def _reuseport_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    return sock


class _WorkerServer(MonitorServer):
    """A worker's server: it sends a good ``UPDATE`` up to the parent.

    The parent keeps the chain and sends every worker ``("apply", entry)``,
    then the sender ``("done", reply)``, in the order of its ``("update",
    entry)`` messages.
    """

    def __init__(self, registry, conn, **kwargs) -> None:
        super().__init__(registry, **kwargs)
        self._chain, self._conn = None, conn
        self._replies: deque[asyncio.Future] = deque()
        self.orphaned = asyncio.Event()  # the parent stopped, or died

    async def _update(self, entry: Entry) -> tuple[str, str]:
        try:  # rejected as at one process, before anything changes
            load_update(self.registry, *entry[:2])
        except ReproError as exc:
            return "ERR", str(exc)
        reply = asyncio.get_running_loop().create_future()
        self._replies.append(reply)
        self._conn.send(("update", entry))
        return await reply

    def _on_message(self) -> None:
        try:
            kind, body = self._conn.recv()
        except (EOFError, OSError):
            asyncio.get_running_loop().remove_reader(self._conn.fileno())
            return self.orphaned.set()
        if kind == "apply":
            try:
                self._conn.send(("OK", apply_update(self.registry, *body)))
            except Exception as exc:  # the parent rebuilds this worker
                self._conn.send(("ERR", str(exc)))
        elif not (reply := self._replies.popleft()).done():  # "done"
            reply.set_result(body)


async def _worker_main(config: WorkerConfig, conn) -> None:
    registry = build_registry(
        config.scenario, config.document, config.updates,
        history_limit=config.history_limit,
    )
    sock = _reuseport_socket(config.host, config.port)
    sock.listen(128)
    sock.setblocking(False)
    server = _WorkerServer(
        registry,
        conn,
        host=config.host,
        data_dir=config.data_dir,
        worker_id=config.worker_index,
        fsync_every=config.fsync_every,
        snapshot_every=config.snapshot_every,
        direct_port=config.direct_port,
        sock=sock,
    )
    await server.start()
    asyncio.get_running_loop().add_reader(conn.fileno(), server._on_message)
    conn.send(server.direct_port)  # ready
    await server.orphaned.wait()  # or the parent terminates the process
    await server.stop()


def _worker_entry(config: WorkerConfig, conn) -> None:  # pragma: no cover
    # Child-process entry point.  The parent handles operator signals;
    # workers die by terminate()/SIGKILL, so a stray ^C in the group
    # must not race a clean parent shutdown.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        asyncio.run(_worker_main(config, conn))
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass


async def _reap(procs) -> None:
    """Terminate ``procs`` and join them (SIGKILL any that will not go)."""
    for proc in procs:
        proc.terminate()
    loop = asyncio.get_running_loop()
    for proc in procs:
        await loop.run_in_executor(None, proc.join, 10.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.kill()


class ScaleOutServer:
    """N monitor-worker processes behind one ``SO_REUSEPORT`` address."""

    def __init__(
        self,
        *,
        scenario: str | None = None,
        document: str | None = None,
        procs: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        data_dir: str | Path | None = None,
        history_limit: int | None = 4096,
        fsync_every: int = 64,
        snapshot_every: int = 1024,
    ) -> None:
        if (scenario is None) == (document is None):
            raise ReproError(
                "ScaleOutServer needs exactly one of scenario= or document="
            )
        if procs < 1:
            raise ReproError("procs must be >= 1")
        if not reuseport_available():
            raise ReproError("SO_REUSEPORT is not available on this platform")
        self.procs = procs
        self.host = host
        self.port = port
        self.restarts = 0
        #: Held while a worker spawns or an update goes round, so every
        #: worker sees each update once, in order; notified at respawns.
        self._ordering = asyncio.Condition()
        self._template = WorkerConfig(
            worker_index=0,
            host=host,
            port=port,
            scenario=scenario,
            document=document,
            history_limit=history_limit,
            data_dir=str(data_dir) if data_dir is not None else None,
            fsync_every=fsync_every,
            snapshot_every=snapshot_every,
        )
        self._chain: ChainStore | None = None  # made at start
        self._acks: dict[object, asyncio.Future] = {}  # awaited, by pipe
        self._orders: set[asyncio.Task] = set()  # in flight: kept alive
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: list[tuple] = []  # (process, parent_conn) per index
        self._reserve_sock: socket.socket | None = None
        self._supervisor_task: asyncio.Task | None = None
        self._worker_ports: dict[int, int | None] = {}

    @property
    def worker_pids(self) -> tuple[int, ...]:
        return tuple(proc.pid for proc, _ in self._workers)

    @property
    def worker_ports(self) -> tuple[int | None, ...]:
        """Each worker's private direct port, by index.

        These bypass the shared advertised port, so a client (the
        gateway's METRICS fan-in) can address one specific worker.
        Respawns re-resolve them, so read this per use, not once.
        """
        return tuple(self._worker_ports.get(i) for i in range(self.procs))

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        # Bound but never listening: it reserves the port (resolving
        # port=0 to a real number the workers can share) without ever
        # winning an accept.
        self._reserve_sock = _reuseport_socket(self.host, self.port)
        self.port = self._reserve_sock.getsockname()[1]
        self._template = replace(self._template, port=self.port)
        try:
            t = self._template
            base = build_registry(t.scenario, t.document, history_limit=t.history_limit)
            self._chain = ChainStore(t.data_dir, base.build_key())
            self._chain.load()
            async with self._ordering:
                for index in range(self.procs):
                    self._workers.append(await self._spawn(index))
        except BaseException:
            await self.stop()  # no half-started topology survives
            raise
        self._supervisor_task = asyncio.create_task(self._supervise())

    async def _spawn(self, index: int):
        updates = tuple(self._chain.updates)
        config = replace(self._template, worker_index=index, updates=updates)
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(config, child_conn),
            daemon=True,
            name=f"repro-worker-{index}",
        )
        proc.start()
        child_conn.close()
        loop = asyncio.get_running_loop()
        try:
            self._worker_ports[index] = await asyncio.wait_for(
                loop.run_in_executor(None, parent_conn.recv), _SPAWN_TIMEOUT_S
            )
        except BaseException as exc:  # timeout, death on boot, or cancel
            await _reap([proc])
            parent_conn.close()
            if isinstance(exc, (asyncio.TimeoutError, EOFError)):
                raise ReproError(
                    f"worker {index} failed to start: {exc!r}"
                ) from exc
            raise
        loop.add_reader(parent_conn.fileno(), self._on_message, parent_conn)
        return proc, parent_conn

    # -- the document chain --------------------------------------------------

    def _on_message(self, conn) -> None:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # the worker died: the supervisor's turn
            return self._forget(conn)
        if message[0] == "update":
            task = asyncio.create_task(self._order(conn, message[1]))
            self._orders.add(task)
            task.add_done_callback(self._orders.discard)
        elif (ack := self._acks.pop(conn, None)) is not None:
            ack.set_result(message)

    def _forget(self, conn) -> None:
        """Stop reading a worker's pipe; its awaited reply is None."""
        if not conn.closed:
            asyncio.get_running_loop().remove_reader(conn.fileno())
        if (ack := self._acks.pop(conn, None)) is not None:
            ack.set_result(None)

    def _sent(self, conn, send: asyncio.Future) -> None:
        if send.cancelled() or send.exception() is not None:
            self._forget(conn)

    async def _order(self, origin, entry: Entry) -> None:
        """Record a worker's good ``UPDATE``, apply it everywhere, answer.

        A chain that cannot record it is the answer, and nothing changes.
        A worker that fails to apply it, or has not answered by the spawn
        timeout, is killed: the supervisor rebuilds it from the chain.
        """
        loop = asyncio.get_running_loop()
        async with self._ordering:
            try:
                self._chain.append(entry)
            except ReproError as exc:
                reply = ("ERR", str(exc))
            else:
                acks = {}
                for _, conn in self._workers:
                    acks[conn] = self._acks[conn] = loop.create_future()
                    # Off the loop: a large document fills the pipe until
                    # the worker reads it, and the loop must keep reading.
                    send = loop.run_in_executor(None, conn.send, ("apply", entry))
                    send.add_done_callback(functools.partial(self._sent, conn))
                if acks:
                    await asyncio.wait(acks.values(), timeout=_SPAWN_TIMEOUT_S)
                applied = {}
                for proc, conn in self._workers:
                    ack = acks[conn]
                    if ack.done() and (ack.result() or ("",))[0] == "OK":
                        applied[conn] = ack.result()
                    else:
                        proc.kill()
                        self._forget(conn)
                reply = applied.get(origin)  # none: the sender was killed
            if reply is not None:
                with contextlib.suppress(OSError):
                    await loop.run_in_executor(None, origin.send, ("done", reply))

    async def stop(self) -> None:
        task, self._supervisor_task = self._supervisor_task, None
        try:
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        finally:  # a failed supervisor must not keep workers alive
            workers, self._workers = self._workers, []
            for _, conn in workers:
                self._forget(conn)
                conn.close()
            await _reap([proc for proc, _ in workers])
            self._worker_ports = {}
            if self._reserve_sock is not None:
                self._reserve_sock.close()
                self._reserve_sock = None

    async def __aenter__(self) -> "ScaleOutServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- fault injection / supervision ---------------------------------------

    def kill_worker(self, index: int) -> int:
        """SIGKILL one worker (fault injection); returns the dead pid."""
        proc, _ = self._workers[index]
        pid = proc.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    async def wait_restarts(self, count: int) -> int:
        """:attr:`restarts` once it reaches ``count``, or at the spawn timeout."""

        async def reached() -> None:
            async with self._ordering:
                await self._ordering.wait_for(lambda: self.restarts >= count)

        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(reached(), _SPAWN_TIMEOUT_S)
        return self.restarts

    async def _supervise(self) -> None:
        """Respawn dead workers with their original index forever."""
        while True:
            await asyncio.sleep(0.2)
            for index, (proc, conn) in enumerate(list(self._workers)):
                if proc.is_alive():
                    continue
                async with self._ordering:
                    self._forget(conn)
                    conn.close()
                    try:
                        self._workers[index] = await self._spawn(index)
                    except ReproError:
                        continue  # the slot stays dead: the next poll retries
                    self.restarts += 1
                    self._ordering.notify_all()
