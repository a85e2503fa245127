"""Asyncio TCP server: many concurrent monitoring sessions.

Each connection carries one session at a time — an event stream checked
online against one registered specification (the paper's soundness
condition ``h/α(Γ) ∈ T(Γ)`` per session).  At proto ≤ 2 the session's
``BYE`` closes the connection; at proto 3 it ends only the session, and
the next ``HELLO`` on the connection starts a fresh one.  The session's
input semantics live in :class:`~repro.service.session.Session`, the
ingest core that crash replay drives too; this module adds the sockets,
the write-ahead log, the session-queue hop and the metrics around it.
Each session has one monitor, and its whole stream steps in arrival
order on the server's one FIFO queue (:mod:`repro.service.shards`).  The
monitor's first violation is what ``STATUS`` reports.

The server keeps no compiled state of its own: a session binds one
:class:`~repro.service.registry.CompiledSpec` of the registry, which
carries the machine, the dense image and the pre-encoded ``LETTERS``
frame a binary ``SPEC`` replies with.

The server is single-loop: the queue worker is a task, not a thread, so
monitor state and metrics need no locks; parallelism comes from
``--procs`` (:mod:`repro.service.topology`).
"""

from __future__ import annotations

import asyncio
import contextlib
from pathlib import Path
from time import perf_counter
from typing import Awaitable

from repro.core.errors import ReproError
from repro.obs.metrics import ServiceMetrics, declare_cache_counters
from repro.obs.registry import get_registry
from repro.obs.trace import span
from repro.service import durability, wire
from repro.service.chain import ChainStore, Entry, apply_update, publish_versions
from repro.service.protocol import (
    ProtocolError,
    format_status,
    parse_command,
    parse_hello,
)
from repro.service.registry import CompiledSpec, SpecRegistry
from repro.service.session import Session
from repro.service.shards import DEFAULT_QUEUE_SIZE, ShardPool

__all__ = ["MonitorServer"]

#: Binary request opcodes of the reply-bearing verbs.
_FRAME_VERBS = {
    wire.OP_SPEC: "SPEC",
    wire.OP_STATUS: "STATUS",
    wire.OP_METRICS: "METRICS",
    wire.OP_RESET: "RESET",
    wire.OP_BYE: "BYE",
    wire.OP_UPDATE: "UPDATE",
}

#: Reply keyword (the text framing's first word) → reply opcode.
_REPLY_OPS = {"OK": wire.OP_OK, "ERR": wire.OP_ERR, "VIOLATION": wire.OP_VIOLATION}


#: Seconds an over-long line's sender gets to read the refusal.
_LINGER_S = 1.0

#: The longest text line, newline excluded (docs/wire-protocol.md); also
#: the most one socket read takes.
_LINE_LIMIT = 1 << 16


class _LineTooLong(Exception):
    """A text line past the reader's limit: its tail would read as commands."""


class _TextReader:
    """Whole text lines out of one stream, one socket read per arrival.

    When no whole line is buffered, :meth:`readline` takes whatever has
    arrived (one ``read``) and splits it at ``\\n``; :meth:`next_line`
    hands the buffered lines out with no ``await``.  Both behave as
    ``StreamReader.readline``: a line longer than ``_LINE_LIMIT`` bytes
    raises :class:`_LineTooLong` only when it is reached, so the lines
    before it apply first, and an unterminated last line is still a line
    at EOF.  After a ``HELLO proto=2`` upgrade :meth:`readexactly` serves
    what is buffered, then reads the stream directly; after a proto-3
    ``BYE``, :meth:`to_lines` turns what is buffered back into lines.
    """

    __slots__ = ("_stream", "_lines", "_pos", "_tail")

    def __init__(self, stream: asyncio.StreamReader) -> None:
        self._stream = stream
        self._lines: list[bytes] = []
        self._pos = 0
        #: The bytes after the last newline: the start of the next line.
        self._tail = b""

    def next_line(self) -> bytes | None:
        """The next buffered line, newline stripped; None if none is whole."""
        pos = self._pos
        if pos < len(self._lines):
            self._pos = pos + 1
            line = self._lines[pos]
            if len(line) > _LINE_LIMIT:
                raise _LineTooLong()
            return line
        if len(self._tail) > _LINE_LIMIT:
            raise _LineTooLong()
        return None

    async def _fill(self) -> bool:
        """Read what has arrived; call it once every line is handed out.

        False at EOF with nothing left; at EOF an unterminated tail
        becomes the last line.
        """
        data = await self._stream.read(_LINE_LIMIT)
        tail = self._tail
        if not data:
            if not tail:
                return False
            self._lines, self._pos, self._tail = [tail], 0, b""
            return True
        lines = (tail + data if tail else data).split(b"\n")
        self._tail = lines.pop()
        self._lines, self._pos = lines, 0
        return True

    async def readline(self) -> bytes | None:
        """The next line, reading as needed; None at EOF."""
        line = self.next_line()
        while line is None and await self._fill():
            line = self.next_line()
        return line

    def to_lines(self) -> None:
        """Back to lines after framed reads: split what is buffered."""
        if self._tail:
            lines = self._tail.split(b"\n")
            self._tail = lines.pop()
            self._lines, self._pos = lines, 0

    def readexactly(self, n: int) -> Awaitable[bytes]:
        """``n`` bytes: the buffered ones first, then the stream's own."""
        if self._pos < len(self._lines):
            rest = self._lines[self._pos:]
            self._tail = b"\n".join(rest) + b"\n" + self._tail
            self._lines, self._pos = [], 0
        if not self._tail:
            return self._stream.readexactly(n)
        return self._take(n)

    async def _take(self, n: int) -> bytes:
        buffered = self._tail
        if len(buffered) >= n:
            self._tail = buffered[n:]
            return buffered[:n]
        self._tail = b""
        try:
            return buffered + await self._stream.readexactly(n - len(buffered))
        except asyncio.IncompleteReadError as exc:
            raise asyncio.IncompleteReadError(buffered + exc.partial, n) from None


async def _refuse(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, reply: bytes
) -> None:
    """Send a last reply on an unsyncable stream and close, lingering.

    Closing on unread input would reset the connection, which can
    discard the reply before the peer reads it.
    """
    with contextlib.suppress(ConnectionError, asyncio.TimeoutError):
        writer.write(reply)
        await writer.drain()
        writer.write_eof()
        await asyncio.wait_for(_discard(reader), _LINGER_S)


async def _discard(reader: asyncio.StreamReader) -> None:
    while await reader.read(1 << 16):
        pass


class MonitorServer:
    """The monitoring service: registry + session queue + metrics + TCP front."""

    def __init__(
        self,
        registry: SpecRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        direct_port: int | None = None,
        data_dir: str | Path | None = None,
        worker_id: int = 0,
        fsync_every: int = durability.DEFAULT_FSYNC_EVERY,
        snapshot_every: int = durability.DEFAULT_SNAPSHOT_EVERY,
        sock=None,
    ) -> None:
        self.registry = registry
        self.pool = ShardPool()
        #: Durable-session support: with a data directory the server
        #: write-ahead logs every input of a keyed session and replays
        #: the log on the session's next attach (same or later process).
        #: One connection per key at a time is the operator's contract —
        #: the server does not arbitrate concurrent writers of one key.
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self._store = (
            durability.WorkerStore(
                self.data_dir, worker_id, fsync_every=fsync_every
            )
            if self.data_dir is not None
            else None
        )
        #: Every worker's logs, indexed incrementally across recoveries.
        self._log_index = (
            durability.LogIndex(self.data_dir)
            if self.data_dir is not None
            else None
        )
        self.snapshot_every = snapshot_every
        #: The document chain of the registry as given (with a data dir).
        self._chain = None
        if self.data_dir is not None:
            self._chain = ChainStore(self.data_dir, registry.build_key())
        #: ``sock``: serve an externally prepared listening socket (the
        #: SO_REUSEPORT workers of :mod:`~repro.service.topology`).
        self._sock = sock
        self.metrics = ServiceMetrics()
        self.host = host
        self.port = port
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        #: Each session's open text run: accepted events handed to the
        #: queue but not yet stepped, which later lines may join.
        self._runs: dict[Session, list] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        #: The connections counted as monitoring sessions: those whose
        #: SPEC succeeded (control connections never send one).
        self._bound_conns: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        #: Optional second listener on the *same* connection handler.
        #: Scale-out workers share one advertised SO_REUSEPORT port,
        #: which makes an individual worker unaddressable;
        #: ``direct_port=0`` gives each one a private ephemeral port so
        #: the gateway can fan in per-worker METRICS.
        self.direct_port = direct_port
        self._direct_server: asyncio.AbstractServer | None = None
        # Pre-declare the engine's cache counter families so a scrape of a
        # fresh server exposes them at zero instead of omitting them.
        declare_cache_counters(get_registry())

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the queue worker.

        With ``port=0`` the OS picks an ephemeral port; :attr:`port` holds
        the actual one afterwards (tests and benchmarks rely on this).
        """
        if self._chain is not None:
            for entry in self._chain.load():
                apply_update(self.registry, *entry)
        publish_versions(self.registry)
        await self.pool.start()
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._sock
            )
            self.port = self._server.sockets[0].getsockname()[1]
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self._requested_port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        if self.direct_port is not None:
            self._direct_server = await asyncio.start_server(
                self._handle_connection, self.host, self.direct_port
            )
            self.direct_port = (
                self._direct_server.sockets[0].getsockname()[1]
            )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._direct_server is not None:
            self._direct_server.close()
            await self._direct_server.wait_closed()
            self._direct_server = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Sever live connections and let their handlers finish *before*
        # the queue worker goes away.
        for conn_writer in list(self._conn_writers):
            conn_writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self.pool.stop()
        if self._store is not None:
            self._store.close()

    async def __aenter__(self) -> "MonitorServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        writer.transport.max_size = wire.RECV_BYTES
        session = Session(self.registry)
        text = _TextReader(reader)
        try:
            while True:
                raw = text.next_line()
                if raw is None:
                    raw = await text.readline()
                    if raw is None:
                        break
                line = raw.decode("utf-8", errors="replace").strip()
                if line.startswith("EVENT "):
                    # The hot path: no Command, and no await unless the
                    # accept must wait.  The argument is what
                    # parse_command would give.
                    waiting = self._accept_event(session, line[6:].lstrip())
                    if waiting is not None:
                        await waiting
                    continue
                if not line:
                    continue
                try:
                    command = parse_command(line)
                    verb, arg = command.verb, command.arg
                    if verb == "UPDATE":
                        # The lines=<n> form reads its document body off
                        # the same reader.
                        arg = await self._read_update(arg, text)
                except ProtocolError as exc:
                    await self._reply(writer, f"ERR {exc}")
                    continue
                if verb == "EVENT":
                    waiting = self._accept_event(session, arg)
                    if waiting is not None:
                        await waiting
                elif verb == "HELLO":
                    session = await self._hello(session, arg, writer)
                    if session.proto >= 2:
                        if not await self._binary_loop(session, text, writer):
                            break
                        # A proto-3 BYE: the session ended, the connection
                        # is back in its just-accepted state.
                        self._session_ended(task)
                        session = Session(self.registry)
                        text.to_lines()
                elif verb == "UPDATE" and arg is None:
                    break  # EOF inside the announced body
                elif await self._handle_sync(session, verb, arg, writer):
                    break
        except _LineTooLong:
            # The stream cannot resync, so refuse and close.
            await _refuse(reader, writer, b"ERR line too long\n")
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._session_ended(task)
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            # Last: stop() waits on this task for the close above, not
            # just for the read loop.
            if task is not None:
                self._conn_tasks.discard(task)

    def _session_ended(self, task: asyncio.Task | None) -> None:
        """Count the connection's bound session, if any, as closed."""
        if task in self._bound_conns:
            self._bound_conns.discard(task)
            self.metrics.session_closed()

    async def _reply(self, writer: asyncio.StreamWriter, line: str) -> None:
        writer.write(line.encode("utf-8") + b"\n")
        await writer.drain()

    # -- durable sessions ----------------------------------------------------

    async def _hello(
        self, session: Session, arg: str, writer: asyncio.StreamWriter
    ) -> Session:
        """Negotiate; a durable key swaps in the session its log recovers."""
        proto, key = parse_hello(arg)
        agreed = min(proto, wire.WIRE_VERSION)
        durable = ""
        if key is not None and self._store is not None:
            # Recover before the reply: ``durable=1`` promises the log is
            # attached, so the watermark must already be loaded when the
            # client's SPEC asks for ``applied=``.
            session = durability.recover(
                self.data_dir,
                key,
                self.registry,
                index=self._log_index,
            )
            durable = " durable=1"
        names = ",".join(self.registry.names())
        await self._reply(
            writer, f"OK repro-service {agreed}{durable} specs={names}"
        )
        # The switch happens *after* this reply: negotiation is always
        # text, everything past it is framed when agreed >= 2.
        session.proto = agreed
        return session

    def _append_record(
        self, session: Session, opcode: int, body: bytes, received: int
    ) -> None:
        """Write-ahead log one record; ``received`` is the watermark before it.

        The session has already accepted the record's inputs, so its
        watermark is past them; the log keeps where they start.
        """
        record = durability.encode_record(
            opcode, session.key, session.next_lsn, received, body
        )
        self._store.append(0, record)
        session.next_lsn += 1
        session.since_snapshot += session.received - received

    async def _snapshot_session(self, session: Session) -> None:
        """Checkpoint a durable session so recovery can skip log prefix.

        Order matters: flush the queue (the monitor must have applied
        everything the snapshot claims), fsync the log (a snapshot must
        never cover records that could still be lost), then write.
        """
        session.since_snapshot = 0
        await self.pool.flush()
        self._store.sync()
        payload = session.snapshot()
        if payload is not None:
            self._store.write_snapshot(payload)

    async def _bind_session(
        self, session: Session, compiled: CompiledSpec
    ) -> int | None:
        """Bind (or durable re-attach) a spec; the ``applied=`` watermark.

        On a plain session SPEC means "fresh stream" and returns None.
        On a durable session re-binding the *already attached* spec it is
        an idempotent attach — the reconnecting client resumes the same
        logical stream, so nothing resets and no record is written; only
        a bind to a *different* spec starts over (logged as REC_BIND, the
        input watermark still monotonic).
        """
        await self.pool.flush()
        durable = session.key is not None
        if (
            durable
            and session.compiled is not None
            and session.compiled.name == compiled.name
        ):
            return session.received
        session.bind(compiled)
        if durable:
            self._append_record(
                session,
                durability.REC_BIND,
                compiled.name.encode("utf-8"),
                session.received,
            )
            return session.received
        return None

    async def _verb(
        self, session: Session, verb: str, arg
    ) -> tuple[str, str]:
        """Run one reply-bearing verb; its reply keyword and detail.

        Both framings serve SPEC, STATUS, METRICS, RESET, BYE and UPDATE
        through here and differ only in decoding the request and encoding
        this reply.  ``arg`` is the spec name for SPEC and the decoded
        ``(scenario, text, force)`` request for UPDATE.
        """
        if verb == "UPDATE":
            return await self._update(arg)
        if verb == "SPEC":
            try:
                compiled = self.registry.get(arg)
            except ReproError as exc:
                return "ERR", str(exc)
            applied = await self._bind_session(session, compiled)
            task = asyncio.current_task()
            if task not in self._bound_conns:
                self._bound_conns.add(task)
                self.metrics.session_opened()
            suffix = "" if applied is None else f" applied={applied}"
            return "OK", f"spec {compiled.name}{suffix}"
        # Every other verb synchronises first: the reply covers every
        # input this session sent before it.
        await self.pool.flush()
        if verb == "STATUS":
            keyword, _, detail = format_status(session.status()).partition(" ")
            return keyword, detail
        if verb == "METRICS":
            return "OK", get_registry().format_prometheus()
        if verb == "RESET":
            if session.key is not None:
                self._append_record(
                    session, durability.REC_RESET, b"", session.received
                )
            session.reset()
            return "OK", "reset"
        if verb == "BYE":
            return "OK", f"bye events={session.events}"
        raise AssertionError(f"unhandled verb {verb}")  # pragma: no cover

    async def _handle_sync(
        self, session: Session, verb: str, arg, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer a reply-bearing verb as text; True when the session ends."""
        keyword, detail = await self._verb(session, verb, arg)
        if verb == "METRICS":
            # The one multi-line reply: an up-front line count frames the
            # Prometheus dump inside the one-line protocol.
            lines = detail.splitlines()
            detail = "\n".join([f"metrics lines={len(lines)}", *lines])
        await self._reply(writer, f"{keyword} {detail}")
        return verb == "BYE"

    # -- hot updates ---------------------------------------------------------

    async def _update(self, entry: Entry) -> tuple[str, str]:
        """Apply one ``UPDATE``; a good one is in the chain before it applies."""
        try:
            return "OK", apply_update(self.registry, *entry, chain=self._chain)
        except ReproError as exc:
            return "ERR", str(exc)

    @staticmethod
    async def _read_update(
        arg: str, text: _TextReader
    ) -> tuple[str | None, str | None, bool] | None:
        """Decode a text ``UPDATE``; None when EOF truncated the body.

        ``UPDATE scenario=<name> [force=1]`` is self-contained;
        ``UPDATE lines=<n> [force=1]`` reads exactly n raw document
        lines (blank lines included — they are body, not commands)
        before replying, mirroring the ``METRICS`` reply framing.
        Raises :class:`ProtocolError` for malformed fields.
        """
        scenario: str | None = None
        count: int | None = None
        force = False
        for token in arg.split():
            key, eq, value = token.partition("=")
            if key == "scenario" and eq:
                scenario = value
            elif key == "lines" and eq:
                try:
                    count = int(value)
                except ValueError:
                    count = -1
                if count < 0:
                    raise ProtocolError(f"malformed lines={value!r}")
            elif key == "force" and eq:
                force = value == "1"
            else:
                raise ProtocolError(f"malformed UPDATE field {token!r}")
        if (scenario is None) == (count is None):
            raise ProtocolError("UPDATE needs exactly one of scenario=/lines=")
        if count is None:
            return scenario, None, force
        body: list[str] = []
        for _ in range(count):
            raw = await text.readline()
            if raw is None:
                return None  # client vanished mid-body
            body.append(raw.decode("utf-8", errors="replace").rstrip("\r"))
        return None, "\n".join(body), force

    # -- binary framing (proto >= 2) -----------------------------------------

    async def _send_frame(
        self, writer: asyncio.StreamWriter, opcode: int, payload: bytes = b""
    ) -> None:
        writer.write(wire.encode_frame(opcode, payload))
        await writer.drain()

    async def _binary_loop(
        self,
        session: Session,
        text: _TextReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Serve framed requests until ``BYE``, EOF, or an unsyncable frame.

        Frames are read through the connection's text reader, which first
        serves the bytes it buffered past the ``HELLO`` line.  True when a
        proto-3 ``BYE`` ended the session and the connection reads text
        lines again; False when the connection is done.

        Error handling mirrors the framing guarantees: a malformed
        *payload* of a well-framed message elicits an ``ERR`` frame and
        the session continues (the stream is still in sync), while a
        bogus *length field* cannot be skipped past, so the error is
        reported and the connection closed.
        """
        while True:
            try:
                opcode, payload = await wire.read_frame(text)
            except asyncio.IncompleteReadError:
                return False  # clean EOF between frames: client vanished
            except wire.FrameError as exc:
                await self._send_frame(writer, wire.OP_ERR, str(exc).encode())
                return False
            try:
                done = await self._handle_frame(session, opcode, payload, writer)
            except wire.FrameError as exc:
                await self._send_frame(writer, wire.OP_ERR, str(exc).encode())
                continue
            if done:
                return session.proto >= 3

    async def _handle_frame(
        self,
        session: Session,
        opcode: int,
        payload: bytes,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Dispatch one request frame; returns True when the session ends."""
        if opcode == wire.OP_EVENTS:
            await self._handle_events(session, payload)
            return False
        text = payload.decode("utf-8", errors="replace")
        if opcode == wire.OP_EVENT:
            waiting = self._accept_event(session, text)
            if waiting is not None:
                await waiting
            return False
        verb = _FRAME_VERBS.get(opcode)
        if verb is None:
            # The frame boundary is intact, so the loop reports this and
            # continues — the binary analogue of the text unknown verb.
            raise wire.FrameError(f"unknown opcode 0x{opcode:02x}")
        arg = _decode_update(text) if verb == "UPDATE" else text.strip()
        keyword, detail = await self._verb(session, verb, arg)
        if verb == "METRICS":
            detail = "metrics\n" + detail
        if verb == "SPEC" and keyword == "OK":
            # The OK reply and the letter table travel back to back: the
            # client knows from ``letters=<k>`` (k > 0) that exactly one
            # OP_LETTERS frame follows before any other reply.  A durable
            # re-attach keeps the recovered pinned build, so the table is
            # *that* build's, not a post-swap one.
            compiled = session.compiled
            count = len(compiled.letter_lines)
            detail += f" letters={count}"
            writer.write(wire.encode_frame(wire.OP_OK, detail.encode()))
            if count:
                writer.write(compiled.letters_frame)
            await writer.drain()
            return False
        await self._send_frame(writer, _REPLY_OPS[keyword], detail.encode())
        return verb == "BYE"

    # -- event ingest --------------------------------------------------------

    def _accept_event(
        self, session: Session, arg: str, *, snapshotted: bool = False
    ) -> Awaitable[None] | None:
        """Feed one event; an awaitable only when the caller must wait.

        Silent on success, counted on failure: problems never elicit a
        reply (events pipeline without per-event round-trips); they are
        surfaced by the next synchronising verb.  An accepted event joins
        the session's open run (``_runs``): the events already handed to
        the queue but not yet stepped.  Only the first event of a run
        submits it, and that ``submit_to`` is what the caller awaits; a
        durable session's due snapshot is the other wait.  The worker
        closes the run when it starts stepping it, in one
        :meth:`Session.step_run` call and one accounting call, so a burst
        of lines costs one queue hop.  A run holds at most
        ``DEFAULT_QUEUE_SIZE`` events, so the queue holds at most that many
        runs of that many events.  An ``EVENTS`` batch closes the open
        run, and every barrier flushes the queue, so no run spans a bind,
        a reset, a snapshot or a batch.
        """
        durable = session.key is not None
        if (
            durable
            and not snapshotted
            and session.since_snapshot >= self.snapshot_every
        ):
            return self._snapshot_then_accept(session, arg)
        received, errors = session.received, session.errors
        pending = session.accept_line(arg)
        if durable:
            # Write-ahead, before the monitor steps: the raw line
            # (malformed or not) is one input.
            self._append_record(
                session, durability.REC_LINE, arg.encode("utf-8"), received
            )
        if pending is None:
            if session.errors > errors:
                self.metrics.record_malformed()
            return None
        runs = self._runs
        run = runs.get(session)
        if run is not None and len(run) < DEFAULT_QUEUE_SIZE:
            run.append(pending)
            return None
        # Opened before the caller awaits: a full queue yields to the worker.
        run = runs[session] = [pending]
        metrics = self.metrics

        def check() -> None:
            if runs.get(session) is run:
                del runs[session]
            start = perf_counter()
            skipped, violated = session.step_run(run)
            metrics.record_event(
                perf_counter() - start, events=len(run), skipped=skipped
            )
            if violated:
                metrics.record_violation()

        return self.pool.submit_to(check)

    async def _snapshot_then_accept(self, session: Session, arg: str) -> None:
        # Before accepting: the checkpoint covers exactly the records
        # before this input, all already applied.
        await self._snapshot_session(session)
        waiting = self._accept_event(session, arg, snapshotted=True)
        if waiting is not None:
            await waiting

    async def _handle_events(self, session: Session, payload: bytes) -> None:
        """Feed one ``EVENTS`` batch: silent on success, like text ``EVENT``.

        A structurally malformed payload raises
        :class:`~repro.service.wire.FrameError` (the loop answers with an
        ``ERR`` frame).  The whole batch becomes *one* session-queue thunk
        and one monitor call — the amortisation the binary protocol
        exists for.  It closes the session's open text run, so later
        ``EVENT`` frames cannot step ahead of it.
        """
        durable = session.key is not None
        if durable and session.since_snapshot >= self.snapshot_every:
            await self._snapshot_session(session)
        received, errors = session.received, session.errors
        pending = session.accept_ids(payload)
        if durable and session.received > received:
            # Logged verbatim, invalid ids included: replay accepts it
            # through the same core, so they count as errors again.
            self._append_record(session, durability.REC_IDS, payload, received)
        if session.errors > errors:
            self.metrics.record_malformed(session.errors - errors)
        if pending is None:
            return
        self._runs.pop(session, None)
        monitor, ids, base = pending
        n = len(ids)
        spec_name = session.compiled.name
        metrics = self.metrics

        def check() -> None:
            with span("service.batch", spec=spec_name, events=n):
                start = perf_counter()
                violated = session.step_ids(monitor, ids, base)
                metrics.record_batch(n, perf_counter() - start)
                if violated:
                    metrics.record_violation()

        await self.pool.submit_to(check)


def _decode_update(text: str) -> tuple[str | None, str | None, bool]:
    """Decode a binary ``UPDATE`` payload into ``(scenario, text, force)``.

    A utf-8 header line then the optional body:
    ``scenario=<name> [force=1]`` or ``doc [force=1]\n<text>``.
    """
    header, _, body = text.partition("\n")
    tokens = header.split()
    force = "force=1" in tokens[1:]
    if tokens and tokens[0].startswith("scenario="):
        return tokens[0][len("scenario="):], None, force
    if tokens and tokens[0] == "doc":
        return None, body, force
    raise wire.FrameError("malformed UPDATE header")
