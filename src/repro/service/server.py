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

A connection is one loop over one reader for both framings: each read
takes what has arrived, and each pass hands out the next whole line or
frame in the session's framing with no ``await``, decodes it to a verb
and its argument, and dispatches it.  Only a queue hand-off, a due
snapshot and the reply-bearing verbs wait.  The upgrade at a ``HELLO``
that agrees proto ≥ 2 and the return to text after a proto-3 ``BYE``
change the session's framing, not the reader.

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

#: Binary request opcode → reply-bearing verb.
_FRAME_VERBS = {op: verb for verb, op in wire.VERB_OPS.items()}

#: Seconds an over-long line's sender gets to read the refusal.
_LINGER_S = 1.0

#: The longest text line, newline excluded (docs/wire-protocol.md); also
#: the most one socket read takes.
_LINE_LIMIT = 1 << 16


class _LineTooLong(Exception):
    """A text line past the reader's limit: its tail would read as commands."""


class _Reader:
    """Whole lines and whole frames out of one stream, one socket read per arrival.

    :meth:`fill` takes whatever has arrived (one ``read``), and
    :meth:`next_line` or :meth:`next_frame`, whichever is the
    connection's framing, hands it out with no ``await``.  Lines behave
    as ``StreamReader.readline``: each read splits at ``\\n`` once, a line
    past ``_LINE_LIMIT`` bytes raises :class:`_LineTooLong` only when it
    is reached, and an unterminated last line is a line at EOF.  Frames
    behave as :func:`wire.read_frame`: a bogus length raises
    :class:`~repro.service.wire.FrameError` once its header is buffered.
    """

    __slots__ = (
        "_stream", "_lines", "_pos", "_buf", "_off", "_unsplit", "_need", "_eof"
    )

    def __init__(self, stream: asyncio.StreamReader) -> None:
        self._stream = stream
        #: Lines split off the buffer and not yet all handed out.
        self._lines: list[bytes] = []
        self._pos = 0
        #: The bytes after those lines, from ``_off`` on: the start of the
        #: next line, or the next frames.
        self._buf = b""
        self._off = 0
        #: Whether ``_buf`` got bytes since it was last split at newlines.
        self._unsplit = False
        #: The bytes a frame whose header is buffered still lacks.
        self._need = 0
        self._eof = False

    def next_line(self) -> bytes | None:
        """The next buffered line, newline stripped; None if none is whole."""
        pos = self._pos
        if pos < len(self._lines):
            self._pos = pos + 1
            line = self._lines[pos]
            if len(line) > _LINE_LIMIT:
                raise _LineTooLong()
            return line
        if self._unsplit or self._off:
            lines = self._buf[self._off:].split(b"\n")
            self._buf, self._off, self._unsplit = lines.pop(), 0, False
            if lines:
                self._lines, self._pos = lines, 0
                return self.next_line()
        tail = self._buf
        if len(tail) > _LINE_LIMIT:
            raise _LineTooLong()
        if tail and self._eof:
            self._buf = b""
            return tail
        return None

    def next_frame(self) -> tuple[int, bytes] | None:
        """The next buffered ``(opcode, payload)``; None if none is whole."""
        pos = self._pos
        if pos < len(self._lines):
            # Lines split past the HELLO that upgraded: bytes again, once.
            rest = self._lines[pos:]
            rest.append(self._buf[self._off:])
            self._buf, self._off, self._unsplit = b"\n".join(rest), 0, True
            self._lines, self._pos = [], 0
        buf, off = self._buf, self._off
        start = off + wire.HEADER_BYTES
        if len(buf) < start:
            return None
        opcode, length = wire.unpack_header(buf, off)
        end = start + length
        if len(buf) < end:
            self._need = end - len(buf)
            return None
        if end == len(buf):
            self._buf, self._off = b"", 0
        else:
            self._off = end
        return opcode, buf[start:end]

    async def fill(self) -> bool:
        """Read what has arrived; call it when nothing whole is buffered.

        A frame whose header is buffered reads its remainder in one
        await.  False at EOF once nothing more can be handed out.
        """
        need, self._need = self._need, 0
        if need:
            try:
                data = await self._stream.readexactly(need)
            except asyncio.IncompleteReadError:
                return False  # EOF inside a frame
        else:
            data = await self._stream.read(_LINE_LIMIT)
        buf = self._buf
        if not data:
            if self._eof or len(buf) == self._off:
                return False
            self._eof = True
            return True
        if self._off:
            buf, self._off = buf[self._off:], 0
        self._buf = buf + data if buf else data
        self._unsplit = True
        return True


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
        self._store = self._log_index = self._chain = None
        if self.data_dir is not None:
            self._store = durability.WorkerStore(
                self.data_dir, worker_id, fsync_every=fsync_every
            )
            #: Every worker's logs, indexed incrementally across recoveries.
            self._log_index = durability.LogIndex(self.data_dir)
            #: The document chain of the registry as given.
            self._chain = ChainStore(self.data_dir, registry.build_key())
        self.snapshot_every = snapshot_every
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
        address = (self.host, self._requested_port) if self._sock is None else ()
        self._server = await asyncio.start_server(
            self._handle_connection, *address, sock=self._sock
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
        for server in (self._direct_server, self._server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._direct_server = self._server = None
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
        stream = _Reader(reader)
        try:
            while True:
                # One pass: the next whole line or frame in the session's
                # framing, decoded to a verb and its argument.
                framed = session.proto > 1
                try:
                    item = stream.next_frame() if framed else stream.next_line()
                except wire.FrameError as exc:
                    # A bogus length field: the stream cannot resync, so close.
                    await self._answer(writer, session, "ERR", str(exc))
                    break
                if item is None:
                    if await stream.fill():
                        continue
                    break
                if framed:
                    # A malformed payload or an unknown opcode leaves the
                    # frame boundary intact: ERR, and the session goes on.
                    try:
                        opcode, payload = item
                        if opcode == wire.OP_EVENTS:
                            waiting = self._accept_events(session, payload)
                            if waiting is not None:
                                await waiting
                            continue
                        verb, arg = _decode_frame(opcode, payload)
                    except wire.FrameError as exc:
                        await self._answer(writer, session, "ERR", str(exc))
                        continue
                else:
                    line = item.decode("utf-8", errors="replace").strip()
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
                            # The lines=<n> form reads its document body
                            # off the same reader.
                            arg = await self._read_update(arg, stream)
                            if arg is None:
                                break  # EOF inside the announced body
                    except ProtocolError as exc:
                        await self._answer(writer, session, "ERR", str(exc))
                        continue
                if verb == "EVENT":
                    waiting = self._accept_event(session, arg)
                    if waiting is not None:
                        await waiting
                elif verb == "HELLO":
                    # Negotiation is always text; its reply switches the
                    # framing when it agrees proto >= 2.
                    session = await self._hello(session, arg, writer)
                else:
                    keyword, detail = await self._verb(session, verb, arg)
                    await self._answer(writer, session, keyword, detail, verb)
                    if verb == "BYE":
                        if session.proto < 3:
                            break
                        # A proto-3 BYE ends the session, not the
                        # connection: it is back in its just-accepted state.
                        self._session_ended(task)
                        session = Session(self.registry)
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
        # The switch happens *after* this reply: negotiation is always
        # text, everything past it is framed when agreed >= 2.
        detail = f"repro-service {agreed}{durable} specs={names}"
        await self._answer(writer, session, "OK", detail)
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
        if session.key is None:
            session.bind(compiled)
            return None
        if session.compiled is None or session.compiled.name != compiled.name:
            session.bind(compiled)
            name = compiled.name.encode("utf-8")
            self._append_record(session, durability.REC_BIND, name, session.received)
        return session.received

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

    async def _answer(
        self,
        writer: asyncio.StreamWriter,
        session: Session,
        keyword: str,
        detail: str,
        verb: str = "",
    ) -> None:
        """Send a reply (to ``verb``, if any) in the session's framing."""
        if session.proto == 1:
            if verb == "METRICS":
                # The one multi-line reply: an up-front line count frames
                # the Prometheus dump inside the one-line protocol.
                lines = detail.splitlines()
                detail = "\n".join([f"metrics lines={len(lines)}", *lines])
            writer.write(f"{keyword} {detail}\n".encode("utf-8"))
        elif verb == "SPEC" and keyword == "OK":
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
        else:
            if verb == "METRICS":
                detail = "metrics\n" + detail
            writer.write(wire.encode_frame(wire.REPLY_OPS[keyword], detail.encode()))
        await writer.drain()

    # -- hot updates ---------------------------------------------------------

    async def _update(self, entry: Entry) -> tuple[str, str]:
        """Apply one ``UPDATE``; a good one is in the chain before it applies."""
        try:
            return "OK", apply_update(self.registry, *entry, chain=self._chain)
        except ReproError as exc:
            return "ERR", str(exc)

    @staticmethod
    async def _read_update(
        arg: str, stream: _Reader
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
        while len(body) < count:
            raw = stream.next_line()
            if raw is None:
                if not await stream.fill():
                    return None  # client vanished mid-body
                continue
            body.append(raw.decode("utf-8", errors="replace").rstrip("\r"))
        return None, "\n".join(body), force

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
            return self._snapshot_then(self._accept_event, session, arg)
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

    async def _snapshot_then(self, accept, session: Session, arg) -> None:
        # Before accepting: the checkpoint covers exactly the records
        # before this input, all already applied.
        await self._snapshot_session(session)
        waiting = accept(session, arg, snapshotted=True)
        if waiting is not None:
            await waiting

    def _accept_events(
        self, session: Session, payload: bytes, *, snapshotted: bool = False
    ) -> Awaitable[None] | None:
        """Feed one ``EVENTS`` batch: silent on success, like text ``EVENT``.

        A structurally malformed payload raises
        :class:`~repro.service.wire.FrameError` (the loop answers with an
        ``ERR`` frame).  The whole batch becomes *one* session-queue thunk
        and one monitor call — the amortisation the binary protocol
        exists for.  It closes the session's open text run, so later
        ``EVENT`` frames cannot step ahead of it.  As with
        :meth:`_accept_event`, the caller awaits only the ``submit_to``
        or a due snapshot.
        """
        durable = session.key is not None
        if (
            durable
            and not snapshotted
            and session.since_snapshot >= self.snapshot_every
        ):
            return self._snapshot_then(self._accept_events, session, payload)
        received, errors = session.received, session.errors
        pending = session.accept_ids(payload)
        if durable and session.received > received:
            # Logged verbatim, invalid ids included: replay accepts it
            # through the same core, so they count as errors again.
            self._append_record(session, durability.REC_IDS, payload, received)
        if session.errors > errors:
            self.metrics.record_malformed(session.errors - errors)
        if pending is None:
            return None
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

        return self.pool.submit_to(check)


def _decode_frame(opcode: int, payload: bytes) -> tuple[str, object]:
    """A request frame other than ``EVENTS`` as the text verb and argument.

    A binary ``UPDATE`` payload is a utf-8 header line, then the optional
    body: ``scenario=<name> [force=1]`` or ``doc [force=1]\n<text>``;
    its argument is the ``(scenario, text, force)`` request.  Raises
    :class:`~repro.service.wire.FrameError` for an unknown opcode (the
    binary analogue of the text unknown verb) or ``UPDATE`` header.
    """
    text = payload.decode("utf-8", errors="replace")
    if opcode == wire.OP_EVENT:
        return "EVENT", text
    verb = _FRAME_VERBS.get(opcode)
    if verb is None:
        raise wire.FrameError(f"unknown opcode 0x{opcode:02x}")
    if verb != "UPDATE":
        return verb, text.strip()
    header, _, body = text.partition("\n")
    tokens = header.split()
    force = "force=1" in tokens[1:]
    if tokens and tokens[0].startswith("scenario="):
        return verb, (tokens[0][len("scenario="):], None, force)
    if tokens and tokens[0] == "doc":
        return verb, (None, body, force)
    raise wire.FrameError("malformed UPDATE header")
