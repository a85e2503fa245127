"""Monitoring-service client: retrying connector and pipelined sender.

The client mirrors the protocol's asymmetry: events are written as they
are sent, with no reply (``await send_event`` waits only when the
transport's buffer is past its high-water mark — the socket is the one
backpressure bound between the producer and the server), while
synchronising verbs (``HELLO``/``SPEC``/``STATUS``/``RESET``/``BYE``)
perform one request/reply round-trip.  One connection is one ordered
stream, so a verb's reply accounts for every event written before it.
Ending a session is one exchange too: :meth:`close` writes ``STATUS``
and ``BYE`` together and returns the final status.

Attaching a session is one handshake — open the connection, send one
``HELLO``, then ``SPEC`` when a spec is bound — retried as a whole with
exponential backoff and full jitter; the delay schedule is a pure
function (:func:`backoff_delays`) so tests can check it without
sleeping.  If the link dies mid-stream, the client records the failure
and later sends return without writing — producers never see a dead
connection mid-trace — and the next synchronising verb raises
``ConnectionError``.

A client constructed with ``proto=2`` asks the server to upgrade to the
binary framing (:mod:`repro.service.wire`): after ``SPEC`` it stores the
synced letter table and :meth:`send_event` then accumulates letter ids
into an ``array('i')`` batch, flushed as one ``EVENTS`` frame every
``batch`` events (and before any synchronising verb, so ordering and
verdicts are indistinguishable from the text path).  Events outside the
table, and table lines that do not read back canonically (a fresh
caller's ``#Obj0 -> o : CR`` is a comment on the text door), fall back
to per-event ``EVENT`` frames in stream order.  The session speaks the
version the server grants, ``min(requested, server maximum)`` —
``proto=2`` is a request, not a requirement.  At proto 3 a pending batch
travels in the same write as the request after it, and the connection
outlives the session: after :meth:`close` it stays open (:attr:`idle`),
and the next :meth:`connect` starts its session on it with a ``HELLO``.

A client constructed with ``session="key"`` asks for a *durable* session
(:mod:`repro.service.durability`): the HELLO carries the key, and when
the server confirms ``durable=1`` the client keeps every sent event line
in an in-memory resend log, trimmed as ``applied=`` watermarks come back
on status-shaped replies.  If the connection dies, the next
synchronising verb re-runs the attach handshake — whose ``SPEC`` resends
exactly the suffix the server had not yet logged — and then the verb,
all inside the one ``connect_retries`` budget: it returns a reply
covering every event sent, or raises :class:`ServiceUnavailable`.  The
watermark makes at-least-once delivery exactly-once.  Servers without a
data directory simply never confirm, and the client behaves as a plain
session.

A client instance is designed to be driven from one task; it is not a
connection pool (:class:`repro.api.Gateway` keeps one of idle clients).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import random
from array import array
from typing import Iterator

from repro.core.errors import ReproError
from repro.core.events import Event
from repro.obs.registry import get_registry
from repro.runtime import tracefile
from repro.service import wire
from repro.service.protocol import Reply, SessionStatus, _parse_fields, parse_reply

__all__ = ["MonitorClient", "ServiceUnavailable", "backoff_delays", "DEFAULT_BATCH"]

#: Default ``EVENTS`` batch size for binary sessions.  Large enough to
#: amortise framing, socket writes and the server's queue hand-offs,
#: small enough that a violation surfaces within a few thousand events
#: of being fed.
DEFAULT_BATCH = 256

#: Reply opcode → the text keyword whose grammar the payload reuses.
_REPLY_KEYWORDS = {op: keyword for keyword, op in wire.REPLY_OPS.items()}


#: Distinct letter tables whose canonical lines are remembered: one per
#: ``(spec, version)`` a client binds, so an update adds at most one and
#: the oldest goes.
_LETTER_TABLES = 64


@functools.lru_cache(maxsize=_LETTER_TABLES)
def _letter_table(payload: bytes) -> tuple[tuple[str, ...], dict[str, int]]:
    """A ``LETTERS`` payload's lines and the id of each canonical one.

    Only lines that read back canonically get an id: a fresh caller's
    ``#Obj0 -> o : CR`` is a comment on the text door, so it travels as
    an ``EVENT`` frame here too.  The letters of one ``(spec, version)``
    are the same payload at every bind, so this runs once per table;
    callers share the dict and never change it.
    """
    letters = tuple(wire.unpack_letters(payload))
    return letters, {
        line: i
        for i, line in enumerate(letters)
        if tracefile.canonical_event(line) is not None
    }


class ServiceUnavailable(ReproError):
    """Raised when the server cannot be reached after all retries."""


def backoff_delays(
    retries: int,
    *,
    base: float = 0.05,
    cap: float = 2.0,
    rng: random.Random | None = None,
) -> Iterator[float]:
    """Exponential backoff with full jitter: ``U(0, min(cap, base·2ⁱ))``.

    Yields one delay per retry (the first connection attempt is
    immediate).  Full jitter decorrelates reconnect storms when many
    clients lose the same server at once.
    """
    rng = rng if rng is not None else random.Random()
    for attempt in range(retries):
        yield rng.uniform(0.0, min(cap, base * (2.0**attempt)))


class MonitorClient:
    """One session against a :class:`~repro.service.server.MonitorServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        spec: str | None = None,
        connect_retries: int = 5,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        rng: random.Random | None = None,
        proto: int = 1,
        batch: int = DEFAULT_BATCH,
        session: str | None = None,
    ) -> None:
        if batch < 1:
            raise ReproError("batch size must be positive")
        self.host = host
        self.port = port
        self.spec = spec
        #: Durable-session key (None = plain session).  :attr:`durable`
        #: records whether the server actually confirmed the key.
        self.session = session
        self.durable = False
        self._sent_log: list[str] = []
        self._base = 0  # inputs the server had before this client object
        self._trimmed = 0  # acked lines dropped from the front of the log
        self._bound_spec: str | None = None
        self.connect_retries = connect_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = rng
        #: Protocol version to *request*; :attr:`proto` holds what the
        #: server actually agreed to once connected.
        self.requested_proto = proto
        self.proto = 1
        self.batch = batch
        self.letters: tuple[str, ...] = ()
        self._line_ids: dict[str, int] = {}
        self._event_ids: dict[Event, int | None] = {}
        self._pending = array("i")
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._send_error: Exception | None = None
        #: True while the connection is open with no session on it: a
        #: proto-3 session ended, and the next attach says ``HELLO`` on it.
        self.idle = False
        #: Whether the last attach started its session on a kept
        #: connection rather than a fresh one.
        self.reused = False
        self.server_specs: tuple[str, ...] = ()
        self.events_sent = 0
        #: Connection attempts made by the last attach — :meth:`connect`
        #: or a durable resume (≥ 1 on success; retries beyond the first
        #: also feed the ``repro_client_connect_retries_total`` counter).
        self.connect_attempts = 0

    # -- lifecycle -----------------------------------------------------------

    async def connect(self) -> None:
        """Connect, say HELLO and bind ``spec`` if given, retrying all three."""
        await self._attach()

    async def _attach(self, then=None):
        """The attach loop: :meth:`_handshake`, then ``then()`` if given.

        An attempt that fails on the link (``ConnectionError`` or
        ``OSError``) drops it and sleeps the next :func:`backoff_delays`
        value before the next attempt; once the ``connect_retries``
        budget is spent, raises :class:`ServiceUnavailable` from the
        last error.  Anything else — an ``ERR`` reply, a malformed one —
        is the server's answer and propagates at once.
        """
        delays = backoff_delays(
            self.connect_retries,
            base=self.backoff_base,
            cap=self.backoff_cap,
            rng=self._rng,
        )
        self.connect_attempts = 0
        try:
            while True:
                self.connect_attempts += 1
                try:
                    await self._handshake()
                    return await then() if then is not None else None
                except (ConnectionError, OSError) as exc:
                    self._drop()
                    delay = next(delays, None)
                    if delay is None:
                        raise ServiceUnavailable(
                            f"cannot reach {self.host}:{self.port} after "
                            f"{self.connect_attempts} attempts: {exc}"
                        ) from exc
                    await asyncio.sleep(delay)
        finally:
            if self.connect_attempts > 1:
                get_registry().counter(
                    "repro_client_connect_retries_total",
                    help="client reconnect attempts beyond the first",
                ).inc(self.connect_attempts - 1)

    async def _handshake(self) -> None:
        """One attach attempt: open, one HELLO, and SPEC if a spec is bound.

        An idle connection is not opened again: the HELLO goes on it.  If
        that HELLO fails on the link (the server ended the connection
        while it sat idle), the attempt drops it and opens a fresh one at
        once.  On a durable re-attach the SPEC also resends the unacked
        suffix of the resend log (:meth:`_bind`).
        """
        reused, self.idle = self.idle, False
        if not reused:
            await self._open()
        del self._pending[:]
        self.proto = 1  # negotiation itself is always text
        self.durable = False
        want = self.requested_proto
        fields = [f"proto={want}"] if want > 1 else []
        if self.session is not None:
            fields.append(f"session={self.session}")
        line = " ".join(["HELLO", *fields])
        try:
            hello = await self._sync_once(line)
        except (ConnectionError, OSError):
            if not reused:
                raise
            reused = False
            await self._open()
            hello = await self._sync_once(line)
        self.reused = reused
        if hello.kind != "ok":
            raise ReproError(f"server rejected HELLO: {hello.detail}")
        # The server answers min(requested, its maximum); the min() here
        # also guards against a server granting more than we asked for.
        self.proto = min(self._agreed_proto(hello.detail), want) if want > 1 else 1
        self.durable = "durable=1" in hello.detail.split()
        specs_field = hello.detail.rpartition("specs=")[2]
        self.server_specs = tuple(n for n in specs_field.split(",") if n)
        if self.spec is not None:
            await self._bind(self.spec)

    async def _open(self) -> None:
        """A fresh connection in place of whatever link there was."""
        self._drop()
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._writer.transport.max_size = wire.RECV_BYTES
        self._send_error = None

    def _drop(self) -> None:
        """Forget the connection, closing its transport.

        ``close()`` without ``wait_closed()``: a dead transport's close
        waiter would re-raise the reset.
        """
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None
        self.idle = False

    @staticmethod
    def _agreed_proto(detail: str) -> int:
        """The version a HELLO reply grants: ``repro-service <ver> ...``."""
        parts = detail.split()
        if len(parts) >= 2:
            try:
                return max(1, int(parts[1]))
            except ValueError:
                pass
        return 1

    async def close(self) -> SessionStatus | None:
        """End the session in one exchange; its final status.

        ``STATUS`` and ``BYE`` go out in one write.  At proto 3 the
        connection then stays open and :attr:`idle`; below 3 it closes.
        A durable session whose link died resumes first, as
        :meth:`status` does.  On a plain session's dead link, or a
        service that cannot be reached, the connection is dropped and
        the result is None.
        """
        if self._writer is None or self.idle:
            return None
        try:
            status = await self._retried(self._end_once)
        except (ReproError, OSError):
            await self.disconnect()
            return None
        self._forget_session()
        if self.proto >= 3:
            self.idle = True
        else:
            await self.disconnect()
        return status

    async def _end_once(self) -> SessionStatus:
        await self._request(self._encode("STATUS") + self._encode("BYE"))
        status = self._status_of(await self._read_reply())
        bye = await self._read_reply()
        if bye.kind != "ok" or not bye.detail.startswith("bye "):
            raise ReproError(f"malformed BYE reply: {bye.detail}")
        return status

    def _forget_session(self) -> None:
        """Drop what the ended session left: nothing of it can be resent."""
        self._sent_log = []
        self._base = self._trimmed = 0
        self._bound_spec = None
        self.letters = ()
        self._line_ids = {}
        self._event_ids = {}

    async def disconnect(self) -> None:
        """Close the connection without a ``BYE`` (an idle one needs none)."""
        writer = self._writer
        self._drop()
        if writer is not None:
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    async def __aenter__(self) -> "MonitorClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
        await self.disconnect()

    # -- protocol ------------------------------------------------------------

    async def use_spec(self, name: str) -> None:
        """Bind the session to spec ``name`` (a resumable round trip)."""
        await self._retried(lambda: self._bind(name))

    async def _bind(self, name: str) -> None:
        """SPEC ``name``; on a durable re-attach, resend the unacked suffix."""
        reply = await self._sync_once(f"SPEC {name}")
        if reply.kind != "ok":
            raise ReproError(f"server rejected spec {name!r}: {reply.detail}")
        applied = self._int_field(reply.detail, "applied")
        self.spec = name
        self.letters = ()
        self._line_ids = {}
        self._event_ids = {}
        if self.proto >= 2:
            # ``letters=<k>`` with k > 0 promises exactly one OP_LETTERS
            # frame back to back with the OK reply.
            if self._int_field(reply.detail, "letters"):
                opcode, payload = await self._read_frame()
                if opcode != wire.OP_LETTERS:
                    raise ReproError(
                        f"expected a LETTERS frame after SPEC, "
                        f"got opcode 0x{opcode:02x}"
                    )
                self.letters, self._line_ids = _letter_table(payload)
        if self.durable and applied is not None:
            if name == self._bound_spec:
                # Re-attach after a reconnect: trim what the server has
                # durably applied, resend the rest through the fresh
                # letter table (ids may differ after a hot swap).
                self._note_applied(applied)
                await self._send(self._sent_log)
            else:
                # New binding (or a brand-new client adopting recovered
                # server state): the server's watermark becomes the base
                # this client's resend log counts from.
                self._sent_log = []
                self._base = applied
                self._trimmed = 0
                self._bound_spec = name

    @staticmethod
    def _int_field(detail: str, key: str) -> int | None:
        """The integer ``<key>=<n>`` field of a reply detail, if present."""
        for token in detail.split():
            name, eq, value = token.partition("=")
            if eq and name == key:
                return int(value) if value.isdigit() else None
        return None

    def _note_applied(self, applied: int | None) -> None:
        """Trim the resend log's prefix the server has durably applied."""
        if applied is None:
            return
        acked = applied - self._base - self._trimmed
        if acked > 0:
            del self._sent_log[:acked]
            self._trimmed += acked

    async def update_document(
        self,
        *,
        text: str | None = None,
        scenario: str | None = None,
        force: bool = False,
    ) -> dict[str, str]:
        """Hot-swap the server's compiled specs; returns the reply fields.

        Exactly one of ``text`` (an OUN document) or ``scenario`` (a
        built-in workload scenario name) selects the source;
        ``force=True`` swaps in freshly compiled machines even when the
        content is unchanged.  The reply fields are ``{"changed": "1",
        "unchanged": "2", "added": "0", "specs": "A"}``-shaped.

        Deliberately does **not** rebind this session: by the drain
        guarantee, a bound session keeps its current machine until it
        rebinds.  Call :meth:`use_spec` afterwards to attach to the
        swapped spec — on a binary session that rebind re-syncs the
        letter table (the ``LETTERS`` resync), and like any ``SPEC`` it
        resets the session's counters and history.
        """
        if (text is None) == (scenario is None):
            raise ReproError(
                "update_document needs exactly one of text= or scenario="
            )
        suffix = " force=1" if force else ""

        async def request() -> Reply:
            if scenario is not None:
                # one header line in both framings (the binary payload
                # is byte-for-byte the text argument).
                return await self._sync_once(f"UPDATE scenario={scenario}{suffix}")
            if self.proto >= 2:
                payload = f"doc{suffix}\n{text}".encode("utf-8")
                return await self._round_trip(
                    wire.encode_frame(wire.OP_UPDATE, payload)
                )
            # The text protocol's one multi-line request: header + body.
            lines = (text or "").split("\n")
            header = f"UPDATE lines={len(lines)}{suffix}"
            return await self._round_trip(
                "".join(f"{line}\n" for line in (header, *lines)).encode("utf-8")
            )

        reply = await self._retried(request)
        if reply.kind != "ok" or not reply.detail.startswith("update "):
            raise ReproError(f"server rejected UPDATE: {reply.detail}")
        fields, _ = _parse_fields(reply.detail[len("update "):])
        return fields

    async def send_event(self, event: Event | str) -> None:
        """Write one event; waits only while the transport is full.

        On a binary session an event found in the synced letter table
        joins the pending ``array('i')`` batch (flushed as one ``EVENTS``
        frame at :attr:`batch` ids, or by the next synchronising verb);
        anything else — out-of-table events, sessions without a letter
        table — flushes the batch first and travels as a per-event
        ``EVENT`` frame, so stream order is preserved exactly.  Raises
        :class:`ReproError` when the client is not connected.
        """
        await self.send_trace((event,))

    async def send_trace(self, events) -> None:
        """Send every event of an iterable (e.g. a loaded Trace), in order.

        Writes exactly the frames or lines that :meth:`send_event` would
        write one event at a time, in one pass: the durable resend log
        grows once, :attr:`events_sent` once, and table hits join the
        pending batch with no await until it fills.
        """
        if self._writer is None or self.idle:
            raise ReproError("client is not connected")
        if self.durable:
            # Durable sessions render lines eagerly: the resend log must
            # hold wire-identical text so a replayed suffix means
            # byte-for-byte what the lost original meant.
            events = [
                tracefile.format_event(e) if isinstance(e, Event) else e
                for e in events
            ]
            self._sent_log.extend(events)
        elif not isinstance(events, (list, tuple)):
            events = list(events)
        self.events_sent += len(events)
        await self._send(events)

    async def _send(self, events) -> None:
        """Batch each event's letter id, or write it as a line or frame.

        A table hit is appended to the pending ``array('i')``, awaiting
        only when the batch is full; an out-of-table event on a binary
        session flushes the batch first, then travels as an ``EVENT``
        frame, so stream order is kept.  Lines that are all table hits
        join the batch in one pass, cut into the same frames.
        """
        binary = self.proto >= 2
        pending = self._pending
        if binary and self._line_ids:
            try:
                # None (a miss) or an Event (never a str key) fails here.
                pending.extend(array("i", map(self._line_ids.get, events)))
            except TypeError:
                pass
            else:
                batch = self.batch
                full = len(pending) - len(pending) % batch
                for start in range(0, full, batch):
                    await self._write(
                        wire.encode_frame(
                            wire.OP_EVENTS,
                            wire.pack_event_ids(pending[start:start + batch]),
                        )
                    )
                del pending[:full]
                return
        for event in events:
            lid = self._letter_id(event) if binary else None
            if lid is not None:
                pending.append(lid)
                if len(pending) >= self.batch:
                    await self._flush_pending()
                continue
            if isinstance(event, Event):
                event = tracefile.format_event(event)
            if binary:
                await self._flush_pending()
                await self._write(
                    wire.encode_frame(wire.OP_EVENT, event.encode("utf-8"))
                )
            else:
                await self._write(f"EVENT {event}\n".encode("utf-8"))

    async def status(self) -> SessionStatus:
        """Synchronise and fetch the session verdict."""
        return self._status_of(
            await self._retried(lambda: self._sync_once("STATUS"))
        )

    def _status_of(self, reply: Reply) -> SessionStatus:
        """A ``STATUS`` reply's status; trims the resend log it acks."""
        if reply.status is None:
            raise ReproError(f"malformed status reply: {reply.detail}")
        if self.durable:
            self._note_applied(reply.status.applied)
        return reply.status

    async def reset(self) -> None:
        reply = await self._retried(lambda: self._sync_once("RESET"))
        if reply.kind != "ok":
            raise ReproError(f"server rejected RESET: {reply.detail}")

    async def metrics(self) -> str:
        """Fetch the server's Prometheus text dump via the METRICS verb.

        On the text protocol the reply is its one multi-line shape: ``OK
        metrics lines=<n>`` followed by exactly ``n`` raw exposition
        lines, read here by count so embedded text never confuses the
        framing.  A binary session gets the whole dump in one frame —
        payload ``metrics\\n`` + exposition — with no counting at all.
        """
        return await self._retried(self._metrics_once)

    async def _metrics_once(self) -> str:
        if self.proto >= 2:
            await self._request(wire.encode_frame(wire.OP_METRICS))
            opcode, payload = await self._read_frame()
            text = payload.decode("utf-8", errors="replace")
            if opcode != wire.OP_OK or not text.startswith("metrics"):
                raise ReproError(f"server rejected METRICS: {text}")
            return text.partition("\n")[2]
        reply = await self._sync_once("METRICS")
        if reply.kind != "ok" or not reply.detail.startswith("metrics "):
            raise ReproError(f"server rejected METRICS: {reply.detail}")
        try:
            count = int(reply.detail.rpartition("lines=")[2])
        except ValueError as exc:
            raise ReproError(
                f"malformed METRICS reply: {reply.detail}"
            ) from exc
        lines = [(await self._readline()).rstrip("\n") for _ in range(count)]
        return "\n".join(lines) + ("\n" if lines else "")

    # -- internals -----------------------------------------------------------

    def _letter_id(self, event: Event | str) -> int | None:
        """The synced letter id of an event, or None for out-of-table.

        :class:`~repro.core.events.Event` lookups are memoised (including
        negative results): a session streams many occurrences of few
        distinct events, so the ``format_event`` rendering runs once per
        distinct event, not once per occurrence.
        """
        if not self._line_ids:
            return None
        if isinstance(event, Event):
            if event in self._event_ids:
                return self._event_ids[event]
            lid = self._line_ids.get(tracefile.format_event(event))
            self._event_ids[event] = lid
            return lid
        return self._line_ids.get(event)

    def _take_pending(self) -> bytes:
        """The pending letter-id batch as one ``EVENTS`` frame (emptied)."""
        payload = wire.pack_event_ids(self._pending)
        del self._pending[:]
        return wire.encode_frame(wire.OP_EVENTS, payload)

    async def _flush_pending(self) -> None:
        """Write the pending letter-id batch as one ``EVENTS`` frame."""
        if self._pending:
            await self._write(self._take_pending())

    async def _write(self, data: bytes) -> None:
        """Write ``data``; ``drain`` waits past the transport's high-water mark.

        A dead link is kept in ``_send_error``, not raised: later writes
        are dropped, so a producer never fails mid-trace, and the next
        synchronising verb raises ``ConnectionError``.
        """
        if self._send_error is not None:
            return
        assert self._writer is not None
        try:
            self._writer.write(data)
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._send_error = exc

    async def _request(self, data: bytes) -> None:
        """Write one request after the pending batch; raise a dead link.

        At proto 3 the batch and the request share one write.
        """
        if self._writer is None or self._reader is None:
            raise ReproError("client is not connected")
        if self._pending:
            if self.proto >= 3:
                data = self._take_pending() + data
            else:
                await self._flush_pending()
        await self._write(data)
        if self._send_error is not None:
            raise ConnectionError(
                f"send failed mid-stream: {self._send_error}"
            ) from self._send_error

    async def _read_frame(self) -> tuple[int, bytes]:
        assert self._reader is not None
        try:
            return await wire.read_frame(self._reader)
        except asyncio.IncompleteReadError:
            raise ConnectionError("server closed the connection") from None

    async def _readline(self) -> str:
        assert self._reader is not None
        raw = await self._reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return raw.decode("utf-8", errors="replace")

    async def _read_reply(self) -> Reply:
        """One reply: a line, or a frame whose payload reuses a keyword's grammar."""
        if self.proto < 2:
            return parse_reply(await self._readline())
        opcode, raw = await self._read_frame()
        keyword = _REPLY_KEYWORDS.get(opcode)
        if keyword is None:
            raise ReproError(f"unexpected reply frame 0x{opcode:02x}")
        text = raw.decode("utf-8", errors="replace")
        return parse_reply(f"{keyword} {text}" if text else keyword)

    async def _round_trip(self, request: bytes) -> Reply:
        """One request (lines or a frame), then its one reply."""
        await self._request(request)
        return await self._read_reply()

    async def _retried(self, step):
        """Run the round trip ``step()``; a durable session resumes.

        A dead link on a plain session raises ``ConnectionError`` as
        ever.  On a confirmed-durable session the client instead counts a
        resume and re-runs :meth:`_attach` — reconnect, HELLO, SPEC with
        the resend — with ``step`` as its last step, so the resume and
        the retried verb share one ``connect_retries`` budget and end in
        a reply or :class:`ServiceUnavailable`.
        """
        try:
            return await step()
        except (ConnectionError, OSError):
            if not self.durable:
                raise
        get_registry().counter(
            "repro_client_resumes_total",
            help="Durable-session reconnect-and-resend recoveries.",
        ).inc()
        return await self._attach(step)

    async def _sync_once(self, line: str) -> Reply:
        """One request/reply round-trip for a synchronising verb line.

        Binary sessions translate the verb line to its frame and parse
        the reply payload with the *same* grammar as the text keyword it
        replaces — one :class:`~repro.service.protocol.Reply` shape
        either way, so every caller above is framing-agnostic.
        """
        return await self._round_trip(self._encode(line))

    def _encode(self, line: str) -> bytes:
        """A synchronising verb line as this session's framing writes it."""
        if self.proto >= 2:
            verb, _, arg = line.partition(" ")
            return wire.encode_frame(wire.VERB_OPS[verb], arg.encode("utf-8"))
        return f"{line}\n".encode("utf-8")
