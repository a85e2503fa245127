"""The doors read what arrived: how the bytes split changes nothing.

The server reads a connection one socket read at a time and hands out
whole lines and whole frames from that one buffer (``_Reader`` in
:mod:`repro.service.server`); ``EVENT`` lines and ``EVENTS`` frames then
go straight to the accept step.  These properties pin that to the
line-at-a-time and frame-at-a-time doors it replaced:

* the reader alone, fed any bytes in any chunks, yields exactly the
  lines ``StreamReader.readline`` yields and refuses an over-long line
  at the same place, and after a line it hands the frames buffered with
  it out byte-exact (the ``HELLO proto=2`` upgrade);
* the server, sent one mixed text stream in arbitrary chunks — split
  points anywhere, inside a multi-byte UTF-8 character and between
  ``\\r`` and ``\\n`` included — answers byte for byte as when it is sent
  one line per write, ends in the same state and, on a durable session,
  logs the same records;
* the same holds for a proto-2 or proto-3 frame stream sent in
  arbitrary chunks against one frame per write, split points inside
  frame headers included, with a proto-3 ``BYE`` and the text ``HELLO``
  after it in the mix.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.registry import use_registry
from repro.service import MonitorServer, wire
from repro.service.durability import REC_LINE, scan_records
from repro.service.protocol import parse_command
from repro.service.server import _LineTooLong, _Reader
from repro.workload.scenarios import get_scenario
from tests.service.test_line_table import _pools

LIMIT = 1 << 16
TOO_LONG = "too long"

SCENARIO = get_scenario("two_phase_dynamic")
SPEC, OTHER = "DynamicCoordinator", "PrefixAtomicDecision"

#: A document the UPDATE body may carry: it adds spec ``Read``.
DOC = [
    b"object o",
    b"sort Objects = Obj \\ { o }",
    "// café ✓".encode(),
    b"specification Read {",
    b"  objects o",
    b"  method R(Data)",
    b"  alphabet { <x, o, R(_)> where x : Objects; }",
    b"  traces true\r",
    b"}",
]

#: Padding the verb line may carry; ``str.strip`` removes every one.
PADS = ["", " ", "\t", "  \x0c", "　", "\x85"]

#: Lines other than well-formed events, each answered or counted as today.
ODD = [
    b"",
    b"   ",
    b"\r",
    b"EVENT",
    b"EVENT   ",
    b"EVENT\tcl1 -> co : BEGIN",
    b"EVENTS 1",
    b"FROB x",
    b"STATUS now",
    b"STATUS",
    b"STATUS\r",
    b"status",
    b"RESET",
    f"SPEC {OTHER}".encode(),
    f"SPEC {SPEC}".encode(),
    b"SPEC Nope",
    b"EVENT cl1 -> co : BEGIN\xff",
    b"\xfe\xffEVENT x",
    b"EVENT \xc3",
    "EVENT cl1 -> cö : BEGIN ✓".encode(),
    "EVENT ✓".encode(),
]


def _stream_lines():
    """Raw lines (no newline) of a mixed text stream after ``SPEC``."""
    pools = _pools(SCENARIO.registry().get(SPEC))
    hits = pools["canonical"]
    events = sorted({line for pool in pools.values() for line in pool})
    event = st.one_of(
        st.sampled_from(hits), st.sampled_from(hits), st.sampled_from(events)
    )
    pad = st.sampled_from(PADS)
    line = st.one_of(
        event.map(lambda e: f"EVENT {e}".encode()),
        event.map(lambda e: f"EVENT {e}".encode()),
        st.tuples(pad, pad, event, pad).map(
            lambda t: f"{t[0]}EVENT {t[1]}{t[2]}{t[3]}".encode()
        ),
        event.map(lambda e: f"event {e}".encode()),
        event.map(lambda e: f"EVENT {e}\r".encode()),
        st.sampled_from(ODD),
    )
    update = st.one_of(st.just(DOC), st.lists(line, max_size=3)).map(
        lambda body: [f"UPDATE lines={len(body)}".encode(), *body]
    )
    item = st.one_of(line.map(lambda x: [x]), line.map(lambda x: [x]), update)
    return st.lists(item, min_size=1, max_size=25).map(
        lambda items: [x for lines in items for x in lines]
    )


def _cut(data, blob: bytes, awkward: tuple[int, ...] = ()) -> list[bytes]:
    """Split ``blob`` at drawn points, some inside characters and CRLFs.

    ``awkward`` adds more points the cuts favour.
    """
    if len(blob) < 2:
        return [blob]
    awkward = [i for i in awkward if 0 < i < len(blob)]
    awkward += [i + 1 for i in range(len(blob) - 1) if blob[i : i + 2] == b"\r\n"]
    awkward += [i for i in range(1, len(blob)) if blob[i] >= 0x80]
    cuts = data.draw(st.sets(st.integers(1, len(blob) - 1), max_size=12))
    if awkward:
        cuts |= data.draw(st.sets(st.sampled_from(awkward), max_size=6))
    bounds = [0, *sorted(cuts), len(blob)]
    return [blob[a:b] for a, b in zip(bounds, bounds[1:])]


# -- the reader alone ----------------------------------------------------------


async def _readline_lines(blob: bytes) -> list:
    """What ``StreamReader.readline`` yields, newline stripped."""
    stream = asyncio.StreamReader(limit=LIMIT)
    stream.feed_data(blob)
    stream.feed_eof()
    out: list = []
    while True:
        try:
            line = await stream.readline()
        except ValueError:
            return [*out, TOO_LONG]
        if not line:
            return out
        out.append(line.removesuffix(b"\n"))


async def _feed(stream: asyncio.StreamReader, chunks: list[bytes]) -> None:
    """Feed one chunk per arrival, letting the reader run in between."""
    for chunk in chunks:
        stream.feed_data(chunk)
        for _ in range(3):
            await asyncio.sleep(0)
    stream.feed_eof()


async def _take(reader: _Reader, take):
    """``take()``'s next item, reading as needed; None at EOF."""
    item = take()
    while item is None and await reader.fill():
        item = take()
    return item


async def _text_reader_lines(chunks: list[bytes]) -> list:
    stream = asyncio.StreamReader(limit=LIMIT)
    text = _Reader(stream)
    out: list = []

    async def consume() -> None:
        try:
            while (line := await _take(text, text.next_line)) is not None:
                out.append(line)
        except _LineTooLong:
            out.append(TOO_LONG)

    consumer = asyncio.create_task(consume())
    await _feed(stream, chunks)
    await consumer
    return out


_PIECES = st.one_of(
    st.binary(max_size=24),
    st.binary(max_size=24),
    st.sampled_from([b"\n", b"\r\n", b"\r", "é✓　".encode(), b"\xff", b"\xc3"]),
    st.sampled_from([LIMIT - 1, LIMIT, LIMIT + 1]).map(lambda n: b"x" * n),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_PIECES, max_size=20), st.data())
def test_reader_yields_readline_lines(pieces, data):
    blob = b"".join(pieces)
    chunks = _cut(data, blob)
    assert asyncio.run(_text_reader_lines(chunks)) == asyncio.run(
        _readline_lines(blob)
    )


_FRAMES = st.lists(
    st.tuples(st.integers(0, 255), st.binary(max_size=40)), max_size=8
)


@settings(max_examples=100, deadline=None)
@given(
    st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"")),
    _FRAMES,
    st.integers(0, 1 << 16),
    st.data(),
)
def test_reader_hands_the_rest_out_byte_exact(line, frames, torn, data):
    """After a line, ``next_frame`` serves the bytes buffered with it first.

    A frame that EOF cuts short is never handed out.
    """
    blob = line + b"\n" + b"".join(wire.encode_frame(*f) for f in frames)
    last = wire.encode_frame(0x01, b"\n" * 9)
    chunks = _cut(data, blob + last[: torn % len(last)])

    async def run():
        stream = asyncio.StreamReader(limit=LIMIT)
        reader = _Reader(stream)
        feeder = asyncio.create_task(_feed(stream, chunks))
        first = await _take(reader, reader.next_line)
        got = []
        while (frame := await _take(reader, reader.next_frame)) is not None:
            got.append(frame)
        await feeder
        return first, got

    assert asyncio.run(run()) == (line, frames)


def test_a_bogus_length_raises_once_its_header_is_buffered():
    header = bytes([wire.OP_EVENTS]) + (wire.MAX_FRAME + 1).to_bytes(4, "little")

    async def run():
        stream = asyncio.StreamReader(limit=LIMIT)
        reader = _Reader(stream)
        stream.feed_data(header[:4])
        assert await reader.fill() and reader.next_frame() is None
        stream.feed_data(header[4:])  # no payload follows, no EOF either
        assert await reader.fill()
        with pytest.raises(wire.FrameError, match="cap"):
            reader.next_frame()

    asyncio.run(run())


# -- the server ----------------------------------------------------------------


async def _send(port: int, chunks: list[bytes]) -> bytes:
    """Write each chunk on its own, half-close, and read every reply."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.get_extra_info("socket").setsockopt(
        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
    )
    for chunk in chunks:
        writer.write(chunk)
        await writer.drain()
        for _ in range(3):
            await asyncio.sleep(0)
    writer.write_eof()
    replies = await reader.read()
    writer.close()
    await writer.wait_closed()
    return replies


def _serve(chunks: list[bytes], durable: bool):
    """Replies, final state and log records of one connection's stream."""

    async def run(data_dir):
        async with MonitorServer(
            SCENARIO.registry(), data_dir=data_dir, snapshot_every=4
        ) as server:
            replies = await _send(server.port, chunks)
            await server.pool.flush()
            snap = server.metrics.snapshot()
            counters = tuple(
                snap[name]
                for name in (
                    "events_observed",
                    "events_skipped",
                    "events_malformed",
                    "violations",
                )
            )
            final = None
            if durable:
                final = await _send(server.port, [b"HELLO session=k\nSTATUS\n"])
        return replies, counters, final

    # Its own registry: the counters are this server's alone.
    with tempfile.TemporaryDirectory() as data_dir, use_registry():
        replies, counters, final = asyncio.run(run(data_dir))
        records = [
            (r.opcode, r.lsn, r.received, r.body) for r in scan_records(data_dir, "k")
        ]
    return replies, counters, final, records


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_stream_lines(), st.booleans(), st.data())
def test_any_split_of_a_stream_gets_the_same_replies(lines, durable, data):
    hello = b"HELLO session=k" if durable else b"HELLO"
    lines = [hello, f"SPEC {SPEC}".encode(), *lines]
    # Every line ends in a newline but the last: EOF ends it.
    per_line = [line + b"\n" for line in lines[:-1]] + [lines[-1]]
    chunks = _cut(data, b"".join(per_line))
    expected = _serve(per_line, durable)
    assert _serve(chunks, durable) == expected
    replies, _counters, final, records = expected
    assert replies.startswith(b"OK repro-service 1")
    assert bool(records) == durable and (final is not None) == durable


def test_an_unterminated_last_line_applies_at_eof():
    chunks = [f"SPEC {SPEC}\nEVENT cl1 -> co : BEGIN\nSTATUS".encode()]
    replies, counters, _final, _records = _serve(chunks, durable=False)
    assert replies.splitlines()[-1] == (
        f"OK status spec={SPEC} events=1 skipped=0 errors=0".encode()
    )
    assert counters[0] == 1


def test_the_event_fast_path_takes_parse_commands_argument():
    """``EVENT `` lines skip ``parse_command`` but log its argument."""
    lines = [
        f"{a}{verb} {b}cl1 -> co : BEGIN{c}"
        for verb in ("EVENT", "event")
        for a, b, c in itertools.product(PADS, repeat=3)
    ]
    blob = "".join(f"{line}\n" for line in ["HELLO session=k", f"SPEC {SPEC}", *lines])
    _replies, _counters, _final, records = _serve([blob.encode()], durable=True)
    logged = [body for opcode, _lsn, _received, body in records if opcode == REC_LINE]
    assert logged == [parse_command(line).arg.encode() for line in lines]


# -- the server, framed ------------------------------------------------------


def _frame(opcode: int, payload: bytes | str = b"") -> bytes:
    if isinstance(payload, str):
        payload = payload.encode()
    return wire.encode_frame(opcode, payload)


def _frame_streams():
    """``(durable, writes)``: a framed session's writes, one frame or line each.

    ``HELLO`` and ``SPEC``, then a mix, then ``STATUS``.
    """
    compiled = SCENARIO.registry().get(SPEC)
    k = len(compiled.letter_lines)
    lines = sorted({line for pool in _pools(compiled).values() for line in pool})
    # 10 is also "\n": ids, counts and lengths put newline bytes in frames.
    lid = st.one_of(st.integers(0, k - 1), st.sampled_from([-1, k, 10, 0x0A0A]))
    events = st.lists(lid, max_size=12).map(
        lambda ids: [_frame(wire.OP_EVENTS, wire.pack_event_ids(ids))]
    )
    malformed = st.sampled_from([
        b"\n\x00",
        (2).to_bytes(4, "little") + (10).to_bytes(4, "little"),
        wire.pack_event_ids([1, 10])[:-1],
    ]).map(lambda payload: [_frame(wire.OP_EVENTS, payload)])
    event = st.sampled_from(lines).map(lambda line: [_frame(wire.OP_EVENT, line)])
    verb = st.sampled_from([
        _frame(0x7F, b"??\n"),
        _frame(wire.OP_STATUS),
        _frame(wire.OP_RESET),
        _frame(wire.OP_SPEC, OTHER),
        _frame(wire.OP_SPEC, SPEC),
        _frame(wire.OP_SPEC, "Nope"),
        _frame(wire.OP_UPDATE, b"doc\n" + b"\n".join(DOC)),
        _frame(wire.OP_UPDATE, b"doc force=1\nspecification Broken {"),
        _frame(wire.OP_UPDATE, b"frob"),
    ]).map(lambda frame: [frame])
    spec = _frame(wire.OP_SPEC, SPEC)

    def stream(proto: int, durable: bool):
        hello = f"HELLO proto={proto}{' session=k' if durable else ''}\n".encode()
        kinds = [events, events, malformed, event, event, verb]
        if proto >= 3:
            # A new session on the same connection: BYE, text HELLO, SPEC.
            kinds.append(st.just([_frame(wire.OP_BYE), hello, spec]))
        return st.lists(st.one_of(kinds), max_size=20).map(
            lambda items: (
                durable,
                [hello, spec, *(w for item in items for w in item), _frame(wire.OP_STATUS)],
            )
        )

    return st.tuples(st.sampled_from([2, 3]), st.booleans()).flatmap(
        lambda drawn: stream(*drawn)
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_frame_streams(), st.data())
def test_any_split_of_a_frame_stream_gets_the_same_replies(stream, data):
    durable, writes = stream
    ends = list(itertools.accumulate(len(write) for write in writes))
    # Inside every header, and at every write's end.
    awkward = tuple(end + i for end in ends for i in range(5))
    chunks = _cut(data, b"".join(writes), awkward)
    expected = _serve(writes, durable)
    assert _serve(chunks, durable) == expected
    replies, _counters, final, records = expected
    assert replies.startswith(b"OK repro-service ")
    assert bool(records) == durable and (final is not None) == durable
