"""Inputs and closed loops of the three workloads.

Inputs come from the seed through
:class:`repro.workload.generator.StreamSession` and are encoded to the
exact bytes each request sends *before* the timed window; inside it a
connection only writes bytes, reads the reply and compares it with the
oracle's verdict.  Every loop is closed: a connection sends its next
chunk only after the verdict for the previous one came back.

========================  =========================================  ============
workload                  one round trip                             session
========================  =========================================  ============
``text-stream``           64 ``EVENT`` lines + ``STATUS`` (proto=1)  long-lived
``http-faulted``          ``POST /v1/sessions/{key}/events`` with    one per
                          64 lines (+ ``DELETE`` at stream end)      stream,
                                                                     durable
========================  =========================================  ============

The long-lived session replays one pre-generated fault-free stream: at its
end the connection sends ``RESET`` (the monitor returns to its initial
state, so the same stream is valid again) and starts over.  HTTP streams
carry seeded faults; a stream ends at its first violation or after 4
POSTs, then its session is deleted and the next stream of the pool opens
a fresh key.  HTTP sessions are durable keyed sessions (the server runs
with a data directory), so every POST is also appended to the
write-ahead log.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

__all__ = [
    "CONNECTIONS",
    "WORKLOADS",
    "Slice",
    "Tally",
    "build_plans",
    "calibrate",
    "drive",
    "judge",
    "open_connections",
]

WORKLOADS = ("text-stream", "http-faulted")

#: Load connections per workload.  One: with two, each round trip also
#: waits for part of the other connection's work (its queue hops, fsync
#: or gateway thread), and how much varied from run to run; interleaved
#: runs on a 2-core VM showed p50 1.5 ms with one connection against
#: 2.6-3.4 ms with two (durable binary frames), at about the same events/s.
CONNECTIONS = 1

TEXT_CHUNK = 64
TEXT_CYCLE = 256  # chunks per replayed stream (16384 events)
HTTP_BATCH = 64
#: POSTs per HTTP stream at most.  With four, about a third of the POSTs
#: open a session and half the streams end in a violation, so the p50
#: lies among the plain POSTs and the p90 among the opening ones.  With
#: sixteen, 8-9 % of the POSTs opened a session and the p90 sat on the
#: edge between the two, jumping from seed to seed.
HTTP_MAX_POSTS = 4
HTTP_STREAMS = 128  # pool per connection, cycled under fresh keys
HTTP_FAULT_RATE = 1e-3  # per event, for each of reorder/dup/drop

SLICE_S = 0.1  # closed-loop time between two calibrations
CALIBRATION_LOOP = 3_000  # iterations of one calibration loop (~0.2 ms)



class Slice(NamedTuple):
    """One slice of a window (see :func:`drive`)."""

    events: int  # acknowledged in the slice
    seconds: float  # the slice's closed-loop time
    stolen: float  # of which the hypervisor gave the CPU to other guests
    calibration: float  # :func:`calibrate` right after the slice
    first: int  # index of the slice's first round-trip sample
    end: int  # index after its last one


@dataclass
class Tally:
    """What the connections of one window did, shared by all of them."""

    samples: list = field(default_factory=list)  # verdict round trips, s
    events: int = 0  # events whose verdict was acknowledged correctly
    ops: int = 0  # requests sent (verdict round trips, RESET, DELETE)
    failed: int = 0  # ERR, non-2xx, session errors, wrong verdicts
    disagreements: int = 0  # verdicts that differ from the dense oracle
    notes: list = field(default_factory=list)
    slices: list = field(default_factory=list)  # one Slice per slice

    def fail(self, note: str, *, oracle: bool = False) -> None:
        self.failed += 1
        self.disagreements += oracle
        if len(self.notes) < 5:
            self.notes.append(note)


def judge(status, events: int, violation) -> tuple[str, bool] | None:
    """Why a status disagrees with the expected one, or None when it agrees.

    ``status`` is a :class:`repro.service.protocol.SessionStatus` (or
    None for an ``ERR`` reply); returns ``(reason, is_oracle_mismatch)``.
    """
    if status is None:
        return "ERR reply", False
    if status.violation_index != violation:
        return (
            f"verdict {status.violation_index} != oracle {violation}",
            True,
        )
    if status.errors:
        return f"session errors={status.errors}", False
    if status.events != events:
        return f"events={status.events} != sent {events}", False
    return None


# -- plans: every byte a window sends, built from the seed --------------------


@dataclass
class StreamPlan:
    """A replayable stream: request bytes and the expected verdict per chunk."""

    chunks: list  # bytes per round trip
    counts: list  # session events after each chunk
    expect: list  # oracle violation index after each chunk (None = clean)


def _compiled():
    from repro.workload.scenarios import get_scenario

    scenario = get_scenario("two_phase_dynamic")
    return scenario.monitored, scenario.registry().get(scenario.monitored)


def _text_plan(compiled, seed: str) -> StreamPlan:
    from repro.workload.generator import StreamSession

    stream = StreamSession(compiled, seed=seed)
    chunks, counts = [], []
    for i in range(TEXT_CYCLE):
        lines = stream.next_batch_lines(TEXT_CHUNK)
        body = "".join(f"EVENT {line}\n" for line in lines) + "STATUS\n"
        chunks.append(body.encode("utf-8"))
        counts.append((i + 1) * TEXT_CHUNK)
    if stream.expected_violation is not None or stream.events_emitted != counts[-1]:
        raise RuntimeError("fault-free stream ended early or violated")
    return StreamPlan(chunks, counts, [None] * len(chunks))


def _http_plans(compiled, spec: str, seed: str) -> list[StreamPlan]:
    from repro.workload.generator import FaultSpec, StreamSession

    rate = HTTP_FAULT_RATE
    faults = FaultSpec(reorder=rate, dup=rate, drop=rate)
    plans = []
    for index in range(HTTP_STREAMS):
        stream = StreamSession(compiled, faults, seed=f"{seed}:{index}")
        chunks, counts, expect = [], [], []
        for post in range(HTTP_MAX_POSTS):
            payload = {"events": stream.next_batch_lines(HTTP_BATCH)}
            if post == 0:
                payload["spec"] = spec
                payload["durable"] = True
            chunks.append(json.dumps(payload).encode("utf-8"))
            counts.append(stream.events_emitted)
            expect.append(stream.expected_violation)
            if stream.expected_violation is not None:
                break
        plans.append(StreamPlan(chunks, counts, expect))
    return plans


def build_plans(workload: str, seed: int, connections: int = CONNECTIONS):
    """Per-connection plans of one workload."""
    spec, compiled = _compiled()
    if workload == "text-stream":
        plans = [_text_plan(compiled, f"{seed}:{c}") for c in range(connections)]
    elif workload == "http-faulted":
        plans = [
            _http_plans(compiled, spec, f"{seed}:{c}") for c in range(connections)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r} (have: {WORKLOADS})")
    return spec, plans


# -- connections ----------------------------------------------------------------


class _Connection:
    """One load connection; ``run`` continues where the last call stopped."""

    def __init__(self, port: int, spec: str, plan, tag: str) -> None:
        self.port = port
        self.spec = spec
        self.plan = plan
        self.tag = tag
        self.pos = 0
        self.reader = self.writer = None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None


class TextConnection(_Connection):
    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        for request in (b"HELLO\n", f"SPEC {self.spec}\n".encode()):
            self.writer.write(request)
            reply = await self.reader.readline()
            if not reply.startswith(b"OK "):
                raise RuntimeError(f"{request!r} refused: {reply!r}")
        self.ok = [
            f"OK status spec={self.spec} events={n} skipped=0 errors=0\n".encode()
            if expect is None
            else None
            for n, expect in zip(self.plan.counts, self.plan.expect)
        ]

    async def run(self, deadline: float, tally: Tally) -> None:
        from repro.service.protocol import parse_reply

        chunks, counts, ok = self.plan.chunks, self.plan.counts, self.ok
        expect = self.plan.expect
        write, readline = self.writer.write, self.reader.readline
        samples = tally.samples
        i = self.pos
        while perf_counter() < deadline:
            began = perf_counter()
            write(chunks[i])
            reply = await readline()
            samples.append(perf_counter() - began)
            tally.ops += 1
            if reply == ok[i]:
                tally.events += TEXT_CHUNK
            else:
                parsed = parse_reply(reply.decode("utf-8", "replace"))
                verdict = judge(parsed.status, counts[i], expect[i])
                if verdict is None:
                    tally.events += TEXT_CHUNK
                else:
                    tally.fail(f"text chunk {i}: {verdict[0]}", oracle=verdict[1])
            i += 1
            if i == len(chunks):
                write(b"RESET\n")
                tally.ops += 1
                if await readline() != b"OK reset\n":
                    tally.fail("RESET refused")
                i = 0
        self.pos = i


class HttpConnection(_Connection):
    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        self.post = 0
        self.serial = 0

    async def _response(self) -> tuple[int, bytes]:
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n"):
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        return status, await self.reader.readexactly(length)

    def _request(self, method: bytes, body: bytes = b"") -> bytes:
        path = b"/v1/sessions/%s-%d" % (self.tag.encode(), self.serial)
        if method == b"POST":
            path += b"/events"
        return (
            b"%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
            % (method, path, len(body))
        ) + body

    async def run(self, deadline: float, tally: Tally) -> None:
        from repro.service.protocol import SessionStatus

        streams = self.plan
        write, response = self.writer.write, self._response
        samples = tally.samples
        while perf_counter() < deadline:
            stream = streams[self.pos]
            j = self.post
            began = perf_counter()
            write(self._request(b"POST", stream.chunks[j]))
            code, body = await response()
            samples.append(perf_counter() - began)
            tally.ops += 1
            sent = stream.counts[j] - (stream.counts[j - 1] if j else 0)
            if code != 200:
                tally.fail(f"POST {self.tag}-{self.serial}: HTTP {code}")
            else:
                doc = json.loads(body)
                violation = doc["violation"]
                status = SessionStatus(
                    events=doc["events"],
                    errors=doc["errors"],
                    violation_index=violation["index"] if violation else None,
                )
                verdict = judge(status, stream.counts[j], stream.expect[j])
                if verdict is None:
                    tally.events += sent
                else:
                    tally.fail(
                        f"POST {self.tag}-{self.serial}#{j}: {verdict[0]}",
                        oracle=verdict[1],
                    )
            if j + 1 < len(stream.chunks):
                self.post = j + 1
                continue
            write(self._request(b"DELETE"))
            tally.ops += 1
            code, body = await response()
            if code != 200 or not json.loads(body).get("closed"):
                tally.fail(f"DELETE {self.tag}-{self.serial}: HTTP {code}")
            self.post = 0
            self.serial += 1
            self.pos = (self.pos + 1) % len(streams)


_CONNECTION_TYPES = {
    "text-stream": TextConnection,
    "http-faulted": HttpConnection,
}


async def open_connections(workload: str, port: int, spec, plans, seed):
    """Open and bind one connection per plan (outside any timed window)."""
    kind = _CONNECTION_TYPES[workload]
    conns = [
        kind(port, spec, plan, f"perfbench-{seed}-{c}")
        for c, plan in enumerate(plans)
    ]
    for conn in conns:
        await conn.open()
    return conns


def calibrate() -> float:
    """Seconds this CPU takes for a fixed pure-Python loop right now.

    The shortest of three short loops, so an interrupt in one of them does
    not count; what it tracks is how fast the CPU runs Python at the moment.
    """
    best = float("inf")
    for _ in range(3):
        began = perf_counter()
        total = 0
        for j in range(CALIBRATION_LOOP):
            total += j * j
        best = min(best, perf_counter() - began)
    return best


_TICK_S = 1 / os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 0.01


def stolen_s(cpu: int | None) -> float:
    """Seconds the hypervisor has given CPU ``cpu`` to other guests so far.

    From the ``cpuN`` line of ``/proc/stat`` (tick resolution); 0 where
    there is no such line or ``cpu`` is None.
    """
    if cpu is None:
        return 0.0
    prefix = b"cpu%d " % cpu
    try:
        with open("/proc/stat", "rb") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return int(line.split()[8]) * _TICK_S
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


async def drive(conns, seconds: float, cpu: int | None = None) -> tuple[Tally, float]:
    """Run every connection's closed loop for ``seconds``; (tally, window).

    The window is cut into slices of :data:`SLICE_S`.  Each slice records
    the time the hypervisor took from ``cpu`` (the one the load generator
    and the server share) and, right after it and outside its time, a
    :func:`calibrate` of that CPU; see :class:`Slice`.
    """
    tally = Tally()
    began = perf_counter()
    deadline = began + seconds
    while (start := perf_counter()) < deadline:
        events, first, stolen = tally.events, len(tally.samples), stolen_s(cpu)
        stop = min(start + SLICE_S, deadline)
        await asyncio.gather(*(conn.run(stop, tally) for conn in conns))
        elapsed = perf_counter() - start
        stolen = min(stolen_s(cpu) - stolen, elapsed)
        tally.slices.append(
            Slice(tally.events - events, elapsed, stolen, calibrate(), first,
                  len(tally.samples))
        )
    return tally, perf_counter() - began
