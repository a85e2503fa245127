"""Durable monitor state: per-worker event logs + session snapshots.

The service's exactly-once story (DESIGN.md §15, docs/operations.md) in
one page.  A *durable* session — one that said ``HELLO session=<key>``
against a server started with a data directory — has every event input
appended to an on-disk log **before** it is fed to the session queue, and
its monitor state snapshotted periodically.  A restarted worker rebuilds
the session by loading the freshest snapshot and replaying the log
suffix after it through the same :class:`~repro.service.session.Session`
calls the live handlers make, so the recovered dense-monitor state (and
therefore every future verdict) is identical to an uninterrupted run.

Log records reuse the :mod:`repro.service.wire` framing — an opcode byte
and a little-endian u32 payload length — with their own opcode
namespace.  Every record payload starts with one common prefix::

    u32 lsn       per-session-key log sequence number (total order)
    u32 received  event inputs consumed before this record
    u16 keylen    session key length
    bytes key     utf-8 session key

followed by the per-kind body:

=============  ====================================================
``REC_BIND``   utf-8 spec name — the session bound (``SPEC``)
``REC_LINE``   utf-8 event line, exactly as received (1 input)
``REC_IDS``    an ``EVENTS`` payload (u32 count + i32 ids; n inputs)
``REC_RESET``  empty — the session's history was forgotten
=============  ====================================================

``lsn`` is monotonic per key across *all* files — a reconnect may land
on a different worker, so one key's records can span several logs, and
replay merges them by sorting on ``lsn`` alone.  ``received`` counts
every event *input* (each ``EVENT`` line — malformed and comment lines
included — and each id of an ``EVENTS`` batch) and is never reset, not
even by ``RESET``: it is the idempotency watermark.  A client that
resends its unacknowledged tail after a reconnect cannot double-apply
anything, because replay (and the live resume path) skip inputs below
the watermark — at-least-once delivery becomes exactly-once.

Event bodies are logged *verbatim*, malformed ones included: replay
calls the same validation, so error counters recover exactly too.

Snapshots are small JSON files (atomic rename, every ``snapshot_every``
inputs) recording the session's counters, watermark, and the monitor's
dense state id, in the format :mod:`repro.service.session` writes and
reads.  A deoptimised monitor (alive but off the dense array) is
deliberately *not* snapshotted — its machine state has no stable
serialisation — so recovery just replays more log; correctness never
depends on a snapshot existing.  A snapshot's file name is a hash of its
key, so recovery opens ``worker-*/snapshots/<name>`` directly.

Recovery finds a key's records through a :class:`LogIndex`: an
incremental key → record-location map over every worker's logs.  Logs
are append-only, so the index only ever reads the bytes appended since
its previous refresh; one recovery costs the new bytes plus the key's
own records, not the size of the data directory.  A key with no records
has no snapshot either (records are never deleted, and a snapshot is
only written after the records it covers), so its recovery opens no
snapshot file.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from array import array
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Iterator

from repro.core.errors import ReproError
from repro.obs.registry import get_registry
from repro.obs.trace import span
from repro.service import wire
from repro.service.session import Session, snapshot_ok

__all__ = [
    "REC_BIND",
    "REC_LINE",
    "REC_IDS",
    "REC_RESET",
    "DEFAULT_FSYNC_EVERY",
    "DEFAULT_SNAPSHOT_EVERY",
    "DurabilityError",
    "LogIndex",
    "Record",
    "WorkerStore",
    "encode_record",
    "decode_records",
    "scan_records",
    "load_best_snapshot",
    "recover",
]

# -- record opcodes (own namespace; framing shared with wire.py) ------------
REC_BIND = 0x01  # body: utf-8 spec name
REC_LINE = 0x02  # body: utf-8 event line (1 input)
REC_IDS = 0x03  # body: an EVENTS payload (u32 count + i32 ids; n inputs)
REC_RESET = 0x04  # empty body

#: fsync the log every this many appended records (a crashed *process*
#: loses nothing either way — buffered writes are flushed to the OS page
#: cache per record; fsync bounds what a crashed *host* can lose).
DEFAULT_FSYNC_EVERY = 64

#: Snapshot a session's monitor state every this many event inputs.
DEFAULT_SNAPSHOT_EVERY = 1024

_HEADER = struct.Struct("<BI")  # the wire.py frame header, byte-identical
_PREFIX = struct.Struct("<IIH")  # lsn, received, key length
_U32 = struct.Struct("<I")


class DurabilityError(ReproError):
    """Raised for records or snapshots that violate the on-disk format."""


@dataclass(frozen=True, slots=True)
class Record:
    """One decoded log record."""

    opcode: int
    key: str
    lsn: int
    received: int
    body: bytes

    @property
    def inputs(self) -> int:
        """How many event inputs this record consumes (its watermark width)."""
        if self.opcode == REC_LINE:
            return 1
        if self.opcode == REC_IDS:
            if len(self.body) < _U32.size:
                raise DurabilityError("REC_IDS body shorter than its count")
            return _U32.unpack_from(self.body)[0]
        return 0


def encode_record(
    opcode: int, key: str, lsn: int, received: int, body: bytes = b""
) -> bytes:
    """One complete log record: wire frame header + prefix + body."""
    raw = key.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise DurabilityError(f"session key of {len(raw)} bytes exceeds u16")
    return wire.encode_frame(
        opcode, _PREFIX.pack(lsn, received, len(raw)) + raw + body
    )


def decode_records(blob: bytes) -> Iterator[Record]:
    """Decode a log file's bytes; a truncated tail ends the stream cleanly.

    A crash can cut the final record short (the append is not atomic);
    everything before the cut is intact because records are only ever
    appended.  Truncation mid-record therefore stops iteration instead
    of raising — the lost suffix was never acknowledged to any client.
    """
    for _, _, record in _walk_records(blob):
        yield record


def _walk_records(blob: bytes) -> Iterator[tuple[int, int, Record]]:
    """``(start, end, record)`` per whole record of ``blob``.

    The one header walk: :func:`decode_records`, the torn-tail cut and
    :class:`LogIndex` all go through it.
    """
    offset = 0
    total = len(blob)
    while offset + _HEADER.size <= total:
        opcode, length = _HEADER.unpack_from(blob, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return  # torn tail: the record was still being written
        payload = blob[start:end]
        if len(payload) < _PREFIX.size:
            raise DurabilityError("record payload shorter than its prefix")
        lsn, received, keylen = _PREFIX.unpack_from(payload)
        key_end = _PREFIX.size + keylen
        if key_end > len(payload):
            raise DurabilityError("record payload truncated inside its key")
        try:
            key = payload[_PREFIX.size:key_end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DurabilityError("record key is not utf-8") from exc
        yield offset, end, Record(
            opcode=opcode,
            key=key,
            lsn=lsn,
            received=received,
            body=payload[key_end:],
        )
        offset = end


def _cut_torn_tail(path: Path) -> None:
    """Truncate a log to its last whole record (a crash's torn append).

    Appending behind a torn record would glue the new bytes into its
    body: the garbage record decodes and the real ones after it are
    lost.  Only the worker that owns the file calls this, before its
    first append, and every reader stops at the last whole record too.
    """
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return
    end = 0
    for _, end, _ in _walk_records(blob):
        pass
    if end < len(blob):
        os.truncate(path, end)


def _snapshot_name(key: str) -> str:
    """A filesystem-safe snapshot file name (the key itself is inside)."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:32] + ".snap"


class WorkerStore:
    """One worker's durable state: shard logs + snapshots under a data dir.

    Layout: ``<data_dir>/worker-<i>/shard-<j>.log`` and
    ``<data_dir>/worker-<i>/snapshots/<hash>.snap``.  The server appends
    every record to ``shard-0.log``; recovery still reads every
    ``shard-*.log``, so directories that older servers spread over
    several shard logs recover unchanged.  Appends go through
    a buffered file flushed per record (a killed process loses nothing)
    and ``fsync``-ed every ``fsync_every`` records (bounding what a
    crashed host can lose), with the fsync wall time observed in the
    ``repro_durability_fsync_seconds`` histogram.
    """

    def __init__(
        self,
        data_dir: str | Path,
        worker_id: int = 0,
        *,
        fsync_every: int = DEFAULT_FSYNC_EVERY,
    ) -> None:
        if fsync_every < 1:
            raise DurabilityError("fsync_every must be positive")
        self.data_dir = Path(data_dir)
        self.worker_id = worker_id
        self.root = self.data_dir / f"worker-{worker_id}"
        (self.root / "snapshots").mkdir(parents=True, exist_ok=True)
        self.fsync_every = fsync_every
        self._files: dict[int, object] = {}
        self._unsynced: dict[int, int] = {}
        registry = get_registry()
        self._c_records = registry.counter(
            "repro_durability_records_total",
            help="event-log records appended",
        )
        self._c_bytes = registry.counter(
            "repro_durability_bytes_total",
            help="event-log bytes appended",
        )
        self._c_snapshots = registry.counter(
            "repro_durability_snapshots_total",
            help="session snapshots written",
        )
        self._g_logs = registry.gauge(
            "repro_durability_open_logs",
            help="shard log files this process holds open",
        )
        self._h_fsync = registry.histogram(
            "repro_durability_fsync_seconds",
            help="wall seconds per event-log fsync",
        )

    # -- log appends ---------------------------------------------------------

    def append(self, shard: int, record: bytes) -> None:
        """Append one encoded record to a shard's log; flush immediately."""
        fh = self._files.get(shard)
        if fh is None:
            path = self.root / f"shard-{shard}.log"
            _cut_torn_tail(path)
            fh = open(path, "ab")
            self._files[shard] = fh
            self._unsynced[shard] = 0
            self._g_logs.inc()
        fh.write(record)
        fh.flush()
        self._c_records.inc()
        self._c_bytes.inc(len(record))
        self._unsynced[shard] += 1
        if self._unsynced[shard] >= self.fsync_every:
            self._fsync(shard, fh)

    def _fsync(self, shard: int, fh) -> None:
        import time

        start = time.perf_counter()
        os.fsync(fh.fileno())
        self._h_fsync.observe(time.perf_counter() - start)
        self._unsynced[shard] = 0

    def sync(self) -> None:
        """fsync every open shard log (clean-shutdown and snapshot barrier)."""
        for shard, fh in self._files.items():
            if self._unsynced.get(shard):
                self._fsync(shard, fh)

    def close(self) -> None:
        self.sync()
        for fh in self._files.values():
            fh.close()
            self._g_logs.dec()
        self._files.clear()
        self._unsynced.clear()

    # -- snapshots -----------------------------------------------------------

    def write_snapshot(self, payload: dict) -> None:
        """Atomically persist one session snapshot (tmp write + rename)."""
        path = self.root / "snapshots" / _snapshot_name(payload["key"])
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
        self._c_snapshots.inc()


# -- recovery ---------------------------------------------------------------


#: A record location packs ``file number << _OFFSET_BITS | byte offset``
#: into one signed 64-bit integer (files up to 1 TiB).
_OFFSET_BITS = 40
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1


class LogIndex:
    """Incremental key → record-location index over a data dir's logs.

    Covers every ``worker-*/shard-*.log``, this process's and every
    other worker's alike.  For each file it keeps the byte offset just
    past the last whole record it has consumed; a refresh reads only the
    bytes beyond it, so a torn or still-being-written tail waits for the
    next refresh.  Per key it keeps packed record locations in an
    ``array('q')`` — never record bodies — and :meth:`records` re-reads
    just those records.  A file shorter than its consumed offset (or
    replaced, or gone) means the directory was rewritten under the
    index: it drops everything and rebuilds from scratch.
    """

    def __init__(self, data_dir: str | Path) -> None:
        self.data_dir = Path(data_dir)
        #: total log bytes read by refreshes (each byte once, bar torn tails)
        self.scanned_bytes = 0
        self._reset()

    def _reset(self) -> None:
        self._paths: list[str] = []  # file number → path
        self._numbers: dict[str, int] = {}
        self._inodes: list[int] = []
        self._consumed: list[int] = []
        self._locations: dict[str, array] = {}

    def _logs(self) -> dict[str, os.DirEntry]:
        """Every ``worker-*/shard-*.log`` by path, listed with ``os.scandir``."""
        logs: dict[str, os.DirEntry] = {}
        try:
            workers = [
                entry.path
                for entry in os.scandir(self.data_dir)
                if entry.name.startswith("worker-")
            ]
        except FileNotFoundError:
            return logs
        for worker in sorted(workers):
            try:
                with os.scandir(worker) as entries:
                    for entry in entries:
                        name = entry.name
                        if name.startswith("shard-") and name.endswith(".log"):
                            logs[entry.path] = entry
            except (FileNotFoundError, NotADirectoryError):
                continue
        return logs

    def refresh(self) -> None:
        """Index every whole record appended since the last refresh."""
        logs = self._logs()
        if any(path not in logs for path in self._paths):
            self._reset()  # a log vanished: the directory was rewritten
        for path in sorted(logs):
            try:
                stat = logs[path].stat()
            except FileNotFoundError:
                continue
            number = self._numbers.get(path)
            if number is None:
                number = len(self._paths)
                self._paths.append(path)
                self._numbers[path] = number
                self._inodes.append(stat.st_ino)
                self._consumed.append(0)
            elif (
                stat.st_ino != self._inodes[number]
                or stat.st_size < self._consumed[number]
            ):
                self._reset()
                return self.refresh()
            base = self._consumed[number]
            if stat.st_size > base:
                self._consume(number, base)

    def _consume(self, number: int, base: int) -> None:
        with open(self._paths[number], "rb") as fh:
            fh.seek(base)
            blob = fh.read()
        self.scanned_bytes += len(blob)
        tag = number << _OFFSET_BITS
        for start, end, record in _walk_records(blob):
            locations = self._locations.get(record.key)
            if locations is None:
                locations = self._locations[record.key] = array("q")
            locations.append(tag | (base + start))
            self._consumed[number] = base + end

    def records(self, key: str) -> list[Record]:
        """Every whole record for ``key``, sorted by lsn (refreshes first)."""
        self.refresh()
        records: list[Record] = []
        by_file = groupby(
            sorted(self._locations.get(key, ())),
            key=lambda location: location >> _OFFSET_BITS,
        )
        for number, locations in by_file:
            with open(self._paths[number], "rb") as fh:
                for location in locations:
                    fh.seek(location & _OFFSET_MASK)
                    head = fh.read(_HEADER.size)
                    blob = head + fh.read(_HEADER.unpack(head)[1])
                    records.extend(decode_records(blob))
        records.sort(key=lambda r: r.lsn)
        return records


def scan_records(data_dir: str | Path, key: str) -> list[Record]:
    """Every record for ``key`` across all worker dirs, sorted by lsn.

    A reconnect may land a session on a different worker (and older
    servers spread one worker's records over several shard logs), so one
    key's records can be spread over many files; ``lsn`` is monotonic
    per key across its whole life, so the sort alone rebuilds the total
    order.  This is a fresh :class:`LogIndex`'s answer.
    """
    return LogIndex(data_dir).records(key)


def _read_snapshot(path: Path, key: str) -> dict | None:
    """``key``'s snapshot at ``path``, or None when absent or unusable."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None  # absent, or torn: the rename never happened
    return payload if snapshot_ok(payload, key) else None


def load_best_snapshot(data_dir: str | Path, key: str) -> dict | None:
    """The freshest (highest-lsn) snapshot of ``key``, any worker dir.

    Each worker keeps at most one snapshot per key, under a name derived
    from the key, so this opens one file per worker dir.
    """
    name = _snapshot_name(key)
    best: dict | None = None
    for worker in sorted(Path(data_dir).glob("worker-*")):
        payload = _read_snapshot(worker / "snapshots" / name, key)
        if payload is None:
            continue
        if best is None or payload.get("lsn", 0) > best.get("lsn", 0):
            best = payload
    return best


def recover(
    data_dir: str | Path,
    key: str,
    registry,
    *,
    index: LogIndex | None = None,
) -> Session:
    """Rebuild a durable session: freshest snapshot + lsn-ordered log replay.

    Replay feeds every surviving record through the same
    :class:`~repro.service.session.Session` calls the live handlers make,
    stepping inline instead of on the queue (each ``REC_LINE`` as a run of
    one, which steps like any longer run) — so counters, the dense
    state, and the first-violation index land exactly where the
    uninterrupted run put them.  The ``received`` watermark makes the
    replay idempotent: inputs the snapshot already covers are skipped,
    including partially-covered ``EVENTS`` batches.

    ``index`` is the caller's long-lived :class:`LogIndex` over
    ``data_dir``; without one a fresh index reads every log.
    """
    session = Session(registry, key=key)
    records = (index or LogIndex(data_dir)).records(key)
    if not records:
        # No records ⇒ no snapshot: a snapshot is written only after the
        # log records it covers are fsynced, and nothing deletes records.
        # Compaction (ROADMAP item 4) deletes records and must revisit
        # this: a compacted key may have a snapshot and no records.
        return session
    snap = load_best_snapshot(data_dir, key)
    if snap is not None and not session.restore(snap):
        # A state the spec's dense image does not have: as if torn.
        session, snap = Session(registry, key=key), None
    covered, base = session.next_lsn, session.received
    with span(
        "durability.replay", key=key, snapshot=snap is not None
    ) as sp:
        counter = get_registry().counter(
            "repro_durability_replayed_records_total",
            help="log records replayed during session recovery",
        )
        replayed = 0
        for record in records:
            if record.lsn < covered:
                continue  # the snapshot already covers this record
            session.next_lsn = max(session.next_lsn, record.lsn + 1)
            replayed += 1
            counter.inc()
            if record.opcode == REC_BIND:
                try:
                    compiled = registry.get(
                        record.body.decode("utf-8", errors="replace")
                    )
                except ReproError:
                    compiled = None
                session.bind(compiled)
                continue
            if record.opcode == REC_RESET:
                session.reset()
                continue
            inputs = record.inputs
            if record.received + inputs <= session.received:
                continue  # fully below the watermark: already applied
            skip = max(0, session.received - record.received)
            # Accepting advances the watermark by the uncovered inputs;
            # start it where this record's first one sits.
            session.received = record.received + skip
            if record.opcode == REC_LINE:
                pending = session.accept_line(
                    record.body.decode("utf-8", errors="replace")
                )
                if pending is not None:
                    session.step_run([pending])
            elif record.opcode == REC_IDS:
                pending = session.accept_ids(record.body, skip)
                if pending is not None:
                    session.step_ids(*pending)
            else:
                raise DurabilityError(
                    f"unknown record opcode 0x{record.opcode:02x}"
                )
        sp.set(records=replayed, received=session.received)
    # Replayed inputs count toward the next snapshot: the schedule carries.
    session.since_snapshot = session.received - base
    return session
