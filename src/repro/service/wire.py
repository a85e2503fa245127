"""Binary framing of the monitoring service (wire protocols 2 and 3).

The normative specification of both wire framings lives in
``docs/wire-protocol.md``; this module is the framed codec.  In one
sentence: after a text-mode ``HELLO proto=2`` negotiation, every message
in both directions is a length-prefixed frame

.. code-block:: text

    +--------+----------------------+------------------+
    | opcode |   payload length     |     payload      |
    | u8     |   u32 little-endian  |  `length` bytes  |
    +--------+----------------------+------------------+

and event streams travel as ``EVENTS`` frames — arrays of little-endian
``i32`` *letter ids* resolved against the per-connection letter table the
server sends after ``SPEC`` — instead of per-event text lines.  The
monitor then steps a whole batch through the dense successor array in one
tight loop (:meth:`repro.runtime.monitor.SpecMonitor.observe_ids`).

Integer encoding matches :mod:`array`'s ``"i"`` typecode on
little-endian hosts; :func:`pack_event_ids`/:func:`unpack_event_ids`
byte-swap on big-endian ones, so the wire is platform-independent while
the hot path on commodity hardware is a zero-copy ``tobytes``/
``frombytes`` pair.

Proto 3 keeps these frames and changes one thing: the ``BYE`` reply ends
the session but not the connection, which goes back to text mode with
no session, so the next session on it starts with ``HELLO``.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Iterable, Sequence

from repro.core.errors import ReproError

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME",
    "FrameError",
    "OP_SPEC",
    "OP_EVENT",
    "OP_EVENTS",
    "OP_STATUS",
    "OP_METRICS",
    "OP_RESET",
    "OP_BYE",
    "OP_UPDATE",
    "OP_OK",
    "OP_ERR",
    "OP_VIOLATION",
    "OP_LETTERS",
    "VERB_OPS",
    "REPLY_OPS",
    "HEADER_BYTES",
    "encode_frame",
    "unpack_header",
    "read_frame",
    "pack_event_ids",
    "unpack_event_ids",
    "pack_letters",
    "unpack_letters",
]

#: The highest protocol version the server grants (``HELLO proto=N``
#: agrees ``min(N, WIRE_VERSION)``).  From 3 on, a connection outlives
#: its session: ``BYE`` ends the session and the connection is back in
#: text mode.
WIRE_VERSION = 3

#: Hard cap on one frame's payload (bytes).  Large enough for any sane
#: batch (16 Mi ÷ 4 ≈ 4M letter ids) or metrics dump; anything larger is
#: a corrupt or hostile stream and the connection is closed — a bogus
#: length field cannot be resynchronised past.
MAX_FRAME = 16 * 1024 * 1024

#: The most one socket read takes, on every connection the service and
#: its client open or accept (each sets its transport's ``max_size``).
#: asyncio's socket transport allocates ``max_size`` (256 KiB by default)
#: for each ``recv``.  That is past glibc's mmap threshold unless the
#: process's earlier allocations happened to raise it, and then every
#: read costs an mmap, page faults and an munmap.  A 64 KiB buffer always
#: comes from the heap.  On ``http-faulted`` a process on the mmap side
#: took three times the minor page faults, and which side it got was
#: decided by as little as an empty ``sitecustomize`` module; 64 KiB
#: reads here took it from 13.3 to 11.6 µs of server CPU per event.
RECV_BYTES = 1 << 16

# -- request opcodes (client → server) --------------------------------------
OP_SPEC = 0x01  # payload: utf-8 spec name
OP_EVENT = 0x02  # payload: utf-8 trace line (out-of-table fallback)
OP_EVENTS = 0x03  # payload: u32 count + count × i32 letter ids
OP_STATUS = 0x04  # empty payload
OP_METRICS = 0x05  # empty payload
OP_RESET = 0x06  # empty payload
OP_BYE = 0x07  # empty payload
OP_UPDATE = 0x08  # payload: utf-8 header line + optional OUN document body

# -- reply opcodes (server → client) ----------------------------------------
OP_OK = 0x80  # payload: utf-8, the text reply minus the "OK " keyword
OP_ERR = 0x81  # payload: utf-8 error message
OP_VIOLATION = 0x82  # payload: utf-8, the text reply minus "VIOLATION "
OP_LETTERS = 0x83  # payload: the letter table (see pack_letters)

#: The reply-bearing verbs' request opcodes, by text verb.
VERB_OPS = {
    "SPEC": OP_SPEC, "STATUS": OP_STATUS, "METRICS": OP_METRICS,
    "RESET": OP_RESET, "BYE": OP_BYE, "UPDATE": OP_UPDATE,
}
#: Reply opcodes, by the text keyword whose grammar their payload reuses.
REPLY_OPS = {"OK": OP_OK, "ERR": OP_ERR, "VIOLATION": OP_VIOLATION}

_HEADER = struct.Struct("<BI")
#: A frame header's size: the opcode and the payload length.
HEADER_BYTES = _HEADER.size
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")

_BIG_ENDIAN = sys.byteorder == "big"


class FrameError(ReproError):
    """Raised for frames that violate the binary framing."""


def encode_frame(opcode: int, payload: bytes = b"") -> bytes:
    """One complete frame: header plus payload."""
    if len(payload) > MAX_FRAME:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME}-byte cap"
        )
    return _HEADER.pack(opcode, len(payload)) + payload


def unpack_header(data: bytes, offset: int = 0) -> tuple[int, int]:
    """The opcode and payload length of the header at ``offset``.

    Raises :class:`FrameError` for an over-cap length field: the stream
    cannot be resynchronised, so callers must close the connection.
    """
    opcode, length = _HEADER.unpack_from(data, offset)
    if length > MAX_FRAME:
        raise FrameError(
            f"frame 0x{opcode:02x} declares {length} payload bytes "
            f"(cap {MAX_FRAME}); closing the unsynchronisable stream"
        )
    return opcode, length


async def read_frame(reader) -> tuple[int, bytes]:
    """Read one frame off an ``asyncio.StreamReader``; EOF raises
    ``asyncio.IncompleteReadError``, a bogus length :class:`FrameError`."""
    opcode, length = unpack_header(await reader.readexactly(HEADER_BYTES))
    payload = await reader.readexactly(length) if length else b""
    return opcode, payload


# -- EVENTS payload ---------------------------------------------------------


def pack_event_ids(ids: Sequence[int] | array) -> bytes:
    """The ``EVENTS`` payload: u32 count + count little-endian i32 ids."""
    arr = ids if isinstance(ids, array) and ids.typecode == "i" else array("i", ids)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian CI
        arr = array("i", arr)
        arr.byteswap()
    return _U32.pack(len(arr)) + arr.tobytes()


def unpack_event_ids(payload: bytes) -> array:
    """Decode an ``EVENTS`` payload back to an ``array('i')`` of ids."""
    if len(payload) < _U32.size:
        raise FrameError("EVENTS payload shorter than its count field")
    (count,) = _U32.unpack_from(payload)
    body = payload[_U32.size:]
    arr = array("i")
    if len(body) != 4 * count:
        raise FrameError(
            f"EVENTS payload declares {count} ids but carries "
            f"{len(body)} bytes"
        )
    arr.frombytes(body)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian CI
        arr.byteswap()
    return arr


# -- LETTERS payload --------------------------------------------------------


def pack_letters(lines: Iterable[str]) -> bytes:
    """The letter-table payload: u32 count + per letter (u16 len + utf-8).

    Index ``i`` of the sequence is letter id ``i`` — the payload order
    *is* the id assignment, which is why the table is resent whenever
    ``SPEC`` rebinds the session.
    """
    parts = []
    count = 0
    for line in lines:
        raw = line.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FrameError(f"letter line of {len(raw)} bytes exceeds u16")
        parts.append(_U16.pack(len(raw)) + raw)
        count += 1
    return _U32.pack(count) + b"".join(parts)


def unpack_letters(payload: bytes) -> list[str]:
    """Decode a letter-table payload to lines indexed by letter id."""
    if len(payload) < _U32.size:
        raise FrameError("LETTERS payload shorter than its count field")
    (count,) = _U32.unpack_from(payload)
    lines: list[str] = []
    offset = _U32.size
    for _ in range(count):
        if offset + _U16.size > len(payload):
            raise FrameError("LETTERS payload truncated mid-entry")
        (length,) = _U16.unpack_from(payload, offset)
        offset += _U16.size
        raw = payload[offset:offset + length]
        if len(raw) != length:
            raise FrameError("LETTERS payload truncated mid-line")
        offset += length
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FrameError("LETTERS line is not utf-8") from exc
    if offset != len(payload):
        raise FrameError("LETTERS payload carries trailing bytes")
    return lines
