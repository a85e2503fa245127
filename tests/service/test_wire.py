"""Unit tests for the binary framing codec (proto=2).

Round-trips and malformed-payload rejection for frames, EVENTS id
arrays, and LETTERS tables — the byte layouts asserted here are the
normative ones of docs/wire-protocol.md.
"""

import asyncio
import struct
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import wire


def _read(data: bytes):
    """Run read_frame over an in-memory stream feeding ``data``."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await wire.read_frame(reader)

    return asyncio.run(go())


class TestFrames:
    def test_round_trip(self):
        frame = wire.encode_frame(wire.OP_SPEC, b"Write")
        assert _read(frame) == (wire.OP_SPEC, b"Write")

    def test_empty_payload(self):
        frame = wire.encode_frame(wire.OP_STATUS)
        assert frame == bytes([wire.OP_STATUS, 0, 0, 0, 0])
        assert _read(frame) == (wire.OP_STATUS, b"")

    def test_layout_is_u8_opcode_u32_le_length(self):
        # the byte-level diagram of docs/wire-protocol.md
        frame = wire.encode_frame(0x42, b"abc")
        assert frame[0] == 0x42
        assert frame[1:5] == (3).to_bytes(4, "little")
        assert frame[5:] == b"abc"

    def test_over_cap_length_rejected_on_encode(self):
        with pytest.raises(wire.FrameError):
            wire.encode_frame(wire.OP_EVENT, b"x" * (wire.MAX_FRAME + 1))

    def test_over_cap_length_rejected_on_read(self):
        bogus = bytes([wire.OP_EVENT]) + (wire.MAX_FRAME + 1).to_bytes(
            4, "little"
        )
        with pytest.raises(wire.FrameError):
            _read(bogus)

    def test_truncated_stream_raises_incomplete_read(self):
        frame = wire.encode_frame(wire.OP_SPEC, b"Write")
        with pytest.raises(asyncio.IncompleteReadError):
            _read(frame[:-2])


class TestEventIds:
    def test_round_trip(self):
        ids = [0, 5, 3, 2, 1, 4]
        back = wire.unpack_event_ids(wire.pack_event_ids(ids))
        assert isinstance(back, array) and back.typecode == "i"
        assert list(back) == ids

    def test_accepts_prebuilt_array(self):
        arr = array("i", [7, 8, 9])
        assert list(wire.unpack_event_ids(wire.pack_event_ids(arr))) == [7, 8, 9]

    def test_empty_batch(self):
        assert list(wire.unpack_event_ids(wire.pack_event_ids([]))) == []

    def test_payload_is_le_u32_count_then_le_i32s(self):
        payload = wire.pack_event_ids([1, 256])
        assert payload[:4] == (2).to_bytes(4, "little")
        assert payload[4:8] == (1).to_bytes(4, "little", signed=True)
        assert payload[8:12] == (256).to_bytes(4, "little", signed=True)

    def test_count_mismatch_rejected(self):
        payload = wire.pack_event_ids([1, 2, 3])
        with pytest.raises(wire.FrameError):
            wire.unpack_event_ids(payload[:-4])  # count says 3, carries 2
        with pytest.raises(wire.FrameError):
            wire.unpack_event_ids(payload + b"\x00" * 4)

    def test_short_payload_rejected(self):
        with pytest.raises(wire.FrameError):
            wire.unpack_event_ids(b"\x01")


class TestLetters:
    def test_round_trip(self):
        lines = ["a -> o : OW", "a -> o : CW", ""]
        assert wire.unpack_letters(wire.pack_letters(lines)) == lines

    def test_order_is_id_assignment(self):
        lines = [f"line{i}" for i in range(10)]
        back = wire.unpack_letters(wire.pack_letters(lines))
        assert {line: i for i, line in enumerate(back)} == {
            line: i for i, line in enumerate(lines)
        }

    def test_non_ascii_lines_survive(self):
        lines = ["α -> o : Ω(Data:δ)"]
        assert wire.unpack_letters(wire.pack_letters(lines)) == lines

    def test_oversized_line_rejected(self):
        with pytest.raises(wire.FrameError):
            wire.pack_letters(["x" * 0x10000])

    def test_truncated_payload_rejected(self):
        payload = wire.pack_letters(["abc", "defgh"])
        with pytest.raises(wire.FrameError):
            wire.unpack_letters(payload[:-1])

    def test_trailing_bytes_rejected(self):
        payload = wire.pack_letters(["abc"])
        with pytest.raises(wire.FrameError):
            wire.unpack_letters(payload + b"!")

    def test_short_payload_rejected(self):
        with pytest.raises(wire.FrameError):
            wire.unpack_letters(b"\x00")

    def test_non_utf8_line_rejected(self):
        with pytest.raises(wire.FrameError):
            wire.unpack_letters(struct.pack("<IH", 1, 2) + b"\xff\xfe")


# -- properties: every decoder returns a value or a typed error --------------

_I32S = st.lists(st.integers(-(2**31), 2**31 - 1), max_size=64)
_LINES = st.lists(st.text(max_size=16), max_size=16)


def _letter_entries(entries, tail):
    """A LETTERS layout (count, u16-prefixed entries) around arbitrary bytes."""
    body = b"".join(struct.pack("<H", len(raw)) + raw for raw in entries)
    return struct.pack("<I", len(entries)) + body + tail


#: Arbitrary bytes, half of them shaped like a letter table so the
#: per-line decoding is reached, not just the framing checks.
_LETTER_BYTES = st.binary(max_size=64) | st.builds(
    _letter_entries,
    st.lists(st.binary(max_size=8), max_size=4),
    st.binary(max_size=2),
)


class TestDecoderProperties:
    @given(st.binary(max_size=64))
    def test_event_ids_decode_or_frame_error(self, data):
        try:
            ids = wire.unpack_event_ids(data)
        except wire.FrameError:
            return
        assert wire.pack_event_ids(ids) == data

    @given(_LETTER_BYTES)
    def test_letters_decode_or_frame_error(self, data):
        try:
            lines = wire.unpack_letters(data)
        except wire.FrameError:
            return
        assert wire.pack_letters(lines) == data

    @given(st.binary(max_size=64))
    def test_read_frame_decodes_or_raises_a_framing_error(self, data):
        try:
            opcode, payload = _read(data)
        except (wire.FrameError, asyncio.IncompleteReadError):
            return
        assert wire.encode_frame(opcode, payload) == data[: 5 + len(payload)]

    @given(_I32S)
    def test_event_ids_round_trip(self, ids):
        assert wire.unpack_event_ids(wire.pack_event_ids(ids)) == array("i", ids)

    @given(_LINES)
    def test_letters_round_trip(self, lines):
        assert wire.unpack_letters(wire.pack_letters(lines)) == lines

    @given(st.integers(0, 255), st.binary(max_size=64))
    def test_frame_round_trip(self, opcode, payload):
        assert _read(wire.encode_frame(opcode, payload)) == (opcode, payload)

