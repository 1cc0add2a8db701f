"""Adaptive serialization: small data travels in-band, large buffers don't.

Values are trees of ``None`` / ``bool`` / ``int`` / ``float`` / ``str`` /
``bytes`` / sequences / string-keyed maps / numpy arrays.  Serializing a
value produces a :class:`SerializedPayload`: one compact in-band byte
string for structure and small leaves, plus zero or more *segments* --
borrowed, never-copied views of the large buffer leaves.  Placeholders in
the in-band stream consume segments in order during deserialization, so
payloads survive transport verbatim.

The in-band encoding is a tagged little-endian binary format.  It is
canonical (map keys are sorted, integers use a fixed minimal-width rule),
so equal values serialize to identical bytes, which the cross-federate
determinism checks rely on.

``deserialize(..., zero_copy=True)`` reconstructs array and bytes leaves
as read-only views of the payload's backing buffers; callers use it when
the backing is stable (a pinned shared-memory mapping, or a private
receive copy).  The default copies leaf data out, which is the only safe
choice when the backing buffer is about to be reused.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

DEFAULT_OOB_FLOOR = 4096
SEGMENT_ALIGNMENT = 64
PAYLOAD_VERSION = 1

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

_T_NONE = 0x01
_T_FALSE = 0x02
_T_TRUE = 0x03
_T_INT = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_BYTES_SEG = 0x08
_T_ARRAY = 0x09
_T_ARRAY_SEG = 0x0A
_T_LIST = 0x0B
_T_MAP = 0x0C


class SerializationError(Exception):
    pass


class UnsupportedTypeError(SerializationError, TypeError):
    pass


class PayloadFormatError(SerializationError, ValueError):
    pass


@dataclass(frozen=True)
class SerializedPayload:
    """The two-part wire form of a value.

    ``inband`` holds the tagged structure stream; ``segments`` hold large
    leaf buffers in placeholder order.  Segments are views of the caller's
    buffers (serialize) or of the wire buffer (decode) -- nothing is
    copied on the way in.
    """

    version: int
    inband: bytes | memoryview
    segments: tuple[Any, ...] = ()

    @property
    def segment_lengths(self) -> tuple[int, ...]:
        return tuple(len(memoryview(s).cast("B")) for s in self.segments)

    def total_bytes(self) -> int:
        """Size of the single-buffer encoding (:func:`encode_payload`)."""
        seg_lens = self.segment_lengths
        return 1 + 4 + len(self.inband) + 2 + 8 * len(seg_lens) + sum(seg_lens)


def _encode_int(out: bytearray, x: int) -> None:
    length = (x.bit_length() + 8) // 8
    if length > 255:
        raise UnsupportedTypeError(f"integer too wide to encode ({length} bytes)")
    out.append(_T_INT)
    out.append(length)
    out += x.to_bytes(length, "little", signed=True)


def _array_view(arr: np.ndarray) -> memoryview:
    if arr.dtype.hasobject or arr.dtype.kind == "V":
        raise UnsupportedTypeError(f"cannot serialize arrays of dtype {arr.dtype}")
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return memoryview(arr).cast("B")


def _encode_array_header(out: bytearray, tag: int, arr: np.ndarray) -> None:
    dtype = arr.dtype.str.encode("ascii")
    out.append(tag)
    out.append(len(dtype))
    out += dtype
    out.append(arr.ndim)
    for dim in arr.shape:
        out += _U64.pack(dim)


def _serialize_into(
    value: Any, out: bytearray, segments: list, floor: int | None
) -> None:
    if value is None:
        out.append(_T_NONE)
    elif isinstance(value, bool):
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, int):
        _encode_int(out, value)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(data))
        out += data
    elif isinstance(value, (bytes, bytearray, memoryview)):
        view = memoryview(value).cast("B")
        if floor is not None and len(view) >= floor:
            out.append(_T_BYTES_SEG)
            segments.append(view)
        else:
            out.append(_T_BYTES)
            out += _U32.pack(len(view))
            out += view
    elif isinstance(value, np.ndarray):
        if floor is not None and value.nbytes >= floor:
            _encode_array_header(out, _T_ARRAY_SEG, value)
            segments.append(_array_view(value))
        else:
            _encode_array_header(out, _T_ARRAY, value)
            view = _array_view(value)
            out += _U32.pack(len(view))
            out += view
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        out += _U32.pack(len(value))
        for item in value:
            _serialize_into(item, out, segments, floor)
    elif isinstance(value, dict):
        out.append(_T_MAP)
        out += _U32.pack(len(value))
        for key in sorted(value):
            if not isinstance(key, str):
                raise UnsupportedTypeError(
                    f"map keys must be strings, got {type(key).__name__}"
                )
            data = key.encode("utf-8")
            out += _U32.pack(len(data))
            out += data
            _serialize_into(value[key], out, segments, floor)
    else:
        raise UnsupportedTypeError(f"cannot serialize {type(value).__name__}")


def serialize(
    value: Any, *, oob_floor: int | None = DEFAULT_OOB_FLOOR
) -> SerializedPayload:
    """Encode a value tree.

    ``oob_floor`` is the byte size at which buffer leaves are carried as
    segments instead of copied in-band; ``None`` forces everything
    in-band (used by the in-band benchmark mode and by callers that must
    produce a single self-contained byte string).
    """
    out = bytearray()
    segments: list = []
    _serialize_into(value, out, segments, oob_floor)
    return SerializedPayload(PAYLOAD_VERSION, bytes(out), tuple(segments))


class _Reader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf) -> None:
        self.buf = buf
        self.pos = 0

    def take(self, n: int):
        end = self.pos + n
        if end > len(self.buf):
            raise PayloadFormatError("truncated in-band stream")
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]


def _read_array_header(reader: _Reader) -> tuple[np.dtype, tuple[int, ...]]:
    dtype = np.dtype(bytes(reader.take(reader.byte())).decode("ascii"))
    ndim = reader.byte()
    shape = tuple(reader.u64() for _ in range(ndim))
    return dtype, shape


def _deserialize_one(reader: _Reader, segs: Iterator, zero_copy: bool) -> Any:
    tag = reader.byte()
    if tag == _T_NONE:
        return None
    if tag == _T_FALSE:
        return False
    if tag == _T_TRUE:
        return True
    if tag == _T_INT:
        return int.from_bytes(bytes(reader.take(reader.byte())), "little", signed=True)
    if tag == _T_FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _T_STR:
        return bytes(reader.take(reader.u32())).decode("utf-8")
    if tag == _T_BYTES:
        raw = reader.take(reader.u32())
        return memoryview(raw).toreadonly() if zero_copy else bytes(raw)
    if tag == _T_BYTES_SEG:
        seg = next(segs)
        return memoryview(seg).cast("B").toreadonly() if zero_copy else bytes(seg)
    if tag == _T_ARRAY:
        dtype, shape = _read_array_header(reader)
        raw = memoryview(reader.take(reader.u32())).toreadonly()
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        return arr if zero_copy else arr.copy()
    if tag == _T_ARRAY_SEG:
        dtype, shape = _read_array_header(reader)
        seg = memoryview(next(segs)).cast("B").toreadonly()
        expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
        if len(seg) != expected:
            raise PayloadFormatError(
                f"segment length {len(seg)} does not match array header ({expected})"
            )
        arr = np.frombuffer(seg, dtype=dtype).reshape(shape)
        return arr if zero_copy else arr.copy()
    if tag == _T_LIST:
        return [
            _deserialize_one(reader, segs, zero_copy) for _ in range(reader.u32())
        ]
    if tag == _T_MAP:
        result = {}
        for _ in range(reader.u32()):
            key = bytes(reader.take(reader.u32())).decode("utf-8")
            result[key] = _deserialize_one(reader, segs, zero_copy)
        return result
    raise PayloadFormatError(f"unknown in-band type tag 0x{tag:02x}")


def deserialize(payload: SerializedPayload, *, zero_copy: bool = False) -> Any:
    """Rebuild the value tree from a payload.

    With ``zero_copy`` the returned arrays and bytes leaves are read-only
    views into the payload's buffers; the caller is responsible for
    keeping those buffers alive and unchanged for the value's lifetime.
    """
    if payload.version != PAYLOAD_VERSION:
        raise PayloadFormatError(f"unsupported payload version {payload.version}")
    reader = _Reader(memoryview(payload.inband))
    segs = iter(payload.segments)
    try:
        value = _deserialize_one(reader, segs, zero_copy)
    except StopIteration:
        raise PayloadFormatError(
            "in-band stream references more segments than provided"
        ) from None
    if reader.pos != len(reader.buf):
        raise PayloadFormatError("trailing bytes after in-band stream")
    leftovers = sum(1 for _ in segs)
    if leftovers:
        raise PayloadFormatError(f"{leftovers} segment(s) were never referenced")
    return value


# -- single-buffer encoding (inline transport) --------------------------


def encode_payload(payload: SerializedPayload) -> bytes:
    """Flatten a payload into one self-contained byte string.

    Layout: ``version u8 | inband_len u32 | inband | segment_count u16 |
    segment_len u64 per segment | segment bytes back to back``.  All
    integers little-endian.  This is the only point on the inline path
    where segment bytes are copied.
    """
    lens = payload.segment_lengths
    parts = [
        bytes([payload.version]),
        _U32.pack(len(payload.inband)),
        payload.inband,
        _U16.pack(len(lens)),
    ]
    parts.extend(_U64.pack(n) for n in lens)
    parts.extend(payload.segments)
    return b"".join(parts)


def decode_payload(buffer: bytes | memoryview) -> SerializedPayload:
    """Parse :func:`encode_payload` output without copying segment data.

    The returned payload's in-band stream and segments are views into
    ``buffer``; hand it to ``deserialize(..., zero_copy=False)`` unless
    ``buffer`` is known to be stable.
    """
    view = memoryview(buffer).cast("B")
    reader = _Reader(view)
    version = reader.byte()
    if version != PAYLOAD_VERSION:
        raise PayloadFormatError(f"unsupported payload version {version}")
    inband = reader.take(reader.u32())
    count = _U16.unpack(reader.take(2))[0]
    lens = [reader.u64() for _ in range(count)]
    segments = tuple(reader.take(n) for n in lens)
    if reader.pos != len(view):
        raise PayloadFormatError("trailing bytes after final segment")
    return SerializedPayload(version, inband, segments)


# -- multi-buffer layout (shared-memory objects) -------------------------


@dataclass(frozen=True)
class PayloadLayout:
    """Where a payload's pieces live inside one flat object.

    The header (version, in-band stream, segment length table) occupies
    ``[0, len(header))``; each segment occupies its span, aligned so that
    array views over the mapping keep their natural alignment.
    """

    total_bytes: int
    header: bytes
    inband_offset: int
    inband_length: int
    segment_spans: tuple[tuple[int, int], ...]


def build_layout(
    payload: SerializedPayload, *, alignment: int = SEGMENT_ALIGNMENT
) -> PayloadLayout:
    lens = payload.segment_lengths
    header = bytearray()
    header.append(payload.version)
    header += _U32.pack(len(payload.inband))
    header += bytes(payload.inband)
    header += _U16.pack(len(lens))
    for n in lens:
        header += _U64.pack(n)
    cursor = len(header)
    spans = []
    for n in lens:
        cursor = -(-cursor // alignment) * alignment
        spans.append((cursor, n))
        cursor += n
    return PayloadLayout(
        total_bytes=max(cursor, len(header)),
        header=bytes(header),
        inband_offset=5,
        inband_length=len(payload.inband),
        segment_spans=tuple(spans),
    )


def payload_from_spans(
    buffer,
    inband_span: tuple[int, int],
    segment_spans: Sequence[tuple[int, int]],
) -> SerializedPayload:
    """Reassemble a payload from explicit spans over a stable buffer."""
    view = memoryview(buffer).cast("B")
    if len(view) < 1:
        raise PayloadFormatError("empty payload buffer")
    version = view[0]
    off, length = inband_span
    inband = view[off:off + length]
    if len(inband) != length:
        raise PayloadFormatError("in-band span exceeds buffer")
    segments = []
    for off, length in segment_spans:
        seg = view[off:off + length]
        if len(seg) != length:
            raise PayloadFormatError("segment span exceeds buffer")
        segments.append(seg)
    return SerializedPayload(version, inband, tuple(segments))
