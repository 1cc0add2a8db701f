"""Request/response codec for the store's control socket.

Control traffic carries only metadata -- object bytes go through the
shared mappings -- so the protocol is deliberately tiny.  Requests are
fixed 29 bytes: op u8 | object id (20 bytes) | u64 argument.  The
argument is the size for CREATE, the number of gets the object will see
for SEAL (0: unknown), and 1 for a RELEASE whose mapping is closed; GET
and STATS leave it 0.  Every request gets exactly one reply, at once.  Responses are a fixed 11-byte prefix (status u8 |
u64 value | u16 blob length) followed by the blob.  An OK reply to
CREATE or GET has no blob; it carries the object's memfd segment as one
``SCM_RIGHTS`` descriptor, sent in the same ``sendmsg`` as the prefix.
The blob is a JSON counters dump for STATS.  All integers little-endian.
"""

from __future__ import annotations

import struct
from enum import IntEnum

ID_BYTES = 20
_REQUEST = struct.Struct("<B20sQ")
_RESPONSE_PREFIX = struct.Struct("<BQH")

REQUEST_BYTES = _REQUEST.size            # 29
RESPONSE_PREFIX_BYTES = _RESPONSE_PREFIX.size  # 11


class Op(IntEnum):
    CREATE = 1   # arg = object size in bytes
    SEAL = 2     # arg = gets the object will see; 0 = unknown
    GET = 3      # arg unused (0)
    RELEASE = 4  # arg = 1 if the releasing client's mapping is closed
    STATS = 5


class WireFormatError(ValueError):
    pass


def encode_request(op: int, oid: bytes, arg: int = 0) -> bytes:
    if len(oid) != ID_BYTES:
        raise WireFormatError(f"object ids are {ID_BYTES} bytes, got {len(oid)}")
    return _REQUEST.pack(op, oid, arg)


def decode_request(buf: bytes | memoryview) -> tuple[int, bytes, int]:
    op, oid, arg = _REQUEST.unpack_from(buf)
    try:
        Op(op)
    except ValueError:
        raise WireFormatError(f"unknown store op {op}") from None
    return op, bytes(oid), arg


def encode_response(status: int, value: int = 0, blob: bytes = b"") -> bytes:
    if len(blob) > 0xFFFF:
        raise WireFormatError("response blob too large")
    return _RESPONSE_PREFIX.pack(status, value, len(blob)) + blob


def decode_response_prefix(buf: bytes | memoryview) -> tuple[int, int, int]:
    """(status, value, blob_length) from the fixed prefix."""
    return _RESPONSE_PREFIX.unpack_from(buf)
