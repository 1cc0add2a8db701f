"""Eager framed transport over stream sockets: Unix on one host, TCP across.

Every message is one frame: a fixed 22-byte header followed by an opaque
body.  Header layout, all little-endian:

    offset 0   u8   frame type
    offset 1   u8   flags (reserved, zero)
    offset 2   i64  tag time (nanoseconds)
    offset 10  u32  tag microstep
    offset 14  u32  destination port id (zero for control frames)
    offset 18  u32  body length

The receive path is eager: each connection allocates its receive buffer
once, up front, and every frame is read into it -- no per-message
allocation, no deferred reads.  Every read of a connection's life fills
that one buffer; the tests watch the socket to check it.  One ``read``
takes whatever has arrived, up to the buffer's end, and
``buffered_frame`` parses the frames it brought without reading again,
so a burst of small frames costs one system call, and an event loop that
reads only readable sockets never blocks on a partial frame.
``recv_frame`` is the blocking form of the two.  A partial frame left
behind is moved to the buffer's start before the next read.  Frames
larger than the buffer are rejected on both send and receive, so peers
must agree on the buffer size (it is federation configuration, not a
per-connection negotiation; ``EAGER_BUFFER_BYTES`` unless configured).

Sends never concatenate a body into a fresh buffer.  On either socket
family a frame is one ``sendmsg([header, body])``, which returns at once
when it wrote everything; a partial write resends the rest.  A
connection whose ``wait_writable`` is set writes without blocking and
calls it whenever the socket buffer is full, so an event loop can keep
reading while a large frame drains; otherwise the write blocks until the
kernel takes all of it.  With packet coalescing left on, the kernel
holds a small frame back while an earlier one is unacknowledged, so a
message's NET waits for the receiver's delayed ACK: catastrophic for
latency (the bench's ping scenario measures exactly this);
``ConnectionOptions.disable_coalescing`` (default on) sets TCP_NODELAY.

Addresses come in two shapes: ``(host, port)`` for TCP, and a string for
a Unix socket.  :func:`listen` gives a loopback host an autobound
abstract Unix socket, which leaves nothing on disk; :func:`connect`
picks the family from the address.
"""

from __future__ import annotations

import ipaddress
import logging
import socket
import struct
import threading
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

from hprm.tags import NEVER, Tag

log = logging.getLogger(__name__)

HEADER = struct.Struct("<BBqIII")
HEADER_BYTES = HEADER.size  # 22
MAX_BODY_BYTES = 2**31
EAGER_BUFFER_BYTES = 65536  # default receive buffer, the largest frame
CONNECT_TIMEOUT_S = 5.0  # longest wait of one connect attempt


class FrameType(IntEnum):
    JOIN = 1
    START = 2
    NET = 3          # earliest possible future event announcement
    TAG_GRANT = 5    # acknowledges a NET; nothing waits on it
    STOP = 6         # at FOREVER asks for a stop, else answers or fixes it
    RESIGN = 7
    TAGGED_MSG = 8   # inline payload
    OBJ_REF = 9      # payload resident in the object store
    PING = 10
    OBJ_ACK = 11     # the reader pinned an OBJ_REF's object


_FRAME_TYPES = frozenset(FrameType)


class TransportError(Exception):
    pass


class FrameProtocolError(TransportError):
    """The peer sent bytes that are not a legal frame."""


class OversizeFrameError(TransportError):
    """Frame does not fit the eager receive buffer contract."""


@dataclass(slots=True)
class Frame:
    type: int
    tag: Tag
    port: int = 0
    body: bytes = b""


@dataclass(frozen=True)
class ConnectionOptions:
    eager_buffer_bytes: int = EAGER_BUFFER_BYTES
    disable_coalescing: bool = True

    def __post_init__(self) -> None:
        if self.eager_buffer_bytes < 1024:
            raise ValueError("eager buffer must be at least 1 KiB")


def encode_header(frame: Frame) -> bytes:
    return HEADER.pack(
        frame.type,
        0,  # flags, reserved
        frame.tag.time,
        frame.tag.microstep,
        frame.port,
        len(frame.body),
    )


def decode_header(buf, offset: int = 0) -> tuple[int, Tag, int, int]:
    """Parse a header; returns (type, tag, port, body_len)."""
    ftype, _, tag_time, microstep, port, body_len = HEADER.unpack_from(buf, offset)
    if ftype not in _FRAME_TYPES:
        raise FrameProtocolError(f"unknown frame type {ftype}")
    try:
        tag = Tag(tag_time, microstep)
    except ValueError as exc:
        raise FrameProtocolError(f"illegal tag encoding: {exc}") from None
    if body_len > MAX_BODY_BYTES:
        raise FrameProtocolError(f"declared body length {body_len} is absurd")
    return ftype, tag, port, body_len


# The body of a NET to the coordinator: queue-empty flag, messages sent
# and received, and the last completed tag (see hprm.rti).
PROGRESS = struct.Struct("<BQQqI")


def encode_progress(
    queue_empty: bool, sent: int, received: int, completed: Tag = NEVER
) -> bytes:
    return PROGRESS.pack(
        1 if queue_empty else 0, sent, received, completed.time, completed.microstep
    )


def decode_progress(body: bytes) -> tuple[bool, int, int, Tag]:
    """What :func:`encode_progress` packed; an empty body reports nothing
    yet.  Raises ValueError on a malformed body."""
    if not body:
        return False, 0, 0, NEVER
    try:
        empty, sent, received, tag_time, microstep = PROGRESS.unpack_from(body)
        return bool(empty), sent, received, Tag(tag_time, microstep)
    except (struct.error, ValueError) as exc:
        raise ValueError(f"malformed progress report: {exc}") from None


class FrameConnection:
    """One framed byte stream over a connected socket.

    Thread safety: ``send_frame`` may be called from any thread (sends are
    serialized internally); receiving must only happen on one thread at a
    time.  ``wait_writable``, when set, is called on the sending thread.
    """

    def __init__(self, sock: socket.socket, options: ConnectionOptions | None = None):
        self.options = options or ConnectionOptions()
        self._sock = sock
        if self.options.disable_coalescing and sock.family != socket.AF_UNIX:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        self._send_lock = threading.Lock()
        self._buf = bytearray(self.options.eager_buffer_bytes)
        self._view = memoryview(self._buf)
        self._start = 0  # buf[_start:_end] holds received, unparsed bytes
        self._end = 0
        self._closed = False
        # None: sends block in the kernel.  A callable is called whenever
        # the socket buffer is full, and returns once it is not.
        self.wait_writable: Callable[[], None] | None = None

    def fileno(self) -> int:
        return self._sock.fileno()

    def send_frame(self, frame: Frame) -> None:
        if len(frame.body) + HEADER_BYTES > self.options.eager_buffer_bytes:
            raise OversizeFrameError(
                f"frame of {len(frame.body)} body bytes exceeds the "
                f"{self.options.eager_buffer_bytes}-byte buffer contract"
            )
        header = encode_header(frame)
        pending = [header, frame.body] if frame.body else [header]
        with self._send_lock:
            self._sendmsg(pending, HEADER_BYTES + len(frame.body))

    def _sendmsg(self, pending: list, size: int) -> None:
        """Write the ``size`` bytes of ``pending`` with one ``sendmsg`` per
        attempt, dropping what each attempt wrote, until nothing is left."""
        wait = self.wait_writable
        flags = 0 if wait is None else socket.MSG_DONTWAIT
        while True:
            try:
                sent = self._sock.sendmsg(pending, (), flags)
            except BlockingIOError:
                sent = 0
            if sent == size:
                return
            size -= sent
            while sent >= len(pending[0]):
                sent -= len(pending.pop(0))
            pending[0] = memoryview(pending[0])[sent:]
            if wait is not None:
                wait()

    def buffered_frame(self) -> Frame | None:
        """The next frame if the buffer holds all of it, else None; never
        reads the socket."""
        held = self._end - self._start
        if held < HEADER_BYTES:
            return None
        start = self._start
        ftype, tag, port, body_len = decode_header(self._view, start)
        size = HEADER_BYTES + body_len
        if size > self.options.eager_buffer_bytes:
            raise OversizeFrameError(
                f"peer declared a {body_len}-byte body; buffer contract is "
                f"{self.options.eager_buffer_bytes} bytes"
            )
        if held < size:
            return None
        body = bytes(self._view[start + HEADER_BYTES : start + size])
        self._start += size
        if self._start == self._end:
            self._start = self._end = 0
        return Frame(ftype, tag, port, body)

    def read(self) -> bool:
        """Read whatever has arrived into the buffer, blocking until
        something has; False on a clean end of stream.  Take every
        buffered frame first: a whole frame left in the buffer may leave
        no room to read into."""
        view = self._view
        held = self._end - self._start
        if self._start:
            # Move the partial frame to the start: it then fits (a frame
            # fits the buffer), and reads keep to the buffer's first pages.
            view[:held] = view[self._start : self._end]
            self._start, self._end = 0, held
        n = self._sock.recv_into(view[held:])
        if n == 0:
            if held:
                raise FrameProtocolError("connection closed mid-frame")
            return False
        self._end += n
        return True

    def recv_frame(self) -> Frame | None:
        """Next frame, or None when the peer closed cleanly between frames."""
        while (frame := self.buffered_frame()) is None:
            if not self.read():
                return None
        return frame

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def __enter__(self) -> "FrameConnection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FrameListener:
    """Accepts framed connections: TCP on ``(host, port)``, or with
    ``host`` None an autobound abstract Unix socket."""

    def __init__(
        self,
        host: str | None = "127.0.0.1",
        port: int = 0,
        options: ConnectionOptions | None = None,
    ):
        self.options = options or ConnectionOptions()
        if host is None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.bind("")  # Linux picks a free abstract name
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
        self._sock.listen(64)

    @property
    def address(self) -> tuple[str, int] | str:
        name = self._sock.getsockname()
        if isinstance(name, bytes):
            return name.decode("ascii")
        return name[:2]

    def fileno(self) -> int:
        return self._sock.fileno()

    def accept(self) -> FrameConnection:
        sock, peer = self._sock.accept()
        log.debug("accepted connection from %r", peer)
        return FrameConnection(sock, self.options)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "FrameListener":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _is_loopback(host: str) -> bool:
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def listen(host: str, options: ConnectionOptions | None = None) -> FrameListener:
    """A listener for peers on ``host``: a Unix socket when ``host`` is a
    loopback address, since every peer then shares this host, else TCP on
    a free port."""
    return FrameListener(None if _is_loopback(host) else host, 0, options)


def connect(
    address: tuple[str, int] | str,
    options: ConnectionOptions | None = None,
    *,
    retry_for: float = 0.0,
) -> FrameConnection:
    """Open a framed connection, optionally retrying refused connects.

    A string address is a Unix socket, any other a ``(host, port)`` pair.
    ``retry_for`` covers the rendezvous window where a peer's listener is
    known to be coming up but may not be bound yet.
    """
    unix = isinstance(address, str)
    deadline = time.monotonic() + retry_for
    while True:
        sock = socket.socket(
            socket.AF_UNIX if unix else socket.AF_INET, socket.SOCK_STREAM
        )
        sock.settimeout(CONNECT_TIMEOUT_S)
        try:
            sock.connect(address if unix else tuple(address))
            return FrameConnection(sock, options)
        except (ConnectionRefusedError, ConnectionAbortedError, socket.timeout):
            sock.close()
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.02)


def serve_echo(conn: FrameConnection) -> int:
    """Echo frames back until EOF; returns the echo count."""
    echoed = 0
    while True:
        try:
            frame = conn.recv_frame()
        except TransportError:
            break
        if frame is None:
            break
        conn.send_frame(frame)
        echoed += 1
    return echoed


def ping_rtt(
    conn: FrameConnection,
    count: int,
    *,
    payload_bytes: int = 64,
    warmup: int = 0,
) -> list[int]:
    """Round-trip times, in nanoseconds, of echo pings over ``conn``.

    The peer must be echoing (see :func:`serve_echo`).  Each ping carries
    a sequence number so a mismatched echo fails loudly instead of
    silently skewing the numbers.
    """
    if payload_bytes < 8:
        raise ValueError("payload must hold an 8-byte sequence number")
    samples: list[int] = []
    pad = b"\x00" * (payload_bytes - 8)
    for seq in range(warmup + count):
        body = seq.to_bytes(8, "little") + pad
        start = time.perf_counter_ns()
        conn.send_frame(Frame(FrameType.PING, Tag(0, 0), body=body))
        reply = conn.recv_frame()
        elapsed = time.perf_counter_ns() - start
        if reply is None or reply.type != FrameType.PING:
            raise FrameProtocolError("echo peer vanished mid-ping")
        if reply.body[:8] != body[:8]:
            raise FrameProtocolError("echo reply out of sequence")
        if seq >= warmup:
            samples.append(elapsed)
    return samples
