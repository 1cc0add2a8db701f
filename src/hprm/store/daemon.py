"""The object-store daemon.

One single-threaded event loop owns everything: the lifecycle state, the
objects' memory, and the control socket.  Clients talk over a unix
stream socket with the :mod:`hprm.store.wire` codec; the daemon never
touches object bytes.  Every lifecycle rule lives in
:class:`~hprm.store.state.StoreState`, keyed by session (each
connection is one): the daemon only parses requests, hands the state
each one with its connection, moves segments and descriptors, and
replies.  So a session may release only its own pins and seal only the
objects it created.

Each object is an anonymous ``memfd`` segment whose descriptor rides on
the CREATE or GET reply.  No file is named, so a daemon that dies, even
by SIGKILL, leaves nothing behind but its socket path.  Dead objects'
segments go into a reuse pool, oldest closed first, whose bytes never
exceed the free bytes, so live plus pooled memory stays within capacity.
An object dies when a create evicts it, when it is retired after its
last expected read (SEAL declares how many gets it will see, and the
RELEASE that ends the last of them, with every reader's mapping reported
closed, retires it), or when its creator's session ends before sealing
it.  The state reports each death through one channel, which the daemon
drains into the pool after every request, before a create takes a
segment.  A create takes the most recently retired pooled segment of
the same page count, if there is one: its pages are already faulted in,
which skips the kernel's zero-fill, and handing out the newest keeps few
segments in circulation, so each client session maps each of them once
(:mod:`hprm.store.client`).

Pins protect readers: only sealed objects that no session pins are ever
evicted.  A release that reports a view of the object still open keeps
the object cached until LRU eviction, so a view kept past its release
stays valid until then, and afterwards may observe recycled contents.
It never faults: a recycled segment keeps its page count, so every page
a mapping covers stays inside the segment.

Every request is answered at once.  A GET of an object that is unknown
(never created, evicted, or retired) or not yet sealed fails with
``UNKNOWN_ID`` or ``NOT_SEALED``: a publisher seals before it sends the
reference, so waiting could only turn a lost message into a stall.

A connection that drops ends its session: pins it still held are
released and unsealed objects it created are dropped, so a crashed
client cannot leak references or half-written objects.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import selectors
import signal
import socket
import threading
from pathlib import Path

from hprm.store import wire
from hprm.store.state import Status, StoreState

log = logging.getLogger(__name__)

DEFAULT_CAPACITY = 1 << 30
_PAGE = os.sysconf("SC_PAGE_SIZE")


class _Conn:
    """One client session: its socket and unparsed input.  It is also
    the session key the state records pins and creators under."""

    __slots__ = ("sock", "inbuf")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()


class StoreDaemon:
    def __init__(
        self,
        socket_path: str | Path,
        capacity_bytes: int = DEFAULT_CAPACITY,
        *,
        directory: str | Path | None = None,
    ):
        # ``directory`` is ignored (segments are anonymous); perfbench still passes it.
        self.socket_path = Path(socket_path)
        self.state = StoreState(capacity_bytes)
        self.socket_path.unlink(missing_ok=True)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(str(self.socket_path))
        self._listener.listen(64)
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "listener")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._conns: dict[socket.socket, _Conn] = {}
        self._segments: dict[bytes, tuple[int, int]] = {}  # oid -> (size, fd)
        self._pool: list[tuple[int, int]] = []  # (size, fd), oldest first
        self._stopping = False
        self._thread: threading.Thread | None = None

    # -- segments ----------------------------------------------------------

    def _segment(self, size: int) -> int:
        """A descriptor of ``size`` bytes: the most recently retired
        pooled segment of the same page count, else a new memfd.  Newest
        first keeps the segments in circulation few, so clients' idle
        mappings of them stay reusable.  Shrinking a larger one would make
        a mapping kept past its release fault (SIGBUS) on the pages cut
        off."""
        pages = -(-size // _PAGE)
        match = next(
            (e for e in reversed(self._pool) if -(-e[0] // _PAGE) == pages), None
        )
        if match is not None:
            self._pool.remove(match)
            fd = match[1]
        else:
            fd = os.memfd_create("hprm-object", os.MFD_CLOEXEC)
        try:
            os.ftruncate(fd, size)
        except OSError:
            os.close(fd)
            raise
        return fd

    def _trim_pool(self) -> None:
        pooled = sum(size for size, _ in self._pool)
        while pooled > self.state.free_bytes:
            size, fd = self._pool.pop(0)
            pooled -= size
            os.close(fd)

    # -- request handling --------------------------------------------------

    def _respond(
        self, conn: _Conn, status: Status, value: int = 0, blob: bytes = b"", fd: int = -1
    ):
        reply = wire.encode_response(status, value, blob)
        try:
            if fd < 0:
                conn.sock.sendall(reply)
            else:
                socket.send_fds(conn.sock, [reply], [fd])
        except OSError:
            self._drop_conn(conn)

    def _handle_request(self, conn: _Conn, op: int, oid: bytes, arg: int) -> None:
        blob = b""
        if op == wire.Op.CREATE:
            status = self.state.create(conn, oid, arg)
        elif op == wire.Op.SEAL:
            status = self.state.seal(conn, oid, arg)
        elif op == wire.Op.GET:
            status, value = self.state.get(conn, oid)
        elif op == wire.Op.RELEASE:
            status = self.state.release(conn, oid, unmapped=arg == 1)
        elif op == wire.Op.STATS:
            status, blob = Status.OK, json.dumps(self.state.stats()).encode()
        else:
            status = Status.BAD_REQUEST
        # Every dead object's segment goes into the reuse pool, before a
        # create takes one.  Contents are not scrubbed; a recycled segment
        # may hand back stale bytes in regions the new creator never
        # writes: the padding between a payload's segments, which its
        # decoder never reads.
        for dead in self.state.take_dead():
            self._pool.append(self._segments.pop(dead))
        if status is not Status.OK:
            self._respond(conn, status)
        elif op == wire.Op.GET:
            self._respond(conn, status, value, fd=self._segments[oid][1])
        elif op == wire.Op.CREATE:
            try:
                fd = self._segment(arg)
            except OSError as exc:
                # Out of memory or descriptors: refuse it as a full store.
                log.warning("no %d-byte segment: %s", arg, exc)
                self.state.drop(oid)
                self._respond(conn, Status.STORE_FULL)
                return
            self._segments[oid] = (arg, fd)
            self._trim_pool()
            self._respond(conn, status, arg, fd=fd)
        else:
            self._respond(conn, status, blob=blob)

    def _drop_conn(self, conn: _Conn) -> None:
        if conn.sock not in self._conns:
            return
        del self._conns[conn.sock]
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        conn.inbuf.clear()  # serve nothing more for an ended session
        # Its unsealed objects' segments are pooled at the next request.
        self.state.end(conn)

    # -- the loop ------------------------------------------------------------

    def run(self) -> None:
        log.info(
            "store daemon serving %s (capacity %d bytes)",
            self.socket_path,
            self.state.capacity_bytes,
        )
        try:
            while not self._stopping:
                for key, _mask in self._selector.select():
                    if key.data == "wake":
                        self._wake_r.recv(4096)
                    elif key.data == "listener":
                        sock, _ = self._listener.accept()
                        conn = _Conn(sock)
                        self._conns[sock] = conn
                        self._selector.register(sock, selectors.EVENT_READ, conn)
                    else:
                        self._service(key.data)
        finally:
            self._cleanup()

    def _service(self, conn: _Conn) -> None:
        try:
            chunk = conn.sock.recv(65536)
        except OSError:
            chunk = b""
        if not chunk:
            self._drop_conn(conn)
            return
        conn.inbuf += chunk
        while len(conn.inbuf) >= wire.REQUEST_BYTES:
            raw = bytes(conn.inbuf[: wire.REQUEST_BYTES])
            del conn.inbuf[: wire.REQUEST_BYTES]
            try:
                op, oid, arg = wire.decode_request(raw)
            except wire.WireFormatError:
                self._respond(conn, Status.BAD_REQUEST)
                continue
            self._handle_request(conn, op, oid, arg)

    def _cleanup(self) -> None:
        for conn in list(self._conns.values()):
            self._drop_conn(conn)
        self._selector.close()
        self._listener.close()
        self._wake_r.close()
        self._wake_w.close()
        self.socket_path.unlink(missing_ok=True)
        for _, fd in [*self._segments.values(), *self._pool]:
            os.close(fd)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "StoreDaemon":
        self._thread = threading.Thread(target=self.run, name="store-daemon", daemon=True)
        self._thread.start()
        return self

    def request_stop(self) -> None:
        self._stopping = True
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass

    def stop(self) -> None:
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hprm-store", description="shared-memory object store daemon"
    )
    parser.add_argument("--socket", required=True, help="control socket path")
    parser.add_argument("--capacity-bytes", type=int, default=DEFAULT_CAPACITY)
    parser.add_argument("--log-level", default="INFO")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=args.log_level.upper(),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    daemon = StoreDaemon(args.socket, args.capacity_bytes)
    signal.signal(signal.SIGTERM, lambda *_: daemon.request_stop())
    signal.signal(signal.SIGINT, lambda *_: daemon.request_stop())
    daemon.run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
