"""The object-store daemon.

One single-threaded event loop owns everything: the lifecycle state, the
objects' memory, and the control socket.  Clients talk over a unix
stream socket with the :mod:`hprm.store.wire` codec; the daemon never
touches object bytes.

Each object is an anonymous ``memfd`` segment whose descriptor rides on
the CREATE or GET reply.  No file is named, so a daemon that dies, even
by SIGKILL, leaves nothing behind but its socket path.  Dead objects'
segments go into a reuse pool, oldest closed first, whose bytes never
exceed the free bytes, so live plus pooled memory stays within capacity.
A create takes a pooled segment of the same page count, if there is
one: its pages are already faulted in, which skips the kernel's
zero-fill.

Pins protect readers: only sealed objects with zero references are ever
evicted.  A mapping kept past its release stays valid and may observe
recycled contents.  It never faults: a recycled segment keeps its page
count, so every page a mapping covers stays inside the segment.

GET requests for objects that are unknown or not yet sealed are parked
until the object is sealed or the request's deadline passes, so a reader
may ask for an object slightly before its writer finishes.

A connection that drops is cleaned up: pins it still held are released
and unsealed objects it created are deleted, so a crashed client cannot
leak references or half-written objects.
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
import time
from pathlib import Path

from hprm.store import wire
from hprm.store.state import Status, StoreState

log = logging.getLogger(__name__)

DEFAULT_CAPACITY = 1 << 30
_PAGE = os.sysconf("SC_PAGE_SIZE")


class _Conn:
    __slots__ = ("sock", "inbuf", "refs", "creating")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.refs: dict[bytes, int] = {}
        self.creating: set[bytes] = set()


class _Parked:
    __slots__ = ("oid", "conn", "deadline_ns")

    def __init__(self, oid: bytes, conn: _Conn, deadline_ns: int):
        self.oid = oid
        self.conn = conn
        self.deadline_ns = deadline_ns


class StoreDaemon:
    def __init__(
        self,
        socket_path: str | Path,
        capacity_bytes: int = DEFAULT_CAPACITY,
        *,
        directory: str | Path | None = None,
        eviction_fraction: float = 0.2,
    ):
        # ``directory`` is ignored (segments are anonymous); perfbench still passes it.
        self.socket_path = Path(socket_path)
        self.state = StoreState(capacity_bytes, eviction_fraction=eviction_fraction)
        self.socket_path.unlink(missing_ok=True)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(str(self.socket_path))
        self._listener.listen(64)
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "listener")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._conns: dict[socket.socket, _Conn] = {}
        self._parked: list[_Parked] = []
        self._segments: dict[bytes, tuple[int, int]] = {}  # oid -> (size, fd)
        self._pool: list[tuple[int, int]] = []  # (size, fd), oldest first
        self._stopping = False
        self._thread: threading.Thread | None = None

    # -- segments ----------------------------------------------------------

    def _segment(self, size: int) -> int:
        """A descriptor of ``size`` bytes: the oldest pooled segment of
        the same page count, else a new memfd.  Shrinking a larger one
        would make a mapping kept past its release fault (SIGBUS) on the
        pages cut off."""
        pages = -(-size // _PAGE)
        match = next((e for e in self._pool if -(-e[0] // _PAGE) == pages), None)
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

    def _retire(self, oids) -> None:
        """Move dead objects' segments into the reuse pool.

        Contents are not scrubbed; a recycled segment may hand back stale
        bytes in regions the new creator never writes, which the span
        layout never reads."""
        self._pool.extend(self._segments.pop(oid) for oid in oids)

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

    def _grant(self, conn: _Conn, oid: bytes, size: int) -> None:
        """Reply to a GET that pinned ``oid``."""
        conn.refs[oid] = conn.refs.get(oid, 0) + 1
        self._respond(conn, Status.OK, size, fd=self._segments[oid][1])

    def _handle_request(self, conn: _Conn, op: int, oid: bytes, arg: int) -> None:
        if op == wire.Op.CREATE:
            result = self.state.create(oid, arg)
            self._retire(result.evicted)
            if result.status is not Status.OK:
                self._respond(conn, result.status)
                return
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
            conn.creating.add(oid)
            self._respond(conn, Status.OK, arg, fd=fd)
        elif op == wire.Op.SEAL:
            status = self.state.seal(oid)
            if status is Status.OK:
                conn.creating.discard(oid)
                self._wake_parked(oid)
            self._respond(conn, status)
        elif op == wire.Op.GET:
            status, size = self.state.get(oid)
            if status is Status.OK:
                self._grant(conn, oid, size)
            else:
                deadline = time.monotonic_ns() + arg
                self._parked.append(_Parked(oid, conn, deadline))
        elif op == wire.Op.RELEASE:
            status = self.state.release(oid)
            if status is Status.OK:
                left = conn.refs.get(oid, 0) - 1
                if left > 0:
                    conn.refs[oid] = left
                else:
                    conn.refs.pop(oid, None)
            self._respond(conn, status)
        elif op == wire.Op.STATS:
            blob = json.dumps(self.state.stats()).encode()
            self._respond(conn, Status.OK, 0, blob)
        else:
            self._respond(conn, Status.BAD_REQUEST)

    def _wake_parked(self, oid: bytes) -> None:
        still_parked = []
        for p in self._parked:
            if p.oid != oid:
                still_parked.append(p)
                continue
            status, size = self.state.get(oid)
            if status is Status.OK:
                self._grant(p.conn, oid, size)
            else:
                self._respond(p.conn, Status(status))
        # _respond may have dropped a connection (and pruned its parked
        # entries); keep only entries whose connection is still live.
        self._parked = [p for p in still_parked if p.conn.sock in self._conns]

    def _expire_parked(self, now_ns: int) -> None:
        still_parked = []
        for p in self._parked:
            if now_ns >= p.deadline_ns:
                self._respond(p.conn, Status.TIMEOUT)
            else:
                still_parked.append(p)
        self._parked = [p for p in still_parked if p.conn.sock in self._conns]

    def _drop_conn(self, conn: _Conn) -> None:
        if conn.sock not in self._conns:
            return
        del self._conns[conn.sock]
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        self._parked = [p for p in self._parked if p.conn is not conn]
        for oid, count in conn.refs.items():
            for _ in range(count):
                self.state.release(oid)
        for oid in conn.creating:
            if self.state.drop(oid) is Status.OK:
                self._retire([oid])
        log.debug("dropped client; released %d pin group(s)", len(conn.refs))

    # -- the loop ------------------------------------------------------------

    def _loop_timeout(self) -> float | None:
        if not self._parked:
            return None
        now = time.monotonic_ns()
        soonest = min(p.deadline_ns for p in self._parked)
        return max(0.0, (soonest - now) / 1e9)

    def run(self) -> None:
        log.info(
            "store daemon serving %s (capacity %d bytes)",
            self.socket_path,
            self.state.capacity_bytes,
        )
        try:
            while not self._stopping:
                events = self._selector.select(self._loop_timeout())
                self._expire_parked(time.monotonic_ns())
                for key, _mask in events:
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
    parser.add_argument("--eviction-fraction", type=float, default=0.2)
    parser.add_argument("--log-level", default="INFO")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=args.log_level.upper(),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    daemon = StoreDaemon(
        args.socket,
        args.capacity_bytes,
        eviction_fraction=args.eviction_fraction,
    )
    signal.signal(signal.SIGTERM, lambda *_: daemon.request_stop())
    signal.signal(signal.SIGINT, lambda *_: daemon.request_stop())
    daemon.run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
